"""Shared numerical oracles: quadrature convolutions, finite differences,
dense-grid extrema, trig-polynomial builders, and the physical-space
reference forms of the spectral kernels used across the suite."""

import numpy as np

from dghsim.grid import PeriodicGrid, interp_values, pad_values, project_values


def kernel_quadrature(values, grid, kernel_fn, m=8192):
    """Convolve by direct fine-grid quadrature against a sampled kernel.

    The input samples are band-limited, so interpolating them onto the fine
    grid is exact; the quadrature error is then set by the kernel's corner,
    O(1/m^2) for the even kernel and its (midpoint-valued) derivative.
    """
    y = np.arange(m) / m
    vy = interp_values(np.asarray(values, dtype=float), y)
    gram = kernel_fn((grid.nodes[:, None] - y[None, :]))
    return gram @ vy / m


def fd_derivative(values, dx, order):
    """Eighth-order centered periodic finite differences, orders 1 and 2."""
    v = np.asarray(values, dtype=float)
    if order == 1:
        w = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
        out = np.zeros_like(v)
        for j, c in enumerate(w, start=1):
            out += c * (np.roll(v, -j) - np.roll(v, j))
        return out / dx
    if order == 2:
        center = -205.0 / 72.0
        w = (8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)
        out = center * v
        for j, c in enumerate(w, start=1):
            out += c * (np.roll(v, -j) + np.roll(v, j))
        return out / dx**2
    raise ValueError(f"unsupported order {order}")


def dense_extremum(values, factor=16, sign=1.0):
    """Min (sign=+1) or max (sign=-1) of the trig interpolant on a finer grid."""
    n = len(values)
    xs = np.arange(factor * n) / (factor * n)
    fine = sign * interp_values(np.asarray(values, dtype=float), xs)
    i = int(np.argmin(fine))
    return sign * fine[i], xs[i]


def trig_poly(grid: PeriodicGrid, mean, cos_c=(), sin_c=()):
    x = grid.nodes
    v = np.full(grid.n, float(mean))
    for k, c in enumerate(cos_c, start=1):
        v += c * np.cos(2.0 * np.pi * k * x)
    for k, c in enumerate(sin_c, start=1):
        v += c * np.sin(2.0 * np.pi * k * x)
    return v


def rhs_padded_reference(u, rho, grid, p):
    """Right-hand side with every product padded to 2n, multiplied and
    projected back through physical space, one field at a time."""
    n = grid.n
    m = 2 * n
    cu = np.fft.rfft(u)
    ux = np.fft.irfft(grid.ik * cu, n)
    uf, uxf, rf = pad_values(u, m), pad_values(ux, m), pad_values(rho, m)
    quad = project_values(uf * uf + 0.5 * uxf * uxf + 0.5 * rf * rf, n)
    c_arg = np.fft.rfft(quad) + (p.gamma - p.A) * cu
    conv = np.fft.irfft(grid.dgreen_symbol * c_arg, n)
    du = -project_values(uf * uxf, n) + p.gamma * ux - conv
    c_urho = np.fft.rfft(project_values(uf * rf, n))
    drho = -np.fft.irfft(grid.ik * c_urho, n)
    return du, drho


def interp_exp_reference(values, xs):
    """Trig interpolant of one field at xs, one complex exponential per
    (point, mode) pair."""
    v = np.asarray(values, dtype=float)
    n = v.size
    c = np.fft.rfft(v) / n
    k = np.arange(1, n // 2)
    phases = np.exp((2j * np.pi) * np.asarray(xs, dtype=float)[..., None] * k)
    out = c[0].real + 2.0 * (phases @ c[1 : n // 2]).real
    return out + c[n // 2].real * np.cos(np.pi * n * np.asarray(xs))
