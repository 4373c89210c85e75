"""Shared test references: finite differences, dense-grid extrema,
trig-polynomial builders, the breaking wave's data, a run's outcome as
criteria names it, the physical-space reference forms of the spectral
kernels used across the suite, and the reference CSV formatter.
The quadrature convolution lives in dghsim.oracles, which the selftest
shares."""

import math
from fractions import Fraction

import numpy as np

from dghsim.criteria import evaluate_criteria, name_outcome
from dghsim.grid import PeriodicGrid, interp_values, pad_values, project_values
from dghsim.model import ModelParams
from dghsim.scenarios import build_initial_data, solve_blowup_amplitude


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


def breaking_wave(n):
    """configs/breaking_wave.cfg's initial state on n points (blowup31,
    b = 1, margin 1.05, the amplitude solved at n) and its ModelParams."""
    p = ModelParams(A=1.0, gamma=0.0)
    a = solve_blowup_amplitude(b=1.0, margin=1.05, model=p, n=n)
    return build_initial_data("blowup31", {"a": a, "b": 1.0}, PeriodicGrid(n)), p


def outcome(s0, p, res):
    """The (cause, fault) that criteria.name_outcome gives the run res of
    the initial state s0 under p."""
    report = evaluate_criteria(s0.u, s0.rho, p)
    return name_outcome(report, res.termination.cause, res.termination.t, res.slope_trace.m)


def dealiased_product(f, g):
    """Product of two n-sample arrays formed on a 2n grid, projected back
    to the n-point band."""
    n = np.shape(f)[-1]
    return project_values(pad_values(f, 2 * n) * pad_values(g, 2 * n), n)


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


def pad_buffer(c):
    """The zero-filled pad buffer that model.hamiltonian_f takes for the
    coefficients c of (u, u_x, rho), shape (..., 3, n/2 + 1)."""
    return np.zeros((3, *c.shape[:-2], 2 * c.shape[-1] - 1), dtype=complex)


def hamiltonian_f_padded_reference(u, ux, rho, p):
    """Cubic invariant with each field padded to 2n in physical space and
    the integrand summed term by term, with its term-wise magnitude."""
    m = 2 * np.shape(u)[-1]
    uf, uxf, rf = pad_values(u, m), pad_values(ux, m), pad_values(rho, m) - 1.0
    terms = (uf**3, uf * uxf**2, -p.A * uf**2, -p.gamma * uxf**2, 2.0 * uf * rf, uf * rf**2)
    value = 0.5 * float(np.mean(sum(terms)))
    scale = 0.5 * float(np.mean(sum(np.abs(t) for t in terms)))
    return value, scale


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


def trig_sum_exact(c, x):
    """2 Re sum_k w_k c_k e^{2 pi i k x} for one row of rfft coefficients c
    (w_k = 1/2 at the mean and Nyquist entries), each phase k x reduced to
    one turn in exact rational arithmetic and the terms added by math.fsum:
    accurate to a few ulps of each term, whatever k and |x|."""
    half = len(c) - 1
    x = Fraction(float(x))
    terms = []
    for k, ck in enumerate(c):
        phase = 2.0 * math.pi * float(k * x % 1)
        w = 1.0 if k in (0, half) else 2.0
        terms += [w * ck.real * math.cos(phase), -w * ck.imag * math.sin(phase)]
    return math.fsum(terms)


def csv_text_reference(header, rows):
    """The text of a CSV artifact formatted value by value: one line per
    row, each value as repr(float(v)), joined by commas."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
