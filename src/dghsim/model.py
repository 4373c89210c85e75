"""Two-component dispersive shallow-water dynamics in convolution form.

The state is a velocity field u and a density field rho on the periodic
unit interval, evolving as

    du/dt   = -(u - gamma) u_x - (G*)'( u^2 + u_x^2/2 + (gamma - A) u + rho^2/2 )
    drho/dt = -(u rho)_x

where A > 0 is the linear-shear strength and gamma the dispersion speed.
All products are dealiased (formed on a finer grid, projected back), so
the semi-discrete flow conserves integral(u^2 + u_x^2 + rho^2) and
integral(u) exactly; observed drift measures the time integrator alone.

The right-hand side works on Fourier coefficients, the state the time
integrator carries: zero-padding of the coefficients of u, u_x and rho,
one batched inverse transform to 3n/2 points, the three products, one
batched forward transform at 3n/2, and truncation back to the n-point
band -- two transforms in all.  The products are quadratic, so 3n/2
points alias nothing into the band they keep (Orszag's 3/2 rule).  Only
the folded Nyquist mode of a product picks up a Nyquist-times-Nyquist
term.  (G*)' and d/dx vanish there, so only the Nyquist mode of u u_x is
read, and folded, and u_x has no Nyquist mode, so u u_x has no such
term.  The linear symbol gamma ik - (gamma - A)(G*)' is built once per
buffer, not once per right-hand side.

rhs_coeffs takes a leading member axis: several runs on one grid, each
with its own A and gamma, share each transform call, one row block per
member, and every member's arithmetic is the one it gets alone.  The
parameters reach it only through its buffer.  rhs_buffer(grid, params)
builds everything a right-hand side reads besides the coefficients: the
symbols, one row per ModelParams, the linear one from that member's
parameters and the others tiled, so that their products pair arrays of
one shape, and the work arrays, the pad buffer, the samples at 3n/2
points and their products.  A caller builds one buffer for its members
and passes it to every right-hand side it takes for them.

A State is the one container of (grid, u, rho) as float sample arrays.
energy_e0 takes the arrays themselves, plus the slope u_x, which the
caller computes once and shares; hamiltonian_e is read off E0 and rho,
so a caller that has taken E0 does not take it again.  The one cubic
invariant, hamiltonian_f, takes the coefficients of (u, u_x, rho), which
the integrator holds, and pads them to a 2n grid with one inverse
transform and no forward one; it takes A and gamma as floats, or as
columns with one entry per row, which a caller builds once for its
rows, as it builds rhs_buffer.  Like rhs_coeffs, the invariants take a
leading member axis and reduce over the last axis only: given one row
they return a float, given a stack of rows an array with each row's
float, bit for bit, so the integrator evaluates a group of runs with one
expression, one reduction and, for the cubic one, one transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ConfigError, PeriodicGrid

__all__ = [
    "NonFiniteFieldError",
    "ModelParams",
    "State",
    "rhs_buffer",
    "rhs_coeffs",
    "rhs_values",
    "energy_e0",
    "mean_u",
    "hamiltonian_e",
    "hamiltonian_f",
]


class NonFiniteFieldError(ValueError):
    """A state holds non-finite samples."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: shear strength A and dispersion speed gamma."""

    A: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma):
            raise ConfigError(f"gamma must be finite, got {self.gamma}", "gamma")
        # written as not (inside) so that NaN fails
        if not 0.0 < self.A < np.inf:
            raise ConfigError(
                f"shear strength A must be positive and finite, got A={self.A}", "A"
            )


@dataclass(frozen=True)
class State:
    """Velocity and density samples on one grid; both finite, n samples each."""

    grid: PeriodicGrid
    u: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        for name in ("u", "rho"):
            v = np.ascontiguousarray(getattr(self, name), dtype=float)
            if v.shape != (self.grid.n,):
                raise ValueError(
                    f"{name}: expected {self.grid.n} samples, got shape {v.shape}"
                )
            if not np.isfinite(v).all():
                raise NonFiniteFieldError("field samples must be finite")
            object.__setattr__(self, name, v)


def rhs_buffer(
    grid: PeriodicGrid, params: tuple[ModelParams, ...]
) -> tuple[np.ndarray, ...]:
    """Everything rhs_coeffs reads on this grid besides the coefficients,
    with one row block per ModelParams in params, one per member.

    First the symbols, each of shape (members, n/2 + 1): the linear symbol
    gamma ik - (gamma - A)(G*)' of du/dt, each row from its own member's
    parameters, and the symbol -(G*)'/2 of the doubled convolution
    argument, -ik and ik, each tiled to the same rows, so that a product
    of a symbol with a member-major array pairs arrays of one shape, which
    numpy loops over without broadcasting.  Then the work arrays: the pad
    buffer, zero-filled, of shape (members, 3, 3n/4 + 1), which holds the
    coefficients of (u, u_x, rho) zero-filled to 3n/2 points; their
    samples and the three products at 3n/2 points; and the products'
    coefficients.
    """
    members = len(params)
    m = 3 * grid.n // 2
    symbols = np.empty((4, members, grid.n // 2 + 1), dtype=complex)
    for lin, p in zip(symbols[0], params):
        np.subtract(p.gamma * grid.ik, (p.gamma - p.A) * grid.dgreen_symbol, out=lin)
    symbols[1:] = np.array((-0.5 * grid.dgreen_symbol, -grid.ik, grid.ik))[:, None]
    return (
        *symbols,
        np.zeros((members, 3, m // 2 + 1), dtype=complex),
        np.empty((members, 3, m)),
        np.empty((members, 3, m)),
        np.empty((members, 3, m // 2 + 1), dtype=complex),
    )


def rhs_coeffs(
    c: np.ndarray,
    grid: PeriodicGrid,
    buffer: tuple[np.ndarray, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Time derivative of the coefficients c = rfft((u, rho), norm="forward").

    c and the result have shape (members, 2, n/2 + 1); one member keeps
    its axis.  buffer holds the arrays of rhs_buffer(grid, params), with
    params one ModelParams per member, as many as c has rows, and the
    caller passes it to every call for those members.  Each member is
    evaluated by itself, with its own parameters, through the same batched
    transforms, so a member's derivative is bit for bit the one it gets
    alone.  In "forward" normalisation c_k is the amplitude of
    e^{2 pi i k x}, so padding to 3n/2 and truncating back need no
    rescaling: the Nyquist mode is split in half on the way up, as in
    pad_values.  On the way down only the u u_x product has its Nyquist
    mode read, so only it is folded (doubled real part), as in
    project_values; (G*)' and d/dx vanish on the other two.

    A call writes only the first n/2 + 1 columns of the pad buffer, so the
    zeros above them stay, and overwrites the other work arrays whole, so
    the result never depends on what an earlier call left there.  out, if
    given, receives the result, which is then returned.
    """
    n = grid.n
    half = n // 2
    lin, neg_half_dgreen, neg_ik, ik, padded, fine, prods, spectra = buffer
    if out is None:
        out = np.empty(c.shape, dtype=complex)

    padded[:, ::2, : half + 1] = c  # u and rho; u_x is row 1
    np.multiply(ik, c[:, 0], out=padded[:, 1, : half + 1])
    # split the Nyquist mode of every row, in one pass down the contiguous
    # buffer; u_x has none, and halving its zero changes no bit
    padded.reshape(-1)[half :: padded.shape[-1]] *= 0.5
    np.fft.irfft(padded, 3 * n // 2, norm="forward", out=fine)

    # 2 u^2 + u_x^2 + rho^2 (twice the convolution argument), u u_x, u rho
    np.multiply(fine[:, :1], fine, out=prods)
    np.multiply(fine, fine, out=fine)
    prods[:, 0] += np.add.reduce(fine, axis=1)
    np.fft.rfft(prods, norm="forward", out=spectra)
    fold = spectra[:, 1, half]
    fold[:] = 2.0 * fold.real

    du = out[:, 0]
    np.multiply(lin, c[:, 0], out=du)
    du -= spectra[:, 1, : half + 1]
    du += neg_half_dgreen * spectra[:, 0, : half + 1]
    np.multiply(neg_ik, spectra[:, 2, : half + 1], out=out[:, 1])
    return out


def rhs_values(
    u: np.ndarray, rho: np.ndarray, grid: PeriodicGrid, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (u, rho) as sample arrays: rhs_coeffs between
    one forward and one inverse transform."""
    c = np.fft.rfft(np.stack((u, rho)), norm="forward")
    dc = rhs_coeffs(c[None], grid, rhs_buffer(grid, (p,)))[0]
    du, drho = np.fft.irfft(dc, grid.n, norm="forward")
    return du, drho


def _mean(v: np.ndarray) -> np.ndarray | float:
    """The mean over the last axis of v, summed and divided as np.mean
    does, bit for bit, without its Python overhead; a float for 1-D v.
    numpy sums each contiguous row pairwise, as it sums a 1-D array, so a
    row of a stack gets the float it gets alone."""
    m = np.add.reduce(v, axis=-1) / v.shape[-1]
    return m if v.ndim > 1 else float(m)


def energy_e0(u: np.ndarray, ux: np.ndarray, rho: np.ndarray) -> np.ndarray | float:
    """integral(u^2 + u_x^2 + rho^2), conserved along smooth evolutions,
    for each row of samples of shape (..., n): one expression and one
    reduction however many rows."""
    return _mean(u * u + ux * ux + rho * rho)


def mean_u(u: np.ndarray) -> np.ndarray | float:
    """integral(u) of each row, conserved exactly; summed and divided as
    energy_e0 is."""
    return _mean(u)


def hamiltonian_e(e0: np.ndarray | float, rho: np.ndarray) -> np.ndarray | float:
    """(1/2) integral(u^2 + u_x^2 + (rho - 1)^2) = (E0 - 2 integral(rho) + 1)/2
    from e0 = energy_e0(u, u_x, rho) and the density samples rho, row by
    row."""
    return 0.5 * (e0 - 2.0 * _mean(rho) + 1.0)


def hamiltonian_f(
    c: np.ndarray, A: np.ndarray | float, gamma: np.ndarray | float
) -> np.ndarray | float:
    """Cubic invariant from the coefficients c = rfft((u, u_x, rho),
    norm="forward"), shape (..., 3, n/2 + 1), evaluated on a 2n grid so
    the products are exact: one inverse transform of every row and no
    forward one.  A and gamma are the parameters, floats for one row or
    columns of one entry per row, shape c.shape[:-2] + (1,), which the
    caller builds once for its rows; a row then gets the bits of its own
    call.

    (1/2) integral(u^3 + u u_x^2 - A u^2 - gamma u_x^2 + 2 u (rho-1)
                   + u (rho-1)^2)

    The integrand is regrouped as u (u (u - A) + u_x^2 + rho^2 - 1)
    - gamma u_x^2, since 2 (rho - 1) + (rho - 1)^2 = rho^2 - 1.
    """
    half = c.shape[-1] - 1
    padded = np.zeros(c.shape[:-1] + (2 * half + 1,), dtype=complex)
    padded[..., : half + 1] = c
    padded[..., half] *= 0.5
    samples = np.fft.irfft(padded, 4 * half, norm="forward")
    uf, uxf, rf = (samples[..., i, :] for i in range(3))
    ux2 = uxf * uxf
    integrand = uf * (uf * (uf - A) + ux2 + rf * rf - 1.0) - gamma * ux2
    return 0.5 * _mean(integrand)
