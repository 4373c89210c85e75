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
grid and the parameters reach it only through its buffer, and its
result goes into an array the caller passes.  A RhsBuffer(grid, params)
holds as named fields everything a right-hand side reads besides the
coefficients: the symbols, one row per ModelParams, the linear one from
that member's parameters and the others tiled, so that their products
pair arrays of one shape; the work arrays, the pad buffer, the samples
at 3n/2 points, their products and the products' coefficients; and
every view of these that a call reads.  A caller builds one buffer for
its members and passes it to every right-hand side it takes for them,
and each call writes every step into the buffer or into its result with
out=, so it makes no view of the buffer and no temporary, and
overwrites what the previous call left there.

A State is the one container of (u, rho) as float sample arrays; its
grid is PeriodicGrid(u.size).
energy_e0 takes a stack of any number of field rows, in a run those of
u, the slope u_x, which the caller computes once and shares, and rho,
and squares it with one call, into work arrays a caller may build once;
hamiltonian_e is read off E0 and rho, so a caller that has taken E0
does not take it again.  The one cubic invariant, hamiltonian_f, takes
the coefficients of (u, u_x, rho), which the integrator holds, and pads
them to a 2n grid, in a pad buffer the caller builds once, with one
inverse transform and no forward one; it takes A and gamma as floats,
or as columns with one entry per row, which a caller builds once for
its rows, as it builds its RhsBuffer.  Like rhs_coeffs, the invariants
take a leading member axis and reduce over the last axis only: given
one row they return a float, given a stack of rows an array with each
row's float, bit for bit, so the integrator evaluates a group of runs
with one expression, one reduction and, for the cubic one, one
transform.

rhs_values, the one-row sample-array form of rhs_coeffs, is a reference
for the tests and the benchmark; no module calls it, and it is not
exported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ConfigError, PeriodicGrid

__all__ = [
    "NonFiniteFieldError",
    "ModelParams",
    "State",
    "RhsBuffer",
    "rhs_coeffs",
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
    """Velocity and density samples on the grid PeriodicGrid(u.size): two
    finite 1-D float arrays of one length."""

    u: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        u = np.ascontiguousarray(self.u, dtype=float)
        rho = np.ascontiguousarray(self.rho, dtype=float)
        if u.ndim != 1 or rho.shape != u.shape:
            raise ValueError(
                f"u and rho must be 1-D of one length, got shapes {u.shape}, {rho.shape}"
            )
        PeriodicGrid(u.size)  # validates the sample count
        if not (np.isfinite(u).all() and np.isfinite(rho).all()):
            raise NonFiniteFieldError("field samples must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "rho", rho)


class RhsBuffer:
    """Everything rhs_coeffs reads on one grid besides the coefficients,
    for the members with the ModelParams in params, one per member, with
    one row block per member, as named fields, each array and view built
    here, so that a call makes no view of them and allocates nothing.

    First the symbols, each of shape (members, n/2 + 1): lin, the linear
    symbol gamma ik - (gamma - A)(G*)' of du/dt, each row from its own
    member's parameters, and neg_half_dgreen, the symbol -(G*)'/2 of the
    doubled convolution argument, neg_ik and ik, each tiled to the same
    rows, so that a product of a symbol with a member-major array pairs
    arrays of one shape, which numpy loops over without broadcasting;
    and split, the row (1, .., 1, 1/2) over the float pairs of n/2 + 1
    coefficients, whose product with c copies it and halves its Nyquist
    entries.  Then the work arrays, each with the views a call reads, and
    each row-major, the row axis ahead of the member axis, so that a row
    of every member is one contiguous block: padded, the pad buffer,
    zero-filled, of shape (3, members, 3n/4 + 1), which holds the
    coefficients of (u, u_x, rho) zero-filled to 3n/2 points, with the
    member-major float view pad_u_rho of the u and rho rows' first
    n/2 + 1 entries and the views pad_u and pad_ux; fine, their samples at
    3n/2 points, with the rows fine_u, fine_ux and fine_rho; prods, the
    three products, with the rows conv_arg, prod_ux and prod_rho;
    row_sum, which sums the squared rows; spectra, the products'
    coefficients, with the views conv, flux_u and flux_rho of their first
    n/2 + 1 entries and the real and imaginary parts fold_re and fold_im
    of the Nyquist entry of flux_u; and conv_term, the convolution's term
    of du/dt.
    """

    def __init__(self, grid: PeriodicGrid, params: tuple[ModelParams, ...]) -> None:
        members = len(params)
        half = grid.n // 2
        m = 3 * grid.n // 2
        symbols = np.empty((4, members, half + 1), dtype=complex)
        for lin, p in zip(symbols[0], params):
            np.subtract(p.gamma * grid.ik, (p.gamma - p.A) * grid.dgreen_symbol, out=lin)
        symbols[1:] = np.array((-0.5 * grid.dgreen_symbol, -grid.ik, grid.ik))[:, None]
        self.lin, self.neg_half_dgreen, self.neg_ik, self.ik = symbols
        self.split = np.ones(2 * half + 2)
        self.split[-2:] = 0.5
        # a row of every member is one contiguous block, which numpy loops
        # over as one 1-D array, not member by member
        self.padded = np.zeros((3, members, m // 2 + 1), dtype=complex)
        self.pad_u_rho = self.padded.view(float)[::2, :, : 2 * half + 2].transpose(1, 0, 2)
        self.pad_u, self.pad_ux, _ = self.padded[:, :, : half + 1]
        self.fine, self.prods = np.empty((2, 3, members, m))
        self.fine_u, self.fine_ux, self.fine_rho = self.fine
        self.conv_arg, self.prod_ux, self.prod_rho = self.prods
        self.row_sum = np.empty((members, m))
        self.spectra = np.empty((3, members, m // 2 + 1), dtype=complex)
        self.conv, self.flux_u, self.flux_rho = self.spectra[:, :, : half + 1]
        fold = self.spectra[1, :, half]
        self.fold_re, self.fold_im = fold.real, fold.imag
        self.conv_term = np.empty((members, half + 1), dtype=complex)


def rhs_coeffs(c: np.ndarray, buffer: RhsBuffer, out: np.ndarray) -> np.ndarray:
    """Time derivative of the coefficients c = rfft((u, rho), norm="forward").

    c and the result have shape (members, 2, n/2 + 1), c contiguous in
    its last axis; one member keeps its axis.  buffer is a RhsBuffer(grid,
    params) on the grid of c, whose 3n/2 points its work arrays fix, with
    params one ModelParams per member, as many as c has rows, and the
    caller passes it to every call for those members.  Each
    member is evaluated by itself, with its own parameters, through the
    same batched transforms, so a member's derivative is bit for bit the
    one it gets alone.  In "forward" normalisation c_k is the amplitude of
    e^{2 pi i k x}, so padding to 3n/2 and truncating back need no
    rescaling: the Nyquist mode is split in half on the way up, as in
    pad_values.  On the way down only the u u_x product has its Nyquist
    mode read, so only it is folded (doubled real part), as in
    project_values; (G*)' and d/dx vanish on the other two.

    A call writes only the first n/2 + 1 columns of the pad buffer, so the
    zeros above them stay, and overwrites the other work arrays whole, so
    the result never depends on what an earlier call left there.  Every
    step writes into the buffer through out=, in the order of operations
    of the expressions it stands for, so a call makes no view of the
    buffer, only four of c and out, and allocates nothing.  out, of the
    shape of c, receives the result, which is then returned.
    """
    b = buffer

    # u and rho with their Nyquist modes split, then u_x, whose Nyquist
    # symbol is zero
    np.multiply(c.view(float), b.split, out=b.pad_u_rho)
    np.multiply(b.ik, b.pad_u, out=b.pad_ux)
    np.fft.irfft(b.padded, b.fine.shape[-1], norm="forward", out=b.fine)

    # u u_x, u rho, then 2 u^2 + u_x^2 + rho^2 (twice the convolution
    # argument) summed as u^2 + ((u^2 + u_x^2) + rho^2)
    np.multiply(b.fine_u, b.fine_ux, out=b.prod_ux)
    np.multiply(b.fine_u, b.fine_rho, out=b.prod_rho)
    np.multiply(b.fine, b.fine, out=b.fine)
    np.add(b.fine_u, b.fine_ux, out=b.row_sum)
    np.add(b.row_sum, b.fine_rho, out=b.row_sum)
    np.add(b.fine_u, b.row_sum, out=b.conv_arg)
    np.fft.rfft(b.prods, norm="forward", out=b.spectra)
    # fold: the real part doubled, as x + x, and the imaginary part zeroed
    np.add(b.fold_re, b.fold_re, out=b.fold_re)
    b.fold_im.fill(0.0)

    du, drho = out[:, 0], out[:, 1]
    np.multiply(b.lin, c[:, 0], out=du)
    np.subtract(du, b.flux_u, out=du)
    np.multiply(b.neg_half_dgreen, b.conv, out=b.conv_term)
    np.add(du, b.conv_term, out=du)
    np.multiply(b.neg_ik, b.flux_rho, out=drho)
    return out


def rhs_values(
    u: np.ndarray, rho: np.ndarray, grid: PeriodicGrid, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (u, rho) as sample arrays: rhs_coeffs between
    one forward and one inverse transform."""
    c = np.fft.rfft(np.stack((u, rho))[None], norm="forward")
    dc = rhs_coeffs(c, RhsBuffer(grid, (p,)), np.empty_like(c))[0]
    du, drho = np.fft.irfft(dc, grid.n, norm="forward")
    return du, drho


def energy_e0(
    fields: np.ndarray,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray | float:
    """The integral of the sum of the squares of any number of field rows,
    stacked in fields, shape (..., rows, n): a float for one stack, an
    array with each stack's float otherwise.  Of the rows (u, u_x, rho) it
    is E0 = integral(u^2 + u_x^2 + rho^2), conserved along smooth
    evolutions.

    One square of the stack, one reduction over its rows, which adds them
    in order, as u^2 + u_x^2 + rho^2 adds them, and one over the samples,
    summed and divided as mean_u is, so each stack gets the float it gets
    alone.  work, if given, is a tuple of arrays of shapes (..., rows, n),
    (..., n) and (...) that a caller builds once: each step writes into
    it, and its last array is returned, so the call allocates nothing.
    """
    squares, total, out = work or (None, None, None)
    squares = np.multiply(fields, fields, out=squares)
    total = np.add.reduce(squares, axis=-2, out=total)
    e0 = np.divide(np.add.reduce(total, axis=-1, out=out), total.shape[-1], out=out)
    return e0 if e0.ndim else float(e0)


def mean_u(v: np.ndarray) -> np.ndarray | float:
    """The integral of each row of v over the last axis: of u, conserved
    exactly, and of any other row, rho or the cubic invariant's integrand
    among them; a float for 1-D v.  Summed and divided as np.mean does, bit
    for bit, without its Python overhead, and as energy_e0 is: numpy sums
    each contiguous row pairwise, as it sums a 1-D array, so a row of a
    stack gets the float it gets alone."""
    m = np.add.reduce(v, axis=-1) / v.shape[-1]
    return m if v.ndim > 1 else float(m)


def hamiltonian_e(e0: np.ndarray | float, rho: np.ndarray) -> np.ndarray | float:
    """(1/2) integral(u^2 + u_x^2 + (rho - 1)^2) = (E0 - 2 integral(rho) + 1)/2
    from e0 = energy_e0((u, u_x, rho)) and the density samples rho, row by
    row."""
    return 0.5 * (e0 - 2.0 * mean_u(rho) + 1.0)


def hamiltonian_f(
    c: np.ndarray,
    A: np.ndarray | float,
    gamma: np.ndarray | float,
    padded: np.ndarray,
) -> np.ndarray | float:
    """Cubic invariant from the coefficients c = rfft((u, u_x, rho),
    norm="forward"), shape (3, n/2 + 1), or (members, 3, n/2 + 1) for a
    stack of rows, evaluated on a 2n grid so the products are exact: one
    inverse transform of every row and no forward one.  A and gamma are
    the parameters, floats for one row or columns of one entry per row,
    shape (members, 1), which the caller builds once for its rows; a row
    then gets the bits of its own call.  padded is the pad buffer, a
    zero-filled complex array of shape (3, members, n + 1), or (3, n + 1)
    for one row, that the caller builds once for its rows: field-major, so
    that each field's samples of every row are one contiguous block for
    the integrand.  A call writes only its first n/2 + 1 columns, so the
    zeros above them stay.

    (1/2) integral(u^3 + u u_x^2 - A u^2 - gamma u_x^2 + 2 u (rho-1)
                   + u (rho-1)^2)

    The integrand is regrouped as u (u (u - A) + u_x^2 + rho^2 - 1)
    - gamma u_x^2, since 2 (rho - 1) + (rho - 1)^2 = rho^2 - 1.
    """
    half = c.shape[-1] - 1
    padded[..., : half + 1] = c.swapaxes(0, -2)  # field-major, as padded is
    padded[..., half] *= 0.5
    uf, uxf, rf = np.fft.irfft(padded, 4 * half, norm="forward")
    ux2 = uxf * uxf
    integrand = uf * (uf * (uf - A) + ux2 + rf * rf - 1.0) - gamma * ux2
    return 0.5 * mean_u(integrand)
