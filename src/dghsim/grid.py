"""Spectral machinery on the periodic unit interval.

A field is identified with the real trigonometric polynomial that
interpolates its samples on n equispaced nodes x_j = j/n (wavenumbers
-n/2 .. n/2 - 1; the unpaired Nyquist mode is treated as a split cosine).
The smoothing kernel

    G(x) = cosh(x - floor(x) - 1/2) / (2 sinh(1/2))

is the 1-periodic fundamental solution of f - f'' = delta, so convolving
with G inverts 1 - d^2/dx^2.  Both G* and (G*)' are applied as exact
Fourier symbols, 1/(1 + 4 pi^2 k^2) and 2 pi i k/(1 + 4 pi^2 k^2).

Products of fields are never formed on the native grid.  A product of
two band-limited fields is exact on 3n/2 points for every mode the n-point
band keeps (Orszag's 3/2 rule), so the quadratic right-hand side of the
dynamics pads to 3n/2; a cubic needs 2n, so hamiltonian_f pads there.
Padding and projection are statements about coefficients (zero-fill
above n/2, split or fold the Nyquist mode), so the model applies them to
coefficients directly, to several fields per batched transform.
pad_values, project_values and interp_values, their sample-array forms,
are references for the tests and the benchmark: no other module calls
them, and they are not exported.  deriv_values, pad_values and
interp_values accept a leading batch axis.  The operations here take and
return plain sample arrays, except interp_blocks and interp_point, which
read rfft coefficients; the grid object only carries the size and the
cached symbol tables.

Evaluation at off-grid points fills the phase table z^k, z = e^{2 pi i x},
by repeated doubling of a running product rather than one complex
exponential per entry, and shares it across every field in the batch.
The table holds the plain powers; the weights 1/2 of the mean and
Nyquist modes and the factor 2 of the real part sit on the coefficient
side, which one multiply turns into the real rows (2 w Re c, -2 w Im c).
Their product with the table's float view, whose adjacent columns are
cos and sin of one point, is real, and the interpolant is the cos
columns of the first half plus the sin columns of the second, so every
mode, the Nyquist cosine included, is read through one real product.
interp_blocks reads coefficients, through the view of their real and
imaginary parts that coefficient_parts builds, so it makes no transform
at all: it evaluates several coefficient blocks, each at its own points,
with one phase table for all the points and one real product per block.
Its arrays live in an InterpWork, built once for a number of blocks,
points and rows: the table with its row 0 of ones, the row views of its
doublings, and the weighted coefficients and products with their cos and
sin views.  A call then makes only ufunc calls, each writing into the
work or into the result array the caller passes, and a caller that
evaluates the same shapes again, as the integrator does at every RK4
stage, passes the same work to every call; one that evaluates the same
array again also builds its view once.  interp_values is one forward
transform followed by interp_blocks with one block, on a work, a view
and a result built for the call.  A single point needs no doubling:
interp_point forms its one weighted exponential row directly, from each
mode's phase reduced to under one turn without rounding error that
grows with k or |x|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "ConfigError",
    "PeriodicGrid",
    "green_kernel",
    "dgreen_kernel",
    "helmholtz_convolve",
    "dgreen_convolve",
    "random_trig_field",
    "deriv_values",
    "InterpWork",
    "coefficient_parts",
    "interp_blocks",
    "interp_point",
]

_TWO_SINH_HALF = 2.0 * np.sinh(0.5)


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, or missing field.

    A range check on a field passes the field's name as `name`, or a
    tuple of names when a value of several fields fails together, so the
    config reader can name the keys that set them.
    """

    def __init__(
        self, message: str, name: str | tuple[str, ...] | None = None
    ) -> None:
        super().__init__(message)
        self.name = name


def green_kernel(x):
    """Periodic Helmholtz kernel cosh(x - floor(x) - 1/2) / (2 sinh(1/2)).

    Accepts scalars or arrays; 1-periodic, even, with a corner at the
    integers.  Bounded between 1/(2 sinh(1/2)) and cosh(1/2)/(2 sinh(1/2)),
    and integrates to 1 over one period.
    """
    x = np.asarray(x, dtype=float)
    out = np.cosh(x - np.floor(x) - 0.5) / _TWO_SINH_HALF
    return out if out.ndim else float(out)


def dgreen_kernel(x):
    """Derivative of the kernel, sinh(x - floor(x) - 1/2) / (2 sinh(1/2)).

    Jumps by -1 at the integers; the value there is reported as 0, the
    midpoint of the two one-sided limits (the natural quadrature value).
    """
    x = np.asarray(x, dtype=float)
    frac = x - np.floor(x)
    out = np.sinh(frac - 0.5) / _TWO_SINH_HALF
    out = np.where(frac == 0.0, 0.0, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PeriodicGrid:
    """n equispaced nodes on [0, 1); n must be even and at least 8."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise TypeError(f"grid size must be an int, got {type(self.n).__name__}")
        if self.n < 8:
            raise ConfigError(f"grid size must be at least 8, got n={self.n}", "n")
        if self.n % 2 != 0:
            raise ConfigError(f"grid size must be even, got n={self.n}", "n")

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.n) / self.n
        x.flags.writeable = False
        return x

    # Symbol tables in rfft layout (k = 0 .. n/2), shared by every operator
    # call on this grid.

    @cached_property
    def modes(self) -> np.ndarray:
        k = np.arange(self.n // 2 + 1, dtype=float)
        k.flags.writeable = False
        return k

    @cached_property
    def ik(self) -> np.ndarray:
        # first-derivative symbol; the odd Nyquist mode is zeroed
        s = 2j * np.pi * self.modes
        s[-1] = 0.0
        s.flags.writeable = False
        return s

    @cached_property
    def helmholtz_symbol(self) -> np.ndarray:
        s = 1.0 / (1.0 + 4.0 * np.pi**2 * self.modes**2)
        s.flags.writeable = False
        return s

    @cached_property
    def dgreen_symbol(self) -> np.ndarray:
        s = self.ik * self.helmholtz_symbol
        s.flags.writeable = False
        return s


# ---------------------------------------------------------------------------
# array-level kernels

def deriv_values(v: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of each row of v (shape (..., n))."""
    if order < 1:
        raise ValueError(f"derivative order must be positive, got {order}")
    n = v.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    sym = (2j * np.pi * k) ** order
    if order % 2 == 1:
        sym[-1] = 0.0
    return np.fft.irfft(sym * np.fft.rfft(v), n)


def pad_values(v: np.ndarray, m: int) -> np.ndarray:
    """Resample each row of v (shape (..., n)) to a finer m-point grid by
    zero-padding the spectrum.

    Exact for the interpolating trigonometric polynomial; the Nyquist
    coefficient is split between +n/2 and -n/2.
    """
    n = v.shape[-1]
    if m < n or m % 2 != 0:
        raise ValueError(f"target size must be even and >= {n}, got {m}")
    if m == n:
        return np.array(v, dtype=float)
    c = np.fft.rfft(v)
    cf = np.zeros(v.shape[:-1] + (m // 2 + 1,), dtype=complex)
    cf[..., : n // 2] = c[..., : n // 2]
    cf[..., n // 2] = 0.5 * c[..., n // 2]
    return np.fft.irfft(cf, m) * (m / n)


def project_values(v: np.ndarray, n: int) -> np.ndarray:
    """Restrict fine-grid samples to the n-point band (adjoint of pad)."""
    m = v.size
    if n > m or n % 2 != 0:
        raise ValueError(f"target size must be even and <= {m}, got {n}")
    if n == m:
        return np.array(v, dtype=float)
    cf = np.fft.rfft(v)
    c = np.empty(n // 2 + 1, dtype=complex)
    c[: n // 2] = cf[: n // 2]
    c[n // 2] = 2.0 * cf[n // 2].real
    return np.fft.irfft(c, n) * (n / m)


class InterpWork:
    """The arrays interp_blocks writes, for `blocks` blocks of `count`
    points each on the modes k = 0 .. half, and for coefficient blocks of
    each row count in `rows`.

    One phase table of shape (half + 1, blocks count), its row 0 of ones
    set here and never written again; the (source, factor, destination)
    row views of its doublings; the positions less their nearest
    integers; the weights interp_blocks multiplies the coefficients' parts
    by, shape (2, 1, half + 1), built here and only read; and, per row
    count, the weighted coefficients, their products with the table and
    those products' cos and sin columns.  The table's float view, reshaped
    so that block i reads its own columns, is made here too, so a call
    makes no view of these and allocates nothing.
    A call overwrites whole every array it reads from here besides row 0,
    so a result never depends on what an earlier call left, and one work
    serves every call of its shapes.
    """

    def __init__(
        self, half: int, blocks: int, count: int, rows: tuple[int, ...]
    ) -> None:
        self.table = np.empty((half + 1, blocks * count), dtype=complex)
        self.table[0] = 1.0
        self.first = self.table[1].reshape(blocks, count)
        self.reduced = np.empty((blocks, count))
        # each doubling multiplies the known rows z^1 .. z^j by z^j
        self.doublings = []
        j = 1
        while j < half:
            step = min(j, half - j)
            self.doublings.append((
                self.table[1 : step + 1], self.table[j], self.table[j + 1 : j + 1 + step]
            ))
            j += step
        # the factors (2 w_k, -2 w_k) of Re c_k and Im c_k, with w_k = 1/2
        # at k = 0 and k = half and 1 between
        self.weights = np.full((2, 1, half + 1), 2.0)
        self.weights[:, :, 0] = self.weights[:, :, half] = 1.0
        self.weights[1] *= -1.0
        # block i's columns of the float view, stacked on a leading axis
        self.columns = (
            self.table.view(float).reshape(half + 1, blocks, 2 * count).transpose(1, 0, 2)
        )
        self.products = {}
        for r in rows:
            weighted = np.empty((blocks, 2, r, half + 1))
            prods = np.empty((blocks, 2 * r, 2 * count))
            self.products[r] = (
                weighted,
                weighted.reshape(blocks, 2 * r, half + 1),
                prods,
                prods[:, :r, ::2],
                prods[:, r:, 1::2],
            )


def _phase_matrix(x: np.ndarray, work: InterpWork) -> None:
    """Fill work.table, an InterpWork's, with the phases z^k for
    z = e^{2 pi i x}, k = 0 .. half, one column per point of x, shape
    (blocks, count), in row-major order.  Row 0, z^0 = 1, is the work's
    own, so this writes rows 1 .. half: four ufunc calls for z, then one
    per doubling, each into a row view the work made.

    Each doubling multiplies the known rows z^1 .. z^j by z^j, so the
    table costs log2(half) vectorised products and one exp per point, and
    the rounding error the products add to z^k grows like log2(k), not
    like k.  z's own phase error z^k carries k times over, so z is taken
    from x less its nearest integer, which is exact: that error is then
    the rounding of a phase of at most half a turn, whatever |x|.
    """
    reduced, first = work.reduced, work.first
    np.rint(x, out=reduced)
    np.subtract(x, reduced, out=reduced)
    np.multiply(2j * np.pi, reduced, out=first)
    np.exp(first, out=first)
    for source, factor, destination in work.doublings:
        np.multiply(source, factor, out=destination)


def interp_values(v: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the interpolating trig polynomial of each row of v at xs.

    v has shape (..., n); the result has shape v.shape[:-1] + xs.shape.
    One forward transform, then interp_blocks on the coefficient_parts of
    every row in one block, on a work and a result built for this call.
    """
    c = np.fft.rfft(np.asarray(v, dtype=float), norm="forward")
    xs = np.asarray(xs, dtype=float)
    block = c.reshape(1, -1, c.shape[-1])
    rows = block.shape[1]
    work = InterpWork(c.shape[-1] - 1, 1, xs.size, (rows,))
    out = np.empty((1, rows, xs.size))
    interp_blocks(coefficient_parts(block), xs.reshape(1, -1), work, out)
    return out.reshape(c.shape[:-1] + xs.shape)


def coefficient_parts(c: np.ndarray) -> np.ndarray:
    """The view of rfft coefficients c, shape (blocks, rows, n/2 + 1) and
    contiguous in their last axis, that interp_blocks weighs: their real
    and imaginary parts, shape (blocks, 2, rows, n/2 + 1).  A caller that
    evaluates the same array again builds it once."""
    blocks, rows, modes = c.shape
    return c.view(float).reshape(blocks, rows, modes, 2).transpose(0, 3, 1, 2)


def interp_blocks(
    parts: np.ndarray, xs: np.ndarray, work: InterpWork, out: np.ndarray
) -> np.ndarray:
    """Evaluate block i of rfft coefficients c at the points xs[i], given
    parts = coefficient_parts(c).

    c has shape (blocks, rows, n/2 + 1), contiguous in its last axis, in
    "forward" normalisation (c_k is the amplitude of e^{2 pi i k x}, the
    Nyquist entry that of cos(pi n x)), with real mean and Nyquist entries,
    as the rfft of real samples has them.  xs has shape (blocks, K); work
    is an InterpWork(n/2, blocks, K, ...) whose row counts include rows.
    The result, written to out and returned, has shape (blocks, rows, K).

    The interpolant at x is sum_k 2 w_k (Re c_k cos(2 pi k x) - Im c_k
    sin(2 pi k x)), with w_k = 1/2 on the mean and Nyquist modes and 1
    between, so every mode, the Nyquist cosine included, is read through
    one real product.  One phase table serves the points of every block;
    its float view holds cos and sin of each point in adjacent columns.
    One multiply forms (2 w Re c, -2 w Im c) of every block, one stacked
    matmul gives each block the real product of these with its own
    columns of that view, and one add sums the cos columns of the real
    parts and the sin columns of the imaginary parts, so no transform is
    made.  Each writes into work or out, so a call is these three ufunc
    calls, the four of its positions' phases and one per doubling of the
    table, with no allocation.  For K >= 2 a block's product is bit for
    bit the one it gets alone; for K = 1 numpy forms the narrower product
    with another inner loop, which can differ in the last bit.
    """
    weighted, weighted_rows, prods, cos, sin = work.products[parts.shape[2]]
    _phase_matrix(xs, work)
    np.multiply(parts, work.weights, out=weighted)
    np.matmul(weighted_rows, work.columns, out=prods)
    return np.add(cos, sin, out=out)


@lru_cache(maxsize=8)
def _mode_numbers(half: int) -> np.ndarray:
    """0, 1, .., half as floats, read-only."""
    k = np.arange(half + 1, dtype=float)
    k.flags.writeable = False
    return k


def interp_point(c: np.ndarray, x: float) -> float:
    """Evaluate the trig polynomial of one row of rfft coefficients c (in
    the normalisation interp_blocks reads) at one point x: one weighted
    exponential row and one dot product.

    Mode k's phase is k x in turns less its nearest integer.  x splits into
    a head of at most 26 significant bits and the tail x - head, so k times
    either part is exact for every k < 2^26; the head's product loses its
    integer part exactly, and adding the tail's product is the one rounding
    before the exponential.  No phase error grows with k or |x|, so the
    result is as accurate as the sum itself allows.
    """
    half = c.shape[-1] - 1
    t = 134217729.0 * x  # 2^27 + 1: Veltkamp's split
    head = t - (t - x)
    k = _mode_numbers(half)
    turns = k * head
    turns -= np.rint(turns)
    turns += k * (x - head)
    row = np.exp((2j * np.pi) * turns)
    row[0] = 0.5
    row[half] *= 0.5
    return 2.0 * float((c @ row).real)


def helmholtz_convolve(v: np.ndarray) -> np.ndarray:
    """G * v for each row of v, the inverse of 1 - d^2/dx^2 as an exact symbol."""
    g = PeriodicGrid(v.shape[-1])
    return np.fft.irfft(np.fft.rfft(v) * g.helmholtz_symbol, g.n)


def dgreen_convolve(v: np.ndarray) -> np.ndarray:
    """(G * v)' for each row of v, the smoothing gradient; always mean zero."""
    g = PeriodicGrid(v.shape[-1])
    return np.fft.irfft(np.fft.rfft(v) * g.dgreen_symbol, g.n)


def random_trig_field(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    max_mode: int = 8,
    rms: float = 1.0,
) -> np.ndarray:
    """Samples of a random band-limited field: a drawn mean and modes
    1 .. max_mode with mildly decaying amplitudes, scaled to the given rms."""
    if max_mode < 1 or max_mode >= grid.n // 2:
        raise ValueError(f"max_mode must be in 1 .. {grid.n // 2 - 1}")
    x = grid.nodes
    v = np.full(grid.n, rng.normal())
    for k in range(1, max_mode + 1):
        decay = 1.0 / (1.0 + k)
        v += decay * rng.normal() * np.cos(2.0 * np.pi * k * x)
        v += decay * rng.normal() * np.sin(2.0 * np.pi * k * x)
    scale = np.sqrt(np.mean(v * v))
    if scale > 0.0:
        v *= rms / scale
    return v
