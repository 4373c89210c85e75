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
coefficients directly, to several fields per batched transform;
deriv_values, pad_values and interp_values likewise accept a leading
batch axis.  The operations here take and return plain sample
arrays, except interp_coeffs, which reads rfft coefficients; the grid
object only carries the size and the cached symbol tables.

Evaluation at off-grid points builds the phase matrix z^k, z = e^{2 pi i x},
by repeated doubling of a running product rather than one complex
exponential per entry, and shares it across every field in the batch.
The matrix carries weight 1/2 on its mean and Nyquist rows, so one
product with the coefficients reads every mode, the Nyquist cosine
included.  interp_values is one forward transform followed by
interp_coeffs, so a caller that already holds coefficients makes no
transform at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "PeriodicGrid",
    "green_kernel",
    "dgreen_kernel",
    "helmholtz_convolve",
    "dgreen_convolve",
    "random_trig_field",
    "pad_values",
    "project_values",
    "deriv_values",
    "interp_values",
    "interp_coeffs",
]

_TWO_SINH_HALF = 2.0 * np.sinh(0.5)


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, or missing field.

    A range check on a field passes the field's name as `name`, so the
    config reader can name the key that set it.
    """

    def __init__(self, message: str, name: str | None = None) -> None:
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
    def dx(self) -> float:
        return 1.0 / self.n

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


def _phase_matrix(x: np.ndarray, half: int) -> np.ndarray:
    """Weighted phases w_k z^k for z = e^{2 pi i x}, k = 0 .. half: shape
    (half + 1, x.size), with w_k = 1/2 at k = 0 and k = half, 1 between.

    For the rfft coefficients c of real samples, whose mean and Nyquist
    entries are real, 2 Re(c @ P) is then the trig interpolant at x: the
    weights read the mean and the Nyquist cosine through the same product
    as every other mode.  Each doubling multiplies the known rows
    z^1 .. z^j by z^j, so the matrix costs log2(half) vectorised products
    and one exp per point, and the rounding error of z^k grows like
    log2(k), not like k.
    """
    out = np.empty((half + 1, x.size), dtype=complex)
    out[0] = 0.5
    out[1] = np.exp((2j * np.pi) * x)
    j = 1
    while j < half:
        step = min(j, half - j)
        np.multiply(out[1 : step + 1], out[j], out=out[j + 1 : j + 1 + step])
        j += step
    out[half] *= 0.5
    return out


def interp_values(v: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the interpolating trig polynomial of each row of v at xs.

    v has shape (..., n); the result has shape v.shape[:-1] + xs.shape.
    """
    v = np.asarray(v, dtype=float)
    return interp_coeffs(np.fft.rfft(v, norm="forward"), xs)


def interp_coeffs(c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the trig polynomial of each row of rfft coefficients c at xs.

    c has shape (..., n/2 + 1) in "forward" normalisation (c_k is the
    amplitude of e^{2 pi i k x}, the Nyquist entry that of cos(pi n x)),
    with real mean and Nyquist entries, as the rfft of real samples has
    them; the result has shape c.shape[:-1] + xs.shape.  Every row is
    evaluated with one product against one shared weighted phase matrix,
    and no transform is made.
    """
    xs = np.asarray(xs, dtype=float)
    out = 2.0 * (c @ _phase_matrix(xs.reshape(-1), c.shape[-1] - 1)).real
    return out.reshape(c.shape[:-1] + xs.shape)


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
    zero_mean: bool = False,
) -> np.ndarray:
    """Samples of a random band-limited field with mildly decaying mode
    amplitudes."""
    if max_mode < 1 or max_mode >= grid.n // 2:
        raise ValueError(f"max_mode must be in 1 .. {grid.n // 2 - 1}")
    x = grid.nodes
    v = np.zeros(grid.n)
    if not zero_mean:
        v += rng.normal()
    for k in range(1, max_mode + 1):
        decay = 1.0 / (1.0 + k)
        v += decay * rng.normal() * np.cos(2.0 * np.pi * k * x)
        v += decay * rng.normal() * np.sin(2.0 * np.pi * k * x)
    scale = np.sqrt(np.mean(v * v))
    if scale > 0.0:
        v *= rms / scale
    return v
