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
term.  The linear symbol gamma ik - (gamma - A)(G*)' is looked up once
per grid and parameters, not once per right-hand side.

A State is the one container of (grid, u, rho) as float sample arrays.
energy_e0 takes the arrays themselves, plus the slope u_x, which the
caller computes once and shares; hamiltonian_e is read off E0 and rho,
so a caller that has taken E0 does not take it again.  The one cubic
invariant, hamiltonian_f, takes the coefficients of (u, u_x, rho), which
the integrator holds, and pads them to a 2n grid with one inverse
transform and no forward one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import ConfigError, PeriodicGrid

__all__ = [
    "NonFiniteFieldError",
    "ModelParams",
    "State",
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


@lru_cache(maxsize=8)
def _rhs_symbols(
    grid: PeriodicGrid, p: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear symbol gamma ik - (gamma - A)(G*)' of du/dt, the symbol
    -(G*)'/2 of the doubled convolution argument, and -ik."""
    symbols = (
        p.gamma * grid.ik - (p.gamma - p.A) * grid.dgreen_symbol,
        -0.5 * grid.dgreen_symbol,
        -grid.ik,
    )
    for s in symbols:
        s.flags.writeable = False
    return symbols


def rhs_coeffs(c: np.ndarray, grid: PeriodicGrid, p: ModelParams) -> np.ndarray:
    """Time derivative of the coefficients c = rfft((u, rho), norm="forward").

    c and the result have shape (2, n/2 + 1).  In "forward" normalisation
    c_k is the amplitude of e^{2 pi i k x}, so padding to 3n/2 and
    truncating back need no rescaling: the Nyquist mode is split in half on
    the way up, as in pad_values.  On the way down only the u u_x product
    has its Nyquist mode read, so only it is folded (doubled real part), as
    in project_values; (G*)' and d/dx vanish on the other two.
    """
    n = grid.n
    half = n // 2
    m = 3 * n // 2
    lin, neg_half_dgreen, neg_ik = _rhs_symbols(grid, p)

    padded = np.zeros((3, m // 2 + 1), dtype=complex)  # u, u_x, rho
    padded[::2, : half + 1] = c
    padded[::2, half] *= 0.5
    np.multiply(grid.ik, c[0], out=padded[1, : half + 1])
    fine = np.fft.irfft(padded, m, norm="forward")

    # 2 u^2 + u_x^2 + rho^2 (twice the convolution argument), u u_x, u rho
    prods = fine[0] * fine
    prods[0] += np.add.reduce(fine * fine)
    c_arg2, c_adv, c_flux = np.fft.rfft(prods, norm="forward")[:, : half + 1]
    c_adv[half] = 2.0 * c_adv[half].real

    out = np.empty((2, half + 1), dtype=complex)
    np.multiply(lin, c[0], out=out[0])
    out[0] -= c_adv
    out[0] += neg_half_dgreen * c_arg2
    np.multiply(neg_ik, c_flux, out=out[1])
    return out


def rhs_values(
    u: np.ndarray, rho: np.ndarray, grid: PeriodicGrid, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (u, rho) as sample arrays: rhs_coeffs between
    one forward and one inverse transform."""
    c = np.fft.rfft(np.stack((u, rho)), norm="forward")
    du, drho = np.fft.irfft(rhs_coeffs(c, grid, p), grid.n, norm="forward")
    return du, drho


def energy_e0(u: np.ndarray, ux: np.ndarray, rho: np.ndarray) -> float:
    """integral(u^2 + u_x^2 + rho^2), conserved along smooth evolutions.

    The same sum and division as np.mean, bit for bit, without its Python
    overhead: a run evaluates this once per step.
    """
    return float(np.add.reduce(u * u + ux * ux + rho * rho) / u.size)


def mean_u(u: np.ndarray) -> float:
    """integral(u), conserved exactly."""
    return float(np.mean(u))


def hamiltonian_e(e0: float, rho: np.ndarray) -> float:
    """(1/2) integral(u^2 + u_x^2 + (rho - 1)^2) = (E0 - 2 integral(rho) + 1)/2
    from e0 = energy_e0(u, u_x, rho) and the density samples rho."""
    return 0.5 * (e0 - 2.0 * float(np.mean(rho)) + 1.0)


def hamiltonian_f(c: np.ndarray, p: ModelParams) -> float:
    """Cubic invariant from the coefficients c = rfft((u, u_x, rho),
    norm="forward"), shape (3, n/2 + 1), evaluated on a 2n grid so the
    products are exact: one inverse transform and no forward one.

    (1/2) integral(u^3 + u u_x^2 - A u^2 - gamma u_x^2 + 2 u (rho-1)
                   + u (rho-1)^2)

    The integrand is regrouped as u (u (u - A) + u_x^2 + rho^2 - 1)
    - gamma u_x^2, since 2 (rho - 1) + (rho - 1)^2 = rho^2 - 1.
    """
    half = c.shape[-1] - 1
    padded = np.zeros((3, 2 * half + 1), dtype=complex)
    padded[:, : half + 1] = c
    padded[:, half] *= 0.5
    uf, uxf, rf = np.fft.irfft(padded, 4 * half, norm="forward")
    ux2 = uxf * uxf
    integrand = uf * (uf * (uf - p.A) + ux2 + rf * rf - 1.0) - p.gamma * ux2
    return 0.5 * float(np.add.reduce(integrand) / integrand.size)
