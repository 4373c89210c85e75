"""Two-component dispersive shallow-water dynamics in convolution form.

The state is a velocity field u and a density field rho on the periodic
unit interval, evolving as

    du/dt   = -(u - gamma) u_x - (G*)'( u^2 + u_x^2/2 + (gamma - A) u + rho^2/2 )
    drho/dt = -(u rho)_x

where A > 0 is the linear-shear strength and gamma the dispersion speed.
All products are dealiased (formed on a 2n grid, projected back), so the
semi-discrete flow conserves integral(u^2 + u_x^2 + rho^2) and integral(u)
exactly; observed drift measures the time integrator alone.

The right-hand side works on Fourier coefficients: one batched forward
transform of (u, rho), zero-padding of the coefficients of u, u_x and rho,
one batched inverse transform to 2n points, the three products, one
batched forward transform at 2n, truncation back to the n-point band, and
one batched inverse transform of (du, drho) -- four transforms in all.

A State is the one container of (grid, u, rho) as float sample arrays; the
invariant functionals take the arrays themselves, plus the slope u_x,
which the caller computes once and shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ParameterError, PeriodicGrid, pad_values

__all__ = [
    "NonFiniteFieldError",
    "ModelParams",
    "State",
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
            raise ParameterError("gamma", f"gamma must be finite, got {self.gamma}")
        # written as not (inside) so that NaN fails
        if not 0.0 < self.A < np.inf:
            raise ParameterError(
                "A", f"shear strength A must be positive and finite, got A={self.A}"
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


def rhs_values(
    u: np.ndarray, rho: np.ndarray, grid: PeriodicGrid, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives of (u, rho) as raw arrays; products dealiased.

    Coefficients are kept in "forward" normalisation (c_k is the amplitude
    of e^{2 pi i k x}), so padding to 2n and truncating back need no
    rescaling: the Nyquist mode is split in half on the way up, as in
    pad_values, and folded back (doubled real part) on the way down, as in
    project_values.
    """
    n = grid.n
    half = n // 2
    c = np.fft.rfft(np.stack((u, rho)), norm="forward")
    cu = c[0]
    cux = grid.ik * cu

    padded = np.zeros((3, n + 1), dtype=complex)  # u, u_x, rho
    padded[::2, : half + 1] = c
    padded[1, : half + 1] = cux
    padded[:, half] *= 0.5
    fine = np.fft.irfft(padded, 2 * n, norm="forward")

    # u^2 + u_x^2/2 + rho^2/2 (the convolution argument), u u_x, u rho
    prods = fine[0] * fine
    prods[0] += 0.5 * (fine[1] * fine[1] + fine[2] * fine[2])
    band = np.fft.rfft(prods, norm="forward")[:, : half + 1]
    band[:, half] = 2.0 * band[:, half].real
    c_quad, c_adv, c_flux = band

    out = np.empty((2, half + 1), dtype=complex)
    c_arg = c_quad + (p.gamma - p.A) * cu
    out[0] = p.gamma * cux - c_adv - grid.dgreen_symbol * c_arg
    out[1] = -grid.ik * c_flux
    du, drho = np.fft.irfft(out, n, norm="forward")
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


def hamiltonian_e(u: np.ndarray, ux: np.ndarray, rho: np.ndarray) -> float:
    """(1/2) integral(u^2 + u_x^2 + (rho - 1)^2) = (E0 - 2 integral(rho) + 1)/2."""
    return 0.5 * (energy_e0(u, ux, rho) - 2.0 * float(np.mean(rho)) + 1.0)


def hamiltonian_f(
    u: np.ndarray, ux: np.ndarray, rho: np.ndarray, p: ModelParams
) -> float:
    """Cubic invariant, evaluated on a 2n grid so the products are exact.

    (1/2) integral(u^3 + u u_x^2 - A u^2 - gamma u_x^2 + 2 u (rho-1)
                   + u (rho-1)^2)
    """
    uf, uxf, rf = pad_values(np.stack((u, ux, rho)), 2 * u.size)
    rf -= 1.0
    integrand = (
        uf**3
        + uf * uxf**2
        - p.A * uf**2
        - p.gamma * uxf**2
        + 2.0 * uf * rf
        + uf * rf**2
    )
    return 0.5 * float(np.mean(integrand))

