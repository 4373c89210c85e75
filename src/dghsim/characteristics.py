"""Flow-map tracking along particle paths.

Characteristics q(t, x0) solve dq/dt = u(t, q) from q(0, x0) = x0, and the
spatial Jacobian q_x = exp(integral of u_x along the path) stays positive
for as long as the solution is smooth, so paths never cross.  The density
rides the flow map through rho(t, q) q_x = rho0, which is what
`verify_density_transport` measures.

Trajectories are integrated inside the field run itself (same steps, same
RK4 stages); see `dghsim.stepping.run`.  Positions are kept unwrapped so
monotonicity in x0 is directly visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CharacteristicEnsemble",
    "default_seeds",
    "verify_density_transport",
    "is_monotone",
    "sign_preserved",
]


@dataclass(frozen=True)
class CharacteristicEnsemble:
    """Positions, Jacobians and sampled density at the record times."""

    seeds: np.ndarray
    times: np.ndarray
    q: np.ndarray
    log_qx: np.ndarray
    rho_q: np.ndarray

    def __post_init__(self) -> None:
        seeds = np.ascontiguousarray(self.seeds, dtype=float)
        times = np.ascontiguousarray(self.times, dtype=float)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "times", times)
        shape = (times.size, seeds.size)
        for name in ("q", "log_qx", "rho_q"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if not np.allclose(self.q[0], seeds, atol=0.0):
            raise ValueError("trajectories must start at the seeds")
        if np.any(self.log_qx[0] != 0.0):
            raise ValueError("Jacobian must start at 1")
        if not np.all(np.isfinite(self.log_qx)):
            raise ValueError("Jacobian log left the finite range")

    @property
    def qx(self) -> np.ndarray:
        return np.exp(self.log_qx)


def default_seeds(count: int) -> np.ndarray:
    """Equispaced seed positions on [0, 1)."""
    if count < 2:
        raise ValueError(f"need at least 2 seeds, got {count}")
    return np.arange(count) / count


def verify_density_transport(e: CharacteristicEnsemble) -> float:
    """sup |rho(t, q) q_x - rho0(x0)| over all recorded times and seeds,
    with rho0(x0) the density the run recorded at t = 0, where q = x0."""
    ref = e.rho_q[0]
    return float(np.max(np.abs(e.rho_q * e.qx - ref[None, :])))


def is_monotone(e: CharacteristicEnsemble) -> bool:
    """Paths of sorted seeds stay ordered (positions are unwrapped)."""
    order = np.argsort(e.seeds)
    q = e.q[:, order]
    interior = np.all(np.diff(q, axis=1) > 0.0)
    # wrap pair: the first seed shifted one period must stay above the last
    wrap = np.all(q[:, 0] + 1.0 > q[:, -1])
    return bool(interior and wrap)


def sign_preserved(e: CharacteristicEnsemble) -> bool:
    """sign(rho(t, q)) matches sign(rho0(x0)) wherever rho0(x0), the
    density the run recorded at t = 0, is nonzero: above 1e-12 of its
    largest magnitude over the seeds."""
    ref = e.rho_q[0]
    active = np.abs(ref) > 1.0e-12 * float(np.max(np.abs(ref)))
    return bool(np.all(e.rho_q[:, active] * ref[None, active] > 0.0))
