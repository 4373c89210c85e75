"""Adaptive RK4 time integration with slope-based breakdown detection.

The step size tracks both the advective CFL limit and the steepness of
the solution: dt = min(cfl dx / max|u - gamma|, slope_dt_factor / |min u_x|,
time remaining).  As the minimal slope dives, steps shrink in proportion,
so a genuine blow-up walks down to the detection threshold in a controlled
geometric cascade instead of going non-finite.

Runs terminate with one of four causes:

  ReachedEnd      integrated to t_end
  BlowupDetected  min u_x fell through blowup_slope, or dt underflowed
                  while the slope was negative and still falling
  DtUnderflow     dt fell below dt_min without a steepening slope
  NonFiniteState  an RK4 stage produced non-finite samples

The loop carries (u, rho) as plain arrays.  A record reads the invariants
straight off them, sharing the u_x that the step's slope tracking already
took; only a snapshot builds a State.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .characteristics import CharacteristicEnsemble
from .criteria import SlopeTrace, refined_min
from .grid import ParameterError, PeriodicGrid, deriv_values, interp_values
from .model import (
    ModelParams,
    State,
    energy_e0,
    hamiltonian_e,
    hamiltonian_f,
    mean_u,
    rhs_values,
)

__all__ = [
    "SimConfig",
    "Termination",
    "SimResult",
    "NonFiniteStateError",
    "SERIES_COLUMNS",
    "adaptive_dt",
    "step_rk4",
    "run",
    "TERM_REACHED_END",
    "TERM_BLOWUP",
    "TERM_DT_UNDERFLOW",
    "TERM_NONFINITE",
]

TERM_REACHED_END = "ReachedEnd"
TERM_BLOWUP = "BlowupDetected"
TERM_DT_UNDERFLOW = "DtUnderflow"
TERM_NONFINITE = "NonFiniteState"

SERIES_COLUMNS = ("t", "E0", "meanU", "hamE", "hamF", "minUx", "xi", "alpha", "dt")


class NonFiniteStateError(RuntimeError):
    """An RK4 stage produced non-finite samples."""


@dataclass(frozen=True)
class SimConfig:
    n: int
    t_end: float
    cfl: float = 0.3
    slope_dt_factor: float = 0.05
    dt_min: float = 1.0e-12
    blowup_slope: float = -1.0e6
    record_every: int = 10
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        PeriodicGrid(self.n)  # validates n
        # each test is written as "inside the range", so NaN fails it
        for name, inside, rule in (
            ("t_end", 0.0 < self.t_end < math.inf, "positive and finite"),
            ("cfl", 0.0 < self.cfl <= 1.0, "in (0, 1]"),
            ("slope_dt_factor", 0.0 < self.slope_dt_factor < math.inf,
             "positive and finite"),
            ("dt_min", 0.0 < self.dt_min < math.inf, "positive and finite"),
            ("blowup_slope", -math.inf < self.blowup_slope < 0.0,
             "negative and finite"),
            ("record_every", self.record_every >= 1, "at least 1"),
        ):
            if not inside:
                raise ParameterError(
                    name, f"{name} must be {rule}, got {getattr(self, name)}"
                )
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )


@dataclass(frozen=True)
class Termination:
    cause: str
    t: float


@dataclass(frozen=True)
class SimResult:
    slope_trace: SlopeTrace
    snapshots: list[tuple[float, State]]
    termination: Termination
    series: np.ndarray  # one row per record, columns SERIES_COLUMNS
    ensemble: CharacteristicEnsemble | None = None


def adaptive_dt(
    u: np.ndarray,
    p: ModelParams,
    c: SimConfig,
    t_remaining: float,
    min_slope: float | None = None,
) -> float:
    """Advective-CFL / slope-limited step for velocity samples u, clipped
    to the time remaining."""
    dx = 1.0 / u.size
    speed = float(np.max(np.abs(u - p.gamma)))
    if min_slope is None:
        min_slope, _ = refined_min(deriv_values(u, 1), dx)
    dt_advect = c.cfl * dx / max(speed, 1.0e-8)
    dt_slope = c.slope_dt_factor / max(abs(min_slope), 1.0)
    return min(dt_advect, dt_slope, t_remaining)


def _require_finite(*arrays: np.ndarray | None) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
            raise NonFiniteStateError("non-finite samples in an RK4 stage")


def _advance(
    u: np.ndarray,
    rho: np.ndarray,
    grid: PeriodicGrid,
    p: ModelParams,
    dt: float,
    q: np.ndarray | None = None,
    lq: np.ndarray | None = None,
):
    """One classical RK4 step; optionally carries characteristics along.

    Trajectories use the same stage structure: stage positions advance with
    interpolated stage velocities, and the log-Jacobian integrates the
    interpolated stage slopes.  Each stage evaluates u and u_x with one
    shared phase matrix.

    Finiteness is checked once, on the outputs: every stage enters the
    final RK4 sum, so a non-finite sample in any stage leaves one in u_new
    or rho_new, and no stage needs a check of its own.
    """
    half = 0.5 * dt
    q_new = lq_new = None
    with np.errstate(over="ignore", invalid="ignore"):
        k1u, k1r = rhs_values(u, rho, grid, p)
        u2, r2 = u + half * k1u, rho + half * k1r
        k2u, k2r = rhs_values(u2, r2, grid, p)
        u3, r3 = u + half * k2u, rho + half * k2r
        k3u, k3r = rhs_values(u3, r3, grid, p)
        u4, r4 = u + dt * k3u, rho + dt * k3r
        k4u, k4r = rhs_values(u4, r4, grid, p)
        u_new = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        rho_new = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)

        if q is not None:
            # rows (stage, its slope) for each of the four stages
            pairs = np.empty((4, 2, grid.n))
            pairs[:, 0] = (u, u2, u3, u4)
            pairs[:, 1] = deriv_values(pairs[:, 0], 1)
            qk1, lk1 = interp_values(pairs[0], q)
            qa = q + half * qk1
            qk2, lk2 = interp_values(pairs[1], qa)
            qb = q + half * qk2
            qk3, lk3 = interp_values(pairs[2], qb)
            qc = q + dt * qk3
            qk4, lk4 = interp_values(pairs[3], qc)
            q_new = q + (dt / 6.0) * (qk1 + 2.0 * qk2 + 2.0 * qk3 + qk4)
            lq_new = lq + (dt / 6.0) * (lk1 + 2.0 * lk2 + 2.0 * lk3 + lk4)
    _require_finite(u_new, rho_new, q_new, lq_new)
    return u_new, rho_new, q_new, lq_new


def step_rk4(s: State, p: ModelParams, dt: float) -> State:
    """Single classical RK4 step of the field equations."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u, rho, _, _ = _advance(s.u, s.rho, s.grid, p, dt)
    return State(s.grid, u, rho)


def run(
    s0: State,
    p: ModelParams,
    c: SimConfig,
    seeds: np.ndarray | None = None,
) -> SimResult:
    """Integrate from t = 0 until t_end or breakdown.

    Invariants are recorded every `record_every` steps, at snapshot times
    and at termination; the slope trace records every step.  Passing seed
    positions couples a characteristic ensemble into the same RK4 stages.
    """
    grid = s0.grid
    if grid.n != c.n:
        raise ValueError(f"state lives on n={grid.n}, config says n={c.n}")
    u = np.array(s0.u)
    rho = np.array(s0.rho)
    track = seeds is not None
    if track:
        q = np.array(seeds, dtype=float)
        lq = np.zeros_like(q)
    else:
        q = lq = None

    tiny = 1.0e-12 * max(1.0, c.t_end)
    snaps_due = deque(
        sorted({t for t in c.snapshot_times if 0.0 <= t <= c.t_end})
    )

    t = 0.0
    step = 0
    last_recorded = -1
    trace_t: list[float] = []
    trace_m: list[float] = []
    trace_xi: list[float] = []
    trace_alpha: list[float] = []
    rows: list[list[float]] = []
    snapshots: list[tuple[float, State]] = []
    ens_t: list[float] = []
    ens_q: list[np.ndarray] = []
    ens_lq: list[np.ndarray] = []
    ens_rq: list[np.ndarray] = []

    ux = None  # slope of the current u, taken by observe() and read by record()

    def observe() -> None:
        nonlocal ux
        ux = deriv_values(u, 1)
        m, xi = refined_min(ux, grid.dx)
        alpha = float(interp_values(rho, np.asarray([xi]))[0])
        trace_t.append(t)
        trace_m.append(m)
        trace_xi.append(xi)
        trace_alpha.append(alpha)

    def record(dt_next: float) -> None:
        nonlocal last_recorded
        if step == last_recorded:
            return
        last_recorded = step
        rows.append([
            t, energy_e0(u, ux, rho), mean_u(u),
            hamiltonian_e(u, ux, rho), hamiltonian_f(u, ux, rho, p),
            trace_m[-1], trace_xi[-1], trace_alpha[-1], dt_next,
        ])
        if track:
            ens_t.append(t)
            ens_q.append(q.copy())
            ens_lq.append(lq.copy())
            ens_rq.append(interp_values(rho, q))

    def take_snapshot() -> None:
        snapshots.append((t, State(grid, u, rho)))

    observe()
    termination: Termination | None = None
    while True:
        t_remaining = c.t_end - t
        if t_remaining <= tiny:
            record(0.0)
            termination = Termination(TERM_REACHED_END, t)
            break

        dt = adaptive_dt(u, p, c, t_remaining, min_slope=trace_m[-1])
        hit_snapshot = False
        if snaps_due:
            if snaps_due[0] <= t + tiny:
                snaps_due.popleft()  # t = 0 (or an already-passed) snapshot
                take_snapshot()
                record(dt)
                continue
            if t + dt >= snaps_due[0] - tiny:
                dt = snaps_due[0] - t
                hit_snapshot = True

        if step == 0:
            record(dt)
        if dt < c.dt_min:
            steepening = (
                len(trace_m) >= 2
                and trace_m[-1] < 0.0
                and trace_m[-1] < trace_m[-2]
            )
            record(dt)
            cause = TERM_BLOWUP if steepening else TERM_DT_UNDERFLOW
            termination = Termination(cause, t)
            break

        try:
            u, rho, q, lq = _advance(u, rho, grid, p, dt, q, lq)
        except NonFiniteStateError:
            record(dt)
            termination = Termination(TERM_NONFINITE, t)
            break

        if hit_snapshot:
            t = snaps_due.popleft()
        else:
            t = t + dt
        step += 1
        observe()

        if trace_m[-1] <= c.blowup_slope:
            record(dt)
            termination = Termination(TERM_BLOWUP, t)
            break
        if hit_snapshot:
            take_snapshot()
            record(dt)
        elif step % c.record_every == 0:
            record(dt)

    trace = SlopeTrace(
        times=np.asarray(trace_t),
        m=np.asarray(trace_m),
        xi=np.asarray(trace_xi),
        alpha=np.asarray(trace_alpha),
    )
    ensemble = None
    if track:
        ensemble = CharacteristicEnsemble(
            seeds=np.asarray(seeds, dtype=float),
            times=np.asarray(ens_t),
            q=np.vstack(ens_q),
            log_qx=np.vstack(ens_lq),
            rho_q=np.vstack(ens_rq),
        )
    return SimResult(
        slope_trace=trace,
        snapshots=snapshots,
        termination=termination,
        series=np.asarray(rows, dtype=float),
        ensemble=ensemble,
    )
