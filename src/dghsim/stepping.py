"""Adaptive RK4 time integration with slope-based breakdown detection.

The step size tracks both the advective CFL limit and the steepness of
the solution: dt = min(cfl dx / max|u - gamma|, slope_dt_factor / |min u_x|,
time remaining).  As the minimal slope dives, steps shrink in proportion,
so a genuine blow-up walks down to the detection threshold in a controlled
geometric cascade instead of going non-finite.

Runs terminate with one of five causes:

  ReachedEnd      integrated to t_end
  BlowupDetected  min u_x fell through blowup_slope, or dt underflowed
                  while the slope was negative and still falling, or E0
                  stopped being conserved after min u_x had dived past
                  the rate fit's cutoff, -3 max(1, |m(0)|)
  ResolutionLost  E0 stopped being conserved before such a dive
  DtUnderflow     dt fell below dt_min without a steepening slope
  NonFiniteState  an RK4 stage produced non-finite values

The semi-discrete flow conserves E0 exactly, so once its relative drift
passes E0_DRIFT_TOL the grid no longer follows the solution, and every
later step would only describe the numerics.  The run stops at that step.

The RK4 state is the pair of Fourier coefficients c = rfft((u, rho)) in
"forward" normalisation: every stage, and the final sum, is a linear
combination of coefficient arrays, and model.rhs_coeffs takes and returns
coefficients, so a right-hand side makes only its two transforms at 3n/2
points.  Characteristic stages and the density at the slope minimum read
the coefficients through grid.interp_coeffs, with no transform.  Once per
step one batched inverse transform gives the samples (u, rho); the step's
u_x feeds the slope tracking, the E0 check and any record, which reads the
invariants straight off the arrays; only a snapshot builds a State.  At
step 0 the samples are the initial arrays themselves.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .characteristics import CharacteristicEnsemble
from .criteria import SlopeTrace, refined_min
from .grid import ParameterError, PeriodicGrid, deriv_values, interp_coeffs
from .model import (
    ModelParams,
    State,
    energy_e0,
    hamiltonian_e,
    hamiltonian_f,
    mean_u,
    rhs_coeffs,
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
    "TERM_RESOLUTION_LOST",
    "TERM_DT_UNDERFLOW",
    "TERM_NONFINITE",
    "E0_DRIFT_TOL",
]

TERM_REACHED_END = "ReachedEnd"
TERM_BLOWUP = "BlowupDetected"
TERM_RESOLUTION_LOST = "ResolutionLost"
TERM_DT_UNDERFLOW = "DtUnderflow"
TERM_NONFINITE = "NonFiniteState"

# Relative E0 drift past which a run stops.  On smooth global41 data at
# cfl 0.3, RK4 time error peaks an order of magnitude below it (8.9e-6 for
# r0 = 2, ru = 1 at n = 128), while a grid that has lost a steepening front
# drives E0 up by orders of magnitude within a few hundred steps.  A step
# coarse enough can still pass it on smooth data; that run then ends in
# ResolutionLost.
E0_DRIFT_TOL = 1.0e-4

SERIES_COLUMNS = ("t", "E0", "meanU", "hamE", "hamF", "minUx", "xi", "alpha", "dt")


class NonFiniteStateError(RuntimeError):
    """An RK4 stage produced non-finite values."""


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
            raise NonFiniteStateError("non-finite values in an RK4 stage")


def _coeffs(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.fft.rfft(np.stack((u, rho)), norm="forward")


def _values(c: np.ndarray, n: int) -> np.ndarray:
    return np.fft.irfft(c, n, norm="forward")


def _advance(
    c: np.ndarray,
    grid: PeriodicGrid,
    p: ModelParams,
    dt: float,
    q: np.ndarray | None = None,
    lq: np.ndarray | None = None,
):
    """One classical RK4 step of the coefficients c = rfft((u, rho));
    optionally carries characteristics along.

    Trajectories use the same stage structure: stage positions advance with
    stage velocities, and the log-Jacobian integrates the stage slopes,
    both evaluated from the stage coefficients of u and u_x with one
    shared phase matrix.

    Finiteness is checked once, on the outputs: every stage enters the
    final RK4 sum, so a non-finite coefficient in any stage leaves one in
    c_new, and no stage needs a check of its own.
    """
    half = 0.5 * dt
    q_new = lq_new = None
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs_coeffs(c, grid, p)
        c2 = c + half * k1
        k2 = rhs_coeffs(c2, grid, p)
        c3 = c + half * k2
        k3 = rhs_coeffs(c3, grid, p)
        c4 = c + dt * k3
        k4 = rhs_coeffs(c4, grid, p)
        c_new = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        if q is not None:
            # rows (stage u, its slope) for each of the four stages
            pairs = np.empty((4, 2, grid.n // 2 + 1), dtype=complex)
            pairs[:, 0] = (c[0], c2[0], c3[0], c4[0])
            pairs[:, 1] = grid.ik * pairs[:, 0]
            qk1, lk1 = interp_coeffs(pairs[0], q)
            qa = q + half * qk1
            qk2, lk2 = interp_coeffs(pairs[1], qa)
            qb = q + half * qk2
            qk3, lk3 = interp_coeffs(pairs[2], qb)
            qc = q + dt * qk3
            qk4, lk4 = interp_coeffs(pairs[3], qc)
            q_new = q + (dt / 6.0) * (qk1 + 2.0 * qk2 + 2.0 * qk3 + qk4)
            lq_new = lq + (dt / 6.0) * (lk1 + 2.0 * lk2 + 2.0 * lk3 + lk4)
    _require_finite(c_new, q_new, lq_new)
    return c_new, q_new, lq_new


def step_rk4(s: State, p: ModelParams, dt: float) -> State:
    """Single classical RK4 step of the field equations."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    c, _, _ = _advance(_coeffs(s.u, s.rho), s.grid, p, dt)
    u, rho = _values(c, s.grid.n)
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
    coef = _coeffs(u, rho)
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

    # slope and E0 of the current (u, rho), taken by observe() and read by record()
    ux = None
    e0 = 0.0

    def observe() -> None:
        nonlocal ux, e0
        ux = deriv_values(u, 1)
        e0 = energy_e0(u, ux, rho)
        m, xi = refined_min(ux, grid.dx)
        alpha = float(interp_coeffs(coef[1], np.asarray([xi]))[0])
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
            t, e0, mean_u(u),
            hamiltonian_e(u, ux, rho), hamiltonian_f(u, ux, rho, p),
            trace_m[-1], trace_xi[-1], trace_alpha[-1], dt_next,
        ])
        if track:
            ens_t.append(t)
            ens_q.append(q.copy())
            ens_lq.append(lq.copy())
            ens_rq.append(interp_coeffs(coef[1], q))

    def take_snapshot() -> None:
        snapshots.append((t, State(grid, u, rho)))

    observe()
    e0_first = e0
    dive_cutoff = -3.0 * max(1.0, abs(trace_m[0]))
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
            coef, q, lq = _advance(coef, grid, p, dt, q, lq)
        except NonFiniteStateError:
            record(dt)
            termination = Termination(TERM_NONFINITE, t)
            break
        u, rho = _values(coef, grid.n)

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
        # written so that a NaN drift also stops the run
        if not abs(e0 - e0_first) <= E0_DRIFT_TOL * e0_first:
            record(dt)
            dived = trace_m[-1] <= dive_cutoff
            cause = TERM_BLOWUP if dived else TERM_RESOLUTION_LOST
            termination = Termination(cause, t)
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
