"""Adaptive RK4 time integration with slope-based breakdown detection.

The step size tracks both the advective CFL limit and the steepness of
the solution:

    dt = min(cfl dx / max(max|u - gamma|, 1e-8),
             slope_dt_factor / max(|min u_x|, 1),  time remaining)

where min u_x is the refined slope minimum the run has just traced.  As
the minimal slope dives, steps shrink in proportion, so a genuine blow-up
is followed in a controlled geometric cascade until the grid can no
longer resolve it; the two floors keep a quiescent or slowly varying
state from asking for an unbounded step.

Runs terminate with one of four causes:

  ReachedEnd      integrated to t_end
  BlowupDetected  E0 stopped being conserved after min u_x had dived past
                  the rate fit's cutoff, -3 max(1, |m(0)|)
  ResolutionLost  E0 stopped being conserved before such a dive, or the
                  step fell below the time resolution 1e-12 max(1, t_end)
                  and could not advance t
  NonFiniteState  an RK4 stage produced non-finite values

The semi-discrete flow conserves E0 exactly, so once its relative drift
passes E0_DRIFT_TOL the grid no longer follows the solution, and every
later step would only describe the numerics.  The run stops at that step.

The RK4 state is the pair of Fourier coefficients c = rfft((u, rho)) in
"forward" normalisation: every stage, and the final sum, is a linear
combination of coefficient arrays, and model.rhs_coeffs takes and returns
coefficients, so a right-hand side makes only its two transforms at 3n/2
points.  A characteristic ensemble rides in the same RK4 sum: one stage
function returns the coefficient rates together with u and u_x at the
stage positions, read off the stage coefficients by one
grid.interp_coeffs call with no transform.  Once per step one batched
inverse transform of the rows (c_u, ik c_u, c_rho) gives the samples u,
u_x and rho in a single pass; that u_x feeds the slope tracking, the step
size and the E0 check, and any record reads the invariants straight off
the arrays and E0, except the cubic one, which pads the same rows to 2n
with one more inverse transform.  No sample is transformed forward again,
and only a snapshot builds a State.

Step 0 starts from the given samples: u_x is their spectral derivative,
and one batched forward transform of (u, u_x, rho) gives the rows, whose
first and last make the initial RK4 state.  From there on every record
computes its invariants the same way.
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
    "TERM_NONFINITE",
    "E0_DRIFT_TOL",
]

TERM_REACHED_END = "ReachedEnd"
TERM_BLOWUP = "BlowupDetected"
TERM_RESOLUTION_LOST = "ResolutionLost"
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
    min_slope: float,
) -> float:
    """Advective-CFL / slope-limited step for velocity samples u and their
    slope minimum min_slope, clipped to the time remaining."""
    dx = 1.0 / u.size
    speed = float(np.max(np.abs(u - p.gamma)))
    dt_advect = c.cfl * dx / max(speed, 1.0e-8)
    dt_slope = c.slope_dt_factor / max(abs(min_slope), 1.0)
    return min(dt_advect, dt_slope, t_remaining)


def _require_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteStateError("non-finite values in an RK4 stage")


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

    The state is the tuple (c,) or (c, q, lq).  Its one stage function
    returns the coefficient rates and, for trajectories, the stage
    velocity and slope at the stage positions, both read off the stage
    coefficients of u and u_x with one shared phase matrix: positions
    advance with the velocity, and the log-Jacobian integrates the slope.

    Finiteness is checked once, on the outputs: every stage enters the
    final RK4 sum, so a non-finite coefficient in any stage leaves one in
    c_new, and no stage needs a check of its own.
    """

    def rates(y):
        k = rhs_coeffs(y[0], grid, p)
        if q is None:
            return (k,)
        uux[0] = y[0][0]
        np.multiply(grid.ik, uux[0], out=uux[1])
        return (k, *interp_coeffs(uux, y[1]))

    def shift(y, h, k):
        # no rate reads lq, so a stage carries (c, q) only
        return [a + h * b for a, b in zip(y[:2], k)]

    half = 0.5 * dt
    y = (c,) if q is None else (c, q, lq)
    uux = np.empty((2, grid.n // 2 + 1), dtype=complex)  # stage (u, u_x)
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rates(y)
        k2 = rates(shift(y, half, k1))
        k3 = rates(shift(y, half, k2))
        k4 = rates(shift(y, dt, k3))
        out = [
            a + (dt / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            for a, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4)
        ]
    _require_finite(*out)
    if q is None:
        return out[0], None, None
    return tuple(out)


def step_rk4(s: State, p: ModelParams, dt: float) -> State:
    """Single classical RK4 step of the field equations."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    c0 = np.fft.rfft(np.stack((s.u, s.rho)), norm="forward")
    c, _, _ = _advance(c0, s.grid, p, dt)
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
    ux = deriv_values(u, 1)
    # coefficients of (u, u_x, rho), the rows of each step's one inverse
    # transform to samples; a record pads them for the cubic invariant, and
    # the RK4 state is a copy of the u and rho rows
    rows = np.fft.rfft(np.stack((u, ux, rho)), norm="forward")
    coef = rows[::2].copy()
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
    series: list[list[float]] = []
    snapshots: list[tuple[float, State]] = []
    ens_t: list[float] = []
    ens_q: list[np.ndarray] = []
    ens_lq: list[np.ndarray] = []
    ens_rq: list[np.ndarray] = []

    # E0 of the current (u, u_x, rho), taken by observe() and read by record()
    e0 = 0.0

    def observe() -> None:
        nonlocal e0
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
        series.append([
            t, e0, mean_u(u), hamiltonian_e(e0, rho), hamiltonian_f(rows, p),
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
        if dt < tiny:
            # a step below the loop's time resolution cannot carry the run on
            record(dt)
            termination = Termination(TERM_RESOLUTION_LOST, t)
            break

        try:
            coef, q, lq = _advance(coef, grid, p, dt, q, lq)
        except NonFiniteStateError:
            record(dt)
            termination = Termination(TERM_NONFINITE, t)
            break
        rows[::2] = coef
        np.multiply(grid.ik, coef[0], out=rows[1])
        u, ux, rho = _values(rows, grid.n)

        if hit_snapshot:
            t = snaps_due.popleft()
        else:
            t = t + dt
        step += 1
        observe()

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
        series=np.asarray(series, dtype=float),
        ensemble=ensemble,
    )
