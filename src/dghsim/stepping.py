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

The RK4 state is one flat float array: the pair of Fourier coefficients
c = rfft((u, rho)) in "forward" normalisation, viewed as floats, followed,
when a characteristic ensemble rides along, by its positions q and
log-Jacobians lq.  Every stage shift, the final RK4 sum and the
finiteness check are one array expression each, and model.rhs_coeffs
takes and returns coefficients, so a right-hand side makes only its two
transforms at 3n/2 points, padding into one buffer that the step's four
stages share.  Once per step one batched inverse transform of the rows
(c_u, ik c_u, c_rho) gives the samples u, u_x and rho in a single pass;
that u_x feeds the slope tracking, the step size and the E0 check, and
any record reads the invariants straight off the arrays and E0, except
the cubic one, which pads the same rows to 2n with one more inverse
transform.  No sample is transformed forward again, and only a snapshot
builds a State.

Off-grid values cost one phase matrix per RK4 stage and nothing besides.
The observation after a step evaluates the same rows at q with one
grid.interp_coeffs call: its u and u_x are the next step's stage-1
characteristic rates, and its rho is the record's rho(q).  Stages 2 to 4
each read u and u_x at their stage positions off the stage coefficients
with one more call, so a step with characteristics builds four phase
matrices and a record none.  alpha = rho(xi) at the slope minimum comes
from grid.interp_point, one exponential row, with or without
characteristics.

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
from .grid import ConfigError, PeriodicGrid, deriv_values, interp_coeffs, interp_point
from .model import (
    ModelParams,
    State,
    energy_e0,
    hamiltonian_e,
    hamiltonian_f,
    mean_u,
    rhs_buffer,
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
                raise ConfigError(
                    f"{name} must be {rule}, got {getattr(self, name)}", name
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


def _values(c: np.ndarray, n: int) -> np.ndarray:
    return np.fft.irfft(c, n, norm="forward")


def _coefficients(y: np.ndarray, n: int) -> np.ndarray:
    """The coefficients c = rfft((u, rho)) at the head of a flat RK4 state
    y, as a (2, n/2 + 1) complex view."""
    return y[: 2 * n + 4].view(complex).reshape(2, -1)


def _advance(
    y: np.ndarray,
    grid: PeriodicGrid,
    p: ModelParams,
    dt: float,
    at_q: np.ndarray | None = None,
) -> np.ndarray:
    """One classical RK4 step of the flat state y = (c viewed as floats,
    q, lq); returns the new state, a new array.

    Without characteristics y holds c alone and at_q is None.  With K of
    them, at_q holds u and u_x at q at the step's start, shape (2, K),
    which the caller has already evaluated: they are stage 1's rates of q
    and lq, since positions advance with the velocity and the log-Jacobian
    integrates the slope.  Stages 2 to 4 each read u and u_x at their stage
    positions off their stage coefficients with one interp_coeffs call.  No
    rate reads lq.

    Finiteness is checked once, on the output: every stage enters the
    final RK4 sum, so a non-finite entry in any stage leaves one in it, and
    no stage needs a check of its own.
    """
    n = grid.n
    head = 2 * n + 4  # floats in c
    track = at_q is not None
    padded = rhs_buffer(grid)
    if track:
        value_and_slope = np.ones((2, n // 2 + 1), dtype=complex)
        value_and_slope[1] = grid.ik
        q_end = head + at_q.shape[1]

    def rates(y, at_q=None):
        c = _coefficients(y, n)
        k = rhs_coeffs(c, grid, p, padded).reshape(-1).view(float)
        if not track:
            return k
        if at_q is None:
            at_q = interp_coeffs(c[0] * value_and_slope, y[head:q_end])
        return np.concatenate((k, at_q.ravel()))

    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rates(y, at_q)
        k2 = rates(y + half * k1)
        k3 = rates(y + half * k2)
        k4 = rates(y + dt * k3)
        out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NonFiniteStateError("non-finite values in an RK4 stage")
    return out


def step_rk4(s: State, p: ModelParams, dt: float) -> State:
    """Single classical RK4 step of the field equations."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    c0 = np.fft.rfft(np.stack((s.u, s.rho)), norm="forward")
    y = _advance(c0.reshape(-1).view(float), s.grid, p, dt)
    u, rho = _values(_coefficients(y, s.grid.n), s.grid.n)
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
    # the RK4 state starts from a copy of the u and rho rows, followed by
    # the positions q and log-Jacobians lq of any characteristics
    rows = np.fft.rfft(np.stack((u, ux, rho)), norm="forward")
    track = seeds is not None
    count = 0 if seeds is None else len(seeds)
    head = 2 * grid.n + 4  # floats in the coefficients
    y = np.zeros(head + 2 * count)
    _coefficients(y, grid.n)[:] = rows[::2]
    if track:
        y[head : head + count] = seeds
    # u, u_x and rho at q, taken by observe(): the next step's stage-1
    # characteristic rates and the record's rho(q)
    at_q = None

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
        nonlocal e0, at_q
        e0 = energy_e0(u, ux, rho)
        m, xi = refined_min(ux, grid.dx)
        trace_t.append(t)
        trace_m.append(m)
        trace_xi.append(xi)
        trace_alpha.append(interp_point(rows[2], xi))
        if track:
            at_q = interp_coeffs(rows, y[head : head + count])

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
            ens_q.append(y[head : head + count].copy())
            ens_lq.append(y[head + count :].copy())
            ens_rq.append(at_q[2].copy())

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
            y = _advance(y, grid, p, dt, None if at_q is None else at_q[:2])
        except NonFiniteStateError:
            record(dt)
            termination = Termination(TERM_NONFINITE, t)
            break
        coef = _coefficients(y, grid.n)
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
