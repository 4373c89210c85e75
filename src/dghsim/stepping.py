"""Adaptive RK4 time integration with slope-based breakdown detection.

The step size tracks both the advective CFL limit and the steepness of
the solution:

    dt = min(cfl dx / max(max|u - gamma|, 1e-8),
             SLOPE_DT_FACTOR / max(|min u_x|, 1),  time remaining)

where SLOPE_DT_FACTOR = 0.05 and min u_x is the refined slope minimum
the run has just traced.  As the minimal slope dives, steps shrink in
proportion, so a genuine blow-up is followed in a controlled geometric
cascade until the grid can no longer resolve it; the two floors keep a
quiescent or slowly varying state from asking for an unbounded step.

Runs terminate with one of four causes:

  ReachedEnd      integrated to t_end
  BlowupDetected  E0 stopped being conserved after min u_x had dived past
                  criteria.dive_cutoff(m(0)) = -3 max(1, |m(0)|), where
                  the rate fit's window starts
  ResolutionLost  E0 stopped being conserved before such a dive, or the
                  step fell below the time resolution 1e-12 max(1, t_end)
                  and could not advance t
  NonFiniteState  an RK4 stage produced non-finite values

The semi-discrete flow conserves E0 exactly, so once its relative drift
passes E0_DRIFT_TOL the grid no longer follows the solution, and every
later step would only describe the numerics.  The run stops at that step.

The RK4 state is one flat float array: the pair of Fourier coefficients
c = rfft((u, rho)) in "forward" normalisation, viewed as floats,
followed, when a characteristic ensemble rides along, by its positions q
and log-Jacobians lq.  Every stage shift and the final RK4 sum are a few
ufunc calls, each writing into the group's one workspace, and the
finiteness check is one expression on the new state; model.rhs_coeffs
takes and returns coefficients, so a right-hand side makes only its two
transforms at 3n/2 points, padding into the work arrays of the
workspace's model.rhs_buffer, which every stage of every step shares.
The workspace is built when the group forms and again when members leave
it, never per step, and so is the group's _Observation beside it: the
states, the rows, their samples, the arrays E0 is reduced in, the values
at q and the 2n pad buffer of the cubic invariant, each with the views
the driver and the members read.  A step allocates none of these and
overwrites each.  Once per step one batched inverse transform of the
rows (c_u, ik c_u, c_rho) gives the samples u, u_x and rho in a single
pass; that u_x feeds the slope tracking, the step size and the E0 check,
and a record reads the invariants straight off the arrays and E0, except
the cubic one, which pads the same rows to 2n with one more inverse
transform.  No sample is transformed forward again, and only a snapshot
builds a State.

Off-grid values cost one phase table per RK4 stage and nothing besides,
and every product with one is real: grid.interp_blocks puts the mode
weights on the coefficients and multiplies them with the table's float
view.  The observation after a step evaluates the same rows at q with
one interp_blocks call: its u and u_x are the next step's stage-1
characteristic rates, and its rho is the record's rho(q).  Stages 2 to 4
each read u and u_x at their stage positions off the stage coefficients
with one more interp_blocks call, so a step with characteristics fills
four phase tables and a record none.  The observation and the stages
are never live at once, so they fill the one table of the workspace's
grid.InterpWork, in which every array those calls write was built with
the group.  alpha = rho(xi) at the slope
minimum comes from grid.interp_point, one exponential row, with or
without characteristics.

Step 0 starts from the given samples: u_x is their spectral derivative,
and one batched forward transform of (u, u_x, rho) gives the rows, whose
first and last make the initial RK4 state.  From there on every record
computes its invariants the same way.

run takes one member or a list of members, and a single run is a list of
one.  Members with the same grid size and seed count form a group, since
their arrays stack, and a group's arrays have one owner, the lockstep
driver: it holds the group's workspace, with its right-hand side buffer,
one row of symbols per member's A and gamma, and the columns of A and
gamma that the cubic invariant reads, and the group's observation, with
the RK4 states stacked on a leading axis, both built when the group
forms and rebuilt when a member leaves; it advances the states with one
_advance call per step, with one dt per member, and observes them with
one inverse transform, one square and two reductions for E0 and, with
characteristics, one interp_blocks call for the whole group.  The record
invariants (meanU, hamE, hamF) are one pass over the stacked arrays as
well, with one 2n inverse transform for the cubic one: the first member
that records on a step makes it for every member, and the others read
their entries, so a single run, a group of one, makes it only on the
steps it records.  Only the driver and _advance know the flat layout of
the state.  Each member is a generator that keeps its run's scalars: it
is sent views of its own slice of the group's arrays, its E0 and its
record entries, and yields its next dt, or has NonFiniteStateError
thrown into it.  The next step overwrites the arrays those views show,
so whatever a member keeps, a snapshot's fields or a record's
characteristics, it copies, and a member whose step fails has the error
thrown in before the driver observes the new states, while its views
still hold the state its record reads.  So the slope minimum, alpha, the
step size, records, snapshots, the E0 guard and termination stay one
scalar code path per member.  The group's transforms, products and sums
are the ones each member makes alone, so a member's result is bit for
bit its single run's.  Finiteness is checked per member, so a member
that fails leaves the group and the others run on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .characteristics import CharacteristicEnsemble
from .criteria import SlopeTrace, dive_cutoff, refined_min
from .grid import (
    ConfigError,
    InterpWork,
    PeriodicGrid,
    coefficient_parts,
    deriv_values,
    interp_blocks,
    interp_point,
)
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
    "SLOPE_DT_FACTOR",
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
# the slope limit of the step size: dt <= SLOPE_DT_FACTOR / max(|min u_x|, 1)
SLOPE_DT_FACTOR = 0.05

SERIES_COLUMNS = ("t", "E0", "meanU", "hamE", "hamF", "minUx", "xi", "alpha", "dt")


class NonFiniteStateError(RuntimeError):
    """An RK4 stage produced non-finite values."""


@dataclass(frozen=True)
class SimConfig:
    n: int
    t_end: float
    cfl: float = 0.3
    record_every: int = 10
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        PeriodicGrid(self.n)  # validates n
        # each test is written as "inside the range", so NaN fails it
        for name, inside, rule in (
            ("t_end", 0.0 < self.t_end < math.inf, "positive and finite"),
            ("cfl", 0.0 < self.cfl <= 1.0, "in (0, 1]"),
            ("record_every", self.record_every >= 1, "at least 1"),
        ):
            if not inside:
                raise ConfigError(
                    f"{name} must be {rule}, got {getattr(self, name)}", name
                )
        times = tuple(float(t) for t in self.snapshot_times)
        # "inside" again, so NaN fails; a time past t_end is kept and never
        # reached
        for t in times:
            if not t >= 0.0:
                raise ConfigError(
                    f"snapshot_times must be non-negative, got {t}", "snapshot_times"
                )
        object.__setattr__(self, "snapshot_times", times)


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
    # max|u - gamma| from the extremes of u: rounding is monotone, so this
    # is the same float as the maximum over the differences
    speed = max(
        float(np.maximum.reduce(u)) - p.gamma, p.gamma - float(np.minimum.reduce(u))
    )
    dt_advect = c.cfl * dx / max(speed, 1.0e-8)
    dt_slope = SLOPE_DT_FACTOR / max(abs(min_slope), 1.0)
    return min(dt_advect, dt_slope, t_remaining)


def _coefficients(y: np.ndarray, n: int) -> np.ndarray:
    """The coefficients c = rfft((u, rho)) at the head of each row of a
    flat RK4 state y, shape (members, L), as a (members, 2, n/2 + 1)
    complex view."""
    return y[:, : 2 * n + 4].view(complex).reshape(len(y), 2, -1)


class _Workspace:
    """Every array a lockstep group's step writes, for the members with
    the ModelParams in params on one grid, each with `count`
    characteristics, or None without.

    It holds the group's model.rhs_buffer; the (members, 1) columns of A
    and gamma that hamiltonian_f reads; the (members, 1) columns dt/2 and
    dt/6 of the step sizes; the four RK4 rate arrays and the stage state,
    each of the state's shape (members, L), with the coefficient views
    that rhs_coeffs reads and writes, the first rate array also receiving
    the new state; and the finiteness of its entries and of each row.
    With characteristics it also holds the grid.InterpWork of the group,
    whose one phase table serves the observation (rows u, u_x, rho) and
    stages 2 to 4 (rows u, u_x), which are never live at once; the rows
    (1, ik) that turn a stage's coefficients of u into those of (u, u_x),
    the (members, 2, n/2 + 1) array they fill and its view that
    interp_blocks weighs; each rate's view of its rates of (q, lq), shape
    (members, 2, K); and the stage's view of its positions.  The lockstep
    driver builds one when the group forms and one each time members
    leave it, so parameters and arrays cannot disagree; step_rk4 builds
    one per call.
    """

    def __init__(
        self, grid: PeriodicGrid, params: tuple[ModelParams, ...], count: int | None
    ) -> None:
        n = grid.n
        head = 2 * n + 4  # floats in c
        members = len(params)
        self.grid = grid
        self.buffer = rhs_buffer(grid, params)
        self.A = np.array([[p.A] for p in params])
        self.gamma = np.array([[p.gamma] for p in params])
        self.half_dt, self.sixth_dt = np.empty((2, members, 1))
        width = head + 2 * (count or 0)
        arrays = np.empty((5, members, width))  # the four rates, then the stage
        self.rates, self.stage = tuple(arrays[:4]), arrays[4]
        *self.rate_coefficients, self.stage_coefficients = _coefficients(
            arrays.reshape(-1, width), n
        ).reshape(5, members, 2, -1)
        self.finite_entries = np.empty((members, width), dtype=bool)
        self.finite = np.empty(members, dtype=bool)
        self.interp = None
        if count is not None:
            self.interp = InterpWork(n // 2, members, count, (2, 3))
            self.value_and_slope = np.stack((np.ones_like(grid.ik), grid.ik))
            self.stage_u = self.stage_coefficients[:, :1]
            self.stage_slope = np.empty((members, 2, n // 2 + 1), dtype=complex)
            self.stage_slope_parts = coefficient_parts(self.stage_slope)
            self.rate_at_q = [k[:, head:].reshape(members, 2, count) for k in self.rates]
            self.stage_q = self.stage[:, head : head + count]


def _advance(
    y: np.ndarray,
    work: _Workspace,
    dt: np.ndarray,
    at_q: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of each row of the flat state y, shape
    (members, L), each row (c viewed as floats, q, lq), with its own
    parameters through work, the _Workspace the caller built for these
    rows, and its own step size in dt, a column of shape (members, 1);
    returns the new state and whether each of its rows is finite, both
    work's arrays, which the next call overwrites.  Every array the step
    writes is work's, each written through out= by the operations the
    expression y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4) makes, in the same
    order, so the result is bit for bit that expression's; the sum
    accumulates in k1, whose array then holds the new state.

    Without characteristics y holds c alone and at_q is None.  With K of
    them per row, at_q holds u and u_x at q at the step's start, shape
    (members, 2, K), which the caller has already evaluated: they are
    stage 1's rates of q and lq, since positions advance with the velocity
    and the log-Jacobian integrates the slope.  Stages 2 to 4 each read u
    and u_x at their stage positions off their stage coefficients with one
    interp_blocks call: one phase table for the positions of every row,
    one product per row.  No rate reads lq.

    Rows never mix: each transform, product and sum that a row goes
    through is the one it goes through alone, so a row's result does not
    depend on the rows beside it.  Finiteness is checked once per row, on
    the output: every stage enters the final RK4 sum, so a non-finite
    entry in any stage of a row leaves one in that row, and no stage needs
    a check of its own.
    """
    grid, buffer = work.grid, work.buffer
    stage, c = work.stage, work.stage_coefficients
    k1, k2, k3, k4 = work.rates
    half = np.multiply(0.5, dt, out=work.half_dt)
    with np.errstate(over="ignore", invalid="ignore"):
        # k1 at y, whose rates of q and lq the caller has evaluated
        rhs_coeffs(_coefficients(y, grid.n), grid, buffer, work.rate_coefficients[0])
        if at_q is not None:
            np.copyto(work.rate_at_q[0], at_q)
        # k2, k3 and k4 at the stages y + (dt/2) k1, y + (dt/2) k2 and
        # y + dt k3; the sum commutes bit for bit, so y may come second
        for i, scale in ((1, half), (2, half), (3, dt)):
            np.multiply(scale, work.rates[i - 1], out=stage)
            np.add(y, stage, out=stage)
            rhs_coeffs(c, grid, buffer, work.rate_coefficients[i])
            if at_q is not None:
                np.multiply(work.stage_u, work.value_and_slope, out=work.stage_slope)
                interp_blocks(
                    work.stage_slope_parts, work.stage_q, work.interp, work.rate_at_q[i]
                )
        # y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in k1
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(2.0, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(np.divide(dt, 6.0, out=work.sixth_dt), k1, out=k1)
        np.add(y, k1, out=k1)
    np.isfinite(k1, out=work.finite_entries)
    return k1, np.logical_and.reduce(work.finite_entries, axis=1, out=work.finite)


def step_rk4(s: State, p: ModelParams, dt: float) -> State:
    """Single classical RK4 step of the field equations."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    c0 = np.fft.rfft(np.stack((s.u, s.rho)), norm="forward")
    y = c0.reshape(1, -1).view(float)
    y, finite = _advance(y, _Workspace(s.grid, (p,), None), np.full((1, 1), dt))
    if not finite[0]:
        raise NonFiniteStateError("non-finite values in an RK4 stage")
    u, rho = np.fft.irfft(_coefficients(y, s.grid.n)[0], s.grid.n, norm="forward")
    return State(s.grid, u, rho)


def _member(
    grid: PeriodicGrid,
    p: ModelParams,
    c: SimConfig,
    seeds: np.ndarray | None,
):
    """One run as a generator over its slice of its group's arrays.

    It is sent (samples, rho_c, chars, invariants, e0) for each state its
    run reaches, step 0 first: views of the samples of u, u_x and rho,
    each of shape (n,), and of the coefficients of rho, shape (n/2 + 1,),
    with seeds views of the positions q, the log-Jacobians lq and rho(q),
    each of shape (K,), or None without, a callable that returns the
    record invariants (meanU, hamE, hamF) of that state, and its E0.
    The views are of its group's arrays, which the next step overwrites,
    so whatever it keeps of them, a snapshot's fields or a record's
    characteristics, it copies.  It yields each step's dt and is sent the
    state that step reached, or has NonFiniteStateError thrown into it
    while the views it was last sent still hold the state that step
    started from.  It returns the run's SimResult.  It makes no
    transform, computes no invariant, and reads off-grid only alpha.
    """
    (u, ux, rho), rho_c, chars, invariants, e0 = yield

    tiny = 1.0e-12 * max(1.0, c.t_end)
    snaps_due = deque(
        sorted({t for t in c.snapshot_times if t <= c.t_end})
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
    ens_chars: list[np.ndarray] = []  # (q, lq, rho(q)) of each record

    def observe() -> None:
        m, xi = refined_min(ux, grid.dx)
        trace_t.append(t)
        trace_m.append(m)
        trace_xi.append(xi)
        trace_alpha.append(interp_point(rho_c, xi))

    def record(dt_next: float) -> None:
        nonlocal last_recorded
        if step == last_recorded:
            return
        last_recorded = step
        series.append([
            t, e0, *invariants(), trace_m[-1], trace_xi[-1], trace_alpha[-1], dt_next,
        ])
        if chars is not None:
            # a copy, since chars are views of the group's arrays
            ens_chars.append(np.array(chars))

    def take_snapshot() -> None:
        # copies, since u and rho are views of the group's samples
        snapshots.append((t, State(grid, u.copy(), rho.copy())))

    observe()
    e0_first = e0
    cutoff = dive_cutoff(trace_m[0])
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
            (u, ux, rho), rho_c, chars, invariants, e0 = yield dt
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

        # written so that a NaN drift also stops the run
        if not abs(e0 - e0_first) <= E0_DRIFT_TOL * e0_first:
            record(dt)
            dived = trace_m[-1] <= cutoff
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
    series = np.asarray(series, dtype=float)
    ensemble = None
    if seeds is not None:
        # a record appends to the series and the characteristics together
        q, lq, rho_q = np.stack(ens_chars, axis=1)
        ensemble = CharacteristicEnsemble(
            seeds=np.asarray(seeds, dtype=float),
            times=series[:, 0],
            q=q,
            log_qx=lq,
            rho_q=rho_q,
        )
    return SimResult(
        slope_trace=trace,
        snapshots=snapshots,
        termination=termination,
        series=series,
        ensemble=ensemble,
    )


def run(
    s0: State | list[State],
    p: ModelParams | list[ModelParams],
    c: SimConfig | list[SimConfig],
    seeds: np.ndarray | list[np.ndarray | None] | None = None,
) -> SimResult | list[SimResult]:
    """Integrate from t = 0 until t_end or breakdown.

    Invariants are recorded every `record_every` steps, at snapshot times
    and at termination; the slope trace records every step.  Passing seed
    positions couples a characteristic ensemble into the same RK4 stages.

    Given a State, a ModelParams, a SimConfig and seeds (an array or None),
    returns the run's SimResult.  Given equally long lists of them, one
    entry per member, with seeds None or a list whose entries may be None,
    returns one SimResult per member, in order, each bit for bit the one
    its member gets alone when it has no seeds or at least two (see
    grid.interp_blocks).  Members with the same grid size and seed count
    advance in lockstep, whatever their parameters.
    """
    if isinstance(s0, State):
        return _lockstep([(s0, p, c, seeds)])[0]
    if seeds is None:
        seeds = [None] * len(s0)
    return _lockstep(list(zip(s0, p, c, seeds, strict=True)))


class _Observation:
    """A lockstep group's states and the arrays the driver observes them
    in, for the members of work, a _Workspace, each with `count`
    characteristics, or None without; the driver builds one beside each
    workspace, when the group forms and each time members leave it.

    It holds the flat RK4 states (c, q, lq), one row per member, with
    their coefficient views; the rows (c_u, ik c_u, c_rho), with their
    views of c and ik c_u; the samples of (u, u_x, rho) that one inverse
    transform of the rows fills; the three arrays energy_e0 writes the
    group's E0 into; the group's _RecordPass; with characteristics, the
    positions' view of the states, the values of (u, u_x, rho) at q that
    interp_blocks writes, with their rows (u, u_x), which stage 1 reads,
    and the view of the rows that interp_blocks weighs; and each member's
    views of these and its entry of the record pass, which it is sent.
    Every step overwrites these arrays, so a member copies what it keeps
    of them.
    """

    def __init__(self, work: _Workspace, count: int | None) -> None:
        n = work.grid.n
        head = 2 * n + 4  # floats in c
        members = len(work.A)
        self.work = work
        self.state = np.zeros((members, head + 2 * (count or 0)))
        self.coefficients = _coefficients(self.state, n)
        self.coefficients_u = self.coefficients[:, 0]
        self.rows = np.empty((members, 3, n // 2 + 1), dtype=complex)
        self.row_pairs = self.rows[:, ::2]
        self.row_slopes = self.rows[:, 1]
        self.samples = np.empty((members, 3, n))
        self.energy = (np.empty((members, 3, n)), np.empty((members, n)), np.empty(members))
        self.record = _RecordPass(self.samples, self.rows, self.energy[2], work)
        chars = [None] * members
        self.q = self.at_q = self.rates_at_q = self.row_parts = None
        if count is not None:
            self.q = self.state[:, head : head + count]
            self.at_q = np.empty((members, 3, count))
            self.rates_at_q = self.at_q[:, :2]
            self.row_parts = coefficient_parts(self.rows)
            chars = [
                (self.q[j], self.state[j, head + count :], self.at_q[j, 2])
                for j in range(members)
            ]
        self.views = [
            (tuple(self.samples[j]), self.rows[j, 2], chars[j], partial(self.record, j))
            for j in range(members)
        ]

    def observe(self) -> list[float]:
        """Observe the states: the rows and their samples, which the
        caller has filled, and with characteristics (u, u_x, rho) at q;
        returns every member's E0."""
        if self.q is not None:
            interp_blocks(self.row_parts, self.q, self.work.interp, self.at_q)
        self.record.table.clear()
        return energy_e0(self.samples, work=self.energy).tolist()


class _RecordPass:
    """The record invariants of a group's observed states, computed once
    per step.

    samples and rows are the group's stacked (u, u_x, rho) samples and
    coefficient rows and e0 their E0, one row per member, and work the
    group's _Workspace, whose columns of A and gamma the cubic invariant
    reads.  Called with a member's row index, it gives that member's
    (meanU, hamE, hamF).  The first call after the table is cleared
    computes them for every row, with one reduction each and one 2n
    inverse transform of the stacked rows, padded in a buffer built here,
    for the cubic invariant, and later calls read that table, so a group
    step on which any member records pays for one pass and a step on
    which none records for none.
    """

    def __init__(
        self, samples: np.ndarray, rows: np.ndarray, e0: np.ndarray, work: _Workspace
    ) -> None:
        self.samples, self.rows, self.e0 = samples, rows, e0
        self.A, self.gamma = work.A, work.gamma
        self.padded = np.zeros(rows.shape[:-1] + (2 * rows.shape[-1] - 1,), dtype=complex)
        self.table: list[tuple[float, float, float]] = []

    def __call__(self, j: int) -> tuple[float, float, float]:
        if not self.table:
            self.table.extend(zip(
                mean_u(self.samples[:, 0]).tolist(),
                hamiltonian_e(self.e0, self.samples[:, 2]).tolist(),
                hamiltonian_f(self.rows, self.A, self.gamma, self.padded).tolist(),
            ))
        return self.table[j]


def _lockstep(members: list[tuple]) -> list[SimResult]:
    """Run each (state, params, config, seeds) member to its end.

    Members with the same grid size and seed count form a group, since
    their arrays stack, and this driver is the one owner of a group's
    arrays.  It builds the _Workspace of the group's ModelParams, one per
    member, and beside it the group's _Observation, which holds the flat
    RK4 states (c, q, lq) stacked on a leading axis, when the group forms,
    and makes one _advance call per step, with that workspace and a column
    of one dt per member.  After each step it copies the new states in,
    makes one batched inverse transform of the rows (c_u, ik c_u, c_rho)
    to the samples of (u, u_x, rho), takes every member's E0 with one
    energy_e0 call, and with characteristics makes one interp_blocks call
    for (u, u_x, rho) at q on the workspace's InterpWork, each into the
    observation's arrays.  Each member is sent its views of these arrays,
    which the next step overwrites, its E0 and its record-invariant
    callable.  A member whose row is not finite has NonFiniteStateError
    thrown into it right after the step, before anything it was sent is
    overwritten.  A member that ends, or whose row is not finite, leaves
    the group: the workspace and the observation are rebuilt, on the same
    line, for the members that stay, with their rows of the states and of
    the values at q, so no array of a step is sized or parameterised for
    members that have left.
    """
    results: list = [None] * len(members)
    groups: dict = {}
    for i, (s0, _, c, seeds) in enumerate(members):
        if s0.grid.n != c.n:
            raise ValueError(f"state lives on n={s0.grid.n}, config says n={c.n}")
        key = (s0.grid, None if seeds is None else len(seeds))
        groups.setdefault(key, []).append(i)
    for (grid, count), group in groups.items():
        n = grid.n
        live = [(i, _member(grid, *members[i][1:])) for i in group]
        params = tuple(members[i][1] for i in group)
        work = _Workspace(grid, params, count)
        obs = _Observation(work, count)

        def leave(staying: list[int]) -> None:
            # rebuild the group's arrays for the members in staying, with
            # their rows of the states and of the values at q
            nonlocal live, params, work, obs
            live = [live[j] for j in staying]
            params = tuple(params[j] for j in staying)
            old, work = obs, _Workspace(grid, params, count)
            obs = _Observation(work, count)
            np.take(old.state, staying, axis=0, out=obs.state)
            if count is not None:
                np.take(old.at_q, staying, axis=0, out=obs.at_q)

        for _, member in live:
            next(member)  # to the yield that takes the step-0 views
        # step 0 from the given samples: u_x is their spectral derivative,
        # and the rows' first and last start the RK4 state, followed by the
        # seeds and lq = 0
        u = np.stack([members[i][0].u for i in group])
        rho = np.stack([members[i][0].rho for i in group])
        np.copyto(obs.samples, np.stack((u, deriv_values(u, 1), rho), axis=1))
        np.fft.rfft(obs.samples, norm="forward", out=obs.rows)
        np.copyto(obs.coefficients, obs.row_pairs)
        if count is not None:
            obs.q[:] = [members[i][3] for i in group]
        while True:
            e0s = obs.observe()
            staying, dts = [], []
            for j, (i, member) in enumerate(live):
                try:
                    dts.append(member.send((*obs.views[j], e0s[j])))
                except StopIteration as end:
                    results[i] = end.value
                    continue
                staying.append(j)
            if not staying:
                break
            if len(staying) < len(live):
                leave(staying)
            state, finite = _advance(obs.state, work, np.array(dts)[:, None], obs.rates_at_q)
            if not finite.all():
                # each such member records from the views it was last
                # sent, which still hold the state its step started from
                staying = []
                for j, (i, member) in enumerate(live):
                    if finite[j]:
                        staying.append(j)
                        continue
                    try:
                        member.throw(NonFiniteStateError("non-finite values in an RK4 stage"))
                    except StopIteration as end:
                        results[i] = end.value
                if not staying:
                    break
            np.copyto(obs.state, state)
            if len(staying) < len(live):
                leave(staying)
            np.copyto(obs.row_pairs, obs.coefficients)
            np.multiply(grid.ik, obs.coefficients_u, out=obs.row_slopes)
            np.fft.irfft(obs.rows, n, norm="forward", out=obs.samples)
    return results
