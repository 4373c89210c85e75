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
c = rfft((u, rho)) in "forward" normalisation, viewed as floats, followed,
when a characteristic ensemble rides along, by its positions q and
log-Jacobians lq.  Every stage shift, the final RK4 sum and the
finiteness check are one array expression each, and model.rhs_coeffs
takes and returns coefficients, so a right-hand side makes only its two
transforms at 3n/2 points, padding into work arrays that the four
stages of a step share.  Once per step one batched inverse transform of
the rows (c_u, ik c_u, c_rho) gives the samples u, u_x and rho in a
single pass; that u_x feeds the slope tracking, the step size and the E0
check, and a record reads the invariants straight off the arrays and
E0, except the cubic one, which pads the same rows to 2n with one more
inverse transform.  No sample is transformed forward again, and only a
snapshot builds a State.

Off-grid values cost one phase matrix per RK4 stage and nothing besides,
and every product with one is real: grid.interp_blocks puts the mode
weights on the coefficients and multiplies them with the matrix's float
view.  The observation after a step evaluates the same rows at q with
one interp_blocks call: its u and u_x are the next step's stage-1
characteristic rates, and its rho is the record's rho(q).  Stages 2 to 4
each read u and u_x at their stage positions off the stage coefficients
with one more interp_blocks call, so a step with characteristics builds
four phase matrices and a record none.  alpha = rho(xi) at the slope
minimum comes from grid.interp_point, one exponential row, with or
without characteristics.

Step 0 starts from the given samples: u_x is their spectral derivative,
and one batched forward transform of (u, u_x, rho) gives the rows, whose
first and last make the initial RK4 state.  From there on every record
computes its invariants the same way.

run takes one member or a list of members, and a single run is a list of
one.  Members with the same grid size and seed count form a group, since
their arrays stack, and a group's arrays have one owner, the lockstep
driver: it holds the group's RK4 states stacked on a leading axis,
advances them with one _advance call per step, with one dt and one
ModelParams per member, and observes them with one inverse transform,
one E0 expression and reduction and, with characteristics, one
interp_blocks call for the whole group.  The
record invariants (meanU, hamE, hamF) are one pass over the stacked
arrays as well, with one 2n inverse transform for the cubic one: the
first member that records on a step makes it for every member, and the
others read their entries, so a single run, a group of one, makes it
only on the steps it records.  Only the driver and _advance know the
flat layout of the state.  Each member is a generator that keeps its
run's scalars: it is sent views of its own slice of the group's arrays,
its E0 and its record entries, and yields its next dt, or has
NonFiniteStateError thrown into it, so the slope minimum, alpha, the
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
from functools import lru_cache, partial

import numpy as np

from .characteristics import CharacteristicEnsemble
from .criteria import SlopeTrace, dive_cutoff, refined_min
from .grid import (
    ConfigError,
    PeriodicGrid,
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
    # max|u - gamma| from the extremes of u: rounding is monotone, so this
    # is the same float as the maximum over the differences
    speed = max(
        float(np.maximum.reduce(u)) - p.gamma, p.gamma - float(np.minimum.reduce(u))
    )
    dt_advect = c.cfl * dx / max(speed, 1.0e-8)
    dt_slope = c.slope_dt_factor / max(abs(min_slope), 1.0)
    return min(dt_advect, dt_slope, t_remaining)


def _values(c: np.ndarray, n: int) -> np.ndarray:
    return np.fft.irfft(c, n, norm="forward")


def _coefficients(y: np.ndarray, n: int) -> np.ndarray:
    """The coefficients c = rfft((u, rho)) at the head of each row of a
    flat RK4 state y, shape (members, L), as a (members, 2, n/2 + 1)
    complex view."""
    return y[:, : 2 * n + 4].view(complex).reshape(len(y), 2, -1)


@lru_cache(maxsize=8)
def _value_and_slope(grid: PeriodicGrid) -> np.ndarray:
    """The rows (1, ik) that turn the coefficients of u into those of u and
    u_x."""
    rows = np.ones((2, grid.n // 2 + 1), dtype=complex)
    rows[1] = grid.ik
    rows.flags.writeable = False
    return rows


def _advance(
    y: np.ndarray,
    grid: PeriodicGrid,
    params: tuple[ModelParams, ...],
    dt: np.ndarray,
    at_q: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of each row of the flat state y, shape
    (members, L), each row (c viewed as floats, q, lq), with its own
    ModelParams in params and its own step size in dt, a column of shape
    (members, 1); returns the new state, a new array, and whether each of
    its rows is finite.

    Without characteristics y holds c alone and at_q is None.  With K of
    them per row, at_q holds u and u_x at q at the step's start, shape
    (members, 2, K), which the caller has already evaluated: they are
    stage 1's rates of q and lq, since positions advance with the velocity
    and the log-Jacobian integrates the slope.  Stages 2 to 4 each read u
    and u_x at their stage positions off their stage coefficients with one
    interp_blocks call: one phase matrix for the positions of every row,
    one product per row.  No rate reads lq.

    Rows never mix: each transform, product and sum that a row goes
    through is the one it goes through alone, so a row's result does not
    depend on the rows beside it.  Finiteness is checked once per row, on
    the output: every stage enters the final RK4 sum, so a non-finite
    entry in any stage of a row leaves one in that row, and no stage needs
    a check of its own.
    """
    n = grid.n
    head = 2 * n + 4  # floats in c
    members = len(y)
    track = at_q is not None
    work = rhs_buffer(grid, members)
    if track:
        value_and_slope = _value_and_slope(grid)
        q_end = head + at_q.shape[-1]

    def rates(y, at_q=None):
        c = _coefficients(y, n)
        k = np.empty_like(y)
        rhs_coeffs(c, grid, params, work, _coefficients(k, n))
        if track and at_q is None:
            at_k = k[:, head:].reshape(members, 2, -1)
            interp_blocks(c[:, :1] * value_and_slope, y[:, head:q_end], at_k)
        elif track:
            k[:, head:] = at_q.reshape(members, -1)
        return k

    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rates(y, at_q)
        k2 = rates(y + half * k1)
        k3 = rates(y + half * k2)
        k4 = rates(y + dt * k3)
        out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, np.isfinite(out).all(axis=1)


def step_rk4(s: State, p: ModelParams, dt: float) -> State:
    """Single classical RK4 step of the field equations."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    c0 = np.fft.rfft(np.stack((s.u, s.rho)), norm="forward")
    y = c0.reshape(1, -1).view(float)
    y, finite = _advance(y, s.grid, (p,), np.full((1, 1), dt))
    if not finite[0]:
        raise NonFiniteStateError("non-finite values in an RK4 stage")
    u, rho = _values(_coefficients(y, s.grid.n)[0], s.grid.n)
    return State(s.grid, u, rho)


def _member(
    grid: PeriodicGrid,
    p: ModelParams,
    c: SimConfig,
    seeds: np.ndarray | None,
):
    """One run as a generator over its slice of its group's arrays.

    It is sent (samples, rows, chars, e0, invariants) for each state its
    run reaches, step 0 first: views of the samples of (u, u_x, rho),
    shape (3, n), and of their coefficient rows, shape (3, n/2 + 1), with
    seeds the positions q, the log-Jacobians lq and rho(q), each of shape
    (K,), or None without, the state's E0, and a callable that returns
    the record invariants (meanU, hamE, hamF) of that state.  It yields
    each step's dt and is sent the state that step reached, or has
    NonFiniteStateError thrown into it.  It returns the run's SimResult.
    It makes no transform, computes no invariant, and reads off-grid only
    alpha.
    """
    samples, rows, chars, e0, invariants = yield
    u, ux, rho = samples

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
    ens_chars: list[np.ndarray] = []  # (q, lq, rho(q)) of each record

    def observe() -> None:
        m, xi = refined_min(ux, grid.dx)
        trace_t.append(t)
        trace_m.append(m)
        trace_xi.append(xi)
        trace_alpha.append(interp_point(rows[2], xi))

    def record(dt_next: float) -> None:
        nonlocal last_recorded
        if step == last_recorded:
            return
        last_recorded = step
        series.append([
            t, e0, *invariants(), trace_m[-1], trace_xi[-1], trace_alpha[-1], dt_next,
        ])
        if chars is not None:
            ens_t.append(t)
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
            samples, rows, chars, e0, invariants = yield dt
        except NonFiniteStateError:
            record(dt)
            termination = Termination(TERM_NONFINITE, t)
            break
        u, ux, rho = samples

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
    ensemble = None
    if seeds is not None:
        q, lq, rho_q = np.stack(ens_chars, axis=1)
        ensemble = CharacteristicEnsemble(
            seeds=np.asarray(seeds, dtype=float),
            times=np.asarray(ens_t),
            q=q,
            log_qx=lq,
            rho_q=rho_q,
        )
    return SimResult(
        slope_trace=trace,
        snapshots=snapshots,
        termination=termination,
        series=np.asarray(series, dtype=float),
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


def _record_pass(
    samples: np.ndarray, rows: np.ndarray, e0: np.ndarray, params: tuple
):
    """The record invariants of a group's state on one step, computed once.

    samples and rows are the group's stacked (u, u_x, rho) samples and
    coefficient rows, e0 their E0 and params their ModelParams, one row
    per member.  The returned function takes a member's row index and
    gives that member's (meanU, hamE, hamF).  Its first call computes them
    for every row, with one reduction each and one 2n inverse transform of
    the stacked rows for the cubic invariant, and later calls read that
    table, so a group step on which any member records pays for one pass
    and a step on which none records for none.
    """
    table = []

    def invariants(j: int) -> tuple[float, float, float]:
        if not table:
            table.extend(zip(
                mean_u(samples[:, 0]).tolist(),
                hamiltonian_e(e0, samples[:, 2]).tolist(),
                hamiltonian_f(rows, params).tolist(),
            ))
        return table[j]

    return invariants


def _lockstep(members: list[tuple]) -> list[SimResult]:
    """Run each (state, params, config, seeds) member to its end.

    Members with the same grid size and seed count form a group, since
    their arrays stack, and this driver is the one owner of a group's
    arrays.  It holds the flat RK4 states (c, q, lq) stacked on a leading
    axis and makes one _advance call per step, with a column of one dt
    and a tuple of one ModelParams per member.  After each step it makes
    one batched inverse transform of the rows (c_u, ik c_u, c_rho) to the
    samples of (u, u_x, rho), takes every member's E0 with one energy_e0
    call, and with characteristics makes one interp_blocks call for
    (u, u_x, rho) at q.  Each member is sent
    views of its own slice of these arrays, which are new each step, its
    E0 and its entry of the step's _record_pass; a member that ends, or
    whose row is not finite, leaves the group, and its row of the state
    and its parameters are dropped.
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
        head = 2 * n + 4  # floats in the coefficients
        live = [(i, _member(grid, *members[i][1:])) for i in group]
        params = tuple(members[i][1] for i in group)
        for _, member in live:
            next(member)  # to the yield that takes the step-0 views
        # step 0 from the given samples: u_x is their spectral derivative,
        # and the rows' first and last start the RK4 state, followed by the
        # seeds and lq = 0
        u = np.stack([members[i][0].u for i in group])
        rho = np.stack([members[i][0].rho for i in group])
        samples = np.stack((u, deriv_values(u, 1), rho), axis=1)
        rows = np.fft.rfft(samples, norm="forward")
        y = np.zeros((len(group), head + 2 * (count or 0)))
        _coefficients(y, n)[:] = rows[:, ::2]
        if count is not None:
            y[:, head : head + count] = [members[i][3] for i in group]
        finite = np.ones(len(group), dtype=bool)
        at_q = None
        while True:
            if count is not None:
                at_q = interp_blocks(rows, y[:, head : head + count])
            e0 = energy_e0(*samples.transpose(1, 0, 2))
            invariants = _record_pass(samples, rows, e0, params)
            e0s = e0.tolist()
            staying, dts = [], []
            for j, (i, member) in enumerate(live):
                chars = None if count is None else (
                    y[j, head : head + count], y[j, head + count :], at_q[j, 2]
                )
                try:
                    if finite[j]:
                        dts.append(member.send(
                            (samples[j], rows[j], chars, e0s[j], partial(invariants, j))
                        ))
                    else:
                        member.throw(
                            NonFiniteStateError("non-finite values in an RK4 stage")
                        )
                except StopIteration as end:
                    results[i] = end.value
                    continue
                staying.append(j)
            if not staying:
                break
            if len(staying) < len(live):
                live = [live[j] for j in staying]
                params = tuple(params[j] for j in staying)
                y = y[staying]
                at_q = None if at_q is None else at_q[staying]
            y, finite = _advance(
                y, grid, params, np.array(dts)[:, None],
                None if at_q is None else at_q[:, :2],
            )
            if not finite.all():
                # its member only has NonFiniteStateError thrown into it;
                # zeros keep an inf from warning in the observation below
                y[~finite] = 0.0
            c = _coefficients(y, n)
            rows = np.empty((len(y), 3, n // 2 + 1), dtype=complex)
            rows[:, ::2] = c
            np.multiply(grid.ik, c[:, 0], out=rows[:, 1])
            samples = _values(rows, n)
    return results
