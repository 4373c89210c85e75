"""Adaptive RK4 time integration that stops where the grid loses the solution.

The step size tracks both the advective CFL limit and the steepness of
the solution:

    dt = min(cfl dx / max(max|u - gamma|, 1e-8),
             SLOPE_DT_FACTOR / max(|min u_x|, 1),  time remaining)

where SLOPE_DT_FACTOR = 0.05 and min u_x is the refined slope minimum
the run has just traced.  As the minimal slope dives, steps shrink in
proportion, so a genuine blow-up is followed in a controlled geometric
cascade until the grid can no longer resolve it; the two floors keep a
quiescent or slowly varying state from asking for an unbounded step.

A run reports which of five stops ended it, as SimResult.stop, at the
last time of its slope trace:

  end              it integrated to t_end
  time-resolution  the step fell below the time resolution
                   1e-12 max(1, t_end) and could not advance t
  nonfinite        an RK4 stage produced non-finite values
  witness          the spectral-tail witness fired
  e0               E0 stopped being conserved

What a stop means for the run, the cause its report names and whether it
contradicts the criteria, is criteria.name_outcome's to say; this module
only reports it.  Two tests tell that the grid has lost the solution, and
the run stops at the first step that fails either, with the witness
named when both fail on one step; every later step would only describe
the numerics.  The first is the spectral-tail witness: a resolved state's
coefficients decay like exp(-delta k) over its analyticity strip, so
once the modes k > n/4 of the rows of u or of rho hold more than
WITNESS_TOL of the amplitude of the modes k >= 1 (in the l2 sense:
sum_{k>n/4} |c_k|^2 > WITNESS_TOL^2 sum_{k>=1} |c_k|^2), the strip has
shrunk to a few grid spacings and the front is no longer followed.  The
two sums are those of the two halves of a row's floats, so for n/2 odd
the tail takes only the imaginary part of the mode (n + 2)/4.  A row
with no mode past k = 0, rho = 0 or a constant, never fires.  The second
is E0: the semi-discrete flow conserves it exactly, so a relative drift
past E0_DRIFT_TOL shows the same loss, or a time step too coarse.

The RK4 state is one flat float array: the pair of Fourier coefficients
c = rfft((u, rho)) in "forward" normalisation, viewed as floats,
followed, when a characteristic ensemble rides along, by its positions q
and log-Jacobians lq.  Every stage shift and the final RK4 sum are a few
ufunc calls, each writing into an array of the group's one _Group, and
the finiteness check is one expression on the new state; model.rhs_coeffs
takes and returns coefficients, so a right-hand side makes only its two
transforms at 3n/2 points, padding into the work arrays of the group's
model.RhsBuffer, which every stage of every step shares.  The _Group
holds every array of a group: the RK4 rates and stage, the states, the
rows, their samples, the arrays E0 and the witness are reduced in, the
values at q and the 2n pad buffer of the cubic invariant, each with the
views the driver and the members read.  It is built when the group forms
and again when members leave it, never per step; a step allocates none of
these and overwrites each.  Once per step one batched inverse transform
of the rows (c_u, ik c_u, c_rho) gives the samples u, u_x and rho in a
single pass; that u_x feeds the slope tracking, the step size and the E0
check, and a record reads the invariants straight off the arrays and E0,
except the cubic one, which pads the same rows to 2n with one more
inverse transform.  No sample is transformed forward again, and only a
snapshot builds a State.

Off-grid values cost one phase table per RK4 stage and nothing besides,
and every product with one is real: grid.interp_blocks puts the mode
weights on the coefficients and multiplies them with the table's float
view.  The observation after a step evaluates the same rows at q with
one interp_blocks call: its u and u_x are the next step's stage-1
characteristic rates, and its rho is the record's rho(q).  Stages 2 to 4
each read u and u_x at their stage positions off the stage coefficients
with one more interp_blocks call, so a step with characteristics fills
four phase tables and a record none.  The observation and the stages are
never live at once, so they fill the one table of the group's
grid.InterpWork.  alpha = rho(xi) at the slope minimum comes from
grid.interp_point, one exponential row, with or without characteristics.

Step 0 starts from the given samples: u_x is their spectral derivative,
and one batched forward transform of (u, u_x, rho) gives the rows, whose
first and last make the initial RK4 state.  From there on every record
computes its invariants the same way.

run takes one member or a list of members, and a single run is a list of
one.  Members with the same grid size and seed count form a group, since
their arrays stack, and the lockstep driver owns each group's _Group.  It
builds every group before any steps, and on each pass it steps every live
group once, until every member has ended.  A group's step is one
_advance call, with one dt per member, and one observation: one inverse
transform, one square and two reductions for E0, one np.vecdot call for
the witness and, with characteristics, one interp_blocks call for the
whole group.  The record invariants (meanU, hamE, hamF) are one pass over
the stacked arrays as well: the first member that records on a step
makes it for every member, and the others read their entries, so a
single run, a group of one, makes it only on the steps it records.
step_rk4 is a group of one too, taking its fixed steps on the
coefficients.  Only _Group, the driver and _advance know the flat layout
of the state.  Each member is a generator that keeps its run's scalars:
it is sent views of its own slice of the group's arrays, its E0, its
witness flag, its record entries and whether its last step was finite,
and yields its next dt.  The next step overwrites the arrays those views
show, so whatever a member keeps, a snapshot's fields or a record's
characteristics, it copies.  So the slope minimum, alpha, the step size,
records, snapshots and the stop tests stay one scalar code path per
member, and each stop test sets the run's stop and leaves its loop,
after which one record ends it.  A member takes its grid from the size
of the samples it is sent, so nothing but its arrays ties it to a group.
The group's transforms, products and sums are the ones each member makes
alone, so a member's result is bit for bit its single run's.

A member leaves its group one way: it returns when it is sent a state,
either because a stop test fired on it or because its last step was not
finite, and the driver builds the group anew, through _regroup, from the
rows that stay.  Finiteness is checked per row: a row whose step fails
keeps the state that step started from, and its member records from
that state, so the others run on.  _regroup builds a group from chosen
rows of groups on one grid with one seed count, so a member can enter a
group the same way.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .characteristics import CharacteristicEnsemble
from .criteria import STOP_E0, STOP_END, STOP_NONFINITE, STOP_TIME_RESOLUTION, STOP_WITNESS
from .criteria import SlopeTrace, refined_min
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
    RhsBuffer,
    State,
    energy_e0,
    hamiltonian_e,
    hamiltonian_f,
    mean_u,
    rhs_coeffs,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "NonFiniteStateError",
    "SERIES_COLUMNS",
    "adaptive_dt",
    "step_rk4",
    "run",
    "E0_DRIFT_TOL",
    "WITNESS_TOL",
    "SLOPE_DT_FACTOR",
]

# Relative E0 drift past which a run stops.  On smooth global41 data at
# cfl 0.3, RK4 time error peaks an order of magnitude below it (8.9e-6 for
# r0 = 2, ru = 1 at n = 128), while a grid that has lost a steepening front
# drives E0 up by orders of magnitude within a few hundred steps.  A step
# coarse enough can still pass it on smooth data; that run then stops
# with no dive.
E0_DRIFT_TOL = 1.0e-4
# Share of the l2 amplitude of the modes k >= 1 of u or rho past which the
# modes k > n/4 show the front lost (see the module docstring).  The runs
# that reach their end peak at 0.034 (global41 at n = 64 to t = 1), while
# the blowup31 dive at n = 1024 passes it 58 steps before its E0 drifts.
WITNESS_TOL = 0.05
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

    @property
    def due_snapshots(self) -> list[float]:
        """The snapshot times a run reaches by t_end, ascending, each once."""
        return sorted({t for t in self.snapshot_times if t <= self.t_end})


@dataclass(frozen=True)
class SimResult:
    slope_trace: SlopeTrace  # its last time is the time the run stopped at
    snapshots: list[tuple[float, State]]
    stop: str  # the stop that ended the run, one of criteria's STOP_* names
    series: np.ndarray  # one row per record, columns SERIES_COLUMNS
    ensemble: CharacteristicEnsemble | None


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


class _Group:
    """Every array of one lockstep group: the members with the ModelParams
    in params on one grid, each with `count` characteristics, or None
    without.  The lockstep driver builds one when the group forms, and
    _regroup builds one each time members leave it, so parameters and
    arrays cannot disagree; step_rk4 runs a group of one.

    For _advance it holds the group's model.RhsBuffer; the (members, 1)
    columns dt/2 and dt/6 of the step sizes; the four RK4 rate arrays
    and the stage state, each of the state's shape (members, L), with
    the coefficient views that rhs_coeffs reads and writes, the first
    rate array also receiving the new state, whose finite rows _advance
    copies into the states; and the finiteness of its entries and of
    each row's last step, true until a step says otherwise.  To observe,
    it holds the flat RK4 states (c, q, lq), with their coefficient
    views; the rows (c_u, ik c_u, c_rho), with their views of c and ik
    c_u; the samples of (u, u_x, rho) that transform fills; the three
    arrays energy_e0 writes E0 into; the two halves of the floats of the
    states' modes k >= 1 and the sums of their squares per row, which
    the witness reads; and, for the record invariants, the (members, 1)
    columns of A and gamma, the field-major 2n pad buffer that
    hamiltonian_f reads and the table of each member's entries.  With
    characteristics it also holds the grid.InterpWork whose one phase
    table serves the observation (rows u, u_x, rho) and stages 2 to 4
    (rows u, u_x), which are never live at once; the rows (1, ik) that
    turn a stage's coefficients of u into those of (u, u_x), the array
    they fill and its view that interp_blocks weighs; each rate's and
    the stage's views of their rates of (q, lq) and positions; the
    positions' view of the states; and the values of (u, u_x, rho) at q,
    whose rows (u, u_x) stage 1 reads.  views holds each member's views
    of its samples, its coefficients of rho and its (q, lq, rho(q)).
    Every step overwrites these arrays, so a member copies what it keeps
    of them.  The group holds no reference to itself, and the lockstep
    driver and its suspended members hold none to a group they have left,
    so one that members leave is freed at their regroup.
    """

    def __init__(
        self, grid: PeriodicGrid, params: tuple[ModelParams, ...], count: int | None
    ) -> None:
        n = grid.n
        head = 2 * n + 4  # floats in c
        members = len(params)
        self.grid, self.params, self.count = grid, params, count
        self.buffer = RhsBuffer(grid, params)
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
        self.finite = np.ones(members, dtype=bool)
        self.state = np.zeros((members, width))
        self.coefficients = _coefficients(self.state, n)
        self.coefficients_u = self.coefficients[:, 0]
        self.rows = np.empty((members, 3, n // 2 + 1), dtype=complex)
        self.row_pairs, self.row_slopes = self.rows[:, ::2], self.rows[:, 1]
        self.samples = np.empty((members, 3, n))
        self.energy = (np.empty((members, 3, n)), np.empty((members, n)), np.empty(members))
        # coefficient k of a row is its floats 2k and 2k + 1, so the upper
        # half of the floats of the modes k >= 1 holds the modes k > n/4;
        # for n/2 odd it splits the mode (n + 2)/4, and only its imaginary
        # part counts in the tail
        floats = self.state[:, :head].reshape(members, 2, n + 2)
        self.halves = floats[:, :, 2:].reshape(members, 2, 2, n // 2)
        self.half_sums = np.empty((members, 2, 2))
        self.padded = np.zeros((3, members, n + 1), dtype=complex)
        self.table: list[tuple[float, float, float]] = []
        chars = [None] * members
        self.interp = self.q = self.at_q = self.rates_at_q = None
        if count is not None:
            self.interp = InterpWork(n // 2, members, count, (2, 3))
            self.value_and_slope = np.stack((np.ones_like(grid.ik), grid.ik))
            self.stage_u = self.stage_coefficients[:, :1]
            self.stage_slope = np.empty((members, 2, n // 2 + 1), dtype=complex)
            self.stage_slope_parts = coefficient_parts(self.stage_slope)
            self.q_rates = [k[:, head:].reshape(members, 2, count) for k in self.rates]
            self.stage_q = self.stage[:, head : head + count]
            self.q = self.state[:, head : head + count]
            self.at_q = np.empty((members, 3, count))
            self.rates_at_q = self.at_q[:, :2]
            self.row_parts = coefficient_parts(self.rows)
            chars = [
                (self.q[j], self.state[j, head + count :], self.at_q[j, 2])
                for j in range(members)
            ]
        self.views = [
            (tuple(self.samples[j]), self.rows[j, 2], chars[j]) for j in range(members)
        ]

    def transform(self) -> None:
        """Fill the rows and their samples from the states."""
        np.copyto(self.row_pairs, self.coefficients)
        np.multiply(self.grid.ik, self.coefficients_u, out=self.row_slopes)
        np.fft.irfft(self.rows, self.grid.n, norm="forward", out=self.samples)

    def observe(self) -> list[tuple]:
        """Observe the states, whose rows and samples transform has
        filled, with characteristics at q too; returns what each member is
        sent: its views, a callable for its record invariants, its E0,
        whether the spectral-tail witness fired on it and whether its last
        step was finite.  The callables are built here, not held, so the
        group holds no reference to itself."""
        if self.q is not None:
            interp_blocks(self.row_parts, self.q, self.interp, self.at_q)
        self.table.clear()
        np.vecdot(self.halves, self.halves, out=self.half_sums)
        e0s = energy_e0(self.samples, work=self.energy).tolist()
        # in Python floats, so that WITNESS_TOL = inf on a row without
        # modes (inf * 0 = nan, never exceeded) raises no warning
        bound = WITNESS_TOL**2
        finite = self.finite.tolist()
        sent = []
        for j, ((low_u, tail_u), (low_rho, tail_rho)) in enumerate(self.half_sums.tolist()):
            lost = tail_u > bound * (low_u + tail_u) or tail_rho > bound * (low_rho + tail_rho)
            sent.append((*self.views[j], partial(self.invariants, j), e0s[j], lost, finite[j]))
        return sent

    def invariants(self, j: int) -> tuple[float, float, float]:
        """Member j's record invariants (meanU, hamE, hamF) of the observed
        states.  The first call after observe computes them for every
        member, with one reduction each and one 2n inverse transform for
        the cubic one, and later calls read that table, so a step on which
        any member records pays for one pass and a step on which none
        records for none."""
        if not self.table:
            self.table.extend(zip(
                mean_u(self.samples[:, 0]).tolist(),
                hamiltonian_e(self.energy[2], self.samples[:, 2]).tolist(),
                hamiltonian_f(self.rows, self.A, self.gamma, self.padded).tolist(),
            ))
        return self.table[j]


def _regroup(rows: list[tuple[_Group, int]]) -> _Group:
    """A fresh group of the rows (group, j), in order, taken from groups on
    one grid with one seed count, with their states and their values at q,
    which stage 1 of the next step reads.  Members that leave a group take
    this path, with the rows that stay, and so will a member that enters
    another group."""
    grid, count = rows[0][0].grid, rows[0][0].count
    group = _Group(grid, tuple(g.params[j] for g, j in rows), count)
    for k, (g, j) in enumerate(rows):
        group.state[k] = g.state[j]
        if count is not None:
            group.at_q[k] = g.at_q[j]
    return group


def _advance(group: _Group, dt: np.ndarray) -> np.ndarray:
    """One classical RK4 step of each row of group.state, shape
    (members, L), each row (c viewed as floats, q, lq), with its own
    parameters and its own step size in dt, a column of shape
    (members, 1).  The new state replaces a row only where it is finite,
    so a row whose step fails keeps the state that step started from;
    returns whether each row's step was finite, group.finite, which the
    next call overwrites.  Every array the step writes is group's, each
    written through out= by the operations the expression
    y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4) makes, in the same order, so the
    result is bit for bit that expression's; the sum accumulates in k1.

    Without characteristics the state holds c alone.  With K of them per
    row, group.rates_at_q holds u and u_x at q at the step's start, shape
    (members, 2, K), which the observation before the step evaluated: they
    are stage 1's rates of q and lq, since positions advance with the
    velocity and the log-Jacobian integrates the slope.  Stages 2 to 4
    each read u and u_x at their stage positions off their stage
    coefficients with one interp_blocks call: one phase table for the
    positions of every row, one product per row.  No rate reads lq.

    Rows never mix: each transform, product and sum that a row goes
    through is the one it goes through alone, so a row's result does not
    depend on the rows beside it.  Finiteness is checked once per row, on
    the output: every stage enters the final RK4 sum, so a non-finite
    entry in any stage of a row leaves one in that row, and no stage needs
    a check of its own.
    """
    y, buffer = group.state, group.buffer
    stage, c = group.stage, group.stage_coefficients
    k1, k2, k3, k4 = group.rates
    half = np.multiply(0.5, dt, out=group.half_dt)
    with np.errstate(over="ignore", invalid="ignore"):
        # k1 at y, whose rates of q and lq the observation has evaluated
        rhs_coeffs(group.coefficients, buffer, group.rate_coefficients[0])
        if group.rates_at_q is not None:
            np.copyto(group.q_rates[0], group.rates_at_q)
        # k2, k3 and k4 at the stages y + (dt/2) k1, y + (dt/2) k2 and
        # y + dt k3; the sum commutes bit for bit, so y may come second
        for i, scale in ((1, half), (2, half), (3, dt)):
            np.multiply(scale, group.rates[i - 1], out=stage)
            np.add(y, stage, out=stage)
            rhs_coeffs(c, buffer, group.rate_coefficients[i])
            if group.rates_at_q is not None:
                np.multiply(group.stage_u, group.value_and_slope, out=group.stage_slope)
                interp_blocks(
                    group.stage_slope_parts, group.stage_q, group.interp, group.q_rates[i]
                )
        # y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in k1
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(2.0, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(np.divide(dt, 6.0, out=group.sixth_dt), k1, out=k1)
        np.add(y, k1, out=k1)
    np.isfinite(k1, out=group.finite_entries)
    finite = np.logical_and.reduce(group.finite_entries, axis=1, out=group.finite)
    np.copyto(y, k1, where=finite[:, None])
    return finite


def step_rk4(s: State, p: ModelParams, dt: float, steps: int) -> State:
    """`steps` classical RK4 steps of size dt of the field equations, taken
    on the coefficients of a group of one, whose rows of u and rho are
    transformed to samples once, at the end."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = PeriodicGrid(s.u.size)
    group = _Group(grid, (p,), None)
    group.coefficients[0] = np.fft.rfft(np.stack((s.u, s.rho)), norm="forward")
    dt = np.full((1, 1), dt)
    for _ in range(steps):
        if not _advance(group, dt)[0]:
            raise NonFiniteStateError("non-finite values in an RK4 stage")
    u, rho = np.fft.irfft(group.coefficients[0], grid.n, norm="forward")
    return State(u, rho)


def _member(p: ModelParams, c: SimConfig):
    """One run as a generator over its slice of its group's arrays.

    It is sent (samples, rho_c, chars, invariants, e0, lost, finite) for
    each state its run reaches, step 0 first: views of the samples of u,
    u_x and rho, each of shape (n,), and of the coefficients of rho, shape
    (n/2 + 1,), with characteristics views of the positions q, the
    log-Jacobians lq and rho(q), each of shape (K,), or None without, a
    callable that returns the record invariants (meanU, hamE, hamF) of
    that state, its E0, whether the spectral-tail witness fired on it, and
    whether the step to it was finite.  The views are of its group's
    arrays, which the next step overwrites, so whatever it keeps of them,
    a snapshot's fields or a record's characteristics, it copies, and it
    drops them, with the callable, before it yields.  It yields each
    step's dt and is sent the state that step reached; when the step was
    not finite it is sent the state the step started from instead, which
    its row kept, records from it and returns, as a member that ends does.
    Every stop test sets the stop and leaves the loop, so a run ends one
    way: one record of the state it stopped at, which writes a row unless
    that state has one already, with dt 0 at the end of the run and the
    step last taken or tried otherwise.  It returns the run's SimResult,
    with the ensemble of the characteristics it was sent, if any.  It
    takes its grid from the size of its samples, makes no transform,
    computes no invariant, and reads off-grid only alpha.
    """
    (u, ux, rho), rho_c, chars, invariants, e0, _, _ = yield

    tiny = 1.0e-12 * max(1.0, c.t_end)
    snaps_due = deque(c.due_snapshots)

    t = 0.0
    step = 0
    last_recorded = -1
    trace_t: list[float] = []
    trace_m: list[float] = []
    xi = 0.0  # the location of the slope minimum last traced
    trace_alpha: list[float] = []
    series: list[list[float]] = []
    snapshots: list[tuple[float, State]] = []
    ens_chars: list[np.ndarray] = []  # (q, lq, rho(q)) of each record

    def observe() -> None:
        nonlocal xi
        m, xi = refined_min(ux)
        trace_t.append(t)
        trace_m.append(m)
        trace_alpha.append(interp_point(rho_c, xi))

    def record(dt_next: float) -> None:
        nonlocal last_recorded
        if step == last_recorded:
            return
        last_recorded = step
        series.append([
            t, e0, *invariants(), trace_m[-1], xi, trace_alpha[-1], dt_next,
        ])
        if chars is not None:
            # a copy, since chars are views of the group's arrays
            ens_chars.append(np.array(chars))

    def take_snapshot() -> None:
        # copies, since u and rho are views of the group's samples
        snapshots.append((t, State(u.copy(), rho.copy())))

    observe()
    e0_first = e0
    while True:
        t_remaining = c.t_end - t
        if t_remaining <= tiny:
            stop, dt = STOP_END, 0.0
            break

        dt = adaptive_dt(u, p, c, t_remaining, min_slope=trace_m[-1])
        # a snapshot due now: t = 0, or one within tiny of the one just hit
        while snaps_due and snaps_due[0] <= t + tiny:
            snaps_due.popleft()
            take_snapshot()
            record(dt)
        hit_snapshot = bool(snaps_due) and t + dt >= snaps_due[0] - tiny
        if hit_snapshot:
            dt = snaps_due[0] - t

        if step == 0:
            record(dt)
        if dt < tiny:
            # a step below the loop's time resolution cannot carry the run on
            stop = STOP_TIME_RESOLUTION
            break

        # hold nothing of the group while suspended, so that a group this
        # member leaves with others is freed at their regroup
        del u, ux, rho, rho_c, chars, invariants
        (u, ux, rho), rho_c, chars, invariants, e0, lost, finite = yield dt
        if not finite:
            stop = STOP_NONFINITE
            break

        if hit_snapshot:
            t = snaps_due.popleft()
        else:
            t = t + dt
        step += 1
        observe()

        if lost:
            stop = STOP_WITNESS
            break
        # the E0 test is written so that a NaN drift also stops the run
        if not abs(e0 - e0_first) <= E0_DRIFT_TOL * e0_first:
            stop = STOP_E0
            break
        if hit_snapshot:
            take_snapshot()
            record(dt)
        elif step % c.record_every == 0:
            record(dt)

    record(dt)

    trace = SlopeTrace(
        times=np.asarray(trace_t), m=np.asarray(trace_m), alpha=np.asarray(trace_alpha)
    )
    ensemble = None
    if chars is not None:
        # a record appends to the series and the characteristics together
        q, lq, rho_q = np.stack(ens_chars, axis=1)
        ensemble = CharacteristicEnsemble(q=q, log_qx=lq, rho_q=rho_q)
    return SimResult(
        slope_trace=trace,
        snapshots=snapshots,
        stop=stop,
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


def _lockstep(members: list[tuple]) -> list[SimResult]:
    """Run each (state, params, config, seeds) member to its end.

    Members with the same grid size and seed count form a group, since
    their arrays stack, and this driver owns the group's one _Group, built
    with a row per member before any group steps.  On each pass it steps
    every live group once: it observes the group, sends each member what
    observe returns for it, and makes one _advance call with a column of
    the dts the members yield; a row that is not finite keeps the state
    its step started from, and the new states are transformed.  A member
    leaves its group one way, by returning when it is sent a state: one
    that ends, and one whose last step was not finite, which records from
    the state its row kept.  The driver then takes _regroup of the rows
    that stay, so no array of a step is sized or parameterised for
    members that have left, and drops a group once all its members have.
    The driver holds a group only in its queue and while stepping it, and
    a member drops what it was sent before it yields, so a group that
    members leave is freed when _regroup returns its replacement.
    """
    results: list = [None] * len(members)
    keys: dict = {}
    for i, (s0, _, c, seeds) in enumerate(members):
        if s0.u.size != c.n:
            raise ValueError(f"state lives on n={s0.u.size}, config says n={c.n}")
        key = (c.n, None if seeds is None else len(seeds))
        keys.setdefault(key, []).append(i)
    groups = deque()
    for (n, count), indices in keys.items():
        group = _Group(PeriodicGrid(n), tuple(members[i][1] for i in indices), count)
        # step 0 from the given samples: u_x is their spectral derivative,
        # and the rows' first and last start the RK4 state, followed by the
        # seeds and lq = 0
        u = np.stack([members[i][0].u for i in indices])
        rho = np.stack([members[i][0].rho for i in indices])
        np.copyto(group.samples, np.stack((u, deriv_values(u, 1), rho), axis=1))
        np.fft.rfft(group.samples, norm="forward", out=group.rows)
        np.copyto(group.coefficients, group.row_pairs)
        if count is not None:
            group.q[:] = [members[i][3] for i in indices]
        live = [(i, _member(*members[i][1:3])) for i in indices]
        for _, member in live:
            next(member)  # to the yield that takes the step-0 views
        groups.append((group, live))
    while groups:
        # a group that steps on rejoins the queue at its back, so groups take turns
        group, live = groups.popleft()
        staying, dts = [], []
        for j, ((i, member), sent) in enumerate(zip(live, group.observe())):
            try:
                dts.append(member.send(sent))
            except StopIteration as end:
                results[i] = end.value
                continue
            staying.append(j)
        del sent  # its invariants hold the group
        if not staying:
            continue
        if len(staying) < len(live):
            live = [live[j] for j in staying]
            group = _regroup([(group, j) for j in staying])
        _advance(group, np.array(dts)[:, None])
        group.transform()
        groups.append((group, live))
    return results
