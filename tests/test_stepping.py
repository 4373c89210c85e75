"""Integrator tests: step-size policy arithmetic, RK4 order, exact snapshot
placement, record cadence, determinism, and the stop that ends a run."""

import dataclasses
import math

import numpy as np
import pytest

from dghsim.criteria import (
    BLOWUP_DETECTED,
    NONFINITE_STATE,
    REACHED_END,
    RESOLUTION_LOST,
    STOP_E0,
    STOP_END,
    STOP_NONFINITE,
    STOP_TIME_RESOLUTION,
    STOP_WITNESS,
)
from dghsim.grid import ConfigError, PeriodicGrid, deriv_values
from dghsim.model import (
    ModelParams,
    State,
    energy_e0,
    hamiltonian_e,
    hamiltonian_f,
    mean_u,
)
from dghsim.stepping import (
    E0_DRIFT_TOL,
    SERIES_COLUMNS,
    WITNESS_TOL,
    NonFiniteStateError,
    SimConfig,
    adaptive_dt,
    run,
    step_rk4,
)
from helpers import breaking_wave, outcome, pad_buffer


def smooth_state(n=64, amp=0.25):
    x = PeriodicGrid(n).nodes
    return State(0.5 + amp * np.sin(2.0 * np.pi * x), 1.0 + amp * np.cos(2.0 * np.pi * x))


def constant_state(n, u, rho):
    return State(np.full(n, u), np.full(n, rho))


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    good = SimConfig(n=64, t_end=1.0)
    assert good.cfl == 0.3
    with pytest.raises(ValueError):
        SimConfig(n=63, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(n=64, t_end=0.0)
    with pytest.raises(ValueError):
        SimConfig(n=64, t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        SimConfig(n=64, t_end=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        SimConfig(n=64, t_end=1.0, record_every=0)


@pytest.mark.parametrize("field", ["t_end", "cfl"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        SimConfig(**{"n": 64, "t_end": 1.0, field: float("nan")})


def test_config_coerces_snapshot_times():
    c = SimConfig(n=64, t_end=1.0, snapshot_times=[0, 1])
    assert c.snapshot_times == (0.0, 1.0)
    assert all(isinstance(t, float) for t in c.snapshot_times)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
def test_config_rejects_negative_snapshot_time(bad):
    with pytest.raises(ConfigError) as err:
        SimConfig(n=64, t_end=1.0, snapshot_times=(0.0, bad))
    assert err.value.name == "snapshot_times"
    # a time past t_end is kept; the run never reaches it
    assert SimConfig(n=64, t_end=1.0, snapshot_times=(5.0, 10.0)).snapshot_times == (5.0, 10.0)


# ---------------------------------------------------------------------------
# step-size policy

def test_adaptive_dt_slope_cap_for_quiescent_state():
    u = np.full(64, 0.7)
    p = ModelParams(A=1.0, gamma=0.7)  # u - gamma == 0: no advective limit
    c = SimConfig(n=64, t_end=10.0)
    assert adaptive_dt(u, p, c, t_remaining=10.0, min_slope=0.0) == pytest.approx(0.05)
    assert adaptive_dt(u, p, c, t_remaining=0.01, min_slope=0.0) == pytest.approx(0.01)


def test_adaptive_dt_cfl_limit():
    p = ModelParams(A=1.0, gamma=-0.5)  # |u - gamma| = 1
    c = SimConfig(n=256, t_end=10.0)
    dt = adaptive_dt(np.full(256, 0.5), p, c, t_remaining=10.0, min_slope=0.0)
    assert dt == pytest.approx(0.3 / 256)


def test_adaptive_dt_tracks_steepness():
    p = ModelParams(A=1.0, gamma=0.0)
    c = SimConfig(n=64, t_end=10.0)
    dt = adaptive_dt(np.zeros(64), p, c, t_remaining=10.0, min_slope=-100.0)
    assert dt == pytest.approx(0.05 / 100.0)


# ---------------------------------------------------------------------------
# single steps

def test_step_rejects_nonpositive_dt():
    s = smooth_state()
    p = ModelParams()
    with pytest.raises(ValueError):
        step_rk4(s, p, 0.0, steps=1)
    with pytest.raises(ValueError):
        step_rk4(s, p, -0.1, steps=1)


def test_step_flags_overflow():
    # stage amplitudes compound like dt^4 u^8; 1e30 pushes them past
    # double range, and the failure must surface as a typed error
    s = smooth_state()
    with pytest.raises(NonFiniteStateError):
        step_rk4(s, ModelParams(), 1.0e30, steps=1)


@pytest.mark.parametrize("track", [False, True])
def test_workspace_reuse_is_invisible(track):
    # two steps on one group, the second from the first's result with
    # other step sizes and other rates at q, give bit for bit what fresh
    # groups give: a step overwrites every array of it that it reads
    import dghsim.stepping as stepping

    n, count = 64, 8 if track else None
    g = PeriodicGrid(n)
    params = (ModelParams(A=1.0, gamma=0.3), ModelParams(A=0.7, gamma=-0.4))
    r = np.random.default_rng(7)
    work = stepping._Group(g, params, count)
    fields = 1.0 + 0.1 * r.normal(size=(2, 2, n))
    work.coefficients[:] = np.fft.rfft(fields, norm="forward")
    if track:
        work.state[:, 2 * n + 4 :] = r.uniform(0.0, 1.0, (2, 2 * count))
    for dt in ([[1.0e-3], [2.0e-3]], [[5.0e-4], [3.0e-3]]):
        fresh = stepping._Group(g, params, count)
        fresh.state[:] = work.state
        if track:
            work.rates_at_q[:] = fresh.rates_at_q[:] = r.normal(size=(2, 2, count))
        dt = np.array(dt)
        finite = stepping._advance(work, dt)
        assert finite.all() and np.array_equal(finite, stepping._advance(fresh, dt))
        assert np.array_equal(work.state, fresh.state)


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("field", [0, 1])
@pytest.mark.parametrize("stage", range(4))
def test_nonfinite_stage_ends_run_at_its_step(monkeypatch, stage, field, track):
    # only a step's outputs are checked; one NaN in any stage of the third
    # step must still end the run there, at the time that step started
    import dghsim.stepping as stepping

    s0 = smooth_state()
    p = ModelParams()
    c = SimConfig(n=64, t_end=1.0, record_every=1)
    seeds = np.linspace(0.0, 1.0, 8, endpoint=False) if track else None
    ref = run(s0, p, c, seeds=seeds)
    calls = []
    real = stepping.rhs_coeffs

    def poisoned(*args):
        out = real(*args)
        if len(calls) == 4 * 2 + stage:
            out[0, field, 5] = np.nan  # the run's one member
        calls.append(1)
        return out

    monkeypatch.setattr(stepping, "rhs_coeffs", poisoned)
    res = run(s0, p, c, seeds=seeds)
    assert res.stop == STOP_NONFINITE
    assert res.slope_trace.times[-1] == ref.slope_trace.times[2]
    assert np.all(np.isfinite(res.series))


@pytest.mark.parametrize("track", [False, True])
def test_nonfinite_record_reads_the_state_its_step_started_from(monkeypatch, track):
    # a member whose thirteenth step fails records the state that step
    # started from, off the views it was sent there, though its group's
    # arrays are overwritten every step; it records every tenth step, so
    # that record's invariants are first computed then.  The member beside
    # it runs on as it runs alone
    import dghsim.stepping as stepping

    states = [smooth_state(amp=0.25), smooth_state(amp=0.1)]
    p = ModelParams()
    c = SimConfig(n=64, t_end=1.0, record_every=10)
    seeds = np.linspace(0.0, 1.0, 8, endpoint=False) if track else None
    every = run(states[0], p, SimConfig(n=64, t_end=1.0, record_every=1), seeds=seeds)
    alone = run(states[1], p, c, seeds=seeds)
    calls = []
    real = stepping.rhs_coeffs

    def poisoned(*args):
        out = real(*args)
        if len(calls) == 4 * 12 + 1:
            out[0, 0, 5] = np.nan  # the first member, in stage 2
        calls.append(1)
        return out

    monkeypatch.setattr(stepping, "rhs_coeffs", poisoned)
    failed, other = run(states, [p, p], [c, c], seeds=[seeds, seeds])
    assert failed.stop == STOP_NONFINITE
    assert failed.slope_trace.times[-1] == every.series[12, 0]
    # the failed step's dt is the one the full record gives the next row
    assert np.array_equal(failed.series[-1, :-1], every.series[12, :-1])
    assert failed.series[-1, -1] == every.series[13, -1]
    if track:
        for name in ("q", "log_qx", "rho_q"):
            got, want = getattr(failed.ensemble, name), getattr(every.ensemble, name)
            assert np.array_equal(got[-1], want[12])
    _assert_same_result(other, alone)


def _log_transforms(monkeypatch, log):
    # every FFT as (name, transform length); an inverse real transform's
    # length is that of its output
    for name in ("fft", "ifft", "rfft", "irfft"):
        real = getattr(np.fft, name)

        def logged(a, n=None, *args, _real=real, _name=name, **kwargs):
            length = n
            if length is None:
                m = np.shape(a)[-1]
                length = 2 * (m - 1) if _name == "irfft" else m
            log.append((_name, length))
            return _real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, logged)


@pytest.mark.parametrize("track", [False, True])
def test_rk4_stages_make_eight_transforms_at_three_halves_n(monkeypatch, track):
    # the state is coefficients: each of a step's four right-hand sides is
    # one inverse and one forward transform at 3n/2 points, none at n or
    # 2n, and characteristic stages read the coefficients with none at all
    import dghsim.stepping as stepping

    n = 64
    log = []
    per_step = []
    real_advance = stepping._advance

    def advance(*args, **kwargs):
        start = len(log)
        out = real_advance(*args, **kwargs)
        per_step.append(log[start:])
        return out

    monkeypatch.setattr(stepping, "_advance", advance)
    _log_transforms(monkeypatch, log)
    seeds = np.linspace(0.0, 1.0, 8, endpoint=False) if track else None
    res = run(smooth_state(n), ModelParams(A=1.0, gamma=0.3),
              SimConfig(n=n, t_end=0.2), seeds=seeds)
    assert len(per_step) == len(res.slope_trace.times) - 1 > 0
    for made in per_step:
        assert made == [("irfft", 3 * n // 2), ("rfft", 3 * n // 2)] * 4


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("record_every", [1, 10])
def test_whole_step_transform_count(monkeypatch, record_every, track):
    # past step 0 a step makes its eight stage transforms at 3n/2 and one
    # batched inverse transform to samples at n, and a recorded step one
    # more at 2n for the cubic invariant: nothing is transformed forward at
    # n again, neither for u_x nor for the invariants
    import dghsim.stepping as stepping

    n = 64
    log = []
    real_advance = stepping._advance

    def advance(*args, **kwargs):
        log.append("step")
        return real_advance(*args, **kwargs)

    monkeypatch.setattr(stepping, "_advance", advance)
    _log_transforms(monkeypatch, log)
    seeds = np.linspace(0.0, 1.0, 8, endpoint=False) if track else None
    c = SimConfig(n=n, t_end=0.2, record_every=record_every, snapshot_times=(0.0, 0.05))
    res = run(smooth_state(n), ModelParams(A=1.0, gamma=0.3), c, seeds=seeds)
    monkeypatch.undo()

    steps = []
    for entry in log:
        if entry == "step":
            steps.append([])
        elif steps:
            steps[-1].append(entry)
    recorded = np.isin(res.slope_trace.times[1:], res.series[:, 0])
    assert len(steps) == len(recorded) > 10
    assert recorded.all() if record_every == 1 else 0 < recorded.sum() < len(steps)
    stages = [("irfft", 3 * n // 2), ("rfft", 3 * n // 2)] * 4
    for made, rec in zip(steps, recorded.tolist()):
        assert ("rfft", n) not in made
        assert made == stages + [("irfft", n)] + [("irfft", 2 * n)] * rec


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("record_every", [1, 10])
def test_four_phase_matrices_per_step(monkeypatch, record_every, track):
    # one phase matrix per RK4 stage and none besides: the observation after
    # a step evaluates (u, u_x, rho) at q once, which serves the next step's
    # first stage and any record's rho(q); alpha takes none
    import dghsim.grid as grid
    import dghsim.stepping as stepping

    n = 64
    log = []
    real_advance = stepping._advance
    real_phases = grid._phase_matrix

    def advance(*args, **kwargs):
        log.append("step")
        return real_advance(*args, **kwargs)

    def phases(*args, **kwargs):
        log.append("phases")
        return real_phases(*args, **kwargs)

    monkeypatch.setattr(stepping, "_advance", advance)
    monkeypatch.setattr(grid, "_phase_matrix", phases)
    seeds = np.linspace(0.0, 1.0, 8, endpoint=False) if track else None
    c = SimConfig(n=n, t_end=0.2, record_every=record_every, snapshot_times=(0.0, 0.05))
    res = run(smooth_state(n), ModelParams(A=1.0, gamma=0.3), c, seeds=seeds)
    monkeypatch.undo()

    steps = [[]]
    for entry in log:
        if entry == "step":
            steps.append([])
        else:
            steps[-1].append(entry)
    before_first, steps = steps[0], steps[1:]
    recorded = np.isin(res.slope_trace.times[1:], res.series[:, 0])
    assert len(steps) == len(recorded) > 10
    assert recorded.all() if record_every == 1 else 0 < recorded.sum() < len(steps)
    # a step's three later stages, then the observation of its result
    assert before_first == ["phases"] * track
    assert all(made == ["phases"] * 4 * track for made in steps)


def test_step_zero_transforms(monkeypatch):
    # before the first step: the derivative's pair at n, one batched forward
    # transform of (u, u_x, rho) for the rows and the RK4 state, and the
    # step-0 record's padding of the rows to 2n
    import dghsim.stepping as stepping

    class FirstStep(Exception):
        pass

    def advance(*args, **kwargs):
        raise FirstStep

    n = 64
    log = []
    monkeypatch.setattr(stepping, "_advance", advance)
    _log_transforms(monkeypatch, log)
    with pytest.raises(FirstStep):
        run(smooth_state(n), ModelParams(A=1.0, gamma=0.3), SimConfig(n=n, t_end=0.2))
    assert log == [("rfft", n), ("irfft", n), ("rfft", n), ("irfft", 2 * n)]


# ---------------------------------------------------------------------------
# members in lockstep

def _lockstep_members():
    # three coupled members of one group that end at different steps
    seeds = np.linspace(0.0, 1.0, 8, endpoint=False)
    states = [smooth_state(amp=a) for a in (0.1, 0.25, 0.4)]
    configs = [
        SimConfig(n=64, t_end=t, record_every=1, snapshot_times=(0.05,))
        for t in (0.2, 0.1, 0.15)
    ]
    return states, [ModelParams(A=1.0, gamma=0.3)] * 3, configs, [seeds] * 3


def _assert_same_result(a, b):
    assert a.stop == b.stop
    assert np.array_equal(a.series, b.series)
    for name in ("times", "m", "alpha"):
        assert np.array_equal(getattr(a.slope_trace, name), getattr(b.slope_trace, name))
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, sa), (_, sb) in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.u, sb.u) and np.array_equal(sa.rho, sb.rho)
    assert (a.ensemble is None) == (b.ensemble is None)
    for name in ("q", "log_qx", "rho_q") if a.ensemble else ():
        assert np.array_equal(getattr(a.ensemble, name), getattr(b.ensemble, name))


def test_lockstep_members_equal_their_single_runs():
    # with two members at n = 32 without seeds: two groups, live at once,
    # that step in turn and each lose members
    states, params, configs, seeds = _lockstep_members()
    states += [smooth_state(n=32, amp=a) for a in (0.1, 0.3)]
    params += [ModelParams(A=0.8, gamma=-0.2)] * 2
    configs += [SimConfig(n=32, t_end=t, record_every=2) for t in (0.12, 0.25)]
    seeds += [None, None]
    together = run(states, params, configs, seeds=seeds)
    assert len(together) == 5
    for got, args in zip(together, zip(states, params, configs, seeds)):
        _assert_same_result(got, run(*args))


@pytest.mark.parametrize("track", [False, True])
def test_members_that_leave_a_group_step_on_as_in_it(track):
    # a two-member group advanced 3 steps and split by _regroup into a
    # group of each row between its observation and its next step: each
    # part steps 4 more steps bit for bit as its row of the joint group,
    # so _regroup carries the states and the values at q stage 1 reads.
    # The parts' rows, in reverse order, then enter one group, which steps
    # 3 more bit for bit as the joint group's rows
    import dghsim.stepping as stepping

    n, count = 64, 8 if track else None
    params = (ModelParams(A=1.0, gamma=0.3), ModelParams(A=0.7, gamma=-0.4))
    r = np.random.default_rng(11)
    joint = stepping._Group(PeriodicGrid(n), params, count)
    fields = 1.0 + 0.1 * r.normal(size=(2, 2, n))
    joint.coefficients[:] = np.fft.rfft(fields, norm="forward")
    if track:
        joint.q[:] = r.uniform(0.0, 1.0, (2, count))
    dts = np.array([[1.0e-3], [2.0e-3]])

    def step(group, dt):
        assert stepping._advance(group, dt).all()
        group.transform()
        group.observe()

    joint.transform()
    joint.observe()
    for _ in range(3):
        step(joint, dts)
    parts = [stepping._regroup([(joint, 0)]), stepping._regroup([(joint, 1)])]
    for _ in range(4):
        step(joint, dts)
        for j, part in enumerate(parts):
            step(part, dts[j : j + 1])
            assert np.array_equal(part.state[0], joint.state[j])
            if track:
                assert np.array_equal(part.at_q[0], joint.at_q[j])
    joined = stepping._regroup([(parts[1], 0), (parts[0], 0)])
    for _ in range(3):
        step(joint, dts)
        step(joined, dts[::-1])
        assert np.array_equal(joined.state, joint.state[::-1])
        if track:
            assert np.array_equal(joined.at_q, joint.at_q[::-1])


def test_a_group_members_left_is_freed_without_the_collector(monkeypatch):
    # a group holds no reference to itself, so reference counting frees
    # one that members left at their regroup: when a step starts, no
    # group but its own is alive, and none is once the run returns
    import gc
    import weakref

    import dghsim.stepping as stepping

    built = []
    real_group, real_advance = stepping._Group, stepping._advance

    def group(*args):
        out = real_group(*args)
        built.append(weakref.ref(out))
        return out

    def advance(*args):
        assert all(ref() is None for ref in built[:-1])
        return real_advance(*args)

    monkeypatch.setattr(stepping, "_Group", group)
    monkeypatch.setattr(stepping, "_advance", advance)
    states, params, configs, seeds = _lockstep_members()
    gc.disable()
    try:
        run(states, params, configs, seeds=seeds)
        assert len(built) == 3
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()


@pytest.mark.parametrize("track", [False, True])
def test_a_departed_group_is_freed_at_its_regroup(monkeypatch, track):
    # neither the driver nor a member suspended at its yield holds a group
    # that members left, or a view of its arrays, so reference counting
    # frees them before its replacement takes its first step
    import gc
    import weakref

    import dghsim.stepping as stepping

    left = []
    real_regroup, real_advance = stepping._regroup, stepping._advance

    def regroup(rows):
        # the group and the arrays its members are sent views of
        left.extend(
            weakref.ref(x) for g, _ in rows for x in (g, g.samples, g.rows, g.state)
        )
        return real_regroup(rows)

    def advance(*args):
        assert all(ref() is None for ref in left)
        return real_advance(*args)

    monkeypatch.setattr(stepping, "_regroup", regroup)
    monkeypatch.setattr(stepping, "_advance", advance)
    seeds = [np.linspace(0.0, 1.0, 4, endpoint=False)] * 3 if track else None
    gc.disable()
    try:
        run(
            [smooth_state(n=32, amp=a) for a in (0.1, 0.25, 0.4)],
            [ModelParams(A=1.0, gamma=0.3)] * 3,
            [SimConfig(n=32, t_end=t) for t in (0.05, 0.1, 0.2)],
            seeds=seeds,
        )
    finally:
        gc.enable()
    assert len(left) == 4 * 3  # a regroup of the two rows that stay, then of one


def test_lockstep_step_builds_four_phase_matrices_and_one_transform_for_the_group(
    monkeypatch,
):
    # the group observes at q with one phase matrix before its first step;
    # then each lockstep step builds one for each of stages 2 to 4 and one
    # for the observation of its result, and makes one inverse transform
    # to samples at n, however many members take it
    import dghsim.grid as grid
    import dghsim.stepping as stepping

    n = 64
    log = []
    real_advance = stepping._advance
    real_phases = grid._phase_matrix

    def advance(*args, **kwargs):
        log.append("step")
        return real_advance(*args, **kwargs)

    def phases(*args, **kwargs):
        log.append("phases")
        return real_phases(*args, **kwargs)

    monkeypatch.setattr(stepping, "_advance", advance)
    monkeypatch.setattr(grid, "_phase_matrix", phases)
    _log_transforms(monkeypatch, log)
    states, params, configs, seeds = _lockstep_members()
    results = run(states, params, configs, seeds=seeds)
    monkeypatch.undo()

    steps = [[]]
    for entry in log:
        if entry == "step":
            steps.append([])
        else:
            steps[-1].append(entry)
    before_first, steps = steps[0], steps[1:]
    taken = [len(r.slope_trace.times) - 1 for r in results]
    assert len(set(taken)) == 3
    assert len(steps) == max(taken)
    assert before_first.count("phases") == 1
    for made in steps:
        assert made.count("phases") == 4
        assert made.count(("irfft", n)) == 1


@pytest.mark.parametrize(
    "step, stage", [(2, 0), (2, 3), (0, 0), (0, 3)],
    ids=["0", "3", "first-step-0", "first-step-3"],
)
def test_nonfinite_member_leaves_its_group_alone(monkeypatch, step, stage):
    # a NaN in the middle member's row of the third lockstep step, or of
    # the first, ends that member where it would end alone; the others run
    # on as if alone.  It records every third step, so at the third step
    # its last record reads the state its row kept, which is its clean
    # run's state there.  On the first step its row keeps the coefficients
    # of the given samples, whose record it made before that step
    import dghsim.stepping as stepping

    states, params, configs, seeds = _lockstep_members()
    clean = [run(*args) for args in zip(states, params, configs, seeds)]
    configs[1] = dataclasses.replace(configs[1], record_every=3)
    real = stepping.rhs_coeffs

    def poisoning(row):
        calls = []

        def poisoned(*args):
            out = real(*args)
            if len(calls) == 4 * step + stage:
                out[row, 1, 5] = np.nan
            calls.append(1)
            return out

        return poisoned

    monkeypatch.setattr(stepping, "rhs_coeffs", poisoning(0))
    alone = run(states[1], params[1], configs[1], seeds=seeds[1])
    monkeypatch.setattr(stepping, "rhs_coeffs", poisoning(1))
    together = run(states, params, configs, seeds=seeds)
    assert alone.stop == STOP_NONFINITE
    assert alone.slope_trace.times[-1] == clean[1].slope_trace.times[step]
    assert len(alone.series) == (1 if step == 0 else 2)
    assert np.array_equal(alone.series[0], clean[1].series[0])
    # all but the dt column, which holds the step that failed
    assert np.array_equal(alone.series[-1, :-1], clean[1].series[step, :-1])
    for name in ("q", "log_qx", "rho_q"):
        assert np.array_equal(
            getattr(alone.ensemble, name)[-1], getattr(clean[1].ensemble, name)[step]
        )
    _assert_same_result(together[1], alone)
    _assert_same_result(together[0], clean[0])
    _assert_same_result(together[2], clean[2])


def test_characteristics_do_not_perturb_the_fields():
    # the characteristics share the fields' stage function and RK4 sum, but
    # only read the field coefficients: every field output is bit for bit
    # that of a run without them
    s0 = smooth_state()
    p = ModelParams(A=1.0, gamma=0.3)
    c = SimConfig(n=64, t_end=0.3, record_every=3, snapshot_times=(0.1, 0.2))
    plain = run(s0, p, c)
    tracked = run(s0, p, c, seeds=np.linspace(0.0, 1.0, 8, endpoint=False))
    assert tracked.ensemble is not None
    assert np.array_equal(plain.series, tracked.series)
    for name in ("times", "m", "alpha"):
        assert np.array_equal(getattr(plain.slope_trace, name),
                              getattr(tracked.slope_trace, name))
    assert plain.stop == tracked.stop
    assert [t for t, _ in plain.snapshots] == [t for t, _ in tracked.snapshots] == [0.1, 0.2]
    for (_, a), (_, b) in zip(plain.snapshots, tracked.snapshots):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.rho, b.rho)


def test_rk4_fourth_order():
    s0 = smooth_state()
    p = ModelParams(A=1.0, gamma=0.3)
    t_end = 0.05

    def integrate(steps):
        return step_rk4(s0, p, t_end / steps, steps).u

    ref = integrate(256)
    errs = [np.max(np.abs(integrate(k) - ref)) for k in (8, 16)]
    order = np.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3


# ---------------------------------------------------------------------------
# full runs

def test_constant_state_stays_put():
    s = constant_state(64, 0.5, 1.5)
    p = ModelParams(A=1.0, gamma=0.0)
    res = run(s, p, SimConfig(n=64, t_end=10.0))
    assert res.stop == STOP_END
    assert res.slope_trace.times[-1] == pytest.approx(10.0, abs=1e-9)
    e0_first, e0_last = res.series[[0, -1], 1]
    assert abs(e0_last - e0_first) < 1e-10 * e0_first
    final_u = res.snapshots[-1][1].u if res.snapshots else None
    assert final_u is None  # no snapshots were requested
    assert np.max(np.abs(res.slope_trace.m)) < 1e-10


def test_time_error_shrinks_with_cfl(rng):
    s0 = smooth_state(n=64, amp=0.1)
    p = ModelParams(A=1.0, gamma=0.2)

    def final_u(cfl):
        c = SimConfig(n=64, t_end=0.2, cfl=cfl, snapshot_times=(0.2,))
        res = run(s0, p, c)
        assert res.stop == STOP_END
        return res.snapshots[-1][1].u

    coarse = final_u(0.3)
    fine = final_u(0.15)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_snapshots_land_exactly():
    s0 = smooth_state()
    c = SimConfig(n=64, t_end=0.1, snapshot_times=(0.0, 0.03, 0.1, 0.5, 0.03))
    res = run(s0, ModelParams(), c)
    times = [t for t, _ in res.snapshots]
    assert times == [0.0, 0.03, 0.1]  # deduplicated, clipped, exact
    t0, state0 = res.snapshots[0]
    assert np.array_equal(state0.u, s0.u)
    assert np.array_equal(state0.rho, s0.rho)


@pytest.mark.parametrize("snapshot_times, taken", [
    ((), 0),
    ((0.0,), 1),
    ((0.0, 0.25, 0.25 + 1e-15), 3),  # a pair closer than the time resolution
])
def test_one_step_size_per_step_whatever_the_snapshots(monkeypatch, snapshot_times, taken):
    # a snapshot due at the current time is taken before the step is sized,
    # so it costs no second adaptive_dt
    import dghsim.stepping as stepping

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return adaptive_dt(*args, **kwargs)

    monkeypatch.setattr(stepping, "adaptive_dt", spy)
    c = SimConfig(n=32, t_end=0.5, snapshot_times=snapshot_times)
    res = run(smooth_state(n=32), ModelParams(), c)
    assert res.stop == STOP_END
    assert len(res.snapshots) == taken
    assert len(calls) == len(res.slope_trace.times) - 1 == 40


def test_snapshots_take_their_members_own_grid():
    # a member takes its grid from its samples: in one call on two grids,
    # each member's snapshots live on its own
    sizes = (64, 128, 64, 128)
    states = [smooth_state(n=n, amp=0.1 + 0.05 * i) for i, n in enumerate(sizes)]
    configs = [SimConfig(n=n, t_end=0.1, snapshot_times=(0.0, 0.05, 0.1)) for n in sizes]
    results = run(states, [ModelParams()] * 4, configs)
    for res, c in zip(results, configs):
        assert [t for t, _ in res.snapshots] == [0.0, 0.05, 0.1]
        for _, st in res.snapshots:
            assert st.u.size == c.n


def test_series_layout_and_cadence():
    s0 = smooth_state()
    p = ModelParams(A=1.0, gamma=0.3)
    c = SimConfig(n=64, t_end=0.2, record_every=1, snapshot_times=(0.0, 0.05, 0.2))
    res = run(s0, p, c)
    assert res.series.shape[1] == len(SERIES_COLUMNS)
    t = res.series[:, 0]
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.2, abs=1e-9)
    assert np.all(np.diff(t) > 0.0)  # no duplicate records
    # record_every=1 records after every accepted step
    assert len(res.series) == len(res.slope_trace.times)
    # the invariant columns at each snapshot are the model's functionals of
    # that snapshot's arrays.  At t = 0 they are bit for bit, as is meanU
    # everywhere; later, the run takes u_x and the cubic invariant's samples
    # from the state's coefficients rather than re-transforming u, so E0,
    # hamE and hamF agree to roundoff
    assert len(res.snapshots) == 3
    for ts, st in res.snapshots:
        row = res.series[t == ts][0]
        ux = deriv_values(st.u, 1)
        e0 = energy_e0(np.stack((st.u, ux, st.rho)))
        c = np.fft.rfft(np.stack((st.u, ux, st.rho)), norm="forward")
        expected = [
            e0,
            mean_u(st.u),
            hamiltonian_e(e0, st.rho),
            hamiltonian_f(c, p.A, p.gamma, pad_buffer(c)),
        ]
        e0, mean, ham_e, ham_f = expected
        assert row[2] == mean
        if ts == 0.0:
            assert row[1:5].tolist() == expected
        else:
            assert row[[1, 3, 4]] == pytest.approx([e0, ham_e, ham_f], rel=1e-13, abs=0.0)


def test_sparser_recording():
    s0 = smooth_state()
    dense = run(s0, ModelParams(), SimConfig(n=64, t_end=0.2, record_every=1))
    sparse = run(s0, ModelParams(), SimConfig(n=64, t_end=0.2, record_every=10))
    assert len(sparse.series) < len(dense.series)
    # the slope trace still sees every step
    assert len(sparse.slope_trace.times) == len(dense.slope_trace.times)


def test_runs_are_deterministic():
    s0 = smooth_state()
    c = SimConfig(n=64, t_end=0.3)
    a = run(s0, ModelParams(A=1.0, gamma=0.1), c)
    b = run(s0, ModelParams(A=1.0, gamma=0.1), c)
    assert np.array_equal(a.series, b.series)
    assert a.stop == b.stop


def test_step_below_time_resolution_stops_the_run():
    # at u = 1e12 the CFL step is 4.7e-15, below the loop's time
    # resolution 1e-12: the run records step 0 and ends there
    s = constant_state(64, 1.0e12, 1.0)
    res = run(s, ModelParams(), SimConfig(n=64, t_end=1.0))
    assert res.stop == STOP_TIME_RESOLUTION
    assert res.slope_trace.times[-1] == 0.0
    assert len(res.series) == 1
    assert len(res.slope_trace.times) == 1
    assert 0.0 < res.series[0, SERIES_COLUMNS.index("dt")] < 1.0e-12


@pytest.mark.parametrize("stop, cause", [
    (STOP_END, REACHED_END),
    (STOP_TIME_RESOLUTION, RESOLUTION_LOST),
    (STOP_NONFINITE, NONFINITE_STATE),
    (STOP_WITNESS, BLOWUP_DETECTED),
    (STOP_E0, BLOWUP_DETECTED),
])
def test_every_stop_records_its_state_once(monkeypatch, stop, cause):
    # however a run stops, it reports that stop, which criteria names
    # `cause` on these runs; its last series row is the state it stopped
    # at, the last of its slope trace, and no state is recorded twice; the
    # dt of that row is 0 at the end, whose 79th step is no tenth one, and
    # the step taken or tried otherwise
    import dghsim.stepping as stepping

    s0, p, t_end = smooth_state(), ModelParams(), 0.5
    if stop == STOP_TIME_RESOLUTION:
        s0 = constant_state(64, 1.0e12, 1.0)
    elif stop == STOP_NONFINITE:
        real, calls = stepping.rhs_coeffs, []

        def poisoned(*args):
            out = real(*args)
            if len(calls) == 4 * 2:  # stage 1 of the third step
                out[0, 0, 5] = np.nan
            calls.append(1)
            return out

        monkeypatch.setattr(stepping, "rhs_coeffs", poisoned)
    elif stop in (STOP_WITNESS, STOP_E0):
        (s0, p), t_end = breaking_wave(128), 5.0
        if stop == STOP_E0:
            monkeypatch.setattr(stepping, "WITNESS_TOL", math.inf)
    res = run(s0, p, SimConfig(n=s0.u.size, t_end=t_end))
    assert res.stop == stop
    assert outcome(s0, p, res)[0] == cause
    # the stop time is the trace's last, and the last row records the
    # trace's last slope minimum and alpha
    last, trace = res.series[-1], res.slope_trace
    assert last[0] == trace.times[-1]
    assert last[SERIES_COLUMNS.index("minUx")] == trace.m[-1]
    assert last[SERIES_COLUMNS.index("alpha")] == trace.alpha[-1]
    assert np.unique(res.series[:, 0]).size == len(res.series)
    assert (last[SERIES_COLUMNS.index("dt")] == 0.0) == (stop == STOP_END)


@pytest.fixture
def no_witness(monkeypatch):
    import dghsim.stepping as stepping

    monkeypatch.setattr(stepping, "WITNESS_TOL", math.inf)


def test_e0_guard_stops_a_breaking_run_before_its_bound(no_witness):
    # past the sharp threshold at n = 128, E0 stops being conserved once
    # the front outruns the grid: the run ends there, its slope already
    # past the rate fit's cutoff, and long before the Riccati bound
    from dghsim.criteria import evaluate_criteria

    s0, p = breaking_wave(128)
    res = run(s0, p, SimConfig(n=128, t_end=5.0))
    assert res.stop == STOP_E0
    assert res.slope_trace.times[-1] < evaluate_criteria(s0.u, s0.rho, p).riccati_t
    assert res.slope_trace.m[-1] <= -3.0 * abs(res.slope_trace.m[0])
    # the stop is recorded, with a drift just past the tolerance
    last = res.series[-1]
    assert last[0] == res.slope_trace.times[-1]
    drift = abs(last[1] - res.series[0, 1]) / res.series[0, 1]
    assert E0_DRIFT_TOL < drift <= 1.0e-2


def test_e0_guard_reports_lost_resolution_without_a_dive(no_witness):
    # at n = 64 and cfl 0.3 the steps are coarse enough that RK4 error
    # alone (it shrinks about 20x when cfl halves) carries E0 drift past the
    # tolerance at t ~ 0.926, while min u_x is still near m(0): the run has
    # stopped following the solution, but it has not met a blow-up
    s0, p = smooth_state(n=64), ModelParams()
    res = run(s0, p, SimConfig(n=64, t_end=1.0))
    assert res.stop == STOP_E0
    assert outcome(s0, p, res)[0] == RESOLUTION_LOST
    assert res.slope_trace.times[-1] == pytest.approx(0.926, abs=0.002)
    m = res.slope_trace.m
    assert m[-1] == pytest.approx(m[0], rel=0.05)
    drift = abs(res.series[-1, 1] - res.series[0, 1]) / res.series[0, 1]
    assert drift > E0_DRIFT_TOL


def test_witness_stops_a_breaking_run_before_the_e0_guard(monkeypatch):
    # the spectral tail of rho passes WITNESS_TOL at n = 128 while E0 is
    # still held: the run ends there, past the fit cutoff, and every step
    # it took is the one the E0 guard alone takes
    import dghsim.stepping as stepping

    s0, p = breaking_wave(128)
    res = run(s0, p, SimConfig(n=128, t_end=5.0))
    assert res.stop == STOP_WITNESS
    assert res.slope_trace.m[-1] <= -3.0 * abs(res.slope_trace.m[0])
    last = res.series[-1]
    assert last[0] == res.slope_trace.times[-1]
    drift = abs(last[1] - res.series[0, 1]) / res.series[0, 1]
    assert drift <= E0_DRIFT_TOL
    monkeypatch.setattr(stepping, "WITNESS_TOL", math.inf)
    guard = run(s0, p, SimConfig(n=128, t_end=5.0))
    steps = res.slope_trace.m.size
    assert guard.slope_trace.m.size > steps
    assert np.array_equal(guard.slope_trace.m[:steps], res.slope_trace.m)
    assert np.array_equal(guard.slope_trace.times[:steps], res.slope_trace.times)


def test_witness_reports_lost_resolution_without_a_dive():
    # at n = 64 the density of the smooth state concentrates until its
    # spectral tail passes WITNESS_TOL at t ~ 0.679, with E0 still held and
    # min u_x short of the fit cutoff; there rho is 0.4% of its maximum off
    # the n = 256 run, and twice that by t = 0.8
    s0, p = smooth_state(n=64), ModelParams()
    res = run(s0, p, SimConfig(n=64, t_end=1.0))
    assert res.stop == STOP_WITNESS
    assert outcome(s0, p, res)[0] == RESOLUTION_LOST
    assert res.slope_trace.times[-1] == pytest.approx(0.679, abs=0.002)
    m = res.slope_trace.m
    assert -3.0 * abs(m[0]) < m[-1] < m[0]
    drift = abs(res.series[-1, 1] - res.series[0, 1]) / res.series[0, 1]
    assert drift <= E0_DRIFT_TOL


@pytest.mark.parametrize("row", ["u", "rho"])
@pytest.mark.parametrize("share, cause", [(0.06, RESOLUTION_LOST), (0.04, REACHED_END)])
def test_witness_fires_on_a_tail_past_its_tolerance(row, share, cause):
    # a wave whose mode n/4 + 1 holds `share` of its amplitude, in u or in
    # rho: one short step keeps the share, and the witness ends the run on
    # it past WITNESS_TOL = 0.05 only, short of a dive
    n = 64
    g = PeriodicGrid(n)
    x = 2.0 * np.pi * g.nodes
    wave = 0.2 * (np.sin(x) + share * np.sin((n // 4 + 1) * x))
    # rho = 0 stays 0 beside the wave in u, while a constant rho would
    # take u_x rho, whose mode k is k times larger, into its own row
    u, rho = (0.5 + wave, np.zeros(n)) if row == "u" else (np.full(n, 0.5), 1.0 + wave)
    s0, p = State(u, rho), ModelParams()
    res = run(s0, p, SimConfig(n=n, t_end=1.0e-4))
    assert res.stop == (STOP_WITNESS if share > WITNESS_TOL else STOP_END)
    assert outcome(s0, p, res)[0] == cause
    assert len(res.slope_trace.times) == 2


@pytest.mark.parametrize("tol", [0.0, math.inf])
@pytest.mark.parametrize("u, rho", [(0.7, 0.0), (0.7, 1.3), (0.0, 0.0)])
def test_witness_reads_zero_on_rows_without_modes(monkeypatch, tol, u, rho):
    # constant rows, rho = 0 among them, keep every mode past k = 0 at 0:
    # at WITNESS_TOL = 0 a tail above 0 would end the run, and at inf the
    # bound inf * 0 is a nan, which must raise no warning
    import dghsim.stepping as stepping

    monkeypatch.setattr(stepping, "WITNESS_TOL", tol)
    res = run(constant_state(64, u, rho), ModelParams(), SimConfig(n=64, t_end=0.5))
    assert res.stop == STOP_END
    assert res.slope_trace.times[-1] == pytest.approx(0.5, abs=1e-12)


def test_run_checks_grid_against_config():
    s0 = smooth_state(n=64)
    with pytest.raises(ValueError):
        run(s0, ModelParams(), SimConfig(n=32, t_end=1.0))


def test_energy_drift_is_time_integration_error():
    # halving cfl must shrink the energy drift by roughly 2^4
    s0 = smooth_state(n=64, amp=0.3)
    p = ModelParams(A=1.0, gamma=0.0)
    e0 = energy_e0(np.stack((s0.u, deriv_values(s0.u, 1), s0.rho)))

    def drift(cfl):
        res = run(s0, p, SimConfig(n=64, t_end=0.5, cfl=cfl))
        return abs(res.series[-1, 1] - e0) / e0

    d1, d2 = drift(0.6), drift(0.3)
    assert d2 < d1 / 8.0
