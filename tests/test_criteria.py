"""Threshold and diagnostic tests: closed-form threshold values, Riccati
bound algebra, the rate estimator on synthetic hyperbolas, the growth
envelope, the embedding inequalities behind it all, and the outcome a
stopped run is given."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dghsim.criteria import (
    BLOWUP_DETECTED,
    BLOWUP_PREDICTED,
    GLOBAL_PREDICTED,
    NO_PREDICTION,
    NONFINITE_STATE,
    REACHED_END,
    RESOLUTION_LOST,
    SHARP_EMBEDDING_CONSTANT,
    STOP_E0,
    STOP_END,
    STOP_NONFINITE,
    STOP_TIME_RESOLUTION,
    STOP_WITNESS,
    CriterionReport,
    DensitySignChangeError,
    InsufficientWindowError,
    SlopeTrace,
    Verdict,
    dive_cutoff,
    estimate_blowup_rate,
    evaluate_criteria,
    k_mean,
    k_sharp,
    lyapunov_trace,
    name_outcome,
    poincare_check,
    refined_max,
    refined_min,
    riccati_blowup_time,
    sobolev_sharp_check,
    threshold_mean,
    threshold_sharp,
    threshold_zero_mean,
)
from dghsim.grid import (
    PeriodicGrid,
    deriv_values,
    dgreen_kernel,
    green_kernel,
    random_trig_field,
)
from dghsim.model import ModelParams, State
from dghsim.scenarios import build_initial_data
from dghsim.stepping import SERIES_COLUMNS, SimConfig, run
from helpers import breaking_wave, dense_extremum


def make_trace(t, m, alpha=None):
    t = np.asarray(t, dtype=float)
    m = np.asarray(m, dtype=float)
    if alpha is None:
        alpha = np.zeros_like(t)
    return SlopeTrace(times=t, m=m, alpha=alpha)


# ---------------------------------------------------------------------------
# refined extrema and slope tracking

def test_refined_extrema_against_dense_grid(rng):
    g = PeriodicGrid(512)
    for _ in range(10):
        f = random_trig_field(g, rng, max_mode=4, rms=2.0)
        ux = deriv_values(f, 1)
        m, xi = refined_min(ux)
        ref_v, ref_x = dense_extremum(ux, factor=64)
        assert m == pytest.approx(ref_v, abs=2e-4)
        gap = min(abs(xi - ref_x), 1.0 - abs(xi - ref_x))
        assert gap < 1e-4
        hi, _ = refined_max(ux)
        ref_hi, _ = dense_extremum(ux, factor=64, sign=-1.0)
        assert hi == pytest.approx(ref_hi, abs=2e-4)


def test_refined_min_beats_node_minimum(rng):
    # the parabola vertex can only go below the winning node
    g = PeriodicGrid(64)
    for _ in range(20):
        v = random_trig_field(g, rng, max_mode=5)
        m, _ = refined_min(v)
        assert m <= np.min(v) + 1e-15


def initial_slope(s: State) -> tuple[float, float, float]:
    """(m, xi, alpha) that a run records for its initial state: m and alpha
    in its slope trace, xi in its first series row."""
    res = run(s, ModelParams(), SimConfig(n=s.u.size, t_end=1e-6))
    xi = res.series[0, SERIES_COLUMNS.index("xi")]
    return float(res.slope_trace.m[0]), float(xi), float(res.slope_trace.alpha[0])


def test_track_slope_single_mode():
    g = PeriodicGrid(128)
    u = np.sin(2.0 * np.pi * g.nodes) / (2.0 * np.pi)
    m, xi, alpha = initial_slope(State(u, np.full(128, 2.0)))
    assert m == pytest.approx(-1.0, abs=1e-12)
    assert xi == pytest.approx(0.5, abs=1e-12)
    assert alpha == pytest.approx(2.0, abs=1e-12)


def test_track_slope_flat_field_ties_to_first_node():
    s = State(np.full(64, 3.0), np.ones(64))
    m, xi, _ = initial_slope(s)
    assert m == 0.0 and xi == 0.0


def test_slope_trace_validation():
    with pytest.raises(ValueError):
        SlopeTrace(np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        SlopeTrace(np.zeros(3), np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# thresholds

def test_sharp_constant_value():
    assert SHARP_EMBEDDING_CONSTANT == pytest.approx(1.0819767068693265, abs=1e-15)
    assert green_kernel(0.0) == pytest.approx(SHARP_EMBEDDING_CONSTANT, abs=1e-15)


def test_threshold_closed_forms():
    # no-dispersion-gap case: K = C/2, threshold = -sqrt(C)
    assert k_sharp(1.0, 2.0, 2.0) == pytest.approx(0.5409883534346633, abs=1e-12)
    assert threshold_sharp(1.0, 2.0, 2.0) == pytest.approx(-1.040181093305068, abs=1e-12)
    # unit dispersion gap
    assert k_sharp(1.0, 1.0, 0.0) == pytest.approx(2.621350540044799, abs=1e-12)
    assert k_sharp(1.0, 0.0, 1.0) == k_sharp(1.0, 1.0, 0.0)  # only |gamma - A| enters
    # zero-mean route in closed form
    assert threshold_zero_mean(12.0, 3.0, 3.0) == pytest.approx(-1.0, abs=1e-14)
    assert threshold_zero_mean(3.0, 1.0, 0.0) == pytest.approx(-1.5, abs=1e-14)


def test_threshold_validation():
    with pytest.raises(ValueError):
        k_sharp(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        k_mean(1.0, 0.0, 0.0, 0.0, 1.0)  # eps must be positive
    with pytest.raises(ValueError):
        threshold_zero_mean(np.inf, 0.0, 1.0)


@given(
    e0=st.floats(0.01, 100.0),
    a0=st.floats(-5.0, 5.0),
    eps=st.floats(0.01, 50.0),
    gamma=st.floats(-3.0, 3.0),
    a=st.floats(0.1, 3.0),
)
def test_threshold_squares_to_twice_k(e0, a0, eps, gamma, a):
    th = threshold_sharp(e0, gamma, a)
    assert th * th == pytest.approx(2.0 * k_sharp(e0, gamma, a), rel=1e-12)
    tm = threshold_mean(e0, a0, eps, gamma, a)
    assert tm * tm == pytest.approx(2.0 * k_mean(e0, a0, eps, gamma, a), rel=1e-12)
    assert th < 0.0 and tm < 0.0


@given(e0=st.floats(0.1, 50.0), gamma=st.floats(-2.0, 2.0), a=st.floats(0.1, 2.0))
def test_zero_mean_is_small_eps_limit(e0, gamma, a):
    limit = threshold_zero_mean(e0, gamma, a)
    near = threshold_mean(e0, 0.0, 1e-8, gamma, a)
    assert near == pytest.approx(limit, abs=1e-4)


# ---------------------------------------------------------------------------
# Riccati bound

def test_riccati_time_closed_forms():
    assert riccati_blowup_time(0.5, 0.0, -1.0) == pytest.approx(2.0, abs=1e-14)
    assert riccati_blowup_time(0.5, 1.0, -2.0) == pytest.approx(2.0, abs=1e-14)
    assert riccati_blowup_time(1.0, 1.0, -2.0) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_riccati_guards():
    with pytest.raises(ValueError):
        riccati_blowup_time(0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        riccati_blowup_time(0.5, -1.0, -2.0)
    with pytest.raises(ValueError):
        riccati_blowup_time(0.5, 1.0, -1.0)  # above the -sqrt(k/c) threshold
    with pytest.raises(ValueError):
        riccati_blowup_time(0.5, 1.0, 5.0)


@given(k=st.floats(0.0, 30.0), gap=st.floats(0.1, 10.0))
def test_riccati_blowup_time_at_one_half(k, gap):
    m0 = -math.sqrt(2.0 * k) - gap
    bound = riccati_blowup_time(0.5, k, m0)
    assert bound == pytest.approx(2.0 * m0 / (2.0 * k - m0 * m0), rel=1e-12)
    assert bound > 0.0


# ---------------------------------------------------------------------------
# rate estimation

def hyperbola_trace(t_star, depth, offset=0.0, points=4000, t0=0.0):
    # m(t) = -2/(t_star - t) + offset, sampled until the dive reaches -depth
    t_stop = t_star - 2.0 / (depth + offset)
    t = np.linspace(t0, t_stop, points)
    return make_trace(t, -2.0 / (t_star - t) + offset)


def test_rate_estimator_exact_hyperbola():
    tr = hyperbola_trace(t_star=1.5, depth=2000.0)
    est = estimate_blowup_rate(tr)
    assert est.rate == pytest.approx(-2.0, abs=1e-8)
    assert est.t_blowup == pytest.approx(1.5, abs=1e-8)
    assert est.fit_quality > 1.0 - 1e-12
    assert est.samples >= 10


def test_rate_estimator_tolerates_offset():
    # a constant bias in m biases the fit; starting the window deep keeps
    # the relative error at the percent level
    t_star = 2.0 / 95.0  # m(0) = -90
    tr = hyperbola_trace(t_star=t_star, depth=10000.0, offset=5.0)
    est = estimate_blowup_rate(tr)
    assert est.rate == pytest.approx(-2.0, rel=0.02)
    assert est.t_blowup == pytest.approx(t_star, abs=1e-3)
    assert est.fit_quality > 0.999


def test_rate_estimator_stops_at_recovery():
    # after the dive stalls and bounces, later samples are untrusted even
    # if a second, deeper descent follows
    t1 = hyperbola_trace(t_star=1.0, depth=500.0, points=2000)
    t_bounce = t1.times[-1] + 0.001 + 0.001 * np.arange(400)
    m_bounce = np.concatenate([
        np.linspace(-500.0, -100.0, 200),  # recovery past half the minimum
        np.linspace(-100.0, -5000.0, 200),  # spurious second dive
    ])
    tr = make_trace(
        np.concatenate([t1.times, t_bounce]),
        np.concatenate([t1.m, m_bounce]),
    )
    est = estimate_blowup_rate(tr)
    assert est.rate == pytest.approx(-2.0, abs=1e-6)
    assert est.t_blowup == pytest.approx(1.0, abs=1e-6)


def test_rate_estimator_needs_a_dive():
    flat = make_trace(np.linspace(0.0, 1.0, 50), np.full(50, -1.0))
    with pytest.raises(InsufficientWindowError):
        estimate_blowup_rate(flat)


def test_dive_cutoff_is_three_times_the_starting_slope_or_three():
    assert dive_cutoff(-0.5) == -3.0
    assert dive_cutoff(-8.0) == -24.0


def test_rate_estimator_needs_enough_samples():
    tr = hyperbola_trace(t_star=1.0, depth=100.0, points=25)
    # fewer than ten samples lie past 3 |m(0)| = 6
    assert np.count_nonzero(tr.m <= -6.0) < 10
    with pytest.raises(InsufficientWindowError, match="need 10"):
        estimate_blowup_rate(tr)


def test_rate_estimator_fits_past_the_cutoff_when_the_floor_lies_above_it():
    # a dive cut short at -10 puts half its floor (-5) above the cutoff
    # 3 |m(0)| = 6: every sample past the cutoff is fitted, none dropped
    tr = hyperbola_trace(t_star=1.0, depth=10.0)
    cutoff = -3.0 * abs(tr.m[0])
    assert 0.5 * tr.m.min() > cutoff
    est = estimate_blowup_rate(tr)
    assert est.samples == np.count_nonzero(tr.m <= cutoff)
    assert est.rate == pytest.approx(-2.0, abs=1e-8)
    assert est.t_blowup == pytest.approx(1.0, abs=1e-8)


def witness_ended_breaking_run(n):
    # the breaking wave, run until the spectral-tail witness ends its dive
    s0, p = breaking_wave(n)
    return run(s0, p, SimConfig(n=n, t_end=5.0)).slope_trace


def test_rate_estimator_rejects_the_witness_ended_breaking_run_at_n128():
    # the witness ends the blowup31 dive at n = 128 near m = -26.3, just
    # past the cutoff: too few resolved samples lie past it to fit
    tr = witness_ended_breaking_run(128)
    cutoff = -3.0 * abs(tr.m[0])
    assert 0 < np.count_nonzero(tr.m <= cutoff) < 10
    with pytest.raises(InsufficientWindowError, match="need 10"):
        estimate_blowup_rate(tr)


def test_rate_estimator_fits_the_witness_ended_breaking_run_at_n256():
    # at n = 256 the witness ends the dive near m = -35.9, before half its
    # deepest slope passes the cutoff; the trace never recovers, so every
    # sample past the cutoff is fitted
    tr = witness_ended_breaking_run(256)
    cutoff = -3.0 * abs(tr.m[0])
    assert 0.5 * tr.m.min() > cutoff
    est = estimate_blowup_rate(tr)
    assert est.samples == np.count_nonzero(tr.m <= cutoff) == 18
    assert est.rate == pytest.approx(-1.9505, abs=1e-4)


def test_rate_estimator_rejects_relaxing_tail():
    # the slope passes the cutoff -3 at once and relaxes from -20 to -11,
    # never back to half its minimum: every sample past the cutoff is
    # fitted, and y = -1/m rises
    t = np.linspace(0.0, 1.0, 60)
    m = np.concatenate([[-1.0], np.linspace(-20.0, -11.0, 59)])
    with pytest.raises(InsufficientWindowError, match="not steepening"):
        estimate_blowup_rate(make_trace(t, m))


# ---------------------------------------------------------------------------
# growth envelope

def test_lyapunov_initial_value():
    g = PeriodicGrid(128)
    u0 = np.sin(2.0 * np.pi * g.nodes) / (2.0 * np.pi)
    rho0 = np.full(128, 2.0)
    tr = make_trace([0.0], [-1.0], alpha=[2.0])
    ly = lyapunov_trace(tr, rho0, u0, ModelParams(A=1.0, gamma=0.0))
    assert ly.beta == pytest.approx(2.0, abs=1e-12)
    assert ly.w[0] == pytest.approx(6.0, abs=1e-12)  # 2*2 + (2/2)(1 + 1)
    assert ly.c2 == pytest.approx(6.0, abs=1e-6)  # sup rho0^2 + 1 + sup ux0^2
    # E0 = int(u^2 + u_x^2 + rho^2) = 1/(8 pi^2) + 1/2 + 4
    e0 = 1.0 / (8.0 * math.pi**2) + 0.5 + 4.0
    c = SHARP_EMBEDDING_CONSTANT
    expected_c1 = c * e0 + 2.0 * math.sqrt(c * e0) + green_kernel(0.0) * e0
    assert ly.c1 == pytest.approx(expected_c1, rel=1e-12)
    assert ly.envelope[0] == pytest.approx(ly.c2 / (2.0 * ly.beta), rel=1e-12)
    assert ly.violations.size == 0


def test_lyapunov_constant_state_flat_certificate():
    u0 = np.zeros(64)
    rho0 = np.full(64, 1.5)
    t = np.linspace(0.0, 3.0, 40)
    tr = make_trace(t, np.zeros_like(t), alpha=np.full_like(t, 1.5))
    ly = lyapunov_trace(tr, rho0, u0, ModelParams())
    assert np.allclose(ly.w, 1.5**2 + 1.0, atol=1e-12)
    assert ly.violations.size == 0
    # envelope grows exactly like exp((c1 + 1/2) t)
    ratio = ly.envelope / ly.envelope[0]
    assert np.allclose(ratio, np.exp((ly.c1 + 0.5) * t), rtol=1e-12)


def test_lyapunov_negative_density_branch():
    u0 = np.zeros(64)
    rho0 = np.full(64, -2.0)
    tr = make_trace([0.0, 1.0], [0.0, -0.5], alpha=[-2.0, -1.8])
    ly = lyapunov_trace(tr, rho0, u0, ModelParams())
    assert ly.beta == pytest.approx(2.0, abs=1e-12)
    assert np.all(ly.w > 0.0)


def test_lyapunov_rejects_vanishing_density():
    u0 = np.zeros(64)
    rho0 = np.sin(2.0 * np.pi * PeriodicGrid(64).nodes)
    tr = make_trace([0.0], [0.0], alpha=[1.0])
    with pytest.raises(ValueError, match="bounded away from zero"):
        lyapunov_trace(tr, rho0, u0, ModelParams())


def test_lyapunov_flags_tracked_sign_change():
    u0 = np.zeros(64)
    rho0 = np.full(64, 2.0)
    tr = make_trace([0.0, 1.0], [0.0, -1.0], alpha=[2.0, -0.1])
    with pytest.raises(DensitySignChangeError):
        lyapunov_trace(tr, rho0, u0, ModelParams())


# ---------------------------------------------------------------------------
# embedding inequalities

def test_sobolev_ratio_of_constant_is_one():
    assert sobolev_sharp_check(np.full(64, 3.0)) == pytest.approx(1.0, abs=1e-12)


def test_sobolev_ratio_attained_by_kernel():
    # translates of the smoothing kernel saturate the embedding; the corner
    # calls for the one-sided derivative sample and the corner-safe mean
    g = PeriodicGrid(512)
    fx = dgreen_kernel(g.nodes)
    fx[0] = -0.5  # one-sided value so fx^2 carries the corner's 1/4
    ratio = sobolev_sharp_check(green_kernel(g.nodes), fx)
    assert ratio == pytest.approx(SHARP_EMBEDDING_CONSTANT, abs=1e-9)


def test_sobolev_ratio_of_sinusoid_is_modest():
    ratio = sobolev_sharp_check(np.cos(2.0 * np.pi * PeriodicGrid(128).nodes))
    assert ratio == pytest.approx(1.0 / (0.5 + 2.0 * np.pi**2), rel=1e-6)
    assert ratio < SHARP_EMBEDDING_CONSTANT


def test_sobolev_check_validation():
    with pytest.raises(ValueError):
        sobolev_sharp_check(np.zeros(64))
    with pytest.raises(ValueError):
        sobolev_sharp_check(np.ones(64), np.zeros(32))


@given(seed=st.integers(0, 2**32 - 1))
def test_sobolev_bound_never_exceeded(seed):
    r = np.random.default_rng(seed)
    g = PeriodicGrid(128)
    f = random_trig_field(g, r, max_mode=10, rms=r.uniform(0.2, 5.0))
    assert sobolev_sharp_check(f) <= SHARP_EMBEDDING_CONSTANT + 1e-9


def test_poincare_margin_closed_forms():
    c = 1.7
    eps = 0.3
    f = np.full(64, c)
    assert poincare_check(f, eps) == pytest.approx(2.0 * c * c / eps, rel=1e-12)
    s = np.sin(2.0 * np.pi * PeriodicGrid(64).nodes)
    assert poincare_check(s, 1.0) == pytest.approx(np.pi**2 / 4.0 - 1.0, rel=1e-6)
    with pytest.raises(ValueError):
        poincare_check(f, 0.0)


@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.05, 20.0))
def test_poincare_margin_nonnegative(seed, eps):
    r = np.random.default_rng(seed)
    g = PeriodicGrid(128)
    f = random_trig_field(g, r, max_mode=10, rms=r.uniform(0.2, 5.0))
    assert poincare_check(f, eps) >= -1e-9


# ---------------------------------------------------------------------------
# combined report

def test_report_for_steep_data_with_vanishing_density():
    from dghsim.scenarios import build_initial_data

    g = PeriodicGrid(256)
    s0 = build_initial_data("blowup31", {"a": 9.0, "b": 1.0, "margin": 1.05}, g)
    rep = evaluate_criteria(s0.u, s0.rho, ModelParams(A=1.0, gamma=0.0))
    assert rep.m0 == pytest.approx(-9.0, abs=1e-6)
    assert rep.xi0 == pytest.approx(0.5, abs=1e-6)
    assert rep.verdicts["sharp"].predicted == BLOWUP_PREDICTED
    assert rep.riccati_t is not None and rep.riccati_t > 0.0
    assert rep.verdicts["positive_density"].predicted == NO_PREDICTION
    assert set(rep.thresholds) == {
        "sharp", "mean_eps_0.1", "mean_eps_1", "mean_eps_10", "zero_mean",
    }
    assert all(v <= 0.0 for v in rep.thresholds.values())


def test_report_for_positive_density():
    u0 = 0.1 * np.sin(2.0 * np.pi * PeriodicGrid(128).nodes)
    rep = evaluate_criteria(u0, np.full(128, 2.0), ModelParams(A=1.0, gamma=0.0))
    assert rep.verdicts["positive_density"].predicted == GLOBAL_PREDICTED
    assert rep.verdicts["sharp"].predicted == NO_PREDICTION
    assert rep.riccati_t is None


def test_report_with_no_applicable_route():
    rho0 = np.sin(2.0 * np.pi * PeriodicGrid(128).nodes)
    rep = evaluate_criteria(np.zeros(128), rho0, ModelParams(A=1.0, gamma=0.0))
    assert all(v.predicted == NO_PREDICTION for v in rep.verdicts.values())
    assert rep.a0 == 0.0


@pytest.mark.parametrize(
    "family, params",
    [("blowup31", {"a": 9.0, "b": 1.0}), ("global41", {"r0": 2.0, "ru": 1.0})],
)
def test_density_at_the_slope_minimum_is_the_runs_alpha(monkeypatch, family, params):
    # the verdict reads rho0(xi0) on the path the run reads alpha(0) on,
    # so the two are one float, bit for bit
    import dghsim.criteria as criteria

    g = PeriodicGrid(128)
    s0 = build_initial_data(family, params, g)
    p = ModelParams(A=1.0, gamma=0.0)
    seen = []
    real = criteria.interp_point

    def spy(c, x):
        seen.append(real(c, x))
        return seen[-1]

    monkeypatch.setattr(criteria, "interp_point", spy)
    evaluate_criteria(s0.u, s0.rho, p)
    trace = run(s0, p, SimConfig(n=g.n, t_end=1.0e-3)).slope_trace
    assert seen == [trace.alpha[0]]


def test_report_container_validation():
    with pytest.raises(ValueError):
        CriterionReport(
            e0=1.0, a0=0.0, m0=0.0, xi0=0.0, thresholds={"sharp": 0.5},
            k_values={}, riccati_t=None, verdicts={},
        )
    with pytest.raises(ValueError):
        CriterionReport(
            e0=1.0, a0=0.0, m0=0.0, xi0=0.0, thresholds={}, k_values={},
            riccati_t=-1.0, verdicts={},
        )


# ---------------------------------------------------------------------------
# a run's outcome

# slope traces from m(0) = -2, whose dive cutoff is -6, that end on it or
# short of it, and from m(0) = -0.5, whose cutoff is -3, not -1.5
PAST, SHORT = [-2.0, -4.0, -6.0], [-2.0, -4.0, -5.9]
SHALLOW_PAST, SHALLOW_SHORT = [-0.5, -3.0], [-0.5, -2.9]
# verdict sets; riccati_t is set apart from them, and every run stops at
# t = 0.5, after a bound of 0.3 and before one of 0.8
NONE = {"positive_density": Verdict(False, NO_PREDICTION)}
BLOWUP = {
    "sharp": Verdict(True, BLOWUP_PREDICTED),
    "positive_density": Verdict(False, NO_PREDICTION),
}
GLOBAL = {
    "sharp": Verdict(False, NO_PREDICTION),
    "positive_density": Verdict(True, GLOBAL_PREDICTED),
}
NONFINITE_FAULT = "non-finite state without a declared blow-up approach"
SMOOTH_FAULT = "{} at t=0.5: the grid could not resolve a solution the paper proves smooth"
LATE_FAULT = "reached t=0.5 past the Riccati blow-up bound 0.3 without breaking"


@pytest.mark.parametrize("stop, m, verdicts, riccati_t, cause, fault", [
    pytest.param(STOP_END, PAST, NONE, None, REACHED_END, None, id="end-past-none"),
    pytest.param(STOP_END, PAST, GLOBAL, None, REACHED_END, None, id="end-past-global"),
    pytest.param(
        STOP_END, SHORT, BLOWUP, 0.8, REACHED_END, None, id="end-short-blowup-bound-after"
    ),
    pytest.param(
        STOP_END, PAST, BLOWUP, 0.5, REACHED_END, None, id="end-past-blowup-bound-at-t"
    ),
    pytest.param(
        STOP_END, SHORT, BLOWUP, 0.3, REACHED_END, LATE_FAULT,
        id="end-short-blowup-bound-before",
    ),
    pytest.param(
        STOP_TIME_RESOLUTION, PAST, NONE, None, RESOLUTION_LOST, None,
        id="time-resolution-past-none",
    ),
    pytest.param(
        STOP_TIME_RESOLUTION, PAST, BLOWUP, 0.3, RESOLUTION_LOST, None,
        id="time-resolution-past-blowup-bound-before",
    ),
    pytest.param(
        STOP_TIME_RESOLUTION, SHORT, GLOBAL, None,
        RESOLUTION_LOST, SMOOTH_FAULT.format(RESOLUTION_LOST),
        id="time-resolution-short-global",
    ),
    # a slope dive, however deep, is no verdict: only BlowupPredicted
    # excuses a non-finite state
    pytest.param(
        STOP_NONFINITE, PAST, NONE, None, NONFINITE_STATE, NONFINITE_FAULT,
        id="nonfinite-past-none",
    ),
    pytest.param(
        STOP_NONFINITE, PAST, BLOWUP, 0.3, NONFINITE_STATE, None,
        id="nonfinite-past-blowup-bound-before",
    ),
    pytest.param(
        STOP_NONFINITE, SHORT, GLOBAL, None, NONFINITE_STATE, NONFINITE_FAULT,
        id="nonfinite-short-global",
    ),
    pytest.param(
        STOP_WITNESS, PAST, NONE, None, BLOWUP_DETECTED, None, id="witness-past-none"
    ),
    pytest.param(
        STOP_WITNESS, SHORT, NONE, None, RESOLUTION_LOST, None, id="witness-short-none"
    ),
    pytest.param(
        STOP_WITNESS, PAST, GLOBAL, None,
        BLOWUP_DETECTED, SMOOTH_FAULT.format(BLOWUP_DETECTED),
        id="witness-past-global",
    ),
    pytest.param(
        STOP_WITNESS, SHORT, BLOWUP, 0.8, RESOLUTION_LOST, None,
        id="witness-short-blowup-bound-after",
    ),
    pytest.param(
        STOP_E0, PAST, BLOWUP, 0.3, BLOWUP_DETECTED, None,
        id="e0-past-blowup-bound-before",
    ),
    pytest.param(
        STOP_E0, SHORT, GLOBAL, None,
        RESOLUTION_LOST, SMOOTH_FAULT.format(RESOLUTION_LOST),
        id="e0-short-global",
    ),
    pytest.param(
        STOP_E0, SHALLOW_PAST, NONE, None, BLOWUP_DETECTED, None, id="e0-shallow-past-none"
    ),
    pytest.param(
        STOP_E0, SHALLOW_SHORT, NONE, None, RESOLUTION_LOST, None,
        id="e0-shallow-short-none",
    ),
])
def test_name_outcome(stop, m, verdicts, riccati_t, cause, fault):
    trace = make_trace(np.linspace(0.0, 0.5, len(m)), m)
    report = CriterionReport(
        e0=1.0, a0=0.0, m0=m[0], xi0=0.5, thresholds={}, k_values={},
        riccati_t=riccati_t, verdicts=verdicts,
    )
    assert name_outcome(report, stop, trace) == (cause, fault)
