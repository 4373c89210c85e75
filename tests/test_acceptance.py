"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL
line with the measured numbers (run with -s to see them on success).

The expensive breaking-wave runs (n = 512, 1024, 2048) and the long
smooth run are shared through module-scoped fixtures; everything else is
direct computation against the oracles in dghsim.oracles, which
`dghsim selftest` runs with fewer draws."""

import time

import numpy as np
import pytest

from dghsim.characteristics import default_seeds, sign_preserved
from dghsim.criteria import (
    estimate_blowup_rate,
    evaluate_criteria,
    lyapunov_trace,
)
from dghsim.grid import PeriodicGrid
from dghsim.model import ModelParams
from dghsim.oracles import (
    helmholtz_oracle,
    poincare_margin,
    riccati_ratio,
    rk4_orders,
    sharp_kernel_ratio,
    steady_state_deviation,
    threshold_algebra,
    transport_residual,
)
from dghsim.scenarios import build_initial_data, solve_blowup_amplitude
from dghsim.stepping import SimConfig, run
from helpers import outcome

BLOWUP_MODEL = ModelParams(A=1.0, gamma=0.0)
GLOBAL_MODEL = ModelParams(A=1.0, gamma=0.0)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def blowup_runs():
    # one steep scenario (margin 1.05 past the sharp threshold, amplitude
    # solved once on the coarsest grid), integrated at three resolutions
    a = solve_blowup_amplitude(b=1.0, margin=1.05, model=BLOWUP_MODEL, n=512)
    out = {}
    for n in (512, 1024, 2048):
        s0 = build_initial_data("blowup31", {"a": a, "b": 1.0}, PeriodicGrid(n))
        t0 = time.perf_counter()
        res = run(s0, BLOWUP_MODEL, SimConfig(n=n, t_end=5.0))
        out[n] = (s0, res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def global_long_run():
    s0 = build_initial_data("global41", {"r0": 2.0, "ru": 1.0}, PeriodicGrid(256))
    cfg = SimConfig(n=256, t_end=10.0)
    res = run(s0, GLOBAL_MODEL, cfg, seeds=default_seeds(64))
    return s0, res


def test_criterion_01_conservation():
    s0 = build_initial_data("global41", {"r0": 2.0, "ru": 1.0}, PeriodicGrid(256))
    t0 = time.perf_counter()
    res = run(s0, GLOBAL_MODEL, SimConfig(n=256, t_end=5.0))
    elapsed = time.perf_counter() - t0
    # columns E0 and meanU of the first and the last record
    (e0_first, mu_first), (e0_last, mu_last) = res.series[[0, -1], 1:3].tolist()
    e0_drift = abs(e0_last - e0_first) / e0_first
    mu_drift = abs(mu_last - mu_first)
    ok = (
        outcome(s0, GLOBAL_MODEL, res)[0] == "ReachedEnd"
        and e0_drift < 1e-6
        and mu_drift < 1e-8
        and elapsed < 30.0
    )
    verdict(
        1, ok,
        f"energy drift {e0_drift:.3e} (<1e-6), mean-u drift {mu_drift:.3e} "
        f"(<1e-8), {elapsed:.1f}s (<30s)",
    )


def test_criterion_02_steady_state():
    dev = steady_state_deviation(steps=10_000)
    verdict(2, dev < 1e-10, f"sup deviation {dev:.3e} after 1e4 steps (<1e-10)")


def test_criterion_03_operator_oracles(rng):
    worst_quad, worst_split = helmholtz_oracle(rng, draws=20)
    ok = worst_quad < 1e-6 and worst_split < 1e-12
    verdict(
        3, ok,
        f"quadrature sup error {worst_quad:.3e} (<1e-6), "
        f"factorization error {worst_split:.3e} (<1e-12)",
    )


def test_criterion_04_sharp_constant(rng):
    err, worst = sharp_kernel_ratio(rng, draws=1000)
    ok = err < 1e-6 and worst <= 1e-9
    verdict(
        4, ok,
        f"kernel ratio off by {err:.3e} (<1e-6), worst random excess "
        f"{worst:.3e} (<=1e-9)",
    )


def test_criterion_05_embedding_margin(rng):
    worst = poincare_margin(rng, draws=1000)
    verdict(5, worst >= -1e-9, f"minimum margin {worst:.3e} (>=-1e-9)")


def test_criterion_06_riccati_bound(rng):
    worst_ratio = riccati_ratio(rng, draws=50)
    verdict(
        6, worst_ratio <= 1.01,
        f"worst numeric/bound time ratio {worst_ratio:.4f} (<=1.01)",
    )


def test_criterion_07_blowup_detection(blowup_runs):
    s0, res, elapsed = blowup_runs[512]
    bound = evaluate_criteria(s0.u, s0.rho, BLOWUP_MODEL).riccati_t
    # slack of one recording interval, per the detection-vs-recording gap
    slack = float(np.max(np.diff(res.series[:, 0])))
    cause, _ = outcome(s0, BLOWUP_MODEL, res)
    ok = (
        cause == "BlowupDetected"
        and res.termination.t <= bound + slack
        and elapsed < 120.0
    )
    verdict(
        7, ok,
        f"{cause} at t={res.termination.t:.4f} <= riccati_t "
        f"{bound:.4f} + interval {slack:.4f}, {elapsed:.1f}s (<120s)",
    )


def test_criterion_08_blowup_rate(blowup_runs):
    rates = {}
    for n in (512, 1024, 2048):
        _, res, _ = blowup_runs[n]
        rates[n] = estimate_blowup_rate(res.slope_trace).rate
    gaps = [abs(rates[n] + 2.0) for n in (512, 1024, 2048)]
    ok = (
        -2.4 <= rates[1024] <= -1.6
        and gaps[0] > gaps[1] > gaps[2]
    )
    verdict(
        8, ok,
        f"rates {rates[512]:.4f}/{rates[1024]:.4f}/{rates[2048]:.4f} "
        f"(n=512/1024/2048), in [-2.4,-1.6] and tightening toward -2",
    )


def test_criterion_09_global_existence(global_long_run):
    s0, res = global_long_run
    lt = lyapunov_trace(res.slope_trace, s0.rho, s0.u, GLOBAL_MODEL)
    signs_ok = sign_preserved(res.ensemble)
    cause, _ = outcome(s0, GLOBAL_MODEL, res)
    ok = (
        cause == "ReachedEnd"
        and lt.violations.size == 0
        and signs_ok
    )
    verdict(
        9, ok,
        f"{cause} at t={res.termination.t:g}, envelope "
        f"violations {lt.violations.size}, density sign preserved {signs_ok}",
    )


def test_criterion_10_transport_identity():
    resid = transport_residual("global41", {"r0": 2.0, "ru": 1.0}, n=256, count=64)
    zresid = transport_residual("zero-mean", {"a": 1.0}, n=256, count=64)
    ok = resid < 1e-5 and zresid < 1e-10
    verdict(
        10, ok,
        f"residual {resid:.3e} (<1e-5) on the smooth run, {zresid:.3e} "
        f"(<1e-10) with vanishing density",
    )


def test_criterion_11_threshold_algebra(rng):
    worst_id, worst_lim = threshold_algebra(rng, draws=10_000)
    ok = worst_id < 1e-12 and worst_lim < 1e-4
    verdict(
        11, ok,
        f"identity residual {worst_id:.3e} (<1e-12) on 1e4 draws, "
        f"zero-mean limit gap {worst_lim:.3e} (<1e-4)",
    )


def test_criterion_12_rk4_order():
    orders = rk4_orders()
    ok = min(orders) >= 3.9
    verdict(
        12, ok,
        f"observed orders {orders[0]:.3f}, {orders[1]:.3f} (>=3.9)",
    )
