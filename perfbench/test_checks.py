"""The benchmark's checks pass on good results and fail on perturbed ones.

    python3 -m pytest perfbench

Breaking-wave and sweep documents are built from closed forms here; the
smooth-run checks are fed the artifacts of a real, small `dghsim run`.
"""

from __future__ import annotations

import copy
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import kernels  # noqa: E402
import speed  # noqa: E402

A, GAMMA, EPS = 1.0, 0.0, (0.1, 1.0, 10.0)
B, MARGIN = 1.0, 1.05


def fixed_point_amplitude() -> float:
    lo, hi = 1.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e0 = checks.e0_blowup31(mid, B)
        if MARGIN * math.sqrt(2.0 * checks.k_sharp(e0, GAMMA, A)) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def breaking_run() -> dict:
    """A breaking run that stops honestly: E0 held, rate -2, stop before the bound."""
    a = fixed_point_amplitude()
    e0 = checks.e0_blowup31(a, B)
    bound = checks.riccati_bound(a, B, A, GAMMA, EPS)
    t = np.linspace(0.0, 0.25, 101)
    series = np.zeros((t.size, 9))
    series[:, 0] = t
    series[:, 1] = e0 * np.where(t <= 0.15, 1.0 + 1e-9 * t, 1.0 + 1e-3)
    series[:, 5] = -a
    x = np.arange(64) / 64
    snap0 = np.column_stack(
        [x, a / (2 * math.pi) * np.sin(2 * math.pi * x), B * np.sin(math.pi * (x - 0.5)) ** 2]
    )
    report = {
        "config": {"scenario": {"a": a}},
        "criteria": {"e0": e0, "m0": -a, "riccati_t": bound},
        "run": {"termination": {"cause": "BlowupDetected", "t": 0.25}},
        "rate_estimate": {"t_blowup": 0.2, "rate": -2.0},
    }
    return {"report": report, "series": series, "chars": None, "snap0": snap0}


def breaking_problems(run) -> list[str]:
    return checks.check_breaking(run, B, MARGIN, A, GAMMA, EPS)


def test_riccati_bound_matches_the_program(breaking_run):
    from dghsim.criteria import evaluate_criteria
    from dghsim.grid import PeriodicGrid
    from dghsim.model import ModelParams
    from dghsim.scenarios import build_initial_data

    a = breaking_run["report"]["config"]["scenario"]["a"]
    s0 = build_initial_data("blowup31", {"a": a, "b": B}, PeriodicGrid(256))
    rep = evaluate_criteria(s0.u, s0.rho, ModelParams(A=A, gamma=GAMMA), EPS)
    assert rep.riccati_t == pytest.approx(checks.riccati_bound(a, B, A, GAMMA, EPS), rel=1e-12)
    assert rep.e0 == pytest.approx(checks.e0_blowup31(a, B), rel=1e-12)


def test_breaking_checks_pass_on_the_predicted_run(breaking_run):
    assert breaking_problems(breaking_run) == []
    assert checks.check_honest_stop(breaking_run, B, A, GAMMA, EPS) == []


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("rate_estimate", "rate", -3.0),
        ("rate_estimate", "rate", -1.0),
        ("rate_estimate", "t_blowup", 0.5),
        ("rate_estimate", "t_blowup", -0.1),
        ("criteria", "e0", None),
        ("criteria", "m0", None),
        ("criteria", "riccati_t", None),
    ],
)
def test_breaking_checks_bite(breaking_run, where, key, value):
    run = copy.deepcopy(breaking_run)
    section = run["report"][where]
    section[key] = section[key] * 1.01 if value is None else value
    assert breaking_problems(run)


def test_breaking_checks_bite_on_artifacts(breaking_run):
    for perturb in (
        lambda r: r["report"]["config"]["scenario"].update(a=r["report"]["config"]["scenario"]["a"] * 1.001),
        lambda r: r["report"]["run"]["termination"].update(cause="ReachedEnd"),
        lambda r: r["report"].update(rate_estimate={"unavailable": "no dive"}),
        lambda r: r["series"].__setitem__((10, 1), r["series"][10, 1] * (1 + 1e-5)),
        lambda r: r["series"].__setitem__((10, 2), 1e-12),
        lambda r: r["snap0"].__setitem__((3, 2), r["snap0"][3, 2] + 1e-9),
        lambda r: r.update(snap0=None),
    ):
        run = copy.deepcopy(breaking_run)
        perturb(run)
        assert breaking_problems(run)


def test_honest_stop_fails_on_a_late_stop_or_lost_energy(breaking_run):
    late = copy.deepcopy(breaking_run)
    late["report"]["run"]["termination"]["t"] = 0.59
    assert checks.check_honest_stop(late, B, A, GAMMA, EPS)
    lost = copy.deepcopy(breaking_run)
    lost["series"][-1, 1] *= 2.0
    assert checks.check_honest_stop(lost, B, A, GAMMA, EPS)


# ---------------------------------------------------------------------------
# smooth run: real artifacts of a small global41 run

R0, RU, T_END, COUNT = 2.5, 1.0, 0.5, 8

SMALL_CFG = f"""\
scenario.family = global41
scenario.r0 = {R0}
scenario.ru = {RU}
sim.n = 32
sim.t_end = {T_END}
sim.record_every = 1
sim.snapshot_times = 0.0, {T_END}
characteristics.enabled = true
characteristics.count = {COUNT}
"""


@pytest.fixture(scope="module")
def smooth_run(tmp_path_factory) -> dict:
    from dghsim.cli import main

    root = tmp_path_factory.mktemp("smooth")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    assert main(["run", str(cfg), "--out-dir", str(root / "out"), "--quiet"]) == 0
    return checks.load_run(root / "out")


def global_problems(run) -> list[str]:
    return checks.check_global(run, R0, RU, T_END, COUNT, A, GAMMA)


def test_global_checks_pass_on_a_real_run(smooth_run):
    assert global_problems(smooth_run) == []


def scale_residual(run: dict, factor: float) -> None:
    rec = run["chars"].reshape(-1, COUNT, 5)
    rho0 = R0 + np.sin(2 * math.pi * rec[:, :, 1])
    rec[:, :, 4] = (rho0 + factor * (rec[:, :, 4] * rec[:, :, 3] - rho0)) / rec[:, :, 3]


def test_transport_residual_times_ten_fails(smooth_run):
    run = copy.deepcopy(smooth_run)
    scale_residual(run, 10.0)
    assert global_problems(run)


def test_transport_residual_past_tolerance_fails(smooth_run):
    run = copy.deepcopy(smooth_run)
    rec = run["chars"].reshape(-1, COUNT, 5)
    rec[-1, 0, 4] += 2.0 * checks.TRANSPORT_TOL * (R0 - 1.0) / rec[-1, 0, 3]
    problems = global_problems(run)
    assert any("transport residual" in p and "exceeds" in p for p in problems)


def test_global_checks_bite(smooth_run):
    def crossed(r):
        rec = r["chars"].reshape(-1, COUNT, 5)
        rec[-1, [2, 3], 2] = rec[-1, [3, 2], 2]

    for perturb in (
        crossed,
        lambda r: r["series"].__setitem__((-1, 1), r["series"][-1, 1] * (1 + 1e-3)),
        lambda r: r["series"].__setitem__((-1, 5), -1e300),
        lambda r: r["series"].__setitem__((0, 1), r["series"][0, 1] * (1 + 1e-8)),
        lambda r: r["report"]["run"]["termination"].update(cause="BlowupDetected"),
        lambda r: r["report"]["run"]["termination"].update(t=T_END / 2),
        lambda r: r["report"]["lyapunov"].update(c1=r["report"]["lyapunov"]["c1"] * 1.01),
        lambda r: r["report"]["characteristics"].update(monotone=False),
        lambda r: r.update(chars=None),
    ):
        run = copy.deepcopy(smooth_run)
        perturb(run)
        assert global_problems(run)


# ---------------------------------------------------------------------------
# sweep summary

def sweep_doc(grid) -> dict:
    return {
        "param": "scenario.r0",
        "runs": [
            {"name": f"s__{i:03d}", "scenario.r0": v, "termination": "ReachedEnd",
             "t_sim": 3.0, "exit_code": 0}
            for i, v in enumerate(grid)
        ],
    }


def test_sweep_check():
    grid = checks.sweep_grid(2.0, 3.5, 4)
    assert grid == pytest.approx(list(np.linspace(2.0, 3.5, 4)), abs=1e-15)
    assert checks.check_sweep(sweep_doc(grid), "scenario.r0", grid, 3.0) == []
    wrong_grid = checks.sweep_grid(2.0, 3.0, 4)
    assert checks.check_sweep(sweep_doc(wrong_grid), "scenario.r0", grid, 3.0)
    assert checks.check_sweep(sweep_doc(grid[:3]), "scenario.r0", grid, 3.0)
    failed = sweep_doc(grid)
    failed["runs"][1]["exit_code"] = 4
    assert checks.check_sweep(failed, "scenario.r0", grid, 3.0)
    short = sweep_doc(grid)
    short["runs"][2]["t_sim"] = 1.0
    assert checks.check_sweep(short, "scenario.r0", grid, 3.0)


# ---------------------------------------------------------------------------
# kernels

def program_modules():
    import dghsim.grid
    import dghsim.model

    return types.SimpleNamespace(grid=dghsim.grid, model=dghsim.model)


def test_kernels_post_numbers_when_right(monkeypatch):
    monkeypatch.setattr(kernels, "REPEATS", 1)
    monkeypatch.setattr(kernels, "BATCH_S", 0.0)
    times, problems = kernels.time_kernels(program_modules(), 64, A, GAMMA, seed=5)
    assert problems == []
    assert set(times) == {
        "model.rhs_values_us", "grid.deriv_values_us", "grid.interp_values_us",
        "grid.pad_values_us", "grid.project_values_us",
    }


def test_wrong_kernel_posts_no_number(monkeypatch):
    monkeypatch.setattr(kernels, "REPEATS", 1)
    monkeypatch.setattr(kernels, "BATCH_S", 0.0)
    dg = program_modules()
    rhs = dg.model.rhs_values
    interp = dg.grid.interp_values

    def wrong_rhs(u, rho, grid, p):
        du, drho = rhs(u, rho, grid, p)
        return du * (1 + 1e-6), drho

    model = types.SimpleNamespace(rhs_values=wrong_rhs, ModelParams=dg.model.ModelParams)
    grid = types.SimpleNamespace(**vars(dg.grid))
    grid.interp_values = lambda v, xs: interp(v, xs + 1e-9)
    times, problems = kernels.time_kernels(
        types.SimpleNamespace(grid=grid, model=model), 64, A, GAMMA, seed=5
    )
    assert "model.rhs_values_us" not in times
    assert "grid.interp_values_us" not in times
    assert "grid.deriv_values_us" in times
    assert len(problems) == 2


def test_speed_scale_follows_reference_time():
    sp = speed.Speed()
    sp.samples = [speed.NOMINAL_S] * 3
    at = len(sp.samples)
    sp.samples += [2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert sp.factor(0) == pytest.approx(1.0 / 1.4)
    assert sp.factor(at) == pytest.approx(0.5)


def test_speed_clock_leaves_out_sampling():
    sp = speed.Speed()
    c0 = sp.clock()
    at = sp.mark()
    for _ in range(20):
        sp.sample()
    assert len(sp.samples) == 21 and sp.hidden > 0.0
    assert sp.clock() - c0 < 0.1 * sp.hidden
    assert sp.factor(at) > 0.0
