"""End-to-end command tests: artifact layout, byte-identical reruns, exit
codes, the sweep driver, and the built-in selftest suites."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dghsim import cli, oracles, scenarios, stepping
from dghsim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_SWEEP_COUNT,
    _parse_sweep_param,
    _snapshot_name,
    _sweep_chunks,
    main,
)
from dghsim.characteristics import default_seeds
from dghsim.grid import PeriodicGrid
from dghsim.scenarios import ConfigError
from dghsim.stepping import SERIES_COLUMNS, run
from helpers import csv_text_reference, outcome

SMOOTH_CONFIG = """\
scenario.family = global41
scenario.name = demo
scenario.r0 = 2.0
scenario.ru = 1.0
model.A = 1.0
model.gamma = 0.0
sim.n = 128
sim.t_end = 0.4
sim.record_every = 20
sim.snapshot_times = 0.0, 0.2, 0.4
characteristics.enabled = true
characteristics.count = 16
"""

STEEP_CONFIG = """\
scenario.family = blowup31
scenario.name = steep
scenario.a = 9.0
model.A = 1.0
model.gamma = 0.0
sim.n = 256
sim.t_end = 5.0
"""


# blowup31 below the sharp threshold, where only the mean and zero-mean
# routes predict a blow-up (riccati_t = 2.057)
BELOW_SHARP_CONFIG = """\
scenario.family = blowup31
scenario.name = below_sharp
scenario.a = 2.0
model.A = 1.0
model.gamma = 0.0
sim.n = {n}
sim.t_end = 3.0
"""

# global41 with a slope steep enough that no grid tried resolves its
# transient, though the density stays positive
STEEP_GLOBAL_CONFIG = """\
scenario.family = global41
scenario.name = steep_global
scenario.r0 = 1.05
scenario.ru = 8.0
model.A = 1.0
model.gamma = 0.0
sim.n = 256
sim.t_end = 3.0
"""


REPO = Path(__file__).resolve().parent.parent
# the configs that ship with the repository and the golden cases' configs
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + sorted(
    REPO.glob("tests/data/golden/*/config.cfg")
)


@pytest.fixture
def smooth_cfg(tmp_path):
    path = tmp_path / "smooth.cfg"
    path.write_text(SMOOTH_CONFIG)
    return path


# ---------------------------------------------------------------------------
# run command

def test_run_writes_artifacts(smooth_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(smooth_cfg), "--out-dir", str(out)]) == EXIT_OK
    assert "demo: ReachedEnd" in capsys.readouterr().out

    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == ",".join(SERIES_COLUMNS)
    first = dict(zip(SERIES_COLUMNS, map(float, series[1].split(","))))
    assert first["t"] == 0.0
    last = dict(zip(SERIES_COLUMNS, map(float, series[-1].split(","))))
    assert last["t"] == pytest.approx(0.4, abs=1e-9)

    report = json.loads((out / "report.json").read_text())
    assert report["config"]["scenario"]["family"] == "global41"
    assert report["run"]["termination"]["cause"] == "ReachedEnd"
    assert report["run"]["drift"]["e0_rel"] < 1e-6
    assert report["criteria"]["verdicts"]["positive_density"]["predicted"] == (
        "GlobalPredicted"
    )
    assert report["lyapunov"]["bound_satisfied"] is True
    assert report["characteristics"]["transport_residual"] < 1e-5
    assert report["characteristics"]["monotone"] is True
    assert report["characteristics"]["min_jacobian"] > 0.0

    snaps = sorted(p.name for p in (out / "snapshots").iterdir())
    assert snaps == ["t_0.2.csv", "t_0.4.csv", "t_0.csv"]
    header, *rows = (out / "snapshots" / "t_0.csv").read_text().splitlines()
    assert header == "x,u,rho"
    assert len(rows) == 128

    chars = (out / "characteristics.csv").read_text().splitlines()
    assert chars[0] == "t,seed,q,qx,rho_q"
    # one row per (record time, seed)
    assert (len(chars) - 1) % 16 == 0


def _csv_columns(path: Path) -> dict[str, tuple[float, ...]]:
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))


@pytest.mark.parametrize("case", ["breaking_wave", "smooth_density"])
def test_report_summaries_match_the_artifacts(case, tmp_path):
    cfg = REPO / "tests" / "data" / "golden" / case / "config.cfg"
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    series = _csv_columns(tmp_path / "series.csv")
    drift, deepest = report["run"]["drift"], report["run"]["deepest"]
    assert drift["ham_e_abs"] == abs(series["hamE"][-1] - series["hamE"][0])
    assert drift["ham_f_abs"] == abs(series["hamF"][-1] - series["hamF"][0])
    # the per-step trace holds every recorded minimum and more
    assert deepest["min_ux"] <= min(series["minUx"])
    if case == "breaking_wave":
        # a breaking wave is deepest where the run stops
        assert deepest == {
            "min_ux": report["run"]["final"]["min_ux"],
            "t": report["run"]["termination"]["t"],
        }
        assert report["characteristics"] is None
    else:
        chars = _csv_columns(tmp_path / "characteristics.csv")
        assert report["characteristics"]["max_jacobian"] == max(chars["qx"])


@pytest.mark.parametrize(
    "cfg", sorted(REPO.glob("configs/*.cfg")), ids=lambda p: p.name
)
def test_shipped_config_writes_every_snapshot_it_lists(cfg, tmp_path):
    # a listed time at or before t_end that the run stops short of is
    # not written, so a shipped config lists none
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == EXIT_OK
    sim = json.loads((tmp_path / "report.json").read_text())["config"]["sim"]
    used: set = set()
    want = sorted(
        _snapshot_name(t, used) + ".csv"
        for t in sorted(set(sim["snapshot_times"]))
        if t <= sim["t_end"]
    )
    snaps = tmp_path / "snapshots"
    got = sorted(p.name for p in snaps.iterdir()) if snaps.exists() else []
    assert got == want


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("quiet", [False, True])
def test_unwritten_snapshot_is_named_on_stderr(command, quiet, tmp_path, capsys):
    # the golden breaking wave lists t = 0.17 and stops before it: a run,
    # and each member of a sweep, names the time and the stop in one line
    cfg = REPO / "tests" / "data" / "golden" / "breaking_wave" / "config.cfg"
    argv = [command, str(cfg), "--out-dir", str(tmp_path)] + ["--quiet"] * quiet
    if command == "sweep":
        argv += ["--param", "sim.cfl=0.25:0.3:2"]
    assert main(argv) == EXIT_OK
    dirs = [tmp_path] if command == "run" else sorted(tmp_path.glob("breaking_wave__*"))
    want = ""
    for out in dirs:
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["sim"]["snapshot_times"] == [0.0, 0.1, 0.17]
        assert not (out / "snapshots" / "t_0.17.csv").exists()
        want += (
            f"{report['config']['scenario']['name']}: no snapshot at t=0.17: "
            f"the run stopped at t={report['run']['t_sim']:.6g}\n"
        )
    assert len(dirs) == (1 if command == "run" else 2)
    assert capsys.readouterr().err == ("" if quiet else want)


def test_reruns_are_byte_identical(smooth_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(smooth_cfg), "--out-dir", str(out1), "--quiet"]) == EXIT_OK
    assert main(["run", str(smooth_cfg), "--out-dir", str(out2), "--quiet"]) == EXIT_OK
    snapshots = sorted(p.name for p in (out1 / "snapshots").iterdir())
    assert snapshots == ["t_0.2.csv", "t_0.4.csv", "t_0.csv"]
    for name in ("series.csv", "report.json", "characteristics.csv",
                 *(f"snapshots/{s}" for s in snapshots)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_rows_match_per_value_formatting(smooth_cfg, tmp_path):
    # reference: one repr(float(x)) per value, characteristics and
    # snapshots row by row
    out = tmp_path / "out"
    assert main(["run", str(smooth_cfg), "--out-dir", str(out), "--quiet"]) == EXIT_OK
    sc = scenarios.scenario_from_entries(scenarios.parse_config_entries(SMOOTH_CONFIG))
    s0 = sc.build_state()
    seeds = default_seeds(16)
    res = run(s0, sc.model, sc.sim, seeds=seeds)
    ens = res.ensemble
    chars = [
        (t, seed, ens.q[i, j], np.exp(ens.log_qx[i, j]), ens.rho_q[i, j])
        for i, t in enumerate(res.series[:, 0])
        for j, seed in enumerate(seeds)
    ]
    assert (out / "series.csv").read_text() == csv_text_reference(SERIES_COLUMNS, res.series)
    assert (out / "characteristics.csv").read_text() == csv_text_reference(
        ("t", "seed", "q", "qx", "rho_q"), chars
    )
    assert [t for t, _ in res.snapshots] == [0.0, 0.2, 0.4]
    for name, (_, st) in zip(("t_0", "t_0.2", "t_0.4"), res.snapshots):
        assert (out / "snapshots" / f"{name}.csv").read_text() == csv_text_reference(
            ("x", "u", "rho"), zip(PeriodicGrid(sc.sim.n).nodes, st.u, st.rho)
        )


# floats at the edges of repr's forms: signed zeros, the switch to
# exponent form at 1e-4 and 1e16, the smallest subnormal and normal floats
# and the largest float, with their negatives
CSV_FLOATS = [
    0.0, 1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]
CSV_FLOATS += [-v for v in CSV_FLOATS]


@pytest.mark.parametrize("count", [len(CSV_FLOATS), 2 * cli._CSV_BLOCK + 5])
@pytest.mark.parametrize("with_lead", [False, True])
def test_write_csv_matches_the_reference_formatter(tmp_path, count, with_lead):
    # cycling the floats through three columns puts each in every column;
    # the larger count spans three blocks, the last one partial; with a
    # lead, the first column goes in as formatted text
    values = np.resize(np.asarray(CSV_FLOATS), 3 * count).reshape(count, 3)
    header = ("a", "b", "c")
    path = tmp_path / "rows.csv"
    if with_lead:
        lead = [f"{v!r}," for v in values[:, 0].tolist()]
        cli._write_csv(path, header, values[:, 1:], lead)
    else:
        cli._write_csv(path, header, values)
    assert path.read_bytes() == csv_text_reference(header, values).encode("ascii")


def test_run_quiet_suppresses_output(smooth_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(smooth_cfg), "--out-dir", str(out), "--quiet"])
    assert capsys.readouterr().out == ""


def test_detected_blowup_is_success(tmp_path, capsys):
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["run"]["termination"]["cause"] == "BlowupDetected"
    assert report["run"]["t_sim"] < 1.0
    assert report["criteria"]["verdicts"]["sharp"]["predicted"] == "BlowupPredicted"
    assert report["criteria"]["riccati_t"] > 0.0
    # density vanishes at the slope minimum, so no growth envelope applies
    assert "unavailable" in report["lyapunov"]
    assert report["characteristics"] is None
    assert "BlowupDetected" in capsys.readouterr().out


def test_predicted_blowup_below_sharp_threshold_breaks_before_its_bound(tmp_path):
    cfg = tmp_path / "below.cfg"
    cfg.write_text(BELOW_SHARP_CONFIG.format(n=512))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["criteria"]["verdicts"]["sharp"]["predicted"] == "NoPrediction"
    term = report["run"]["termination"]
    assert term["cause"] == "BlowupDetected"
    assert term["t"] == pytest.approx(0.680, abs=0.005)
    assert term["t"] < report["criteria"]["riccati_t"]


# blowup31 whose slope starts at m(0) = -0.54: the dive cutoff is -3, not
# 3 |m(0)|, for the run's label and for the rate fit alike
SHALLOW_START_CONFIG = """\
scenario.family = blowup31
scenario.a = auto
scenario.b = 0.5
scenario.margin = 1.05
model.gamma = 1.0
sim.n = 64
sim.t_end = 5.0
"""


def test_run_label_and_rate_fit_share_the_dive_cutoff(tmp_path):
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text(SHALLOW_START_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert -1.0 < report["criteria"]["m0"] < 0.0
    assert report["run"]["termination"]["cause"] == "ResolutionLost"
    assert report["rate_estimate"] == {
        "unavailable": "slope never fell past the fit cutoff -3"
    }


def test_run_past_riccati_bound_exits_4(monkeypatch, tmp_path, capsys):
    # with the witness and the E0 guard off, the under-resolved run coasts
    # to t_end past its own blow-up bound; that outcome contradicts the
    # criteria
    import dghsim.stepping as stepping

    monkeypatch.setattr(stepping, "WITNESS_TOL", float("inf"))
    monkeypatch.setattr(stepping, "E0_DRIFT_TOL", float("inf"))
    cfg = tmp_path / "below.cfg"
    cfg.write_text(BELOW_SHARP_CONFIG.format(n=128))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_NUMERIC
    report = json.loads((out / "report.json").read_text())
    assert report["run"]["termination"] == {"cause": "ReachedEnd", "t": 3.0}
    assert "past the Riccati blow-up bound" in capsys.readouterr().err


def test_unresolved_global_run_exits_4(tmp_path, capsys):
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP_GLOBAL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_NUMERIC
    report = json.loads((out / "report.json").read_text())
    assert report["criteria"]["verdicts"]["positive_density"]["predicted"] == (
        "GlobalPredicted"
    )
    term = report["run"]["termination"]
    assert term["cause"] in ("BlowupDetected", "ResolutionLost")
    assert term["t"] == pytest.approx(0.164, abs=0.005)
    assert "could not resolve a solution the paper proves smooth" in (
        capsys.readouterr().err
    )


def test_envelope_past_double_range_is_satisfied_without_a_warning(tmp_path, capsys):
    # c1 = 239.5 here, so the envelope leaves double range near t = 3; the
    # suite turns any numpy warning into an error
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(
        "scenario.family = global41\nscenario.r0 = 10\nsim.n = 64\nsim.t_end = 4\n"
    )
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == EXIT_OK
    lyapunov = json.loads((out / "report.json").read_text())["lyapunov"]
    assert lyapunov["c1"] > 200.0 and lyapunov["bound_satisfied"] is True
    assert capsys.readouterr().err == ""


# the breaking wave's data with its density raised by 1, which the paper's
# global theorem covers; scripts/contract_check.py runs the same file
DENSITY_FLOOR_CONFIG = (Path(__file__).parent / "data" / "density_floor.cfg").read_text()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the density-floor run still ends BlowupDetected",
)
def test_density_floor_run_is_no_blowup(tmp_path):
    # the slope dives past the cutoff before the grid loses the front, and
    # today's rule names that a blow-up, though positive_density reads
    # GlobalPredicted; the grid still cannot resolve the run, so it exits 4
    entries = scenarios.parse_config_entries(DENSITY_FLOOR_CONFIG)
    sc = scenarios.scenario_from_entries(entries).resolve()
    s0 = sc.build_state()
    cause, _ = outcome(s0, sc.model, run(s0, sc.model, sc.sim))
    assert cause != "BlowupDetected"
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(DENSITY_FLOOR_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == EXIT_NUMERIC


# the shape of perfbench's sweep_small workload, run over scenario.r0 =
# 2.0:3.5:4
BENCH_SWEEP_CONFIG = """\
scenario.family = global41
scenario.name = bench_sweep
scenario.r0 = 2.0
scenario.ru = 1.0
sim.n = 128
sim.t_end = 3.0
sim.record_every = 1
sim.snapshot_times = 0.0, 1.5, 3.0
characteristics.enabled = true
characteristics.count = 16
"""


@pytest.mark.parametrize(
    "cfg, spec",
    [
        ("configs/smooth_density.cfg", None),
        ("configs/zero_mean.cfg", None),
        ("tests/data/golden/smooth_density/config.cfg", None),
        ("tests/data/golden/sweep_small/config.cfg", "scenario.r0=2.0:3.5:2"),
        (None, "scenario.r0=2.0:3.5:4"),  # BENCH_SWEEP_CONFIG
    ],
)
def test_witness_keeps_headroom_on_every_run_that_reaches_its_end(
    cfg, spec, monkeypatch, tmp_path
):
    # the shipped, golden and benchmark-shaped runs whose grid resolves
    # them to t_end (all but the breaking waves, which the witness is
    # meant to end) still reach it with WITNESS_TOL cut 1.4x: their
    # largest tail share is 0.034, on golden smooth_density at n = 64
    monkeypatch.setattr(stepping, "WITNESS_TOL", stepping.WITNESS_TOL / 1.4)
    if cfg is None:
        path = tmp_path / "bench_sweep.cfg"
        path.write_text(BENCH_SWEEP_CONFIG)
    else:
        path = REPO / cfg
    argv = ["run", str(path)] if spec is None else ["sweep", str(path), "--param", spec]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    reports = sorted(out.rglob("report.json"))
    assert len(reports) == (1 if spec is None else int(spec.rsplit(":", 1)[1]))
    for report in reports:
        term = json.loads(report.read_text())["run"]["termination"]
        assert term["cause"] == "ReachedEnd", report


def test_step_below_time_resolution_exits_4(tmp_path, capsys):
    # at u = 1e12 the CFL step cannot advance t, so the run ends at t = 0;
    # the density stays positive, so that is a smooth solution left unresolved
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "scenario.family = constant\nscenario.c = 1e12\nscenario.r = 1.0\n"
        "sim.n = 64\nsim.t_end = 1.0\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_NUMERIC
    report = json.loads((out / "report.json").read_text())
    assert report["run"]["termination"] == {"cause": "ResolutionLost", "t": 0.0}
    assert report["run"]["steps"] == 0
    assert "could not resolve" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMOOTH_CONFIG + "sim.dt_max = 1.0\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "sim.dt_max" in capsys.readouterr().err


def write_config(tmp_path, replaced: str):
    """SMOOTH_CONFIG with one key's line replaced."""
    key = replaced.split("=")[0].strip()
    kept = [ln for ln in SMOOTH_CONFIG.splitlines() if ln.split("=")[0].strip() != key]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(kept + [replaced]) + "\n")
    return cfg


@pytest.mark.parametrize(
    "line",
    [
        "sim.n = 1e400",
        "characteristics.count = 1e400",
        "sim.n = nan",
        # removed keys: any value of them is an unknown key, which exits 2 too
        "sim.dt_min = nan",
        "sim.blowup_slope = nan",
        "sim.slope_dt_factor = nan",
        "criteria.eps_list = 0.1",
    ],
)
def test_non_finite_config_value_exits_2(line, tmp_path, capsys):
    cfg = write_config(tmp_path, line)
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert line.split("=")[0].strip() in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["sim.n = 1e12", "characteristics.count = 1000000000"]
)
def test_oversized_config_value_exits_2(line, tmp_path, capsys):
    cfg = write_config(tmp_path, line)
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert line.split("=")[0].strip() in err and "exceeds" in err


def test_overflowing_energy_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario.r0 = 1e308")
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "global41" in err and "r0 = 1e+308" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_overflowing_custom_fourier_data_exits_2(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "scenario.family = custom-fourier\nscenario.u_cos = 1e308, 1e308\n"
        "sim.n = 32\nsim.t_end = 1.0\n"
    )
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "custom-fourier initial data" in err and "u_cos = (1e+308, 1e+308)" in err


# data whose E0 fits double range but whose cubic invariant, forcing bound K
# or threshold does not: each used to run, or to be assessed, and write NaN
# or +-Infinity into report.json and series.csv, with numpy warnings
@pytest.mark.parametrize(
    "command, text",
    [
        ("run", "scenario.family = zero-mean\nscenario.a = 1e140\n"),
        ("run", "scenario.family = custom-fourier\nscenario.u_cos = 1e150\n"),
        ("run", "scenario.family = global41\nscenario.ru = 1e150\n"),
        ("run", "scenario.family = constant\nscenario.c = 2\nmodel.A = 1e308\n"),
        ("run", "scenario.family = constant\nscenario.c = 2\nmodel.gamma = 1e308\n"),
        ("criteria", "scenario.family = constant\nscenario.c = 2\nmodel.A = 1e308\n"),
        ("criteria", "scenario.family = constant\nscenario.c = 4.4e153\nsim.n = 8\n"),
    ],
)
def test_initial_state_past_double_range_exits_2_and_writes_nothing(
    command, text, tmp_path, capsys
):
    cfg = tmp_path / "overflow.cfg"
    n = "" if "sim.n" in text else "sim.n = 32\n"
    cfg.write_text(f"{text}{n}sim.t_end = 0.01\n")
    out = tmp_path / "o"
    assert main([command, str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    # the family's keys first, then the model's
    assert err.startswith("config error: keys 'scenario.")
    assert "'model.A', 'model.gamma': " in err and "beyond double range" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "model.A = -1",
        "sim.n = 6",
        "sim.n = 33",
        "sim.t_end = 0",
        "sim.cfl = 1.5",
        "sim.record_every = 0",
        "scenario.name =",
        "characteristics.count = 1",
        "sim.snapshot_times = 0.0, -1",
        # a family rule: SMOOTH_CONFIG is global41
        "scenario.r0 = 1.0",
    ],
)
def test_range_check_names_its_key(line, tmp_path, capsys):
    cfg = write_config(tmp_path, line)
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    key = line.split("=")[0].strip()
    assert f"config error: key '{key}': " in capsys.readouterr().err


def test_negative_snapshot_time_exits_2_and_writes_nothing(tmp_path, capsys):
    # a negative time used to be dropped: exit 0, with only t_0.csv written
    cfg = write_config(tmp_path, "sim.snapshot_times = 0.0, -1")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "config error: key 'sim.snapshot_times': " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, line",
    [
        ("blowup31", "scenario.margin = 0.9"),
        ("blowup31", "scenario.a = -2"),
        ("zero-mean", "scenario.a = 0"),
    ],
)
def test_family_rule_names_its_key(family, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario.family = {family}\n{line}\nsim.n = 32\nsim.t_end = 1\n")
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    key = line.split("=")[0].strip()
    assert f"config error: key '{key}': " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        # E0 overflows: the family's keys
        ("scenario.family = global41\nscenario.r0 = 1e308\n", "scenario.r0"),
        # 17 terms need n >= 36
        ("scenario.family = custom-fourier\nscenario.u_cos = "
         + ", ".join(["0.1"] * 17) + "\n", "scenario.u_cos"),
        # no amplitude reaches 1.5 times the threshold
        ("scenario.family = blowup31\nscenario.margin = 1.5\n", "scenario.margin"),
    ],
)
def test_resolve_and_build_errors_name_their_key(text, key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{text}sim.n = 32\nsim.t_end = 1\n")
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: key") and f"'{key}'" in err.split(": ")[1]


@pytest.mark.parametrize(
    "line", ["sim.dt_min = -1", "sim.blowup_slope = 10", "sim.slope_dt_factor = 0.05"]
)
def test_removed_sim_keys_exit_2(line, tmp_path, capsys):
    cfg = write_config(tmp_path, line)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    key = line.split("=")[0].strip()
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(SMOOTH_CONFIG.replace("demo", "d\xe9mo").encode("latin-1"))
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "UTF-8" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", str(missing), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
    assert "io error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# criteria command

def test_criteria_command(smooth_cfg, tmp_path, capsys):
    out = tmp_path / "crit"
    assert main(["criteria", str(smooth_cfg), "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "run" not in report  # thresholds only, no simulation
    assert report["criteria"]["e0"] > 0.0
    assert set(report["criteria"]["thresholds"]) == {
        "sharp", "mean_eps_0.1", "mean_eps_1", "mean_eps_10", "zero_mean",
    }
    text = capsys.readouterr().out
    assert "positive_density" in text and "GlobalPredicted" in text


@pytest.mark.parametrize(
    "cfg", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO))
)
def test_config_echo_round_trips(cfg, tmp_path):
    # report.json's config section, read back as config text, is the
    # resolved scenario
    assert main(["criteria", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == EXIT_OK
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    text = "".join(
        f"{section}.{key} = "
        f"{', '.join(map(repr, v)) if isinstance(v, list) else v}\n"
        for section, values in echo.items()
        for key, v in values.items()
    )
    want = scenarios.scenario_from_entries(
        scenarios.parse_config_entries(cfg.read_text())
    ).resolve()
    assert scenarios.scenario_from_entries(scenarios.parse_config_entries(text)) == want


# ---------------------------------------------------------------------------
# sweep command

def test_sweep_param_parsing():
    key, values = _parse_sweep_param("scenario.ru=0.5:1.5:3")
    assert key == "scenario.ru"
    assert np.allclose(values, [0.5, 1.0, 1.5])
    for bad in ("scenario.ru", "x=1:2", "x=a:b:3", "x=1:2:0"):
        with pytest.raises(ConfigError):
            _parse_sweep_param(bad)
    # a non-finite end, or a range whose width overflows
    for bad in ("scenario.r0=2:inf:2", "scenario.r0=1e308:-1e308:3", "x=nan:1:2"):
        with pytest.raises(ConfigError, match="--param"):
            _parse_sweep_param(bad)


def test_sweep_runs_and_summarizes(smooth_cfg, tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", str(smooth_cfg),
        "--param", "scenario.ru=0.5:1.5:3",
        "--out-dir", str(out), "--quiet",
    ])
    assert rc == EXIT_OK
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["param"] == "scenario.ru"
    assert [r["name"] for r in summary["runs"]] == [
        "demo__000", "demo__001", "demo__002",
    ]
    assert all(r["termination"] == "ReachedEnd" for r in summary["runs"])
    assert all(r["exit_code"] == 0 for r in summary["runs"])
    for r in summary["runs"]:
        sub = json.loads((out / r["name"] / "report.json").read_text())
        assert sub["config"]["scenario"]["ru"] == pytest.approx(r["scenario.ru"])


def test_sweep_rejects_bad_param(smooth_cfg, tmp_path):
    rc = main([
        "sweep", str(smooth_cfg), "--param", "garbage",
        "--out-dir", str(tmp_path / "s"), "--quiet",
    ])
    assert rc == EXIT_CONFIG


def test_sweep_count_is_bounded(smooth_cfg, tmp_path, capsys):
    # rejected before any value array is built
    assert len(_parse_sweep_param(f"scenario.r0=2:3:{MAX_SWEEP_COUNT}")[1]) == (
        MAX_SWEEP_COUNT
    )
    rc = main([
        "sweep", str(smooth_cfg), "--param", "scenario.r0=2:3:10000000000",
        "--out-dir", str(tmp_path / "s"), "--quiet",
    ])
    assert rc == EXIT_CONFIG
    assert "--param" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_checks_every_member_before_running_any(tmp_path, capsys, monkeypatch):
    # r0 = 1.0, the third member, breaks global41's rule r0 > 1: the sweep
    # must say so before it integrates or writes anything
    def no_run(*args, **kwargs):
        raise AssertionError("a member ran before every member was checked")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "sweep"
    rc = main([
        "sweep", str(REPO / "configs" / "smooth_density.cfg"),
        "--param", "scenario.r0=2.0:1.0:3", "--out-dir", str(out), "--quiet",
    ])
    assert rc == EXIT_CONFIG
    assert "key 'scenario.r0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", ["../escaped", "{tmp}/abs", "a\\b", "a\0b"])
def test_name_that_is_a_path_exits_2_and_writes_nothing(command, name, tmp_path, capsys):
    # a sweep names each member's directory after the scenario, so a name
    # that is a path would write beside --out-dir, or anywhere at all, and
    # one that holds a NUL names no directory
    cfg = write_config(tmp_path, f"scenario.name = {name.format(tmp=tmp_path)}")
    sweep = ["--param", "scenario.ru=0.5:1.5:2"] if command == "sweep" else []
    rc = main([
        command, str(cfg), *sweep,
        "--out-dir", str(tmp_path / "out" / "sweep"), "--quiet",
    ])
    assert rc == EXIT_CONFIG
    assert "config error: key 'scenario.name': " in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["bad.cfg"]


# A small coupled case that records every step and takes snapshots, so that
# each artifact a member writes is compared
LOCKSTEP_CONFIG = """\
scenario.family = global41
scenario.name = lock
scenario.r0 = 2.0
scenario.ru = 1.0
sim.n = 64
sim.t_end = 0.3
sim.record_every = 1
sim.snapshot_times = 0.0, 0.1, 0.3
characteristics.enabled = true
characteristics.count = 8
"""


def _tree_bytes(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _assert_sweep_matches_runs(tmp_path, key, spec, count, config=LOCKSTEP_CONFIG):
    """Each member of `dghsim sweep` writes the bytes `dghsim run` writes
    on that member's own config."""
    cfg = tmp_path / "lock.cfg"
    cfg.write_text(config)
    out = tmp_path / "sweep"
    sweep_code = main(["sweep", str(cfg), "--param", spec, "--out-dir", str(out), "--quiet"])
    summary = json.loads((out / "sweep.json").read_text())["runs"]
    assert len(summary) == count
    assert sweep_code == max(r["exit_code"] for r in summary)
    for i, member in enumerate(summary):
        entries = scenarios.parse_config_entries(config)
        entries[key] = repr(member[key])
        entries["scenario.name"] = member["name"]
        single_cfg = tmp_path / f"{member['name']}.cfg"
        single_cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        single = tmp_path / "single" / member["name"]
        code = main(["run", str(single_cfg), "--out-dir", str(single), "--quiet"])
        assert code == member["exit_code"]
        got, want = _tree_bytes(out / member["name"]), _tree_bytes(single)
        assert "characteristics.csv" in want and "snapshots/t_0.1.csv" in want
        assert got == want, member["name"]


@pytest.mark.parametrize(
    "spec, count",
    [("scenario.r0=2.0:3.0:3", 3), ("model.gamma=-0.6:0.9:4", 4), ("model.A=0.5:2.0:3", 3)],
    ids=["scenario.r0", "model.gamma", "model.A"],
)
def test_sweep_members_match_their_single_runs(tmp_path, spec, count):
    # members of different gamma or A share one group, each row with its
    # own linear symbol and cubic invariant
    _assert_sweep_matches_runs(tmp_path, spec.split("=")[0], spec, count)


def test_sweep_over_grid_sizes_matches_separate_runs(tmp_path):
    # each grid size is a group of its own
    _assert_sweep_matches_runs(tmp_path, "sim.n", "sim.n=32:64:3", 3)


def test_sweep_advances_its_members_in_lockstep(tmp_path, monkeypatch):
    # one RK4 call per lockstep step: as many as the longest member takes,
    # not the sum over members
    calls = []
    real = stepping._advance

    def counted(*args, **kwargs):
        calls.append(len(args[0].params))  # the group's members
        return real(*args, **kwargs)

    monkeypatch.setattr(stepping, "_advance", counted)
    cfg = tmp_path / "lock.cfg"
    cfg.write_text(LOCKSTEP_CONFIG)
    out = tmp_path / "sweep"
    assert main([
        "sweep", str(cfg), "--param", "scenario.ru=0.5:2.0:4",
        "--out-dir", str(out), "--quiet",
    ]) == EXIT_OK
    steps = [
        json.loads((out / f"lock__{i:03d}" / "report.json").read_text())["run"]["steps"]
        for i in range(4)
    ]
    assert len(set(steps)) > 1
    assert len(calls) == max(steps) < sum(steps)
    # a step carries every member that still runs
    assert calls == [sum(s > j for s in steps) for j in range(max(steps))]


def test_sweep_over_gamma_advances_its_members_in_lockstep(tmp_path, monkeypatch):
    # members that differ in gamma, and so in their linear symbols and step
    # sizes, still form one group: one RK4 call per lockstep step
    calls = []
    real = stepping._advance

    def counted(*args, **kwargs):
        calls.append(len(args[0].params))  # the group's members
        return real(*args, **kwargs)

    monkeypatch.setattr(stepping, "_advance", counted)
    cfg = tmp_path / "lock.cfg"
    cfg.write_text(LOCKSTEP_CONFIG)
    out = tmp_path / "sweep"
    assert main([
        "sweep", str(cfg), "--param", "model.gamma=-0.6:0.9:4",
        "--out-dir", str(out), "--quiet",
    ]) == EXIT_OK
    steps = [
        json.loads((out / f"lock__{i:03d}" / "report.json").read_text())["run"]["steps"]
        for i in range(4)
    ]
    assert len(set(steps)) > 1
    assert len(calls) == max(steps) < sum(steps)
    assert calls == [sum(s > j for s in steps) for j in range(max(steps))]


def test_a_group_builds_its_right_hand_side_once(tmp_path, monkeypatch):
    # one _Group, with its RhsBuffer, when a group forms and one after
    # each step on which members leave it: a sweep makes one per distinct
    # member step count, not one per step, and a single run makes one
    builds, workspaces = [], []
    real, real_group = stepping.RhsBuffer, stepping._Group

    def counted(grid, params):
        builds.append(params)
        return real(grid, params)

    def counted_group(grid, params, count):
        workspaces.append(params)
        return real_group(grid, params, count)

    monkeypatch.setattr(stepping, "RhsBuffer", counted)
    monkeypatch.setattr(stepping, "_Group", counted_group)
    cfg = tmp_path / "lock.cfg"
    cfg.write_text(LOCKSTEP_CONFIG)
    out = tmp_path / "sweep"
    assert main([
        "sweep", str(cfg), "--param", "model.gamma=-0.6:0.9:4",
        "--out-dir", str(out), "--quiet",
    ]) == EXIT_OK
    steps = [
        json.loads((out / f"lock__{i:03d}" / "report.json").read_text())["run"]["steps"]
        for i in range(4)
    ]
    assert len(set(steps)) == len(builds) == len(workspaces) == 4
    # each build holds the members still running
    live = [sum(s > j for s in steps) for j in (0, *sorted(steps)[:-1])]
    assert [len(p) for p in builds] == live
    assert workspaces == builds
    builds.clear()
    workspaces.clear()
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "run"), "--quiet"]) == EXIT_OK
    assert len(builds) == len(workspaces) == 1


def test_sweep_makes_one_record_pass_per_group_step(tmp_path, monkeypatch):
    # every member records every step, and the group computes the cubic
    # invariant once per step for every member still running, not once
    # per member record
    calls = []
    real = stepping.hamiltonian_f

    def counted(c, A, gamma, padded):
        calls.append(len(c))
        return real(c, A, gamma, padded)

    monkeypatch.setattr(stepping, "hamiltonian_f", counted)
    cfg = tmp_path / "lock.cfg"
    cfg.write_text(LOCKSTEP_CONFIG)
    out = tmp_path / "sweep"
    assert main([
        "sweep", str(cfg), "--param", "scenario.ru=0.5:2.0:4",
        "--out-dir", str(out), "--quiet",
    ]) == EXIT_OK
    steps = [
        json.loads((out / f"lock__{i:03d}" / "report.json").read_text())["run"]["steps"]
        for i in range(4)
    ]
    assert len(set(steps)) > 1
    # step 0 and the state after each lockstep step, one pass each
    assert calls == [sum(s >= j for s in steps) for j in range(max(steps) + 1)]


def test_sparsely_recording_sweep_members_match_their_single_runs(tmp_path):
    # records every third step: the t = 0.1 snapshot and each member's end
    # fall on steps where not every member records, so one member's record
    # computes the pass for the others
    config = LOCKSTEP_CONFIG.replace("sim.record_every = 1", "sim.record_every = 3")
    assert config != LOCKSTEP_CONFIG
    _assert_sweep_matches_runs(
        tmp_path, "scenario.r0", "scenario.r0=2.0:3.0:3", 3, config
    )


def _rows_through(path: Path, t1: float) -> list[str]:
    """The header and every row at t <= t1 of a CSV artifact whose first
    column is t."""
    header, *rows = path.read_text().splitlines(keepends=True)
    return [header] + [row for row in rows if float(row.split(",")[0]) <= t1]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_reused_arrays_never_leak_into_results(command, tmp_path):
    # the group's arrays are overwritten every step, so what a run keeps
    # of them is copied: a run that goes on past t1 writes, up to t1, the
    # bytes the same run stopped at t1 writes
    t1 = 0.1
    entries = scenarios.parse_config_entries(LOCKSTEP_CONFIG)
    entries["sim.snapshot_times"] = f"0, {t1!r}"
    trees = []
    for end in (t1, 0.3):
        entries["sim.t_end"] = repr(end)
        cfg = tmp_path / f"lock_{end!r}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        out = tmp_path / f"out_{end!r}"
        args = ["run", str(cfg)]
        if command == "sweep":
            args = ["sweep", str(cfg), "--param", "scenario.r0=2.0:3.0:3"]
        assert main([*args, "--out-dir", str(out), "--quiet"]) == EXIT_OK
        trees.append(sorted(out.glob("lock*/")) if command == "sweep" else [out])
    short, long = trees
    assert len(short) == len(long) == (3 if command == "sweep" else 1)
    for a, b in zip(short, long):
        for name in ("snapshots/t_0.csv", f"snapshots/t_{t1!r}.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (b, name)
        for name in ("series.csv", "characteristics.csv"):
            kept = _rows_through(b / name, t1)
            assert len(kept) < len((b / name).read_text().splitlines())
            assert (a / name).read_text().splitlines(keepends=True) == kept, (b, name)


def test_sweep_chunks_respect_the_size_limits():
    big = scenarios.MAX_GRID_SIZE
    most = scenarios.MAX_CHARACTERISTICS
    cases = [
        ([(128, 16)] * 4, [slice(0, 4)]),
        ([(big, 0)] * 3, [slice(0, 1), slice(1, 2), slice(2, 3)]),
        ([(big // 2, 0)] * 2 + [(8, 0)], [slice(0, 2), slice(2, 3)]),
        ([(64, most // 2)] * 2 + [(64, 2)], [slice(0, 2), slice(2, 3)]),
        ([(64, most)] + [(64, 0)] * 2, [slice(0, 3)]),
        ([(8, 0)], [slice(0, 1)]),
    ]
    for sizes, want in cases:
        chunks = _sweep_chunks(sizes)
        assert chunks == want
        for chunk in chunks:
            assert sum(n for n, _ in sizes[chunk]) <= big
            assert sum(k for _, k in sizes[chunk]) <= most


def test_sweep_runs_one_call_per_chunk(tmp_path, monkeypatch):
    # with the grid limit lowered to two members' worth, three members run
    # as two chunks, each through one call of the run that cli imports, and
    # write what one chunk writes
    cfg = tmp_path / "lock.cfg"
    cfg.write_text(LOCKSTEP_CONFIG)
    spec = "scenario.r0=2.0:3.0:3"
    whole = tmp_path / "whole"
    assert main(["sweep", str(cfg), "--param", spec, "--out-dir", str(whole), "--quiet"]) == 0
    members = []
    real = cli.run

    def counted(states, *args, **kwargs):
        members.append(len(states))
        return real(states, *args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    monkeypatch.setattr(cli, "MAX_GRID_SIZE", 128)
    split = tmp_path / "split"
    assert main(["sweep", str(cfg), "--param", spec, "--out-dir", str(split), "--quiet"]) == 0
    assert members == [2, 1]
    assert _tree_bytes(split) == _tree_bytes(whole)


# ---------------------------------------------------------------------------
# selftest command

def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("ok   ") == 8
    assert "all 8 selftests passed" in out


@pytest.mark.parametrize("argv", [
    ["run", "x.cfg", "--seed", "1"],
    ["selftest", "--out-dir", "x"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    # argparse's usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dghsim") and "unrecognized arguments" in err


def test_selftest_takes_a_seed(capsys):
    assert main(["selftest", "--seed", "5", "--quiet"]) == EXIT_OK


def test_selftest_fails_on_a_broken_oracle_input(monkeypatch, capsys):
    convolve = oracles.helmholtz_convolve

    def off_by_a_millionth(f):
        return convolve(f) * (1.0 + 1.0e-6)

    monkeypatch.setattr(oracles, "helmholtz_convolve", off_by_a_millionth)
    assert main(["selftest"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "FAIL helmholtz-oracle: measured" in captured.err
    assert "1 selftest(s) failed" in captured.err
    assert captured.out.count("ok   ") == 7


def test_selftest_reports_an_oracle_that_raises_and_runs_the_rest(monkeypatch, capsys):
    # a NaN right-hand side makes step_rk4 raise inside two oracles
    def nan_rhs(c, buffer, out):
        out.fill(np.nan)
        return out

    monkeypatch.setattr(stepping, "rhs_coeffs", nan_rhs)
    assert main(["selftest"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "FAIL constant-steady-state: raised NonFiniteStateError: " in captured.err
    assert "Traceback" not in captured.err
    for name, *_ in cli._SELFTESTS:
        assert (captured.out + captured.err).count(f" {name}") == 1


# ---------------------------------------------------------------------------
# exit-code contract: any config text or --param spec gives 0, 2, 3 or 4

# every key outside the family's own, and one that no config may set
_CONFIG_KEYS = (*scenarios._KEYS, "no.such_key")
_VALUES = st.one_of(
    st.floats().map(repr),  # includes nan, inf and values near the float limits
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([
        "1e12", "1e154", "1e308", "-1e308", "1e-320", "1e400", "nan", "-inf",
        "auto", "true", "0", "8", "65538", "1, nan, 2", "0.1,,3",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.just(""),
)


@st.composite
def _config_bytes(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    family = draw(st.sampled_from(scenarios.FAMILIES + ("no-such-family",)))
    params = scenarios._FAMILY_PARAMS.get(family, {})
    keys = [f"scenario.{p}" for p in params] + list(_CONFIG_KEYS)
    entries = {"scenario.family": family, "sim.n": "32", "sim.t_end": "0.1"}
    entries.update(draw(st.dictionaries(st.sampled_from(keys), _VALUES, max_size=4)))
    for key in draw(st.sets(st.sampled_from(sorted(entries)), max_size=1)):
        del entries[key]
    text = "".join(f"{k} = {v}\n" for k, v in entries.items())
    return text.encode("utf-8")


@given(raw=_config_bytes())
def test_any_config_gives_a_contract_exit_code(raw, tmp_path_factory):
    root = tmp_path_factory.getbasetemp() / "contract"
    root.mkdir(exist_ok=True)
    cfg = root / "any.cfg"
    cfg.write_bytes(raw)
    code = main(["criteria", str(cfg), "--out-dir", str(root / "out"), "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)


_SPECS = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{}={}:{}:{}".format,
        st.sampled_from(("scenario.r0", "sim.n", "", "x")),
        _VALUES,
        _VALUES,
        st.one_of(st.integers(-3, 10**12).map(str), _VALUES),
    ),
)


@given(spec=_SPECS)
def test_any_sweep_param_parses_or_is_a_config_error(spec):
    try:
        key, values = _parse_sweep_param(spec)
    except ConfigError:
        return
    assert key and 1 <= len(values) <= MAX_SWEEP_COUNT
    assert np.isfinite(values).all()


# ---------------------------------------------------------------------------
# helpers

def test_snapshot_name_collisions():
    used = set()
    assert _snapshot_name(0.5, used) == "t_0.5"
    assert _snapshot_name(0.5, used) == "t_0.5_2"
    assert _snapshot_name(0.5, used) == "t_0.5_3"
    assert _snapshot_name(0.25, used) == "t_0.25"
