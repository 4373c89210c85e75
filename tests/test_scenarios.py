"""Initial-data family and config-format tests: exact field construction,
the amplitude fixed point, and loud rejection of malformed configs."""

from pathlib import Path

import numpy as np
import pytest

from dghsim import scenarios
from dghsim.criteria import threshold_sharp
from dghsim.grid import PeriodicGrid, deriv_values
from dghsim.model import ModelParams, energy_e0
from dghsim.scenarios import (
    FAMILIES,
    MAX_CHARACTERISTICS,
    MAX_GRID_SIZE,
    ConfigError,
    Scenario,
    build_initial_data,
    parse_config_entries,
    resolved_config,
    scenario_from_entries,
    solve_blowup_amplitude,
    _FAMILY_PARAMS,
    _FIELD_KEYS,
    _KEYS,
)
from dghsim.stepping import SimConfig

BREAKING_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "breaking_wave.cfg"

BASE_CONFIG = """
# minimal smooth run
scenario.family = global41
scenario.name   = demo
scenario.r0     = 2.0
model.A         = 1.0
model.gamma     = 0.0
sim.n           = 128
sim.t_end       = 1.5
"""


# ---------------------------------------------------------------------------
# families

def test_family_registry():
    assert FAMILIES == (
        "constant", "blowup31", "global41", "zero-mean", "custom-fourier",
    )
    # a range check reports a field name, and the reader turns it into
    # one key, so no two fields, family parameters included, share a name
    assert len(_FIELD_KEYS) == len(_KEYS)
    params = {name for spec in _FAMILY_PARAMS.values() for name in spec}
    assert not params & set(_FIELD_KEYS)


def test_constant_family():
    g = PeriodicGrid(32)
    s = build_initial_data("constant", {"c": -0.3, "r": 2.5}, g)
    assert np.all(s.u == -0.3)
    assert np.all(s.rho == 2.5)


def test_blowup_family_geometry():
    g = PeriodicGrid(256)
    s = build_initial_data("blowup31", {"a": 4.0, "b": 2.0}, g)
    x = g.nodes
    assert np.allclose(s.u, (4.0 / (2 * np.pi)) * np.sin(2 * np.pi * x))
    # density vanishes exactly where the slope is most negative
    j = g.n // 2
    assert s.rho[j] == pytest.approx(0.0, abs=1e-30)
    assert np.all(s.rho >= 0.0)
    assert np.max(s.rho) == pytest.approx(2.0, abs=1e-12)


def test_global_family_geometry():
    g = PeriodicGrid(64)
    s = build_initial_data("global41", {"r0": 1.5, "ru": 2.0}, g)
    assert np.min(s.rho) >= 0.5 - 1e-12  # bounded away from zero
    assert np.mean(s.u) == pytest.approx(0.0, abs=1e-15)


def test_zero_mean_family():
    g = PeriodicGrid(64)
    s = build_initial_data("zero-mean", {"a": 3.0}, g)
    assert np.all(s.rho == 0.0)
    assert np.mean(s.u) == pytest.approx(0.0, abs=1e-15)
    ux = np.gradient(s.u, g.dx)  # crude check that min slope ~ -a
    assert np.min(ux) == pytest.approx(-3.0, rel=0.01)


def test_custom_fourier_family():
    g = PeriodicGrid(64)
    s = build_initial_data(
        "custom-fourier",
        {"u_mean": 0.5, "u_cos": (1.0, 0.25), "rho_sin": (0.0, -1.0)},
        g,
    )
    x = g.nodes
    exp_u = 0.5 + np.cos(2 * np.pi * x) + 0.25 * np.cos(4 * np.pi * x)
    exp_r = -np.sin(4 * np.pi * x)
    assert np.allclose(s.u, exp_u, atol=1e-14)
    assert np.allclose(s.rho, exp_r, atol=1e-14)


def test_custom_fourier_bandwidth_guard():
    g = PeriodicGrid(16)
    with pytest.raises(ConfigError, match="does not fit"):
        build_initial_data("custom-fourier", {"u_cos": tuple(range(10))}, g)


def test_family_constraint_checks():
    g = PeriodicGrid(32)
    with pytest.raises(ConfigError, match="r0 > 1"):
        build_initial_data("global41", {"r0": 1.0}, g)
    with pytest.raises(ConfigError, match="margin"):
        build_initial_data("blowup31", {"a": 1.0, "margin": 0.9}, g)
    with pytest.raises(ConfigError, match="positive"):
        build_initial_data("blowup31", {"a": -1.0}, g)
    with pytest.raises(ConfigError, match="nonzero"):
        build_initial_data("zero-mean", {"a": 0.0}, g)
    with pytest.raises(ConfigError, match="unknown family"):
        build_initial_data("nope", {}, g)
    with pytest.raises(ConfigError, match="scenario.q"):
        build_initial_data("constant", {"q": 1.0}, g)


def test_unresolved_amplitude_is_rejected():
    g = PeriodicGrid(32)
    with pytest.raises(ConfigError, match="unresolved"):
        build_initial_data("blowup31", {}, g)


# ---------------------------------------------------------------------------
# amplitude fixed point

@pytest.mark.parametrize("A, gamma", [(1.0, 0.0), (0.5, 0.3), (2.0, -0.6)])
@pytest.mark.parametrize("n", [8, 64, 1024, 4096])
def test_amplitude_solver_fixed_point(n, A, gamma):
    p = ModelParams(A=A, gamma=gamma)
    margin = 1.05
    a = solve_blowup_amplitude(b=1.0, margin=margin, model=p, n=n)
    s = build_initial_data("blowup31", {"a": a, "b": 1.0}, PeriodicGrid(n))
    th = threshold_sharp(energy_e0(np.stack((s.u, deriv_values(s.u, 1), s.rho))), p.gamma, p.A)
    assert a == pytest.approx(margin * abs(th), rel=1e-8)
    if (A, gamma) == (1.0, 0.0):
        # frozen value for the default breaking-wave setup
        assert a == pytest.approx(8.630109818186611, abs=1e-6)


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(scenarios, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(scenarios, name, spy)
    return calls


def test_amplitude_solver_samples_the_data_once(monkeypatch):
    # E0 is quadratic in the amplitude, so one sample serves every trial
    arrays = _count_calls(monkeypatch, "_initial_arrays")
    derivs = _count_calls(monkeypatch, "deriv_values")
    solve_blowup_amplitude(b=1.0, margin=1.05, model=ModelParams(), n=1024)
    assert (len(arrays), len(derivs)) == (1, 1)
    sc = parse(BREAKING_CONFIG.read_text())
    arrays.clear()
    derivs.clear()
    sc.resolve()
    assert (len(arrays), len(derivs)) == (1, 1)


def test_amplitude_solver_respects_margin():
    p = ModelParams(A=1.0, gamma=0.0)
    a_tight = solve_blowup_amplitude(b=1.0, margin=1.01, model=p, n=256)
    a_loose = solve_blowup_amplitude(b=1.0, margin=1.2, model=p, n=256)
    assert a_loose > a_tight > 0.0


def test_amplitude_solver_rejects_unattainable_margin():
    # the threshold itself grows linearly in the amplitude (slope ~ 0.74 a),
    # so margins beyond ~1.35 have no fixed point at any scale
    with pytest.raises(ConfigError, match="no amplitude"):
        solve_blowup_amplitude(b=1.0, margin=1.5, model=ModelParams(), n=256)


def test_amplitude_solver_stops_at_adjacent_doubles():
    # a shear of 4e16 puts the root near 3e17, where doubles lie 32 apart,
    # far coarser than the 1e-9 tolerance
    model = ModelParams(A=3.9151168861303496e16)
    a = solve_blowup_amplitude(b=1.0, margin=1.05, model=model, n=32)
    s = build_initial_data("blowup31", {"a": a, "b": 1.0}, PeriodicGrid(32))
    e0 = energy_e0(np.stack((s.u, deriv_values(s.u, 1), s.rho)))
    th = threshold_sharp(e0, model.gamma, model.A)
    assert a == pytest.approx(1.05 * abs(th), rel=1e-12)


# ---------------------------------------------------------------------------
# config parsing

def parse(text: str) -> Scenario:
    return scenario_from_entries(parse_config_entries(text))


def test_parse_full_config():
    sc = parse(BASE_CONFIG)
    assert sc.name == "demo"
    assert sc.family == "global41"
    assert sc.params == {"r0": 2.0, "ru": 1.0}  # defaults merged in
    assert sc.model == ModelParams(A=1.0, gamma=0.0)
    assert sc.sim == SimConfig(n=128, t_end=1.5)
    assert not sc.characteristics


def test_parse_optional_sections():
    text = BASE_CONFIG + """
sim.cfl = 0.2
sim.snapshot_times = 0.0, 0.5, 1.5
characteristics.enabled = true
characteristics.count = 32
"""
    sc = parse(text)
    assert sc.sim.cfl == 0.2
    assert sc.sim.snapshot_times == (0.0, 0.5, 1.5)
    assert sc.characteristics and sc.characteristic_count == 32


def test_parse_entries_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_entries("just some words")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_entries("a.b = 1\na.b = 2")
    entries = parse_config_entries("# comment\n\n key = a = b ")
    assert entries == {"key": "a = b"}  # first '=' splits


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="sim.dt_max"):
        parse(BASE_CONFIG + "sim.dt_max = 0.1\n")
    with pytest.raises(ConfigError, match="scenario.amplitude"):
        parse(BASE_CONFIG + "scenario.amplitude = 2\n")
    with pytest.raises(ConfigError, match="model.B"):
        parse(BASE_CONFIG + "model.B = 2\n")
    # family keys are judged against the family, so an unknown one is named
    with pytest.raises(ConfigError, match="unknown family 'nope'"):
        parse("scenario.family = nope\nscenario.a = 1\nsim.n = 32\nsim.t_end = 1\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="scenario.family"):
        parse("sim.n = 64\nsim.t_end = 1.0")
    with pytest.raises(ConfigError, match="sim.n"):
        parse("scenario.family = constant\nsim.t_end = 1.0")
    with pytest.raises(ConfigError, match="sim.t_end"):
        parse("scenario.family = constant\nsim.n = 64")


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError, match="sim.n"):
        parse(BASE_CONFIG.replace("sim.n           = 128", "sim.n = many"))
    with pytest.raises(ConfigError, match="expected an integer"):
        parse(BASE_CONFIG.replace("sim.n           = 128", "sim.n = 128.5"))
    with pytest.raises(ConfigError, match="boolean"):
        parse(BASE_CONFIG + "characteristics.enabled = maybe\n")
    # constraint violations surface as ConfigError too, not bare ValueError
    with pytest.raises(ConfigError):
        parse(BASE_CONFIG.replace("sim.t_end       = 1.5", "sim.t_end = -1"))


def test_size_limits_are_inclusive():
    # parsing builds no arrays, so the limits are checked without allocating
    base = BASE_CONFIG.replace("sim.n           = 128", "")
    sc = parse(
        base + f"sim.n = {MAX_GRID_SIZE}\n"
        f"characteristics.count = {MAX_CHARACTERISTICS}\n"
    )
    assert (sc.sim.n, sc.characteristic_count) == (MAX_GRID_SIZE, MAX_CHARACTERISTICS)
    with pytest.raises(ConfigError, match="'sim.n'.*exceeds"):
        parse(base + f"sim.n = {MAX_GRID_SIZE + 2}\n")
    with pytest.raises(ConfigError, match="'characteristics.count'.*exceeds"):
        parse(
            BASE_CONFIG + f"characteristics.count = {MAX_CHARACTERISTICS + 1}\n"
        )


def test_amplitude_solver_rejects_overflowing_energy():
    # the solver samples the data once and checks each trial's E0 as it
    # goes, before any run or criteria check
    text = "scenario.family = blowup31\nscenario.b = 1e200\nsim.n = 64\nsim.t_end = 1\n"
    with pytest.raises(ConfigError, match="b = 1e\\+200"):
        parse(text).resolve()


def test_scenario_validation():
    sim = SimConfig(n=64, t_end=1.0)
    with pytest.raises(ConfigError, match="at least 2"):
        Scenario(
            name="x", family="constant", family_params=(),
            model=ModelParams(), sim=sim, characteristic_count=1,
        )
    with pytest.raises(ConfigError, match="nonempty"):
        Scenario(
            name="", family="constant", family_params=(),
            model=ModelParams(), sim=sim,
        )


@pytest.mark.parametrize("name", [".", "..", "a/b", "/abs", "a\\b"])
def test_scenario_name_is_one_path_component(name):
    # a sweep member's directory under --out-dir is named after it
    with pytest.raises(ConfigError, match="hold no '/'") as exc:
        Scenario(
            name=name, family="constant", family_params=(),
            model=ModelParams(), sim=SimConfig(n=64, t_end=1.0),
        )
    assert exc.value.name == "name"


def test_resolve_replaces_auto_amplitude():
    text = """
scenario.family = blowup31
sim.n = 256
sim.t_end = 1.0
"""
    sc = parse(text)
    assert sc.params["a"] == "auto"
    resolved = sc.resolve()
    assert isinstance(resolved.params["a"], float)
    assert resolved.params["a"] > 0.0
    # resolving twice is a no-op
    assert resolved.resolve() is resolved
    state = resolved.build_state()
    assert state.grid.n == 256


def test_resolved_config_echo():
    sc = parse(BASE_CONFIG + "sim.snapshot_times = 0.5, 1.0\n")
    doc = resolved_config(sc)
    assert doc["scenario"] == {
        "name": "demo", "family": "global41", "r0": 2.0, "ru": 1.0,
    }
    assert doc["sim"]["n"] == 128
    assert doc["sim"]["snapshot_times"] == [0.5, 1.0]
    assert doc["characteristics"] == {"enabled": False, "count": 64}
    assert list(doc) == ["scenario", "model", "sim", "characteristics"]
    # the echo names exactly the sim keys a config may set, so a retired
    # key cannot linger in report.json
    assert {f"sim.{k}" for k in doc["sim"]} == {k for k in _KEYS if k[:4] == "sim."}
