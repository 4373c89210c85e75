"""Initial-data families, scenario descriptions, and the flat config format.

A scenario bundles one initial-data family with model parameters, run
settings, and analysis options.  Configs are flat ``key = value`` text with
section prefixes::

    scenario.family = global41
    scenario.r0     = 2.0
    model.gamma     = 0.0
    sim.n           = 256
    sim.t_end       = 10.0

Unknown keys are rejected by name so typos fail loudly instead of being
silently ignored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .criteria import DEFAULT_EPS_LIST, threshold_sharp
from .grid import ParameterError, PeriodicGrid, deriv_values
from .model import ModelParams, State, energy_e0
from .stepping import SimConfig

__all__ = [
    "ConfigError",
    "Scenario",
    "FAMILIES",
    "build_initial_data",
    "solve_blowup_amplitude",
    "parse_config_entries",
    "scenario_from_entries",
    "resolved_config",
    "MAX_GRID_SIZE",
    "MAX_CHARACTERISTICS",
]


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, or missing field."""


_MAX_EXACT_INT = 2.0**53  # larger integers do not survive the float parse

# Size limits.  A coupled run evaluates every characteristic against a
# phase matrix of count x (n/2 - 1) complex entries per RK4 stage; at the
# largest allowed pair that is 1024 x 32767 x 16 B, about 0.54 GB.
MAX_GRID_SIZE = 2**16
MAX_CHARACTERISTICS = 1024
# The thresholds square a0 = 2 integral(u), and a0^2 <= 4 E0, so initial
# data above this energy cannot be assessed in double precision.
_MAX_ENERGY = sys.float_info.max / 4.0


def _to_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return x


def _to_int(text: str) -> int:
    x = _to_float(text)
    if not abs(x) <= _MAX_EXACT_INT:
        raise ConfigError(f"integer {text!r} is out of range")
    if x != int(x):
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(x)


def _to_int_at_most(limit: int):
    def convert(text: str) -> int:
        x = _to_int(text)
        if x > limit:
            raise ConfigError(f"{x} exceeds the largest allowed value {limit}")
        return x

    return convert


def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _to_float_tuple(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    return tuple(_to_float(p) for p in parts if p)


def _to_amplitude(text: str):
    if text.strip().lower() == "auto":
        return "auto"
    return _to_float(text)


# family -> ordered {param: (converter, default)}; None default means required
_FAMILY_PARAMS: dict[str, dict[str, tuple]] = {
    "constant": {"c": (_to_float, 0.5), "r": (_to_float, 1.0)},
    "blowup31": {
        "a": (_to_amplitude, "auto"),
        "b": (_to_float, 1.0),
        "margin": (_to_float, 1.05),
    },
    "global41": {"r0": (_to_float, 2.0), "ru": (_to_float, 1.0)},
    "zero-mean": {"a": (_to_float, 1.0)},
    "custom-fourier": {
        "u_mean": (_to_float, 0.0),
        "u_cos": (_to_float_tuple, ()),
        "u_sin": (_to_float_tuple, ()),
        "rho_mean": (_to_float, 0.0),
        "rho_cos": (_to_float_tuple, ()),
        "rho_sin": (_to_float_tuple, ()),
    },
}

FAMILIES = tuple(_FAMILY_PARAMS)


def _merge_family_params(family: str, params: dict) -> dict:
    if family not in _FAMILY_PARAMS:
        known = ", ".join(FAMILIES)
        raise ConfigError(f"unknown family {family!r} (known: {known})")
    spec = _FAMILY_PARAMS[family]
    for key in params:
        if key not in spec:
            raise ConfigError(f"unknown key 'scenario.{key}' for family {family!r}")
    merged = {name: params.get(name, default) for name, (_, default) in spec.items()}
    _check_family_constraints(family, merged)
    return merged


def _check_family_constraints(family: str, p: dict) -> None:
    if family == "global41" and not p["r0"] > 1.0:
        raise ConfigError(f"global41 requires r0 > 1, got r0 = {p['r0']}")
    if family == "blowup31":
        if not p["margin"] > 1.0:
            raise ConfigError(
                f"blowup31 margin must exceed 1 (slope beyond threshold), "
                f"got {p['margin']}"
            )
        if p["a"] != "auto" and not p["a"] > 0.0:
            raise ConfigError(f"blowup31 amplitude must be positive, got {p['a']}")
    if family == "zero-mean" and p["a"] == 0.0:
        raise ConfigError("zero-mean amplitude must be nonzero")


def _trig_series(
    grid: PeriodicGrid, mean: float, cos_c: tuple, sin_c: tuple
) -> np.ndarray:
    top = max(len(cos_c), len(sin_c))
    if top > grid.n // 2 - 1:
        raise ConfigError(
            f"custom-fourier mode {top} does not fit on an n={grid.n} grid "
            f"(need n >= {2 * top + 2})"
        )
    x = grid.nodes
    v = np.full(grid.n, float(mean))
    for k, c in enumerate(cos_c, start=1):
        v += c * np.cos(2.0 * np.pi * k * x)
    for k, c in enumerate(sin_c, start=1):
        v += c * np.sin(2.0 * np.pi * k * x)
    return v


def _initial_arrays(
    family: str, params: dict, grid: PeriodicGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(u, rho) samples of one family; see build_initial_data."""
    p = _merge_family_params(family, params)
    x = grid.nodes
    if family == "constant":
        return np.full(grid.n, float(p["c"])), np.full(grid.n, float(p["r"]))
    if family == "blowup31":
        a = p["a"]
        if a == "auto":
            raise ConfigError(
                "blowup31 amplitude is unresolved; use Scenario.resolve() or "
                "pass a number for scenario.a"
            )
        u = (a / (2.0 * np.pi)) * np.sin(2.0 * np.pi * x)
        rho = p["b"] * np.sin(np.pi * (x - 0.5)) ** 2
        return u, rho
    if family == "global41":
        u = p["ru"] * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
        rho = p["r0"] + np.sin(2.0 * np.pi * x)
        return u, rho
    if family == "zero-mean":
        u = (p["a"] / (2.0 * np.pi)) * np.sin(2.0 * np.pi * x)
        return u, np.zeros(grid.n)
    u = _trig_series(grid, p["u_mean"], p["u_cos"], p["u_sin"])
    rho = _trig_series(grid, p["rho_mean"], p["rho_cos"], p["rho_sin"])
    return u, rho


def build_initial_data(family: str, params: dict, grid: PeriodicGrid) -> State:
    """Construct initial fields for one of the named families.

    constant(c, r)        u = c, rho = r
    blowup31(a, b)        u = (a/2pi) sin(2pi x), so min u' = -a at x = 1/2;
                          rho = b sin^2(pi (x - 1/2)), vanishing exactly there
    global41(r0, ru)      rho = r0 + sin(2pi x) with r0 > 1; u = ru sin(2pi x)/2pi
    zero-mean(a)          u = (a/2pi) sin(2pi x) (mean zero), rho = 0
    custom-fourier(...)   truncated cosine/sine series for both fields
    """
    return State(grid, *_initial_arrays(family, params, grid))


def _checked_energy(family: str, params: dict, grid: PeriodicGrid):
    """(u, rho, E0) of a family's initial data, or a config error naming
    the family and its parameters when E0 is not finite or too large.

    Callers run this with numpy overflow warnings silenced, so data past
    the range reports here and nowhere else.
    """
    u, rho = _initial_arrays(family, params, grid)
    e0 = energy_e0(u, deriv_values(u, 1), rho)
    if not e0 <= _MAX_ENERGY:
        shown = ", ".join(f"{k} = {v!r}" for k, v in params.items())
        raise ConfigError(
            f"{family} initial data ({shown}) has energy E0 = {e0!r}, "
            f"beyond {_MAX_ENERGY:.3g}"
        )
    return u, rho, e0


def solve_blowup_amplitude(
    b: float,
    margin: float,
    model: ModelParams,
    n: int,
    tol: float = 1.0e-9,
) -> float:
    """Amplitude a with initial slope -a exactly margin times the sharp threshold.

    The threshold depends on the initial energy, which itself grows with a,
    so this is a fixed point: a = margin |threshold(E0(a))|.  The overshoot
    a - margin |threshold| is negative near 0 (the sqrt(E0) term dominates)
    and positive once a outruns the threshold's linear growth, so bisection
    on a bracket found by doubling converges unconditionally.
    """
    grid = PeriodicGrid(n)

    def overshoot(a: float) -> float:
        _, _, e0 = _checked_energy("blowup31", {"a": a, "b": b}, grid)
        th = threshold_sharp(e0, model.gamma, model.A)
        return a - margin * abs(th)

    with np.errstate(over="ignore", invalid="ignore"):
        hi = 1.0
        for _ in range(64):
            if overshoot(hi) > 0.0:
                break
            hi *= 2.0
        else:
            raise ConfigError(
                f"blowup31 margin {margin} admits no amplitude: the threshold "
                f"outgrows the slope at every scale"
            )
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # adjacent doubles: tol is finer than their spacing
                break
            if overshoot(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Scenario:
    """One named run: initial-data family, model, integrator, and analysis options."""

    name: str
    family: str
    family_params: tuple[tuple[str, object], ...]
    model: ModelParams
    sim: SimConfig
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST
    characteristics: bool = False
    characteristic_count: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("key 'scenario.name': the name must be nonempty")
        merged = _merge_family_params(self.family, dict(self.family_params))
        object.__setattr__(self, "family_params", tuple(merged.items()))
        object.__setattr__(
            self, "eps_list", tuple(float(e) for e in self.eps_list)
        )
        if not all(e > 0.0 for e in self.eps_list):
            raise ConfigError(
                f"key 'criteria.eps_list': entries must be positive, got "
                f"{self.eps_list}"
            )
        if not self.characteristic_count >= 2:
            raise ConfigError(
                f"key 'characteristics.count': must be at least 2, got "
                f"{self.characteristic_count}"
            )

    @property
    def params(self) -> dict:
        return dict(self.family_params)

    def resolve(self) -> "Scenario":
        """Replace any 'auto' amplitude with its solved value."""
        p = self.params
        if self.family != "blowup31" or p["a"] != "auto":
            return self
        p["a"] = solve_blowup_amplitude(p["b"], p["margin"], self.model, self.sim.n)
        return replace(self, family_params=tuple(p.items()))

    def build_state(self) -> State:
        """Initial data on the run's grid; its energy must be finite."""
        grid = PeriodicGrid(self.sim.n)
        with np.errstate(over="ignore", invalid="ignore"):
            u, rho, _ = _checked_energy(self.family, self.params, grid)
        return State(grid, u, rho)


# ---------------------------------------------------------------------------
# flat config text

def parse_config_entries(text: str) -> dict[str, str]:
    """Split config text into a key -> raw-value map, rejecting malformed lines."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


_MODEL_KEYS = {"model.A": _to_float, "model.gamma": _to_float}
_SIM_KEYS = {
    "sim.n": _to_int_at_most(MAX_GRID_SIZE),
    "sim.t_end": _to_float,
    "sim.cfl": _to_float,
    "sim.slope_dt_factor": _to_float,
    "sim.record_every": _to_int,
    "sim.snapshot_times": _to_float_tuple,
}
# key -> (Scenario field, converter); an absent key keeps the field's default
_ANALYSIS_KEYS = {
    "criteria.eps_list": ("eps_list", _to_float_tuple),
    "characteristics.enabled": ("characteristics", _to_bool),
    "characteristics.count": (
        "characteristic_count", _to_int_at_most(MAX_CHARACTERISTICS)
    ),
}


def scenario_from_entries(entries: dict[str, str]) -> Scenario:
    entries = dict(entries)

    def take(key: str, conv, default=None, required: bool = False):
        if key not in entries:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        raw = entries.pop(key)
        try:
            return conv(raw)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None

    family = take("scenario.family", str, required=True)
    if family not in _FAMILY_PARAMS:
        known = ", ".join(FAMILIES)
        raise ConfigError(f"unknown family {family!r} (known: {known})")
    name = take("scenario.name", str, default=family)

    fam_params: dict[str, object] = {}
    for key in [k for k in entries if k.startswith("scenario.")]:
        pname = key[len("scenario."):]
        if pname not in _FAMILY_PARAMS[family]:
            raise ConfigError(f"unknown key {key!r} for family {family!r}")
        conv = _FAMILY_PARAMS[family][pname][0]
        raw = entries.pop(key)
        try:
            fam_params[pname] = conv(raw)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None

    model_kwargs = {}
    for key, conv in _MODEL_KEYS.items():
        if key in entries:
            model_kwargs[key.split(".", 1)[1]] = take(key, conv)
    sim_kwargs = {}
    for key, conv in _SIM_KEYS.items():
        if key in entries:
            sim_kwargs[key.split(".", 1)[1]] = take(key, conv)
    if "n" not in sim_kwargs:
        raise ConfigError("missing required key 'sim.n'")
    if "t_end" not in sim_kwargs:
        raise ConfigError("missing required key 'sim.t_end'")

    analysis = {
        field: take(key, conv)
        for key, (field, conv) in _ANALYSIS_KEYS.items()
        if key in entries
    }

    if entries:
        stray = sorted(entries)[0]
        raise ConfigError(f"unknown key {stray!r}")

    def build(section: str, cls, kwargs: dict):
        # the range checks live in the class; the config names the key
        try:
            return cls(**kwargs)
        except ParameterError as exc:
            raise ConfigError(f"key '{section}.{exc.name}': {exc}") from None

    return Scenario(
        name=name,
        family=family,
        family_params=tuple(fam_params.items()),
        model=build("model", ModelParams, model_kwargs),
        sim=build("sim", SimConfig, sim_kwargs),
        **analysis,
    )


def resolved_config(sc: Scenario) -> dict:
    """Full configuration echo for the run report, resolved and typed."""
    fam = {}
    for key, value in sc.family_params:
        fam[key] = list(value) if isinstance(value, tuple) else value
    return {
        "scenario": {"name": sc.name, "family": sc.family, **fam},
        "model": {"A": sc.model.A, "gamma": sc.model.gamma},
        "sim": {
            "n": sc.sim.n,
            "t_end": sc.sim.t_end,
            "cfl": sc.sim.cfl,
            "slope_dt_factor": sc.sim.slope_dt_factor,
            "record_every": sc.sim.record_every,
            "snapshot_times": list(sc.sim.snapshot_times),
        },
        "criteria": {"eps_list": list(sc.eps_list)},
        "characteristics": {
            "enabled": sc.characteristics,
            "count": sc.characteristic_count,
        },
    }
