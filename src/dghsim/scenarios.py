"""Initial-data families, scenario descriptions, and the flat config format.

A scenario bundles one initial-data family with model parameters, run
settings, and analysis options.  Configs are flat ``key = value`` text with
section prefixes::

    scenario.family = global41
    scenario.r0     = 2.0
    model.gamma     = 0.0
    sim.n           = 256
    sim.t_end       = 10.0

Each key is stated once: a family's parameters in that family's table,
every other key in one table of key -> converter (and, for the keys that
set a Scenario field directly, that field).  The reader converts every
value by its key; ModelParams, SimConfig, Scenario and the family rules
then check the ranges and raise ConfigError with the field's name.  So
every rejected value is reported as ``key '<key>': ...``, and unknown
keys are rejected by name so typos fail loudly instead of being silently
ignored.  resolved_config echoes the same keys back for the run report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .criteria import threshold_sharp
from .grid import ConfigError, PeriodicGrid, deriv_values
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


_MAX_EXACT_INT = 2.0**53  # larger integers do not survive the float parse

# Size limits.  A coupled run evaluates every characteristic against a
# phase matrix of (n/2 + 1) x count complex entries per RK4 stage; at the
# largest allowed pair that is 32769 x 1024 x 16 B, about 0.54 GB.
MAX_GRID_SIZE = 2**16
MAX_CHARACTERISTICS = 1024
# The thresholds square a0 = 2 integral(u), and a0^2 <= 4 E0, so initial
# data above this energy cannot be assessed in double precision.
_MAX_ENERGY = sys.float_info.max / 4.0
# The bisection of solve_blowup_amplitude stops once its bracket is this
# narrow, or when it holds two adjacent doubles.
_AMPLITUDE_TOL = 1.0e-9


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
        raise ConfigError(f"global41 requires r0 > 1, got r0 = {p['r0']}", "r0")
    if family == "blowup31":
        if not p["margin"] > 1.0:
            raise ConfigError(
                f"blowup31 margin must exceed 1 (slope beyond threshold), "
                f"got {p['margin']}",
                "margin",
            )
        if p["a"] != "auto" and not p["a"] > 0.0:
            raise ConfigError(
                f"blowup31 amplitude must be positive, got {p['a']}", "a"
            )
    if family == "zero-mean" and p["a"] == 0.0:
        raise ConfigError("zero-mean amplitude must be nonzero", "a")


def _trig_series(grid: PeriodicGrid, p: dict, field: str) -> np.ndarray:
    """Samples of one custom-fourier field, field = "u" or "rho"."""
    mean, cos_c, sin_c = (p[f"{field}_{part}"] for part in ("mean", "cos", "sin"))
    top = max(len(cos_c), len(sin_c))
    if top > grid.n // 2 - 1:
        longer = "cos" if len(cos_c) == top else "sin"
        raise ConfigError(
            f"custom-fourier mode {top} does not fit on an n={grid.n} grid "
            f"(need n >= {2 * top + 2})",
            f"{field}_{longer}",
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
    return _trig_series(grid, p, "u"), _trig_series(grid, p, "rho")


def build_initial_data(family: str, params: dict, grid: PeriodicGrid) -> State:
    """Construct initial fields for one of the named families.

    constant(c, r)        u = c, rho = r
    blowup31(a, b)        u = (a/2pi) sin(2pi x), so min u' = -a at x = 1/2;
                          rho = b sin^2(pi (x - 1/2)), vanishing exactly there
    global41(r0, ru)      rho = r0 + sin(2pi x) with r0 > 1; u = ru sin(2pi x)/2pi
    zero-mean(a)          u = (a/2pi) sin(2pi x) (mean zero), rho = 0
    custom-fourier(...)   truncated cosine/sine series for both fields
    """
    return State(*_initial_arrays(family, params, grid))


def _check_energy(family: str, params: dict, e0: float) -> None:
    """Raise a config error naming the family and its parameters, by value
    and as its keys, when the initial energy E0 is not finite or too large.

    Callers compute E0 with numpy overflow warnings silenced, so data past
    the range reports here and nowhere else.
    """
    if not e0 <= _MAX_ENERGY:
        shown = ", ".join(f"{k} = {v!r}" for k, v in params.items())
        raise ConfigError(
            f"{family} initial data ({shown}) has energy E0 = {e0!r}, "
            f"beyond {_MAX_ENERGY:.3g}",
            tuple(params),
        )


def solve_blowup_amplitude(
    b: float, margin: float, model: ModelParams, n: int
) -> float:
    """Amplitude a with initial slope -a exactly margin times the sharp threshold.

    The threshold depends on the initial energy, which itself grows with a,
    so this is a fixed point: a = margin |threshold(E0(a))|.  The overshoot
    a - margin |threshold| is negative near 0 (the sqrt(E0) term dominates)
    and positive once a outruns the threshold's linear growth, so bisection
    on a bracket found by doubling converges unconditionally.

    E0 is quadratic in a: u = (a/2pi) sin(2pi x) scales with a, and rho
    does not depend on it.  So E0(a) = a^2 e_u + e_rho, where e_u is the
    energy of u and u_x at a = 1 and e_rho that of rho, both sampled once
    on the n-point grid, and each trial costs one float expression.  The
    energies are sampled, not taken in closed form, so that a stays the
    root for the grid the run samples its data on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u1, rho = _initial_arrays("blowup31", {"a": 1.0, "b": b}, PeriodicGrid(n))
        e_u = energy_e0(np.stack((u1, deriv_values(u1, 1))))
        e_rho = energy_e0(rho[None])

        def overshoot(a: float) -> float:
            e0 = a * a * e_u + e_rho
            _check_energy("blowup31", {"a": a, "b": b}, e0)
            th = threshold_sharp(e0, model.gamma, model.A)
            return a - margin * abs(th)

        hi = 1.0
        for _ in range(64):
            if overshoot(hi) > 0.0:
                break
            hi *= 2.0
        else:
            raise ConfigError(
                f"blowup31 margin {margin} admits no amplitude: the threshold "
                f"outgrows the slope at every scale",
                "margin",
            )
        lo = 0.0
        while hi - lo > _AMPLITUDE_TOL:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # adjacent doubles, spaced wider than _AMPLITUDE_TOL
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
    characteristics: bool = False
    characteristic_count: int = 64

    def __post_init__(self) -> None:
        # a sweep writes each member to the directory of its name under --out-dir
        if not self.name or self.name in (".", "..") or {"/", "\\", "\0"} & set(self.name):
            raise ConfigError(
                f"the name must be nonempty, not '.' or '..', and hold no '/', "
                f"'\\' or NUL, got {self.name!r}",
                "name",
            )
        merged = _merge_family_params(self.family, dict(self.family_params))
        object.__setattr__(self, "family_params", tuple(merged.items()))
        if not self.characteristic_count >= 2:
            raise ConfigError(
                f"must be at least 2, got {self.characteristic_count}",
                "characteristic_count",
            )

    @property
    def params(self) -> dict:
        return dict(self.family_params)

    def resolve(self) -> "Scenario":
        """Replace any 'auto' amplitude with its solved value."""
        p = self.params
        if self.family != "blowup31" or p["a"] != "auto":
            return self
        try:
            p["a"] = solve_blowup_amplitude(
                p["b"], p["margin"], self.model, self.sim.n
            )
        except ConfigError as exc:
            raise _keyed(exc) from None
        return replace(self, family_params=tuple(p.items()))

    def build_state(self) -> State:
        """Initial data on the run's grid; its energy must be finite."""
        grid = PeriodicGrid(self.sim.n)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                u, rho = _initial_arrays(self.family, self.params, grid)
                e0 = energy_e0(np.array((u, deriv_values(u, 1), rho)))
            _check_energy(self.family, self.params, e0)
        except ConfigError as exc:
            raise _keyed(exc) from None
        return State(u, rho)


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


# Every key outside a family's parameters, in report.json's order:
# key -> (converter, the Scenario field it sets).  A model.* or sim.* key
# sets the ModelParams or SimConfig field named after its dot.
_KEYS: dict[str, tuple] = {
    "scenario.name": (str, "name"),
    "scenario.family": (str, "family"),
    "model.A": (_to_float, None),
    "model.gamma": (_to_float, None),
    "sim.n": (_to_int_at_most(MAX_GRID_SIZE), None),
    "sim.t_end": (_to_float, None),
    "sim.cfl": (_to_float, None),
    "sim.record_every": (_to_int, None),
    "sim.snapshot_times": (_to_float_tuple, None),
    "characteristics.enabled": (_to_bool, "characteristics"),
    "characteristics.count": (
        _to_int_at_most(MAX_CHARACTERISTICS), "characteristic_count"
    ),
}
_REQUIRED_KEYS = ("scenario.family", "sim.n", "sim.t_end")
# the field a range check names -> its key; any other name is a family
# parameter's, so no parameter may reuse one of these names
_FIELD_KEYS = {field or key.split(".")[1]: key for key, (_, field) in _KEYS.items()}


def scenario_from_entries(entries: dict[str, str]) -> Scenario:
    """Convert a key -> raw-value map into a Scenario.

    A value is converted by its key's entry in _KEYS or, for any other
    scenario.* key, by its family's parameter table; the classes then check
    the ranges.  Every rejected value is reported as "key '<key>': ...".
    """
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")
    for key in entries:
        if key not in _KEYS and not key.startswith("scenario."):
            raise ConfigError(f"unknown key {key!r}")
    # an unknown family or family key passes as text to _merge_family_params
    family_spec = _FAMILY_PARAMS.get(entries["scenario.family"], {})
    chosen: dict = {}
    sections: dict = {"scenario": {}, "model": {}, "sim": {}}
    key = None
    try:
        for key, raw in entries.items():
            section, _, name = key.partition(".")
            conv, field = _KEYS.get(key) or (family_spec.get(name, (str,))[0], None)
            if field:
                chosen[field] = conv(raw)
            else:
                sections[section][name] = conv(raw)
        key = None  # from here on an error names its field, or no key
        chosen.setdefault("name", chosen["family"])
        return Scenario(
            family_params=tuple(sections["scenario"].items()),
            model=ModelParams(**sections["model"]),
            sim=SimConfig(**sections["sim"]),
            **chosen,
        )
    except ConfigError as exc:
        raise _keyed(exc, key) from None


def _keyed(exc: ConfigError, key: str | None = None) -> ConfigError:
    """exc reworded as "key '<key>': ...", naming the key of each field the
    check names, or else the given key; exc itself when neither names one."""
    names = (exc.name,) if isinstance(exc.name, str) else exc.name or ()
    keys = [_FIELD_KEYS.get(name, f"scenario.{name}") for name in names]
    if not keys and key is None:
        return exc
    quoted = ", ".join(f"'{k}'" for k in keys or [key])
    return ConfigError(f"{'keys' if len(keys) > 1 else 'key'} {quoted}: {exc}")


def resolved_config(sc: Scenario) -> dict:
    """Full configuration echo for the run report, resolved and typed: every
    key a config may set, by section, with tuples as lists."""
    doc: dict = {"scenario": {}}
    for section in ("model", "sim"):
        obj = getattr(sc, section)
        doc[section] = {f.name: getattr(obj, f.name) for f in fields(obj)}
    for key, (_, field) in _KEYS.items():
        if field is not None:
            section, _, name = key.partition(".")
            doc.setdefault(section, {})[name] = getattr(sc, field)
    doc["scenario"].update(sc.family_params)
    return {
        section: {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
        for section, values in doc.items()
    }
