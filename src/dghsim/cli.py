"""Command-line front end.

Subcommands:

    run <config>        integrate a scenario and write series/report artifacts
    criteria <config>   evaluate thresholds and verdicts only, no simulation
    sweep <config> --param key=lo:hi:count
                        run copies of the scenario across a parameter range
    selftest            run the built-in oracle suites

Exit codes: 0 success (a detected blow-up is a success), 2 config error,
3 I/O error, 4 numerical fault: a run that contradicts its own criteria,
as criteria.name_outcome says, which names the run's cause too (a
non-finite state without a BlowupPredicted verdict, a run the paper
proves global that ends in BlowupDetected or ResolutionLost, or a run
with a predicted blow-up that reaches its end after the Riccati time
bound).  A rejected config value prints ``config error: key '<key>': ...``.

run and criteria open report.json with the same two sections: "config",
the resolved config echoed key by key, and "criteria", the criterion
report echoed field by field.

All numeric output uses round-trip float formatting, and reports contain
no timestamps, so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import oracles
from .characteristics import (
    default_seeds,
    is_monotone,
    sign_preserved,
    verify_density_transport,
)
from .criteria import (
    InsufficientWindowError,
    estimate_blowup_rate,
    evaluate_criteria,
    lyapunov_trace,
    name_outcome,
)
from .grid import PeriodicGrid, deriv_values
from .model import hamiltonian_f
from .scenarios import (
    MAX_CHARACTERISTICS,
    MAX_GRID_SIZE,
    ConfigError,
    Scenario,
    _keyed,
    parse_config_entries,
    resolved_config,
    scenario_from_entries,
)
from .stepping import SERIES_COLUMNS, run

__all__ = ["main", "run_scenario", "EXIT_OK", "EXIT_CONFIG", "EXIT_IO", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# most runs one sweep may launch; each member is a full run
MAX_SWEEP_COUNT = 1000


# rows per formatting pass; a file is written one block at a time, so
# its whole text is never held at once
_CSV_BLOCK = 1024


def _write_csv(path: Path, header, rows: np.ndarray, lead=None) -> None:
    """Write rows under header; lead, if given, holds each line's first
    columns as formatted text.

    Each block of _CSV_BLOCK rows is formatted by one % pass of the line
    template repeated, over the block's values as Python floats, whose
    %r is the shortest round-trip repr.  A value that many lines share,
    such as a record time or a grid node, is formatted once by the
    caller, into lead.
    """
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    if lead is not None:
        line = "%s" + line
    with path.open("w", encoding="ascii") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start : start + _CSV_BLOCK]
            if lead is None:
                values = block.ravel().tolist()
            else:
                heads = lead[start : start + _CSV_BLOCK]
                values = chain.from_iterable(zip(heads, *block.T.tolist()))
            f.write((line * len(block)) % tuple(values))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="ascii")


def _fields_of(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _assess(sc: Scenario):
    """Resolve a scenario and evaluate its criteria on the initial state.

    Returns the resolved scenario, the state, the criterion report, and the
    report document's first two sections: the config echo and the criteria,
    field by field.  build_state has bounded E0; its cubic invariant hamF,
    the forcing bounds K and the thresholds must be finite too, or a config
    error names the family's keys, model.A and model.gamma.  So data past
    double range reports here, before anything runs or is written, and
    with numpy's overflow warnings silenced.
    """
    sc = sc.resolve()
    s0 = sc.build_state()
    p = sc.model
    with np.errstate(over="ignore", invalid="ignore"):
        report = evaluate_criteria(s0.u, s0.rho, p)
        rows = np.fft.rfft((s0.u, deriv_values(s0.u, 1), s0.rho), norm="forward")
        padded = np.zeros((3, s0.u.size + 1), dtype=complex)
        values = {"hamF": hamiltonian_f(rows, p.A, p.gamma, padded)}
    values.update((f"K {k}", v) for k, v in report.k_values.items())
    values.update((f"threshold {k}", v) for k, v in report.thresholds.items())
    for name, value in values.items():
        if not math.isfinite(value):
            shown = ", ".join(f"{k} = {v!r}" for k, v in sc.params.items())
            raise _keyed(ConfigError(
                f"{sc.family} initial data ({shown}) under A = {p.A!r}, "
                f"gamma = {p.gamma!r} has {name} = {value!r}, beyond double range",
                (*sc.params, "A", "gamma"),
            ))
    criteria = _fields_of(report)
    criteria["verdicts"] = {name: _fields_of(v) for name, v in report.verdicts.items()}
    return sc, s0, report, {"config": resolved_config(sc), "criteria": criteria}


def _snapshot_name(t: float, used: set) -> str:
    base = f"t_{t:g}"
    name = base
    k = 2
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def _seeds(sc: Scenario):
    return default_seeds(sc.characteristic_count) if sc.characteristics else None


def run_scenario(sc: Scenario, out_dir: Path, quiet: bool) -> tuple[int, dict]:
    """Execute one scenario and write its artifacts under out_dir.

    Returns the exit code and the report document written to report.json.
    """
    sc, s0, report, doc = _assess(sc)
    result = run(s0, sc.model, sc.sim, seeds=_seeds(sc))
    return _finish(sc, s0, report, doc, result, out_dir, quiet)


def _finish(sc, s0, report, doc, result, out_dir: Path, quiet: bool) -> tuple[int, dict]:
    """The post-run half of run_scenario: complete the report document of
    an assessed scenario from its run's result, and write the artifacts."""
    # columns E0, meanU, hamE and hamF of the first and the last record
    (e0_first, mu_first, he_first, hf_first), (e0_last, mu_last, he_last, hf_last) = (
        result.series[[0, -1], 1:5].tolist()
    )
    trace = result.slope_trace
    t_stop = float(trace.times[-1])
    cause, fault = name_outcome(report, result.stop, trace)
    deepest = int(np.argmin(trace.m))  # the first step on ties
    doc["run"] = {
        "termination": {"cause": cause, "t": t_stop},
        "t_sim": t_stop,
        "steps": len(trace.times) - 1,
        "records": len(result.series),
        "drift": {
            "e0_rel": abs(e0_last - e0_first) / max(abs(e0_first), 1.0e-300),
            "mean_u_abs": abs(mu_last - mu_first),
            "ham_e_abs": abs(he_last - he_first),
            "ham_f_abs": abs(hf_last - hf_first),
        },
        "final": {
            "e0": e0_last,
            "mean_u": mu_last,
            "min_ux": float(trace.m[-1]),
        },
        "deepest": {
            "min_ux": float(trace.m[deepest]),
            "t": float(trace.times[deepest]),
        },
    }

    try:
        doc["rate_estimate"] = _fields_of(estimate_blowup_rate(trace))
    except InsufficientWindowError as exc:
        doc["rate_estimate"] = {"unavailable": str(exc)}

    try:
        lt = lyapunov_trace(trace, s0.rho, s0.u, sc.model)
        doc["lyapunov"] = {
            "beta": lt.beta,
            "c1": lt.c1,
            "c2": lt.c2,
            "violations": int(lt.violations.size),
            "bound_satisfied": lt.violations.size == 0,
        }
    except ValueError as exc:
        doc["lyapunov"] = {"unavailable": str(exc)}

    ens = result.ensemble
    doc["characteristics"] = None if ens is None else {
        "transport_residual": verify_density_transport(ens),
        "monotone": is_monotone(ens),
        "sign_preserved": sign_preserved(ens),
        "min_jacobian": float(np.exp(ens.log_qx.min())),
        "max_jacobian": float(ens.qx.max()),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "series.csv", SERIES_COLUMNS, result.series)
    _write_json(out_dir / "report.json", doc)
    if result.snapshots:
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        used: set = set()
        # the grid nodes, formatted once for every snapshot
        nodes = [f"{x!r}," for x in PeriodicGrid(s0.u.size).nodes.tolist()]
        for t, st in result.snapshots:
            name = _snapshot_name(t, used)
            rows = np.column_stack([st.u, st.rho])
            _write_csv(snap_dir / f"{name}.csv", ("x", "u", "rho"), rows, nodes)
    if ens is not None:
        # long format: one row per (record time, seed), times outermost;
        # each time and each seed is formatted once
        seeds = [f",{s!r}," for s in ens.q[0].tolist()]
        lead = [t + s for t in map(repr, result.series[:, 0].tolist()) for s in seeds]
        rows = np.column_stack([ens.q.ravel(), ens.qx.ravel(), ens.rho_q.ravel()])
        _write_csv(
            out_dir / "characteristics.csv",
            ("t", "seed", "q", "qx", "rho_q"),
            rows,
            lead,
        )

    if not quiet:
        print(
            f"{sc.name}: {cause} at t={t_stop:.6g} "
            f"({doc['run']['steps']} steps), artifacts in {out_dir}"
        )
        # a run writes the snapshots due by t_end in order, so the ones it
        # stopped short of are the last
        unwritten = sc.sim.due_snapshots[len(result.snapshots) :]
        if unwritten:
            print(
                f"{sc.name}: no snapshot at t={', '.join(f'{t:g}' for t in unwritten)}: "
                f"the run stopped at t={t_stop:.6g}",
                file=sys.stderr,
            )

    if fault is not None:
        if not quiet:
            print(f"{sc.name}: {fault}", file=sys.stderr)
        return EXIT_NUMERIC, doc
    return EXIT_OK, doc


# ---------------------------------------------------------------------------
# subcommand handlers

def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from None
    return parse_config_entries(text)


def _cmd_run(args) -> int:
    sc = scenario_from_entries(_read_config(args.config))
    code, _ = run_scenario(sc, Path(args.out_dir), quiet=args.quiet)
    return code


def _cmd_criteria(args) -> int:
    sc, _, report, doc = _assess(scenario_from_entries(_read_config(args.config)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", doc)
    if not args.quiet:
        print(f"{sc.name}: E0={report.e0:.6g} a0={report.a0:.6g} m0={report.m0:.6g}")
        for name, v in report.verdicts.items():
            print(f"  {name}: hypothesis_met={v.hypothesis_met} -> {v.predicted}")
        if report.riccati_t is not None:
            print(f"  blow-up time bound: {report.riccati_t:.6g}")
    return EXIT_OK


def _parse_sweep_param(spec: str) -> tuple[str, np.ndarray]:
    key, sep, rng = spec.partition("=")
    key = key.strip()
    parts = rng.split(":")
    if not sep or not key or len(parts) != 3:
        raise ConfigError(
            f"--param must look like key=lo:hi:count, got {spec!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"bad sweep range {rng!r}") from None
    # hi - lo is finite only when both ends are, and then so is every value
    if not math.isfinite(hi - lo):
        raise ConfigError(f"--param range must be finite, got {rng!r}")
    if not 1 <= count <= MAX_SWEEP_COUNT:
        raise ConfigError(
            f"--param sweep count must lie in 1 .. {MAX_SWEEP_COUNT}, got {count}"
        )
    return key, np.linspace(lo, hi, count)


def _sweep_chunks(sizes: list[tuple[int, int]]) -> list[slice]:
    """Split members, given as (grid size, seed count) pairs, into runs of
    consecutive members whose grid sizes sum to at most MAX_GRID_SIZE and
    whose seed counts sum to at most MAX_CHARACTERISTICS, so that no
    chunk's stacked arrays outgrow the largest single run the config
    limits allow."""
    chunks = []
    start = total_n = total_count = 0
    for i, (n, count) in enumerate(sizes):
        if total_n + n > MAX_GRID_SIZE or total_count + count > MAX_CHARACTERISTICS:
            chunks.append(slice(start, i))
            start, total_n, total_count = i, 0, 0
        total_n += n
        total_count += count
    chunks.append(slice(start, len(sizes)))
    return chunks


def _cmd_sweep(args) -> int:
    key, values = _parse_sweep_param(args.param)
    entries = _read_config(args.config)
    base_name = entries.get("scenario.name", entries.get("scenario.family", "sweep"))
    out_root = Path(args.out_dir)
    # every member is resolved and assessed before any of them runs; the
    # initial states are kept while they fit one grid of MAX_GRID_SIZE
    # points, and any later ones are built again when their chunk runs
    members = []
    held = 0
    for i, value in enumerate(values.tolist()):
        sub = dict(entries)
        sub[key] = repr(value)
        sub["scenario.name"] = f"{base_name}__{i:03d}"
        sc, s0, report, doc = _assess(scenario_from_entries(sub))
        held += sc.sim.n
        members.append((sc, s0 if held <= MAX_GRID_SIZE else None, report, doc))
    sizes = [(sc.sim.n, sc.characteristic_count if sc.characteristics else 0)
             for sc, *_ in members]
    summary = []
    worst = EXIT_OK
    for chunk in _sweep_chunks(sizes):
        batch = members[chunk]
        states = [sc.build_state() if s0 is None else s0 for sc, s0, *_ in batch]
        results = run(
            states,
            [sc.model for sc, *_ in batch],
            [sc.sim for sc, *_ in batch],
            seeds=[_seeds(sc) for sc, *_ in batch],
        )
        for (sc, _, report, doc), s0, result, value in zip(
            batch, states, results, values[chunk].tolist()
        ):
            code, doc = _finish(sc, s0, report, doc, result, out_root / sc.name, args.quiet)
            worst = max(worst, code)
            summary.append(
                {
                    "name": sc.name,
                    key: value,
                    "termination": doc["run"]["termination"]["cause"],
                    "t_sim": doc["run"]["t_sim"],
                    "exit_code": code,
                }
            )
    out_root.mkdir(parents=True, exist_ok=True)
    _write_json(out_root / "sweep.json", {"param": key, "runs": summary})
    if not args.quiet:
        print(f"sweep over {key}: {len(values)} runs, artifacts in {out_root}")
    return worst


# ---------------------------------------------------------------------------
# selftest: the acceptance oracles at smaller draw counts

# name, measurement (given a seeded generator), pass condition on it
_SELFTESTS = (
    ("threshold-algebra", lambda rng: oracles.threshold_algebra(rng, draws=2000),
     lambda r: r[0] <= 1.0e-12 and r[1] <= 1.0e-4),
    ("sharp-kernel-ratio", lambda rng: oracles.sharp_kernel_ratio(rng, draws=200),
     lambda r: r[0] <= 1.0e-6 and r[1] <= 1.0e-9),
    ("poincare-margin", lambda rng: oracles.poincare_margin(rng, draws=200),
     lambda worst: worst >= -1.0e-9),
    ("helmholtz-oracle", lambda rng: oracles.helmholtz_oracle(rng, draws=5),
     lambda r: r[0] <= 1.0e-6 and r[1] <= 1.0e-12),
    ("constant-steady-state", lambda rng: oracles.steady_state_deviation(steps=1000),
     lambda dev: dev <= 1.0e-10),
    ("rk4-order", lambda rng: oracles.rk4_orders(),
     lambda orders: min(orders) >= 3.9),
    ("riccati-bound", lambda rng: oracles.riccati_ratio(rng, draws=10),
     lambda ratio: ratio <= 1.01),
    ("transport-trivial", lambda rng: oracles.transport_residual(
        "constant", {"c": 0.4, "r": 2.0}, n=64, count=16, record_every=5),
     lambda resid: resid <= 1.0e-10),
)


def _cmd_selftest(args) -> int:
    failures = 0
    for i, (name, measure, passes) in enumerate(_SELFTESTS):
        try:
            measured = measure(np.random.default_rng(args.seed + i))
        except Exception as exc:  # a failure to report, as a wrong value is
            failures += 1
            print(f"FAIL {name}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        if passes(measured):
            if not args.quiet:
                print(f"ok   {name}")
        else:
            failures += 1
            shown = ", ".join(f"{v:.3e}" for v in np.ravel(measured))
            print(f"FAIL {name}: measured {shown}", file=sys.stderr)
    if failures:
        print(f"{failures} selftest(s) failed", file=sys.stderr)
        return EXIT_NUMERIC
    if not args.quiet:
        print(f"all {len(_SELFTESTS)} selftests passed")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dghsim",
        description="Pseudospectral simulator for a two-component "
        "shallow-water wave system on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario")
    p_cr = sub.add_parser("criteria", help="evaluate thresholds only")
    p_sw = sub.add_parser("sweep", help="run a scenario across a parameter range")
    p_st = sub.add_parser("selftest", help="run the built-in oracle suites")
    # each flag goes only to the subcommands that read it, ahead of their own
    for p in (p_run, p_cr, p_sw, p_st):
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    for p in (p_run, p_cr, p_sw):
        p.add_argument("--out-dir", default="out", help="artifact directory")

    p_run.add_argument("config", help="flat key=value config file")
    p_run.set_defaults(handler=_cmd_run)

    p_cr.add_argument("config")
    p_cr.set_defaults(handler=_cmd_criteria)

    p_sw.add_argument("config")
    p_sw.add_argument(
        "--param", required=True, metavar="key=lo:hi:count",
        help="config key and inclusive range to sweep",
    )
    p_sw.set_defaults(handler=_cmd_sweep)

    p_st.add_argument("--seed", type=int, default=0, help="seed for random checks")
    p_st.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
