"""Benchmark of dghsim: time to a verdict, per-step cost and per-layer spans.

    python3 perfbench/run.py --workload breaking --seed 1 --seconds 25 --trace 0

Runs one workload (breaking, smooth_chars or sweep_small) through
`dghsim.cli.main`, one operation at a time, until --seconds have passed;
every operation is a whole `dghsim run` or `dghsim sweep`, from config
text to artifacts on disk.  With --trace 0 each round runs in a worker
process of its own; with --trace 1, in this process.  Each result is
checked against quantities computed apart from the program (checks.py).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (run_s, setup_s,
step_us, peak_rss_mb); their times are CPU seconds of the worker, scaled
by how slow the shared host made the machine while each was measured
(speed.py).  Raw wall and CPU seconds and the scale of each operation are
printed on the line before the result.  With --trace 1, each round runs
one untraced and one traced operation and the metrics are per layer
(tracing.py), plus kernel timings (kernels.py) and the tracing overhead.
See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# numpy links a threaded OpenBLAS, which interp_values reaches through `@`;
# pin it to one thread before numpy is imported so runs compare.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import kernels  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

MODEL_A, MODEL_GAMMA = 1.0, 0.0
EPS_LIST = (0.1, 1.0, 10.0)
SETUP_PROBES = 8  # extra set-ups per round on the one-run workloads
WORKER_DEADLINE_S = 170.0  # a worker still running this long after the start is killed

# configs/breaking_wave.cfg at sim.n = 1024
BREAKING_CFG = """\
scenario.family = blowup31
scenario.name   = breaking_wave
scenario.a      = auto
scenario.b      = 1.0
scenario.margin = 1.05
model.A     = 1.0
model.gamma = 0.0
sim.n              = 1024
sim.t_end          = 5.0
sim.snapshot_times = 0.0, 0.1, 0.19
"""
BREAKING_B, BREAKING_MARGIN = 1.0, 1.05

RU = 1.0  # velocity amplitude of every global41 workload

# configs/smooth_density.cfg as shipped
SMOOTH_R0, SMOOTH_T_END, SMOOTH_CHARS = 2.0, 10.0, 64
SMOOTH_CFG = f"""\
scenario.family = global41
scenario.name   = smooth_density
scenario.r0     = {SMOOTH_R0!r}
scenario.ru     = {RU!r}
model.A     = 1.0
model.gamma = 0.0
sim.n              = 256
sim.t_end          = {SMOOTH_T_END!r}
sim.record_every   = 10
sim.snapshot_times = 0.0, 5.0, 10.0
characteristics.enabled = true
characteristics.count   = {SMOOTH_CHARS}
"""

SWEEP_T_END, SWEEP_COUNT, SWEEP_CHARS = 3.0, 4, 16
SWEEP_R0 = (2.0, 3.5)
SWEEP_CFG = f"""\
scenario.family = global41
scenario.name   = sweep_small
scenario.r0     = 2.0
scenario.ru     = {RU!r}
model.A     = 1.0
model.gamma = 0.0
sim.n              = 128
sim.t_end          = {SWEEP_T_END!r}
sim.record_every   = 1
sim.snapshot_times = 0.0, {SWEEP_T_END / 2!r}, {SWEEP_T_END!r}
characteristics.enabled = true
characteristics.count   = {SWEEP_CHARS}
"""


class SetupDone(Exception):
    """Raised at the first RK4 step to end a set-up probe."""


@dataclass
class Op:
    wall: float = 0.0
    cpu: float = 0.0
    scale: float = 1.0  # speed.Speed.factor over the operation
    steal: float = 0.0
    setup: float = 0.0
    in_run: float = 0.0
    steps: int = 0
    traced: bool = False
    failed: bool = False
    problems: list = field(default_factory=list)
    honest: list | None = None  # problems of the honest-termination check

    def summary(self) -> dict:
        doc = {"wall_s": self.wall, "cpu_s": self.cpu, "scale": self.scale,
               "steal_s": self.steal,
               "setup_s": self.setup, "in_run_s": self.in_run,
               "steps": self.steps, "traced": self.traced, "failed": self.failed}
        if self.honest is not None:
            doc["honest_stop"] = not self.honest
        return doc


class Probe:
    """Marks inside one operation, from light wrappers on cli.run/run_scenario.

    Set-up is the CPU time from the start of the operation, or from the end
    of the previous sweep member, to the entry of stepping.run.
    """

    def __init__(self, cli, clock) -> None:
        self.abort = False
        self.op = Op()
        self.mark = 0.0
        run, run_scenario = cli.run, cli.run_scenario

        def probed_run(*args, **kwargs):
            t0 = clock()
            self.op.setup += t0 - self.mark
            if self.abort:
                raise SetupDone
            try:
                return run(*args, **kwargs)
            finally:
                self.op.in_run += clock() - t0

        def probed_run_scenario(*args, **kwargs):
            try:
                return run_scenario(*args, **kwargs)
            finally:
                self.mark = clock()

        cli.run, cli.run_scenario = probed_run, probed_run_scenario
        self.clock = clock

    def start(self) -> Op:
        self.op = Op()
        self.mark = self.clock()
        return self.op


@dataclass
class Workload:
    name: str
    n: int
    config: str
    kind: str  # "run" or "sweep"

    def argv(self, cfg: Path, out: Path) -> list[str]:
        if self.kind == "sweep":
            lo, hi = SWEEP_R0
            spec = f"scenario.r0={lo!r}:{hi!r}:{SWEEP_COUNT}"
            return ["sweep", str(cfg), "--param", spec, "--out-dir", str(out), "--quiet"]
        return ["run", str(cfg), "--out-dir", str(out), "--quiet"]

    def check(self, out: Path, op: Op) -> None:
        """Fill op.problems, op.steps and (breaking) op.honest from the artifacts."""
        if self.name == "breaking":
            run = checks.load_run(out)
            op.steps = run["report"]["run"]["steps"]
            op.problems = checks.check_breaking(
                run, BREAKING_B, BREAKING_MARGIN, MODEL_A, MODEL_GAMMA, EPS_LIST
            )
            op.honest = checks.check_honest_stop(
                run, BREAKING_B, MODEL_A, MODEL_GAMMA, EPS_LIST
            )
        elif self.name == "smooth_chars":
            run = checks.load_run(out)
            op.steps = run["report"]["run"]["steps"]
            op.problems = checks.check_global(
                run, SMOOTH_R0, RU, SMOOTH_T_END, SMOOTH_CHARS, MODEL_A, MODEL_GAMMA
            )
        else:
            grid = checks.sweep_grid(*SWEEP_R0, SWEEP_COUNT)
            doc = json.loads((out / "sweep.json").read_text())
            op.problems = checks.check_sweep(doc, "scenario.r0", grid, SWEEP_T_END)
            for i, r0 in enumerate(grid):
                run = checks.load_run(out / f"sweep_small__{i:03d}")
                op.steps += run["report"]["run"]["steps"]
                op.problems += [
                    f"member {i}: {p}"
                    for p in checks.check_global(
                        run, r0, RU, SWEEP_T_END, SWEEP_CHARS, MODEL_A, MODEL_GAMMA
                    )
                ]


WORKLOADS = {
    "breaking": Workload("breaking", 1024, BREAKING_CFG, "run"),
    "smooth_chars": Workload("smooth_chars", 256, SMOOTH_CFG, "run"),
    "sweep_small": Workload("sweep_small", 128, SWEEP_CFG, "sweep"),
}


def import_program():
    """dghsim's modules, imported from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    names = ("cli", "stepping", "model", "grid", "characteristics", "scenarios")
    try:
        mods = {n: importlib.import_module(f"dghsim.{n}") for n in names}
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dghsim from {src}: {exc}")
    if src not in Path(mods["cli"].__file__).resolve().parents:
        sys.exit(f"perfbench: dghsim was imported from {mods['cli'].__file__}, not {src}")
    return types.SimpleNamespace(fft=np.fft, **mods)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def steal_s() -> float:
    """Seconds the host took from this machine's CPUs, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(wl: Workload, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "blas_threads": blas_threads(),
        "blas_pinned_by": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "workload": wl.name,
        "grid_n": wl.n,
        "grid_fine": 2 * wl.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    def __init__(self, dg, wl: Workload, work: Path) -> None:
        self.dg, self.wl, self.work = dg, wl, work
        self.cfg = work / "workload.cfg"
        self.out = work / "out"
        self.speed = speed.Speed()
        self.probe = Probe(dg.cli, self.speed.clock)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: list[Op] = []
        self.summaries: list[dict] = []  # of operations run by workers

    def operation(self, spans: tracing.Spans | None = None) -> Op:
        shutil.rmtree(self.out, ignore_errors=True)
        if spans is not None:
            tracing.install_layers(spans, self.dg)
        op = self.probe.start()
        op.traced = spans is not None
        self.ops.append(op)
        at = self.speed.mark()
        c0, s0 = self.speed.clock(), steal_s()
        t0 = perf_counter()
        try:
            code = self.dg.cli.main(self.wl.argv(self.cfg, self.out))
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            code = None
        finally:
            op.wall = perf_counter() - t0
            op.cpu = self.speed.clock() - c0
            op.steal = steal_s() - s0
            if spans is not None:
                spans.restore()
            self.speed.sample()
            op.scale = self.speed.factor(at)
        self.attempted += 1
        if code != 0:
            print(f"perfbench: operation exited with {code}", file=sys.stderr)
            op.failed = True
            self.failed += 1
            return op
        try:
            self.wl.check(self.out, op)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            op.problems.append(f"artifacts unreadable: {exc!r}")
        if op.in_run <= 0.0 or op.steps < 1:
            op.problems.append("no RK4 steps were seen through dghsim.cli.run")
        self.problems += op.problems
        if op.honest is not None:
            # the honest-termination check counts as an operation of its own
            self.attempted += 1
            if op.honest:
                self.failed += 1
        return op

    def setup_probe(self) -> float:
        """Set-up time of one aborted operation, scaled like run_s."""
        at = self.speed.mark()
        op = self.probe.start()
        self.probe.abort = True
        try:
            self.dg.cli.main(self.wl.argv(self.cfg, self.out))
        except SetupDone:
            self.speed.sample()
            return op.setup * self.speed.factor(at)
        finally:
            self.probe.abort = False
        raise RuntimeError("set-up probe never reached stepping.run")


def one_round(bench: Bench) -> dict:
    """One round of the end-to-end loop: set-up probes, an operation, its checks."""
    setups: list[float] = []
    with bench.speed:
        if bench.wl.kind == "run":
            setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
        op = bench.operation()
    if not op.failed and op.steps:
        setups.append(op.setup * op.scale)
    return {
        "op": op.summary(),
        "setups": setups,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_worker(args, deadline: float) -> dict:
    """one_round() in a fresh process: `run.py ... --worker`, waited for."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--worker",
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, check=False,
        timeout=max(1.0, deadline - perf_counter()),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(bench: Bench, args) -> dict:
    """Rounds until args.seconds have passed, each in a worker process of its own.

    The same operation, scaled for the host's speed, takes a few per cent
    more or less from one process to the next (in one set of runs, up to 10%
    between processes and under 4% within one), so a run's medians are taken
    over several processes.
    """
    start = perf_counter()
    deadline = start + WORKER_DEADLINE_S
    rounds = []
    while True:
        rounds.append(run_worker(args, deadline))
        if perf_counter() - start >= args.seconds:
            break
    for r in rounds:
        bench.attempted += r["attempted"]
        bench.failed += r["failed"]
        bench.problems += r["problems"]
        bench.summaries.append(r["op"])
    done = [r["op"] for r in rounds if not r["op"]["failed"] and r["op"]["steps"]]
    if not done:
        sys.exit("perfbench: every operation failed; nothing to measure")
    return {
        "run_s": (statistics.median(op["cpu_s"] * op["scale"] for op in done), "s"),
        "setup_s": (statistics.median(x for r in rounds for x in r["setups"]), "s"),
        "step_us": (
            statistics.median(
                op["in_run_s"] / op["steps"] * op["scale"] * 1e6 for op in done
            ),
            "us",
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def layer_metrics(spans: tracing.Spans, op: Op) -> dict:
    t, c = spans.total, spans.calls
    return {
        "stepping.steps": (op.steps, "count"),
        "stepping.self_s": (spans.self_time("stepping.run"), "s"),
        "stepping.adaptive_dt_s": (t["stepping.adaptive_dt"], "s"),
        "model.rhs_values_s": (t["model.rhs_values"], "s"),
        "model.rhs_values_calls": (c["model.rhs_values"], "count"),
        "fft.calls_per_step": (spans.counts["fft.in_run"] / op.steps, "count"),
        "grid.interp_values_s": (t["grid.interp_values"], "s"),
        "grid.interp_values_calls": (c["grid.interp_values"], "count"),
        "grid.deriv_values_s": (t["grid.deriv_values"], "s"),
        "grid.deriv_values_calls": (c["grid.deriv_values"], "count"),
        "model.invariants_s": (t["model.invariants"], "s"),
        "model.invariants_calls": (c["model.invariants"], "count"),
        "criteria.refined_min_s": (t["criteria.refined_min"], "s"),
        "criteria.evaluate_s": (t["criteria.evaluate"], "s"),
        "criteria.rate_fit_s": (t["criteria.rate_fit"], "s"),
        "criteria.lyapunov_s": (t["criteria.lyapunov"], "s"),
        "scenarios.parse_s": (t["scenarios.parse"], "s"),
        "scenarios.resolve_s": (t["scenarios.resolve"], "s"),
        "characteristics.check_s": (t["characteristics.check"], "s"),
        "cli.write_s": (t["cli.write"], "s"),
        "cli.bytes_written": (spans.counts["cli.bytes_written"], "B"),
    }


def per_layer(bench: Bench, seconds: float, seed: int) -> dict:
    plain: list[Op] = []
    traced: list[dict] = []
    traced_cpu: list[float] = []
    start = perf_counter()
    while True:
        plain.append(bench.operation())
        spans = tracing.Spans()
        op = bench.operation(spans)
        if spans.missing:
            print(f"perfbench: not traced, names missing: {spans.missing}", file=sys.stderr)
        if not op.failed and op.steps:
            traced.append(layer_metrics(spans, op))
            traced_cpu.append(op.cpu)
        if perf_counter() - start >= seconds:
            break
    plain_cpu = [op.cpu for op in plain if not op.failed]
    if not traced or not plain_cpu:
        sys.exit("perfbench: every operation failed; nothing to measure")
    metrics = {
        name: (statistics.median(m[name][0] for m in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(traced_cpu) - statistics.median(plain_cpu),
        "s",
    )
    times, problems = kernels.time_kernels(bench.dg, bench.wl.n, MODEL_A, MODEL_GAMMA, seed)
    bench.problems += problems
    metrics.update({name: (us, "us") for name, us in times.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    dg = import_program()
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(dg, wl, work)
        bench.cfg.write_text(wl.config, encoding="ascii")
        if args.worker:
            print(json.dumps(one_round(bench)))
            return 0
        print(json.dumps({"environment": environment(wl, args)}))
        if args.trace:
            metrics = per_layer(bench, args.seconds, args.seed)
        else:
            metrics = end_to_end(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for p in bench.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    summaries = bench.summaries + [op.summary() for op in bench.ops]
    print(json.dumps({"operations": summaries}))
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
