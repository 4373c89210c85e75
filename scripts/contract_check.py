#!/usr/bin/env python3
"""Check that another source tree gives this one's bytes on the acceptance
commands.

Each command runs twice through `python -m dghsim.cli`: once with this
checkout's src/ as PYTHONPATH and once with OTHER_SRC, each in a
directory of its own under one temporary directory, with
OPENBLAS_NUM_THREADS=1.  Both sides read this checkout's configs, so only
the program differs.  Each side's src path and this checkout's path are
replaced by placeholders in stdout and stderr; then the artifacts,
stdout, stderr and exit code of every command are compared byte for
byte.  Each difference is printed, and the exit code is 1 if there is
any, 0 otherwise.

The perfbench commands take their configs and arguments from the
workload table in perfbench/run.py, and the density-floor command reads
tests/data/density_floor.cfg, the file tests/test_cli.py reads.

    python3 scripts/contract_check.py ../parent/src                 # every command
    python3 scripts/contract_check.py ../parent/src criteria selftest
"""

import argparse
import difflib
import functools
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/data/golden"

# name -> arguments of dghsim, config paths relative to the checkout;
# run, criteria and sweep write into the directory "out"
COMMANDS = {
    "breaking_wave": ["run", "configs/breaking_wave.cfg"],
    "smooth_density": ["run", "configs/smooth_density.cfg"],
    "zero_mean": ["run", "configs/zero_mean.cfg"],
    "golden_breaking_wave": ["run", f"{GOLDEN}/breaking_wave/config.cfg"],
    "golden_smooth_density": ["run", f"{GOLDEN}/smooth_density/config.cfg"],
    "golden_sweep_small": [
        "sweep", f"{GOLDEN}/sweep_small/config.cfg", "--param", "scenario.r0=2.0:3.5:4"
    ],
    "sweep_grid_sizes": ["sweep", "configs/smooth_density.cfg", "--param", "sim.n=64:128:2"],
    "density_floor": ["run", "tests/data/density_floor.cfg"],
    "criteria": ["criteria", "configs/breaking_wave.cfg"],
    "selftest": ["selftest"],
}
# name -> perfbench workload, run as perfbench/run.py runs it
BENCH = {"bench_breaking": "breaking", "bench_smooth_chars": "smooth_chars",
         "bench_sweep_small": "sweep_small"}


@functools.cache
def _workloads() -> dict:
    return runpy.run_path(str(ROOT / "perfbench" / "run.py"))["WORKLOADS"]


def _argv(name: str, cwd: Path) -> list[str]:
    """The arguments of command `name`, with any config it needs written
    into cwd, the directory it runs in."""
    if name in BENCH:
        workload = _workloads()[BENCH[name]]
        (cwd / "workload.cfg").write_text(workload.config, encoding="ascii")
        return workload.argv(Path("workload.cfg"), Path("out"))
    command, *rest = COMMANDS[name]
    if command == "selftest":
        return [command, *rest]
    return [command, str(ROOT / rest[0]), *rest[1:], "--out-dir", "out"]


def _environment(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    found = subprocess.run(
        [sys.executable, "-c", "import dghsim; print(dghsim.__file__)"],
        env=env, capture_output=True, text=True,
    ).stdout.strip()
    if Path(src, "dghsim").resolve() not in Path(found or ".").resolve().parents:
        sys.exit(f"contract_check: dghsim is not importable from {src}")
    return env


def _run_side(src: Path, names: list[str], root: Path) -> dict[str, bytes]:
    """Every command of names run with src, each in a directory under
    root: its files by path, with its streams and exit code beside them."""
    env = _environment(src)
    files = {}
    for name in names:
        cwd = root / name
        cwd.mkdir(parents=True)
        argv = _argv(name, cwd)
        proc = subprocess.run(
            [sys.executable, "-m", "dghsim.cli", *argv], cwd=cwd, env=env, capture_output=True
        )
        files.update(
            (path.relative_to(root).as_posix(), path.read_bytes())
            for path in sorted(cwd.rglob("*")) if path.is_file()
        )
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            for path, mark in ((src.resolve(), b"<src>"), (src, b"<src>"), (ROOT, b"<root>")):
                text = text.replace(os.fsencode(path), mark)
            files[f"{name} [{stream}]"] = text
        files[f"{name} [exit code]"] = b"%d\n" % proc.returncode
    return files


def _show(key: str, ours: bytes, theirs: bytes) -> None:
    print(f"differs: {key}")
    lines = difflib.unified_diff(
        theirs.decode(errors="replace").splitlines(),
        ours.decode(errors="replace").splitlines(),
        "other", "this", lineterm="", n=1,
    )
    for line in list(lines)[:20]:
        print(f"  {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path, help="the src/ directory of the other tree")
    every = [*COMMANDS, *BENCH]
    ap.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"commands to run (default: all): {', '.join(every)}",
    )
    args = ap.parse_args(argv)
    unknown = set(args.names) - set(every)
    if unknown:
        ap.error(f"unknown command names: {', '.join(sorted(unknown))}")
    names = args.names or every
    with tempfile.TemporaryDirectory() as tmp:
        ours = _run_side(ROOT / "src", names, Path(tmp, "this"))
        theirs = _run_side(args.other_src, names, Path(tmp, "other"))
    differences = 0
    for key in sorted(ours.keys() | theirs.keys()):
        if key not in theirs or key not in ours:
            print(f"only in {'this' if key in ours else 'the other'} tree: {key}")
        elif ours[key] != theirs[key]:
            _show(key, ours[key], theirs[key])
        else:
            continue
        differences += 1
    print(f"{len(names)} commands, {len(ours)} files and streams: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
