"""Smoke runs of each script under scripts/ at a small size, and of the
README's Library example, so that an API change cannot break one
unnoticed."""

import re
import runpy
from pathlib import Path

import pytest

from dghsim.criteria import evaluate_criteria
from dghsim.grid import PeriodicGrid
from dghsim.model import ModelParams
from dghsim.scenarios import build_initial_data, solve_blowup_amplitude

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _riccati_t(n: int) -> float:
    """The bound the CLI reports for the scripts' breaking wave on n points."""
    p = ModelParams()
    a = solve_blowup_amplitude(b=1.0, margin=1.05, model=p, n=n)
    s0 = build_initial_data("blowup31", {"a": a, "b": 1.0}, PeriodicGrid(n))
    return evaluate_criteria(s0.u, s0.rho, p).riccati_t


BOUND_256 = f"{_riccati_t(256):.4f}"

# script -> (arguments, line fragments its output must contain)
RUNS = {
    # the witness ends the n = 256 dive with 18 resolved samples past the
    # fit cutoff, and the row a rate; at n = 64 none is trusted
    "rate_resolution_study": (
        ["--resolutions", "256"], ["-1.9505", f"Riccati bound T <= {BOUND_256}"]
    ),
    # one line per module of src/dghsim, then their total
    "code_lines": ([], ["stepping.py ", "model.py ", "total "]),
}

# two modules with known counts: code lines, __all__ entries, parameters
# with a default (of functions, methods, lambdas and nested functions)
PACKAGE = {
    "a.py": '''"""A module."""

__all__ = ["f", "C"]


def f(x, y=1, *, z=2, w):
    """Doc."""
    def inner(v=None):
        return v
    return inner(x)


class C:
    def m(self, k=0):
        return lambda j=k: j
''',
    "b.py": '''# no __all__ here
__version__ = "1"


def g(a, b, c=3, *args, d=None, **kwargs):
    return a
''',
}


@pytest.mark.parametrize("name", list(RUNS))
def test_script_runs(name, capsys):
    argv, expected = RUNS[name]
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    main(argv)
    out = capsys.readouterr().out
    for fragment in expected:
        assert fragment in out


def test_contract_check_of_this_tree_against_itself(capsys):
    main = runpy.run_path(str(SCRIPTS / "contract_check.py"))["main"]
    assert main([str(ROOT / "src"), "criteria"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": 0 differences")


def test_code_lines_counts_public_names_and_defaulted_parameters(tmp_path, capsys):
    for name, text in PACKAGE.items():
        (tmp_path / name).write_text(text)
    main = runpy.run_path(str(SCRIPTS / "code_lines.py"))["main"]
    main([str(tmp_path)])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["code", "public", "defaulted"]
    rows = {name: counts for name, *counts in map(str.split, lines)}
    assert rows == {
        "a.py": ["8", "2", "5"], "b.py": ["3", "0", "2"], "total": ["11", "2", "7"]
    }


def test_readme_library_example_runs(capsys):
    # the python block under "## Library", run as it stands
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert out.split()[0] == "BlowupDetected"
