"""Which module knows what.  The sample-space kernels stay out of the
package's call graph and out of its exports: the run works on
coefficients, and only the tests and the benchmark call the one-row
sample-array forms.  Every name a module exports is bound in it.  A
run's outcome is named in criteria alone: stepping reports the stop that
ended a run, and neither it nor cli decides what that stop means.  And
the numpy that pyproject.toml requires has every numpy feature the
package calls."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dghsim"
SAMPLE_SPACE = {"interp_values", "pad_values", "project_values", "rhs_values"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_another_modules_sample_space_kernels(path):
    # an import of one of these names, or an attribute of that name read
    # off a module object, from any module but the one defining it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            reached |= {alias.name for alias in node.names} & SAMPLE_SPACE
        elif isinstance(node, ast.Attribute) and node.attr in SAMPLE_SPACE:
            reached.add(node.attr)
    assert not reached, f"{path.name} reaches {sorted(reached)}"


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_no_module_exports_a_sample_space_kernel(name):
    # they are references for the tests and the benchmark, reached as
    # module attributes, not API
    module = importlib.import_module(f"dghsim.{name}")
    assert not set(getattr(module, "__all__", ())) & SAMPLE_SPACE


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_bound_in_its_module(name):
    module = importlib.import_module(f"dghsim.{name}")
    unbound = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not unbound, f"{name}.__all__ lists unbound {unbound}"


# the causes a report writes, and the names criteria gives them
LABELS = {"ReachedEnd", "BlowupDetected", "ResolutionLost", "NonFiniteState"}
LABEL_NAMES = {"REACHED_END", "BLOWUP_DETECTED", "RESOLUTION_LOST", "NONFINITE_STATE"}


def _names_and_strings(path):
    """Every name a module binds, imports or reads, attributes included,
    and every string constant in it."""
    names, strings = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return names, strings


def test_stepping_reports_the_stop_and_names_no_outcome():
    names, strings = _names_and_strings(PACKAGE / "stepping.py")
    assert "dive_cutoff" not in names
    assert not names & LABEL_NAMES
    assert not strings & LABELS


def test_cli_leaves_the_fault_to_criteria():
    names, _ = _names_and_strings(PACKAGE / "cli.py")
    assert "_numerical_fault" not in names


def _numpy_2_calls(path):
    """The calls of a module that need numpy 2.0: np.vecdot, and out= passed
    to an np.fft function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner = node.func.value
        in_fft = isinstance(owner, ast.Attribute) and owner.attr == "fft"
        if node.func.attr == "vecdot":
            found.append(f"{path.name}:{node.lineno} vecdot")
        elif in_fft and any(k.arg == "out" for k in node.keywords):
            found.append(f"{path.name}:{node.lineno} fft.{node.func.attr}(out=)")
    return found


def test_declared_numpy_has_what_the_package_calls():
    # np.vecdot and the out= argument of the np.fft functions are new in
    # numpy 2.0; tomllib is not in Python 3.10, so the requirement is
    # read with a regex
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'"numpy\s*>=\s*(\d+)[^"]*"', text)
    assert match, "pyproject.toml declares no numpy>= floor"
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in _numpy_2_calls(path)]
    assert not calls or int(match.group(1)) >= 2, f"numpy>={match.group(1)} but {calls}"
