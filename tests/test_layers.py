"""Which module knows what.  The sample-space kernels stay out of the
package's call graph: the run works on coefficients, and only the tests
and the benchmark call the one-row sample-array forms.  A run's outcome is
named in criteria alone: stepping reports the stop that ended a run, and
neither it nor cli decides what that stop means."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dghsim"
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
