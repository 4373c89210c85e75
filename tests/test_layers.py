"""The sample-space kernels stay out of the package's call graph: the run
works on coefficients, and only the tests and the benchmark call the
one-row sample-array forms."""

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
