#!/usr/bin/env python3
"""Count the code lines, public names and defaulted parameters of each
module of src/dghsim, and their totals.

A code line is one on which a token other than a string, a comment, a
newline or an indentation starts, as Python's tokenize module splits the
file: docstrings, comments and blank lines do not count, and a statement
spread over several lines counts each line that starts a token of it.
An f-string counts as one string on every Python version, although from
3.12 on tokenize splits it into tokens of its own.  The public names are
the entries of the module's __all__, and the defaulted parameters those
of its functions, methods and lambdas, nested ones included, that have a
default value.

    python3 scripts/code_lines.py                       # this checkout
    python3 scripts/code_lines.py other/src/dghsim      # another one
"""

import argparse
import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dghsim"

NOT_CODE = {
    tokenize.STRING,
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
# None before Python 3.12, where an f-string is one STRING token
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file at path."""
    lines = set()
    depth = 0  # of f-strings open at the token
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == FSTRING_START:
                depth += 1
            elif tok.type == FSTRING_END:
                depth -= 1
            elif depth == 0 and tok.type not in NOT_CODE:
                lines.add(tok.start[0])
    return len(lines)


def public_and_defaulted(path: Path) -> tuple[int, int]:
    """The number of __all__ entries of the Python file at path, and the
    number of parameters of its functions that have a default."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = 0
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            public = len(node.value.elts)
    defaulted = sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )
    return public, defaulted


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args(argv)
    counts = {
        path.name: (code_lines(path), *public_and_defaulted(path))
        for path in sorted(args.directory.glob("*.py"))
    }
    totals = tuple(sum(c[i] for c in counts.values()) for i in range(3))
    width = max(map(len, counts), default=5)
    print(f"{'':<{width}}  {'code':>5}  {'public':>6}  {'defaulted':>9}")
    for name, (lines, public, defaulted) in [*counts.items(), ("total", totals)]:
        print(f"{name:<{width}}  {lines:5d}  {public:6d}  {defaulted:9d}")


if __name__ == "__main__":
    main()
