#!/usr/bin/env python3
"""Count the code lines of each module of src/dghsim and their total.

A code line is one on which a token other than a string, a comment, a
newline or an indentation starts, as Python's tokenize module splits the
file: docstrings, comments and blank lines do not count, and a statement
spread over several lines counts each line that starts a token of it.
An f-string counts as one string on every Python version, although from
3.12 on tokenize splits it into tokens of its own.

    python3 scripts/code_lines.py                       # this checkout
    python3 scripts/code_lines.py other/src/dghsim      # another one
"""

import argparse
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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args(argv)
    counts = {path.name: code_lines(path) for path in sorted(args.directory.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, lines in counts.items():
        print(f"{name:<{width}}  {lines:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
