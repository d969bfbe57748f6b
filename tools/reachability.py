"""Count the lines of src/compstats that sit in functions no CLI call enters.

Runs a fixed list of ``compstats`` CLI calls in this process under
``sys.setprofile``, records every code object entered, then walks the
library's source with ``ast`` and prints each outermost ``def`` (a function
or method not nested in another function) that was never entered, with its
line count, and the total.

    python3 tools/reachability.py

It imports the package from the ``src`` directory next to it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "compstats"
FIXTURES = ROOT / "tests" / "data" / "oeis"
SEQUENCES = ("A189052", "A189073", "A189074", "A238343", "A238344")

TABLE_FORMATS = (["--format", "grid"], ["--format", "csv"], ["--format", "csv", "--dense"],
                 ["--format", "json"], ["--format", "json", "--k", "3"])
CALLS = (
    [["table", kind, "--max-n", "12", *fmt] for kind in ("ic", "dc") for fmt in TABLE_FORMATS]
    + [["hk", "3"], ["hk", "3", "--format", "json"], ["verify", "--suite", "all"],
       ["bij", "4,2,1,2,1,5,3"]]
    + [["oeis-check", "--seq", seq, "--bfile", str(FIXTURES / f"b{seq[1:]}.txt")]
       for seq in SEQUENCES]
)


def entered_code() -> set[tuple[str, int]]:
    """(resolved file, first line) of every code object entered by the CLI calls."""
    sys.path.insert(0, str(ROOT / "src"))
    from compstats import cli

    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    for argv in CALLS:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        finally:
            sys.setprofile(None)
        if status:
            raise SystemExit(f"compstats {' '.join(argv)} exited with {status}")
    return {(os.path.realpath(filename), line) for filename, line in entered}


def outermost_defs(tree: ast.AST):
    """Every def not nested inside another def; methods count, their inner helpers do not."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from outermost_defs(node)


def main() -> int:
    entered = entered_code()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        filename = os.path.realpath(path)
        for node in outermost_defs(ast.parse(path.read_text(), filename)):
            # a decorated function's code object starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (filename, first) in entered or (filename, node.lineno) in entered:
                continue
            lines = node.end_lineno - node.lineno + 1
            total += lines
            print(f"{path.relative_to(ROOT)}:{node.lineno} {node.name} {lines}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
