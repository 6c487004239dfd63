#!/usr/bin/env python3
"""List the statements of src/eulerint/ that no tier-1 test runs.

Usage:  python3 scripts/unrun_statements.py [--max N] [pytest args]

Runs the tier-1 suite (tests/, or the given pytest arguments) in this
interpreter under a stdlib `sys.settrace` line tracer, then prints each
statement of `src/eulerint/` that never ran as `file:line`, and the count.
A statement is one that compiles to code: a docstring is not one, and a
compound statement (`if`, `for`, `def`, ...) counts as its header alone.  It
ran when any of its lines did.

Only this interpreter is traced.  A statement that only the tests'
subprocesses reach (fresh interpreters started by test_startup.py and
test_cli.py, such as the `if __name__ == "__main__"` body of cli.py) counts
as unrun.  The exit code is pytest's when a test fails.  Otherwise it is 1
when `--max N` is given and more than N statements are unrun, else 0.
"""

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eulerint"


def _first_line(node):
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _code_lines(code):
    """Line numbers of the instructions of a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path):
    """{first line: lines} for each statement of the file that compiles to code."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    executable = _code_lines(compile(source, str(path), "exec"))
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = _first_line(node)
        body = getattr(node, "body", None)
        last = max(first, _first_line(body[0]) - 1) if body else node.end_lineno
        lines = set(range(first, last + 1)) & executable
        if lines:
            found.setdefault(first, set()).update(lines)
    return found


def main(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--max", type=int, default=None,
                        help="fail when more than this many statements are unrun")
    options, argv = parser.parse_known_args(argv)

    import pytest
    from hypothesis import settings

    # the same drawn examples on every run, so that the count repeats
    settings.register_profile("unrun", derandomize=True, database=None)
    settings.load_profile("unrun")

    ran = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)

    unrun = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, lines in sorted(statements(path).items())
             if not lines & ran[str(path)]]
    print("\n".join(unrun))
    print(f"{len(unrun)} statements of {PACKAGE.relative_to(ROOT)}/ unrun")
    if code:
        return int(code)
    if options.max is not None and len(unrun) > options.max:
        print(f"more than --max {options.max} statements unrun")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
