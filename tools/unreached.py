"""Statements of src/sqkit that no Tier-1 test executes.

    python tools/unreached.py [pytest args ...]

Runs the Tier-1 suite in this interpreter under a sys.settrace line tracer
that records only frames of src/sqkit files, then prints, per file, each
statement (ast.stmt) none of whose lines ran, as ``path:line: source``,
and the count. Docstrings and other bare string statements are not code
and are left out. A statement on the same line as another that ran (``if
x: return``) reads as run. Under the tracer the suite takes about 1.7
times as long. pytest's own output goes to stderr, so stdout is the
report alone.

A statement left unreached on purpose says why with a ``# unreached:
<reason>`` comment on its first line. The exit status is pytest's when
the suite fails; when it passes, the status is 1 if any unreached
statement lacks that comment, else 0.
"""

import ast
import contextlib
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sqkit"
MARK = re.compile(r"#\s*unreached:\s*\S")


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per src/sqkit file, the lines that ran."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # pyproject.toml's testpaths and settings
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(status), ran


def unreached(path: Path, lines: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement in path none of whose
    lines is in lines."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        if not lines.intersection(range(node.lineno, node.end_lineno + 1)):
            missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(missed)


def main(argv: list[str]) -> int:
    status, ran = run_traced(argv)
    total = unmarked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, code in unreached(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {code}")
            total += 1
            unmarked += not MARK.search(code)
    print(f"{total} statements of src/sqkit unreached by the tests, {unmarked} without a '# unreached: <reason>' "
          f"comment (pytest exit status {status})")
    return status or int(unmarked > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
