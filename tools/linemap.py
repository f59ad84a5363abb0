"""Which tier-1 tests reach each executable line of the engine.

    python3 tools/linemap.py

Runs the tier-1 suite in this process under sys.settrace, and
threading.settrace for threads the tests start, with a pytest plugin
that names the test being run.  Every executable line of
src/cuntzcalc, as its compiled code objects list them (co_lines), is
mapped to the ids of the tests that reach it; lines run while no test
is running, such as the module bodies at import, count as reached.
Prints the lines that no test reaches, and exits 1 if there are any.
Code that runs only in child processes (search --jobs) is not traced.
This file lies outside the suite's test paths, so pytest does not
collect it.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cuntzcalc"


def executable_lines(path):
    """The lines of a module that carry bytecode, over all its code objects."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _CurrentTest:
    """pytest plugin: the node id of the test being run, else None."""

    nodeid = None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.nodeid = item.nodeid
        yield
        self.nodeid = None


def line_map(args):
    """(map, pytest exit status) of one pytest run with the given arguments.

    map sends (module file name, line) to the set of node ids of the
    tests that reach it, for every executable line of src/cuntzcalc; a
    line reached while no test runs holds None among them.
    """
    current = _CurrentTest()
    names = {}  # co_filename -> module file name, or None outside the engine
    seen = set()

    def local(frame, event, _):
        if event == "line":
            seen.add((names[frame.f_code.co_filename], frame.f_lineno, current.nodeid))
        return local

    def trace(frame, event, _):
        path = frame.f_code.co_filename
        if path not in names:
            resolved = Path(path).resolve()
            names[path] = resolved.name if resolved.parent == SRC else None
        return local if names[path] else None

    saved = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[current])
    finally:
        sys.settrace(saved[0])
        threading.settrace(saved[1])
    found = {(path.name, line): set() for path in sorted(SRC.glob("*.py"))
             for line in executable_lines(path)}
    for name, line, nodeid in seen:
        if (name, line) in found:
            found[name, line].add(nodeid)
    return found, status


def main():
    found, status = line_map(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = sorted(key for key, tests in found.items() if not tests)
    tests = set().union(*found.values()) - {None}
    print(f"src/cuntzcalc: {len(found) - len(missed)} of {len(found)} executable lines"
          f" reached by {len(tests)} tests (pytest exit status {int(status)})")
    for name, line in missed:
        text = (SRC / name).read_text().splitlines()[line - 1].strip()
        print(f"not reached: {name}:{line}  {text}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
