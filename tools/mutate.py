"""Mutation check of the tier-1 suite against the engine modules.

    python3 tools/mutate.py src/cuntzcalc/endo.py src/cuntzcalc/decide.py
    python3 tools/mutate.py --sample 20 --seed 3 src/cuntzcalc/algebra.py

Each mutant flips one operator in one module: a comparison (== and !=,
< and <=, > and >=, in and not in, is and is not), one and/or
connective, or a binary + or -.  The mutated expression is spliced into
the source in parentheses, so comments and line numbers stay as they
are.  The tree (src/, tests/, bench/ and tools/, which some tests read,
and pyproject.toml) is copied once to a temporary directory, and the
suite is run there once under tools/linemap.py's line map, which names
the tests that reach each line.  Every mutant is checked with -x and no
bytecode cache, one pytest run at a time: first the tests that reach
the mutated line, if any do, those of tests/test_<module>.py leading,
and then, if they pass, the whole suite, so the map saves time and
changes no outcome.  With no run beside it, the timed bounds of
tests/test_acceptance.py cannot kill a mutant.

A mutant survives when the suite still passes.  Survivors listed in
EQUIVALENT, each with the reason it cannot change behaviour, are
reported as equivalent; any other survivor makes the exit status 1.
A mutant whose run outlasts the time limit (five times the unmutated
run, at least 60 s) is reported as TIMEOUT and counted as killed: the
suite does not pass on it, since a test that hangs fails any run with
a time limit.  The summary line gives the kills with the timeouts
among them.
--seed picks which mutants --sample keeps.  This file lies outside the
suite's test paths, so pytest does not collect it.
"""

import argparse
import ast
import copy
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the suite's tests, as the map and the mutant runs see it
SUITE = ["--ignore", "tests/test_mutate_table.py", "tests"]

SWAP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
        ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
        ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
          ast.IsNot: "is not", ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-"}

# (module, stripped source line, mutation) -> why no test can tell the mutant apart
EQUIVALENT = {
    ("algebra.py", "for tail, c in _cylinders(n, tails) if len(tails) > 1 else tails.items():",
     "> -> >="):
        "_cylinders of a single tail returns that tail, as the shortcut does",
    ("algebra.py", "if type(q) is not int and d % q.denominator:", "and -> or"):
        "lcm(d, m) = d when m divides d, and an int's denominator is 1: the test only"
        " skips work",
    ("decide.py", "pair = (b2, c2) if b2 <= c2 else (c2, b2)", "<= -> <"):
        "b2 == c2 gives the same unordered pair either way",
    ("exprio.py", "if num < 0:", "< -> <="):
        "a canonical coefficient is never 0, so neither is its numerator",
    ("intertwine.py", "w = v * u if order == \"left\" else u * shift(v)", "== -> !="):
        "for a self-intertwiner v, v u = u shift(v), so both orders give one element;"
        " perturb --order keeps both spellings for CLI compatibility",
    ("intertwine.py",
     "if not membership(e11, \"D\") or any(c != {0: 1} for c in e11.terms.values()):",
     "or -> and"):
        "e11 is a projection: with coefficients all 1 it is a symmetric 0/1 idempotent"
        " matrix, hence diagonal, and a diagonal projection has coefficients 1, so the"
        " two tests agree",
}


def _inside_fstrings(tree):
    return {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            for sub in ast.walk(node)}


def sites(tree):
    """(node index in ast.walk order, operator position, line, label) of every
    mutable operator; the line is that of the operator's right operand.
    A label repeated on one line gets the suffix #2, #3, ..."""
    skip = _inside_fstrings(tree)
    seen = {}
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            ops = list(zip(node.ops, node.comparators))
        elif isinstance(node, ast.BoolOp):
            ops = [(node.op, right) for right in node.values[1:]]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            ops = [(node.op, node.right)]
        else:
            continue
        for i, (op, right) in enumerate(ops):
            label = f"{SYMBOL[type(op)]} -> {SYMBOL[SWAP[type(op)]]}"
            if len(ops) > 1:
                label += f" [{i + 1}]"
            count = seen[right.lineno, label] = seen.get((right.lineno, label), 0) + 1
            yield index, i, right.lineno, label + (f" #{count}" if count > 1 else "")


def _flipped(node, i):
    """node with its i-th operator flipped.  A flipped connective binds as
    it would in the source text: in `a or b or c`, flipping the first
    gives `(a and b) or c`."""
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAP[type(node.ops[i])]()
        return node
    if isinstance(node, ast.BinOp):
        node.op = SWAP[type(node.op)]()
        return node
    values = node.values
    if isinstance(node.op, ast.Or):
        pair = ast.BoolOp(ast.And(), values[i:i + 2])
        return ast.BoolOp(ast.Or(), values[:i] + [pair] + values[i + 2:])
    left = values[:i + 1]
    right = values[i + 1:]

    def conj(vs):
        return vs[0] if len(vs) == 1 else ast.BoolOp(ast.And(), vs)
    return ast.BoolOp(ast.Or(), [conj(left), conj(right)])


def mutant(source, tree, index, i):
    """The source with one operator flipped, the changed expression in
    parentheses and padded to its original line count."""
    node = next(n for k, n in enumerate(ast.walk(copy.deepcopy(tree))) if k == index)
    lines = source.encode().splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[:node.end_lineno - 1])) + node.end_col_offset
    text = ast.unparse(_flipped(node, i))
    text = "(" + text + "\n" * (node.end_lineno - node.lineno) + ")"
    data = source.encode()
    return (data[:start] + text.encode() + data[end:]).decode()


def _pytest(root, args, timeout):
    """Exit status of one pytest run in root, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def line_tests(root):
    """{(module file name, line): node ids of the tests that reach it} for
    the suite in root, from one run of tools/linemap.py's map there."""
    out = root / "linemap.json"
    script = ("import json, pathlib, sys, linemap\n"
              "found, _ = linemap.line_map(['-q', '-p', 'no:cacheprovider', *sys.argv[2:]])\n"
              "pathlib.Path(sys.argv[1]).write_text(json.dumps([[name, line, sorted(tests - {None})]"
              " for (name, line), tests in found.items()]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tools")]),
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", script, str(out), *SUITE], cwd=root, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return {(name, line): tests for name, line, tests in json.loads(out.read_text())}


def run_suite(root, timeout, first=()):
    """Exit status of the tier-1 suite in root, or None on timeout.

    The tests `first` run on their own before the suite, and the suite
    runs only if they pass, so a mutant that breaks or only slows down
    the code they reach fails them before the whole suite outlasts the
    limit.  pytest keeps a directory's order even for a test also named
    alone, hence two runs; the time limit covers both.  The suite runs
    without the test of EQUIVALENT itself: that test reads the module's
    source, which a mutant changes, so it would fail on every mutant
    whatever the engine does."""
    deadline = time.monotonic() + timeout
    runs = [list(first)] if first else []
    runs.append(SUITE)
    for args in runs:
        status = _pytest(root, args, max(deadline - time.monotonic(), 0))
        if status != 0:
            return status
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="modules under src/cuntzcalc")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=0, help="check only this many mutants")
    args = parser.parse_args(argv)

    todo = []
    args.files = [path.resolve() for path in args.files]
    for path in args.files:
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        for index, i, line, label in sites(tree):
            todo.append((path, source, tree, index, i, line, lines[line - 1].strip(), label))
    if args.sample:
        todo = random.Random(args.seed).sample(todo, min(args.sample, len(todo)))
    todo.sort(key=lambda m: (args.files.index(m[0]), m[5]))

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for part in ("src", "tests", "bench", "tools"):
            shutil.copytree(ROOT / part, root / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        start = time.monotonic()
        if run_suite(root, 600) != 0:
            sys.exit("the unmutated suite does not pass")
        timeout = max(60.0, 5 * (time.monotonic() - start))
        reach = line_tests(root)
        counts = {"KILLED": 0, "TIMEOUT": 0, "EQUIVALENT": 0, "SURVIVED": 0}
        for path, source, tree, index, i, line, text, label in todo:
            target = root / path.relative_to(ROOT)
            first = sorted(reach.get((path.name, line), ()),
                           key=lambda test: not test.startswith(f"tests/test_{path.stem}.py"))
            target.write_text(mutant(source, tree, index, i))
            status = run_suite(root, timeout, first)
            target.write_text(source)
            name = path.name
            if status is None:
                outcome = "TIMEOUT"
            elif status != 0:
                outcome = "KILLED"
            elif (name, text, label) in EQUIVALENT:
                outcome = "EQUIVALENT"
            else:
                outcome = "SURVIVED"
            counts[outcome] += 1
            print(f"{outcome:10} {name}:{line}  {label:16}  {text}", flush=True)
    print(f"killed={counts['KILLED'] + counts['TIMEOUT']} (timeouts {counts['TIMEOUT']})",
          f"equivalent={counts['EQUIVALENT']} survived={counts['SURVIVED']} of {len(todo)}")
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
