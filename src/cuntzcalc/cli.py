"""Command-line surface for the engine.

Exit codes: 0 affirmative or success, 1 negative verdict or property
violation, 2 undecided, 3 usage or parse error.  Output is deterministic
for identical invocations (including --seed).
"""

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations

from .algebra import left_inverse, membership
from .decide import (
    NOT_PRESERVES,
    PRESERVES,
    UNDECIDED,
    IncompleteEdgeRule,
    Psi1NotConstant,
    _fmt_label,
    _fmt_tail,
    build_overlap_graph,
    cocycle_run,
    decide_preserves,
    export_dot,
    path_condition,
)
from .endo import gauge, is_unitary, lambda_apply, sum_of_words_profile
from .exprio import ParseError, constant, render, resolve
from .intertwine import (
    PreconditionFailed,
    agree_on_F,
    coboundary_witness,
    intertwiner_space,
    is_self_intertwiner,
    perturb,
)
from .sampling import permutation_unitary

_VERDICT_CODE = {PRESERVES: 0, NOT_PRESERVES: 1, UNDECIDED: 2}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _expr(args, text):
    return resolve(text, args.n)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_normalize(args):
    print(render(_expr(args, args.expr)))
    return 0


def _cmd_mul(args):
    x = _expr(args, args.exprs[0])
    for t in args.exprs[1:]:
        x = x * _expr(args, t)
    print(render(x))
    return 0


def _cmd_adjoint(args):
    print(render(_expr(args, args.expr).adjoint()))
    return 0


def _cmd_eq(args):
    same = _expr(args, args.left) == _expr(args, args.right)
    print("EQUAL" if same else "DIFFERENT")
    return 0 if same else 1


def _cmd_unitary(args):
    ok = is_unitary(_expr(args, args.expr))
    print("UNITARY" if ok else "NOT UNITARY")
    return 0 if ok else 1


def _cmd_member(args):
    target = getattr(args, "in")
    if target in ("Fk", "phik") and args.level is None:
        print("error: --level is required for Fk/phik membership", file=sys.stderr)
        return 3
    ok = membership(_expr(args, args.expr), target, args.level)
    print(f"IN {target}" if ok else f"NOT IN {target}")
    return 0 if ok else 1


def _cmd_lambda(args):
    u = _expr(args, args.u)
    x = _expr(args, args.expr)
    print(render(lambda_apply(u, x)))
    return 0


def _report_lines(report):
    lines = [f"verdict: {report.verdict}", f"method: {report.method}"]
    if report.failing_level:
        lines.append(f"failing level: {report.failing_level}")
    if report.witness is not None:
        lines.append(f"witness: {render(report.witness)}")
    for key, value in sorted((report.certificate or {}).items()):
        lines.append(f"certificate.{key}: {json.dumps(value, sort_keys=True)}")
    return lines


def _cmd_preserves(args):
    report = decide_preserves(_expr(args, args.w), method=args.method, depth=args.depth)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        print("\n".join(_report_lines(report)))
    return _VERDICT_CODE[report.verdict]


def _cmd_cocycles(args):
    w = _expr(args, args.w)
    cocycles, report = cocycle_run(w, args.k)
    for i, z in enumerate(cocycles, 1):
        print(f"z~({i}) = {render(z)}")
    if report.verdict == NOT_PRESERVES:
        print(f"recursion leaves the shift's range at level {report.failing_level}")
        return 1
    if report.verdict == PRESERVES:
        cert = report.certificate
        print(f"state repetition: {cert['cycle_stream']} stream, "
              f"start {cert['cycle_start']}, period {cert['period']}")
    return 0


def _cmd_graph(args):
    w = _expr(args, args.w)
    try:
        graph = build_overlap_graph(sum_of_words_profile(w))
    except Psi1NotConstant as bad:
        print(f"class labels are not well defined: {bad}")
        return 1
    except IncompleteEdgeRule as bad:
        print(f"INCOMPLETE_EDGE_RULE: {bad}")
        return 2
    print(f"classes ({len(graph.vertices)}):")
    for name in graph.vertices:
        members = ", ".join("S" + _fmt_tail(b) for b in graph.classes[name])
        print(f"  {name}: label {_fmt_label(graph.label[name])}, betas [{members}]")
    print(f"edges ({len(graph.edges)}):")
    for a, b in graph.edges:
        print(f"  {a} -> {b}")
    ok, cert = path_condition(graph)
    print(f"path condition: {'HOLDS' if ok else 'FAILS'} "
          f"({json.dumps(cert, sort_keys=True)})")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(graph))
        print(f"dot written to {args.dot}")
    return 0 if ok else 1


def _cmd_intertwiner(args):
    u = _expr(args, args.u)
    if args.check is not None:
        ok = is_self_intertwiner(u, _expr(args, args.check))
        print("SELF-INTERTWINER" if ok else "NOT A SELF-INTERTWINER")
        return 0 if ok else 1
    level = 2 if args.level is None else args.level
    report = intertwiner_space(u, level)
    print(f"level: {report.level}")
    print(f"dimension: {report.dimension}")
    for i, b in enumerate(report.basis):
        core = "core" if membership(b, "F") else "NON-CORE"
        print(f"basis[{i}] ({core}): {render(b)}")
    return 0


def _cmd_perturb(args):
    u = _expr(args, args.u)
    v = _expr(args, args.v)
    print(render(perturb(u, v, args.order)))
    return 0


def _cmd_agree(args):
    ok, level = agree_on_F(_expr(args, args.v), _expr(args, args.w), args.depth)
    if ok:
        print(f"AGREE on the core through level {args.depth}")
        return 0
    print(f"DISAGREE at level {level}")
    return 1


# ---------------------------------------------------------------------------
# built-in example verification

def _claims():
    u, v, w = constant("u_cp"), constant("v_cp"), constant("w_cp")
    w0 = resolve("S1 S11* + S21 S12* + S22 S2*", 2)

    yield "u_cp is unitary", lambda: is_unitary(u)
    yield "u_cp lies in the core at level 4", lambda: membership(u, "Fk", 4)
    yield "u_cp does not lie at level 3", lambda: not membership(u, "Fk", 3)
    yield "v_cp is unitary", lambda: is_unitary(v)
    yield "v_cp has off-degree terms", lambda: not membership(v, "F")
    yield "v_cp is a self-intertwiner of u_cp", lambda: is_self_intertwiner(u, v)
    yield "w_cp equals v_cp times u_cp", lambda: w == v * u
    yield "w_cp is unitary", lambda: is_unitary(w)
    yield "w_cp has off-degree terms", lambda: not membership(w, "F")
    yield "u_cp and w_cp agree on the core to level 4", \
        lambda: agree_on_F(u, w, 4) == (True, 0)
    yield "graph method certifies preservation for w_cp", \
        lambda: decide_preserves(w, method="graph").verdict == PRESERVES
    yield "cocycle method certifies preservation for w_cp", \
        lambda: decide_preserves(w, method="cocycle").verdict == PRESERVES

    def graph_matches():
        from .exprio import W_CP_OVERLAP
        graph = build_overlap_graph(sum_of_words_profile(w))
        got = ({v_: graph.label[v_] for v_ in graph.vertices}, set(graph.edges))
        want = (dict(W_CP_OVERLAP["labels"]), set(map(tuple, W_CP_OVERLAP["edges"])))
        if got != want:
            raise AssertionError(f"overlap data mismatch: got {got}, expected {want}")
        return True
    yield "overlap graph matches the tabulated classes and edges", graph_matches

    yield "w0 is unitary", lambda: is_unitary(w0)
    yield "w0 fails preservation at level 1", \
        lambda: (lambda r: r.verdict == NOT_PRESERVES and r.failing_level == 1)(
            decide_preserves(w0))
    yield "w0 cocycle defect is (g + 1/g)/2", \
        lambda: decide_preserves(w0, method="cocycle").certificate[
            "defect_coefficient"] == "1/2 g^-1 I + 1/2 g^1 I"
    yield "w0 witness leaves the core under direct evaluation", \
        lambda: not membership(lambda_apply(w0, decide_preserves(w0).witness), "F")
    yield "v_cp normalizes the diagonal gauge cocycle", \
        lambda: membership(v.adjoint() * gauge(v), "D")

    def coboundary_holds():
        _, z = coboundary_witness(w)
        return left_inverse(w.adjoint() * gauge(w)) == z * gauge(z.adjoint())
    yield "coboundary witness identity for w_cp", coboundary_holds

    def space_contains_v():
        report = intertwiner_space(u, 3)
        return report.dimension >= 2 and report.contains(v)
    yield "intertwiner space at level 3 recovers v_cp", space_contains_v


def _cmd_verify(args):
    failures = 0
    for name, check in _claims():
        try:
            ok = check()
            detail = ""
        except Exception as exc:  # report, never suppress
            ok = False
            detail = f" ({exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {name}{detail}")
        failures += 0 if ok else 1
    print(f"{'all claims pass' if not failures else f'{failures} claim(s) failed'}")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# bounded search over permutation unitaries

def _search_one(payload):
    idx, n, k, perm, level = payload
    u = permutation_unitary(n, k, perm)
    report = intertwiner_space(u, level)
    non_core = sum(1 for b in report.basis if not membership(b, "F"))
    return idx, perm, report.dimension, non_core


def _cmd_search(args):
    n = args.n
    if args.k < 0:
        raise ValueError("--k must be >= 0")
    if args.samples is not None and args.samples < 0:
        raise ValueError("--samples must be >= 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    size = n ** args.k
    level = 2 if args.level is None else args.level
    if args.samples is None:
        # n^k words have (n^k)! permutations: 8! = 40,320 is the most listed
        if size > 8:
            raise ValueError("exhaustive search is limited to n^k <= 8 words; pass --samples")
        perms = list(permutations(range(size)))
    else:
        rng = random.Random(args.seed)
        perms = []
        for _ in range(args.samples):
            p = list(range(size))
            rng.shuffle(p)
            perms.append(tuple(p))
    payloads = [(i, n, args.k, perm, level) for i, perm in enumerate(perms)]
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_search_one, payloads, chunksize=64))
    else:
        results = [_search_one(p) for p in payloads]

    dims = {}
    flagged = []
    for idx, perm, dim, non_core in results:
        dims[dim] = dims.get(dim, 0) + 1
        if non_core:
            flagged.append((idx, perm, dim, non_core))
    print(f"candidates: {len(results)}")
    print(f"intertwiner dimension at level {level}: "
          + ", ".join(f"{d}x{c}" for d, c in sorted(dims.items())))
    print(f"candidates with non-core basis elements: {len(flagged)}")
    for idx, perm, dim, non_core in flagged[:10]:
        u = permutation_unitary(n, args.k, perm)
        print(f"  #{idx} dim {dim}, {non_core} non-core: {render(u)}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="cuntzcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, json_flag=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int, default=2, help="number of generators (default 2)")
        p.set_defaults(func=handler)
        if json_flag:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("normalize", _cmd_normalize, "canonical form of an expression")
    p.add_argument("expr")
    p = add("mul", _cmd_mul, "product of expressions")
    p.add_argument("exprs", nargs="+")
    p = add("adjoint", _cmd_adjoint, "adjoint of an expression")
    p.add_argument("expr")
    p = add("eq", _cmd_eq, "exact equality of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p = add("unitary", _cmd_unitary, "unitarity check")
    p.add_argument("expr")
    p = add("member", _cmd_member, "subalgebra membership")
    p.add_argument("expr")
    p.add_argument("--in", required=True, choices=("F", "Fk", "D", "phik"))
    p.add_argument("--level", type=int, help="k for Fk / phik")
    p = add("lambda", _cmd_lambda, "apply the endomorphism of u")
    p.add_argument("--u", required=True)
    p.add_argument("expr")
    p = add("preserves-uhf", _cmd_preserves, "decide core preservation", json_flag=True)
    p.add_argument("--w", required=True)
    p.add_argument("--method", default="auto",
                   choices=("auto", "graph", "cocycle", "direct"))
    p.add_argument("--depth", type=int, default=16)
    p = add("cocycles", _cmd_cocycles, "print the gauge-cocycle sequence")
    p.add_argument("--w", required=True)
    p.add_argument("--k", type=int, required=True)
    p = add("graph", _cmd_graph, "overlap graph, labels, and path condition")
    p.add_argument("--w", required=True)
    p.add_argument("--dot", help="write DOT to this path")
    p = add("intertwiner", _cmd_intertwiner, "self-intertwiner check or basis report")
    p.add_argument("--u", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--check", help="candidate self-intertwiner")
    group.add_argument("--level", type=int, help="bounded-level basis computation")
    p = add("perturb", _cmd_perturb, "perturb u by a self-intertwiner")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--order", default="left", choices=("left", "shift_right"))
    p = add("agree", _cmd_agree, "agreement of two endomorphisms on the core")
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--depth", type=int, required=True)
    add("verify-examples", _cmd_verify, "verify all built-in example claims")
    p = add("search", _cmd_search, "survey permutation unitaries at level k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, help="sample count (required for n^k > 8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=int, help="intertwiner space level (default 2)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at most the CPU count)")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
