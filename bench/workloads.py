"""Seeded inputs, operations and output checks for the four workloads.

Every builder takes a `random.Random` made from the workload name and
the seed, and the engine only ever sees the Elements built here.  Each
workload is a fixed list of strata (input kind x size parameter); the
seed picks the concrete inputs inside a stratum, so two seeds give
different inputs with the same mix of kinds and costs.

Operations call the engine through attribute lookups on the package
at call time, so a tracer that rebinds the package's functions sees
them.  Checks run after timing and return a problem string or None.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

# Pythagorean rotation angles (cos, sin) for the non-word unitaries.
PYTHAGOREAN = ((Fraction(3, 5), Fraction(4, 5)),
               (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17)))
W0_TEXT = "S1 S11* + S21 S12* + S22 S2*"
# Depth of the cocycle route in the auto decision and in the words cross-check.
COCYCLE_DEPTH = 16


@dataclass
class Item:
    """One generated input and what the operation is asked about it.

    `level` is the intertwiner level or the matrix-unit level k; `probe`
    is the element tested for membership (intertwine) or the matrix
    unit fed to lambda_apply when no witness exists (deep); `expect`
    holds an answer fixed by construction, or None.
    """

    kind: str
    w: object
    level: int = 0
    probe: object = None
    expect: object = None

    def key(self, cc):
        """Canonical text of the item, for corpus comparisons."""
        probe = cc.to_json(self.probe) if self.probe is not None else None
        return json.dumps([self.kind, self.level, cc.to_json(self.w), probe, self.expect])


# ---------------------------------------------------------------------------
# input generators


def _w0(cc):
    return cc.resolve(W0_TEXT, 2)


def rotation(cc, n, a, b, cos, sin):
    """Rational rotation by (cos, sin) in the plane of the words a, b;
    identity on the other words of that length."""
    from cuntzcalc.sampling import level_words

    raw = [((a, a), cos), ((a, b), -sin), ((b, a), sin), ((b, b), cos)]
    raw += [((x, x), 1) for x in level_words(n, len(a)) if x not in (a, b)]
    return cc.Element(n, raw)


# The planes of the level-2 rotations in offgraph, one per angle.  Composed
# with w_cp they span its three kinds of answer: on the left, the plane of
# the constant words 11 and 22 is the one input the depth-16 cocycle leaves
# UNDECIDED; on the right, the other two are the planes w_cp R preserves.
LEVEL2_PLANES = (((1, 1), (2, 2)), ((1, 2), (2, 2)), ((1, 1), (2, 1)))


def diagonal_phase(cc, n, rng):
    """Unitary sum of +-g^m P_x over a seeded complete prefix code."""
    from cuntzcalc.sampling import random_prefix_code

    code = random_prefix_code(n, rng, rng.randint(1, 3), max_len=3)
    raw = [((x, x), {rng.choice((-1, 0, 1)): Fraction(rng.choice((-1, 1)))}) for x in code]
    return cc.Element(n, raw)


def wide_degree_word(n, rng):
    """Sum-of-words unitary with some |degree| >= 2 (graph route rejects it)."""
    from cuntzcalc.sampling import random_sum_of_words_unitary

    while True:
        w = random_sum_of_words_unitary(n, rng, max_splits=6 if n == 2 else 3,
                                        max_len=4 if n == 2 else 3, degree_window=None)
        if any(abs(len(a) - len(b)) >= 2 for a, b in w.terms):
            return w


def graph_refuted_word(cc, n, rng, max_level):
    """Sum-of-words unitary the graph route refutes at a level <= max_level."""
    from cuntzcalc.sampling import random_sum_of_words_unitary

    while True:
        w = random_sum_of_words_unitary(n, rng, max_splits=2, max_len=2)
        try:
            report = cc.decide_preserves(w, method="graph")
        except cc.IncompleteEdgeRule:
            continue
        if report.verdict == cc.NOT_PRESERVES and report.failing_level <= max_level:
            return w


def random_unit(cc, n, k, rng):
    """A seeded level-k matrix unit S_a S_b*."""
    a = tuple(rng.randint(1, n) for _ in range(k))
    b = tuple(rng.randint(1, n) for _ in range(k))
    return cc.Element.word(n, a, b)


def build_words(cc, rng):
    """Sum-of-words unitaries in the +-1 degree window, plus w_cp and w0.

    Refuted inputs cost about three times as much as certified ones, and
    the generator makes them about half the time, so a free mix puts the
    median latency on the gap between the two.  Each n therefore gets a
    fixed 200 certified and 300 refuted inputs, sorted by the graph verdict.
    """
    from cuntzcalc.sampling import random_sum_of_words_unitary

    items = []
    for n in (2, 3):
        quota = {cc.PRESERVES: 200, cc.NOT_PRESERVES: 300}
        while any(quota.values()):
            w = random_sum_of_words_unitary(n, rng, max_splits=10 if n == 2 else 6,
                                            max_len=6 if n == 2 else 4)
            try:
                verdict = cc.decide_preserves(w, method="graph").verdict
            except cc.IncompleteEdgeRule:
                continue
            if quota[verdict]:
                quota[verdict] -= 1
                items.append(Item(f"words.n{n}", w))
    rng.shuffle(items)
    for _ in range(10):
        items.append(Item("w_cp", cc.constant("w_cp"), expect=[cc.PRESERVES, 0]))
        items.append(Item("w0", _w0(cc), expect=[cc.NOT_PRESERVES, 1]))
    return items


def build_offgraph(cc, rng):
    """Inputs the graph route rejects: wide-degree words, rotations
    composed with a word unitary, and gauge-twisted diagonal phases."""
    from cuntzcalc.sampling import level_words, random_permutation_unitary, \
        random_sum_of_words_unitary

    items = []
    for i in range(60):
        n = 2 + i % 2
        items.append(Item(f"wide.n{n}", wide_degree_word(n, rng)))
    bases = {
        "perm": lambda length: random_permutation_unitary(2, length, rng),
        "w_cp": lambda length: cc.constant("w_cp"),
        "w0": lambda length: _w0(cc),
    }
    for base_name, make_base in bases.items():
        for mode in ("left", "right", "shift"):
            # Each level-2 plane once per (base, mode), so every seed has the
            # same mix of verdicts and costs; the seed picks which angle
            # turns which plane, and in which direction.
            planes = rng.sample(LEVEL2_PLANES, len(LEVEL2_PLANES))
            for plane, (cos, sin) in zip(planes, PYTHAGOREAN):
                # through the shift, only level-1 rotations: every factor
                # stays at level <= 2
                for length in (1,) if mode == "shift" else (1, 2):
                    a, b = rng.sample(level_words(2, 1) if length == 1 else plane, 2)
                    r = rotation(cc, 2, a, b, cos, sin)
                    base = make_base(length)
                    if mode == "left":
                        w = r * base
                    elif mode == "right":
                        w = base * r
                    else:
                        w = base * cc.shift(r)
                    items.append(Item(f"rot.{base_name}.{mode}", w))
    for i in range(12):
        phase = diagonal_phase(cc, 2, rng)
        if i % 3 == 0:
            items.append(Item("phase", phase))
            continue
        base = random_sum_of_words_unitary(2, rng, max_splits=2, max_len=2)
        twisted = cc.gauge(base, rng.choice((-1, 1, 2)))
        w = phase * twisted if i % 3 == 1 else twisted * phase
        items.append(Item("phase.twisted", w))
    return items


def build_intertwine(cc, rng):
    """Permutation unitaries at levels 2-3, and u_cp at levels 3 and 4."""
    from cuntzcalc.sampling import random_permutation_unitary

    items = []
    for n, k, level in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2)):
        for _ in range(8):
            items.append(Item(f"perm.n{n}.k{k}", random_permutation_unitary(n, k, rng), level))
    u_cp, v_cp = cc.constant("u_cp"), cc.constant("v_cp")
    for _ in range(4):
        items.append(Item("u_cp", u_cp, 3, v_cp, expect=21))
        items.append(Item("u_cp", u_cp, 4, v_cp))
    return items


def build_deep(cc, rng):
    """Level-k tests at depth on preserving and refuted inputs."""
    from cuntzcalc.sampling import random_permutation_unitary

    items = []

    def add(kind, w, k, preserving):
        items.append(Item(kind, w, k, random_unit(cc, w.n, k, rng), preserving))

    for k in (5, 6, 7, 8):
        add("w_cp", cc.constant("w_cp"), k, True)
        add("w0", _w0(cc), k, False)
        add("perm.n2.l3", random_permutation_unitary(2, 3, rng), k, True)
        add("perm.n2.l4", random_permutation_unitary(2, 4, rng), k, True)
        add("refuted.n2", graph_refuted_word(cc, 2, rng, 5), k, False)
    for k in (3, 4, 5):
        add("perm.n3.l3", random_permutation_unitary(3, 3, rng), k, True)
        add("refuted.n3", graph_refuted_word(cc, 3, rng, 3), k, False)
    return items


# ---------------------------------------------------------------------------
# operations, digests of their outputs, and checks


def run_decision(cc, item):
    report = cc.decide_preserves(item.w)
    return report, report.to_json_obj()


def run_intertwine(cc, item):
    space = cc.intertwiner_space(item.w, item.level)
    contained = space.contains(item.probe) if item.probe is not None else None
    return space, contained


def run_deep(cc, item):
    witness = cc.matrix_unit_witness(item.w, item.level)
    image = cc.lambda_apply(item.w, witness if witness is not None else item.probe)
    return witness, image


def digest_decision(result):
    return json.dumps(result[1], sort_keys=True, default=str)


def digest_intertwine(result):
    space, contained = result
    return space.dimension, hash(space.basis), contained


def digest_deep(result):
    witness, image = result
    return hash(witness), hash(image)


def _is_unit(x, k):
    """x is a single matrix unit S_a S_b* with |a| = |b| = k."""
    if len(x.terms) != 1:
        return False
    ((a, b), c), = x.terms.items()
    return len(a) == len(b) == k and c == {0: 1}


def _check_report(cc, item, report):
    if item.expect is not None and [report.verdict, report.failing_level] != item.expect:
        return f"expected {item.expect}, got {[report.verdict, report.failing_level]}"
    if report.verdict != cc.PRESERVES and cc.membership(item.w, "F"):
        return f"core unitary gave {report.verdict}"
    if report.verdict == cc.NOT_PRESERVES and report.witness is not None:
        if not _is_unit(report.witness, report.failing_level):
            return f"witness is not a level-{report.failing_level} matrix unit"
        if cc.membership(cc.lambda_apply(item.w, report.witness), "F"):
            return "witness image stays in the core"
    return None


def check_words(cc, item, result):
    report = result[0]
    problem = _check_report(cc, item, report)
    if problem is None and report.method == "graph":
        _, ref = cc.cocycle_run(item.w, COCYCLE_DEPTH)
        if ref.verdict not in (cc.UNDECIDED, report.verdict):
            problem = f"graph says {report.verdict}, cocycle says {ref.verdict}"
    return problem


def check_offgraph(cc, item, result):
    return _check_report(cc, item, result[0])


def check_intertwine(cc, item, result):
    space, contained = result
    u, us = item.w, item.w.adjoint()
    if space.dimension != len(space.basis) or space.dimension < 1:
        return f"dimension {space.dimension} with {len(space.basis)} basis elements"
    if item.expect is not None and space.dimension != item.expect:
        return f"dimension {space.dimension}, expected {item.expect}"
    for b in space.basis:
        if b.max_level() > item.level or u * cc.shift(b) * us != b:
            return "basis element is not a level-bounded fixed point"
    if item.probe is not None and contained is not True:
        return "known self-intertwiner not contained"
    return None


def check_deep(cc, item, result):
    witness, image = result
    if item.expect:
        if witness is not None:
            return "witness for a preserving input"
        if not cc.membership(image, "F"):
            return "image of a level-k unit leaves the core for a preserving input"
        return None
    if witness is None:
        return f"no level-{item.level} witness for a refuted input"
    if not _is_unit(witness, item.level):
        return f"witness is not a level-{item.level} matrix unit"
    if cc.membership(image, "F"):
        return "witness image stays in the core"
    return None


def decided_decision(cc, result):
    return result[0].verdict != cc.UNDECIDED


def decided_always(cc, result):
    return True


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    digest: object
    check: object
    decided: object


WORKLOADS = {
    "words": Workload(build_words, run_decision, digest_decision, check_words,
                      decided_decision),
    "offgraph": Workload(build_offgraph, run_decision, digest_decision, check_offgraph,
                         decided_decision),
    "intertwine": Workload(build_intertwine, run_intertwine, digest_intertwine,
                           check_intertwine, decided_always),
    "deep": Workload(build_deep, run_deep, digest_deep, check_deep, decided_always),
}
