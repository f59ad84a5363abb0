"""Decide whether the endomorphism of a unitary w maps the core into itself.

Three routes:

  direct   the level-k recursion of endo.agreement with v = gauge(w), run
           to the given depth: level k is preserved iff
           y_k = w* zt_{k-1} gauge(w) lies in the shift's range.  A
           failing level names the lexicographically least level-k matrix
           unit whose image leaves the core, read off the level-1 blocks
           of y_k.  The recursion stops at a return to zt_0 = I, after
           which every level passes; direct still reports no PRESERVES
           verdict.  Refutes or stays undecided.

  cocycle  the same recursion
               zt_1 = phihat(w* gauge(w)),  zt_{k+1} = phihat(w* zt_k gauge(w)),
           where phihat is the left inverse of the shift.  Step k is
           valid iff the argument lies in the shift's range, which
           happens iff the endomorphism preserves all matrix units of
           level k.  A return to zt_0 = I certifies: the recursion is
           deterministic, so the stream repeats the levels that passed.
           The step is injective, so no other repeat can occur first.
           States with terms of degree +-1 may never return.

  graph    for sums of words with degrees in {-1, 0, +1}: build the labeled
           overlap digraph of beta-tails and decide the path condition
           exactly by a synchronized pair search.  Conclusive whenever
           the graph can be built; some unitaries have a pair with no
           successor tail (IncompleteEdgeRule), and auto mode hands
           those to cocycle.  The level it reports is the first failing
           one, and the recursion names its witness.  A class that
           mixes degrees refutes level 1, where the state needs no
           product: for w = sum S_a S_b* the alphas form a partition of
           unity, so S_a* S_a' = delta_(a,a') and
               w* gauge(w) = sum over the pairs of g^(|a| - |b|) P_b,
           a diagonal element built straight from the pairs.

Auto mode runs graph when it applies, else cocycle, and checks a cocycle
refutation with lambda_apply, which shares no code with the recursion:
the witness's image must leave the core (certificate key "image").

Nothing here builds the tower u_k.  Asked about a level k above the
first failing one, matrix_unit_witness scans the images
lambda(S_a) = u_k S_a of the level-k words row by row instead.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import Element, _canonical, _cconj, _check_level, _cmul, _exact, _integral
from .algebra import diagonal_sum, level_blocks, membership
from .endo import (
    NotSumOfWords,
    agreement,
    gauge,
    is_unitary,
    lambda_apply,
    sum_of_words_profile,
    word_images,
)
from .exprio import render

PRESERVES = "PRESERVES"
NOT_PRESERVES = "NOT_PRESERVES"
UNDECIDED = "UNDECIDED"


class DegreeOutOfRange(ValueError):
    """Some pair has |alpha| - |beta| outside {-1, 0, +1}."""


class IncompleteEdgeRule(ValueError):
    """Some pair admits no successor; the edge rule cannot close."""


class RouteDisagreement(RuntimeError):
    """An auto refutation (.report) whose witness image (.probe) stays in F."""

    def __init__(self, message, report, probe):
        super().__init__(message)
        self.report = report
        self.probe = probe


class Psi1NotConstant(Exception):
    """A single overlap class carries two different degrees."""

    def __init__(self, name, values):
        super().__init__(
            f"class {{{name}}} mixes degrees {values}; the level-1 cocycle is not unitary")
        self.class_name = name
        self.values = values


def _fmt_tail(t):
    return "".join(str(i) for i in t) if t else "0"


def _fmt_label(v):
    return f"{v:+d}" if v else "0"


@dataclass(frozen=True)
class OverlapGraph:
    """Labeled digraph on overlap classes of beta-tails.

    classes maps a vertex name (the sorted distinct tails of the class,
    comma-joined, empty tail written "0") to the tuple of betas in the
    class; label holds the common degree |alpha| - |beta| per vertex.
    """

    classes: dict
    label: dict
    edges: tuple

    @property
    def vertices(self):
        return tuple(sorted(self.classes))

    def successors(self):
        succ = {v: [] for v in self.vertices}
        for a, b in self.edges:
            succ[a].append(b)
        return {v: tuple(sorted(set(s))) for v, s in succ.items()}


def overlap_classes(pairs):
    """Partition of the betas of the (alpha, beta) pairs by chains of
    prefix-comparable tails, the tail of beta being beta[1:].

    In sorted order a tail is followed by its extensions, so one pass
    puts each tail in the class of the topmost tail it extends.  The
    tails under each first letter form a complete code, which meets
    every class, so the classes come out in the order of their least
    beta.
    """
    groups = {}
    top = None
    for t, b in sorted((b[1:], b) for _, b in pairs):
        if top is None or t[:len(top)] != top:
            top = t
        groups.setdefault(top, []).append(b)
    classes = {}
    for members in groups.values():
        name = ",".join(_fmt_tail(t) for t in sorted({b[1:] for b in members}))
        classes[name] = tuple(sorted(members))
    return classes


def build_overlap_graph(pairs):
    """OverlapGraph of the (alpha, beta) pairs of a sum of words.

    Pair (a, b) has an edge from the class of b to the class of every
    tail that is a prefix of a.  Raises DegreeOutOfRange unless all
    degrees |a| - |b| lie in {-1, 0, +1}, Psi1NotConstant when a class
    mixes degrees (which already refutes preservation at level 1), and
    IncompleteEdgeRule when some pair has no successor so the label
    recursion cannot be formed.
    """
    deg_of = {b: len(a) - len(b) for a, b in pairs}
    degs = sorted(set(deg_of.values()))
    if any(d not in (-1, 0, 1) for d in degs):
        raise DegreeOutOfRange(f"degrees {degs} outside {{-1, 0, +1}}")
    classes = overlap_classes(pairs)
    # betas sharing a tail share a class, so each tail names one class
    class_of = {b[1:]: name for name, members in classes.items() for b in members}

    label = {}
    for name, members in classes.items():
        values = sorted({deg_of[b] for b in members})
        if len(values) != 1:
            raise Psi1NotConstant(name, values)
        label[name] = values[0]

    edges = set()
    for a, b in pairs:
        succ = {class_of[a[:m]] for m in range(len(a) + 1) if a[:m] in class_of}
        if not succ:
            raise IncompleteEdgeRule(
                f"pair ({_fmt_tail(a)}, {_fmt_tail(b)}) has no successor tail")
        edges.update((class_of[b[1:]], c) for c in succ)
    return OverlapGraph(classes, label, tuple(sorted(edges)))


def path_condition(graph):
    """Whether all same-length paths from any vertex end at equal labels.

    Decided by breadth-first search on unordered vertex pairs stepping
    both sides simultaneously from the diagonal; the condition fails iff
    a pair with distinct labels is reachable.  Returns (ok, certificate).
    """
    succ = graph.successors()
    frontier = {(v, v) for v in graph.vertices}
    seen = set(frontier)
    depth = 0
    origin = {(v, v): v for v in graph.vertices}
    while frontier:
        depth += 1
        nxt = set()
        # sorted scan keeps the reported certificate hash-seed independent
        for b, c in sorted(frontier):
            for b2 in succ[b]:
                for c2 in succ[c]:
                    pair = (b2, c2) if b2 <= c2 else (c2, b2)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    origin[pair] = origin[(b, c)]
                    nxt.add(pair)
                    if graph.label[pair[0]] != graph.label[pair[1]]:
                        cert = {
                            "start": origin[pair],
                            "bfs_depth": depth,
                            "pair": list(pair),
                            "labels": [graph.label[pair[0]], graph.label[pair[1]]],
                        }
                        return False, cert
        frontier = nxt
    return True, {"pairs_explored": len(seen), "bound": depth + 1}


@dataclass
class DecisionReport:
    """Outcome of a preservation decision with its certificate."""

    verdict: str
    method: str
    depth: int = 0
    failing_level: int = 0
    witness: Element = None
    certificate: dict = None

    def to_json_obj(self):
        return {
            "verdict": self.verdict,
            "method": self.method,
            "depth": self.depth,
            "failing_level": self.failing_level or None,
            "witness": render(self.witness) if self.witness is not None else None,
            "certificate": self.certificate or {},
        }


def _failing_unit(n, k, blocks):
    """The least level-k unit whose image leaves the core.

    blocks are the level-1 blocks X_cd = S_c* y S_d of the failing y = y_k
    of the recursion, and q = w_k* gauge(w_k) = phi^(k-1)(y).  The image
    of S_a S_b* leaves the core iff it does not commute with q, i.e. iff
    column a or row b has a nonzero off-diagonal block, or X_aa != X_bb.
    So the least failing unit is S_{1^k} S_{1^k}* when column 1 has an
    off-diagonal block, else S_{1^k} S_{1^(k-1) r}* for the least failing
    row r.  Some row fails, as y is not in the shift's range: were every
    off-diagonal block zero and every X_rr equal to X_11, y would be the
    shift of X_11.  A row whose X_rr is zero is not missed, since
    y = w* zt_(k-1) gauge(w) is unitary, so no row of blocks is zero.
    """
    one = (1,)
    ref = blocks.get((one, one), {})
    if any(b == one != a for a, b in blocks):
        row = one
    else:
        row = min(a for (a, b), x in blocks.items() if a != b or x != ref)
    return Element(n, {((1,) * k, (1,) * (k - 1) + row): {0: 1}}, _normal=True)


def _scanned_unit(w, k):
    """The least level-k unit whose image leaves the core, for k above the
    first failing level j.

    With E_a = lambda(S_a) = w_k S_a, the level-k blocks of
    q = w_k* gauge(w_k) are g^-k E_a* gauge(E_b), and both E and gauge(E)
    are families of isometries with sum E_a E_a* = I.  So with
    X = E_{1^k}* gauge(E_{1^k}), column 1^k has an off-diagonal block iff
    gauge(E_{1^k}) != E_{1^k} X, and otherwise row r fails iff
    E_r* != X gauge(E_r)*.  The rows are scanned in lexicographic order,
    one small product each, up to the first failing one.  There is one:
    a level-j unit S_a S_b* whose image leaves the core is the sum of the
    level-k units S_(ac) S_(bc)* over the words c of length k - j, so the
    image of one of them leaves it too.
    """
    image = word_images(w)
    one = (1,) * k
    e = image(one)
    ge = gauge(e)
    x = e.adjoint() * ge
    if ge != e * x:
        return Element(w.n, {(one, one): {0: 1}}, _normal=True)
    xs = x.adjoint()
    r = next(r for r in product(range(1, w.n + 1), repeat=k)
             if image(r) != gauge(image(r)) * xs)
    return Element(w.n, {(one, r): {0: 1}}, _normal=True)


def matrix_unit_witness(w, k):
    """The least level-k matrix unit whose image leaves the core, or None.

    Runs the recursion to level k.  A failing level k names the witness
    from its blocks; above the first failing level the recursion stops,
    and the witness comes from the images of the level-k words.  A w that
    is not unitary raises ValueError.
    """
    if not is_unitary(w):
        raise ValueError("matrix_unit_witness needs a unitary w")
    for j, z, blocks in agreement(w, gauge(w), k):
        if z is None:
            return _failing_unit(w.n, k, blocks) if j == k else _scanned_unit(w, k)
    return None


# a function of its own only because bench/tracer.py times it by name
def direct_check(w, depth):
    """Exact level-by-level refutation up to depth; UNDECIDED when clean."""
    if not is_unitary(w):
        raise ValueError("preservation decisions need a unitary input")
    for k, z, blocks in agreement(w, gauge(w), depth):
        if z is None:
            x = _failing_unit(w.n, k, blocks)
            cert = {"image": render(lambda_apply(w, x, check_unitary=False))}
            return _refutation("direct", k, x, cert)
    return DecisionReport(UNDECIDED, "direct", depth=depth,
                          certificate={"note": f"no violation up to level {depth}"})


def monomial_defect(z):
    """First diagonal term of z whose coefficient c fails c(g)c(1/g) = 1.

    None when z is not diagonal or no term fails.  The terms of a
    diagonal canonical z are disjoint cylinders under one root, so they
    are mutually orthogonal projections, each as coarse as it can be.
    """
    return _defect(z, 1)


def _defect(x, r):
    """monomial_defect(x / r) for an int r > 0, tested in int arithmetic:
    with X = d x (algebra._integral), a coefficient C of X passes iff
    C(g)C(1/g) = (r d)^2.  Only the coefficient returned is rational."""
    if not membership(x, "D"):
        return None
    X, d = _integral(x)
    square = {0: (r * d) ** 2}
    for t, c in sorted(X.terms.items()):
        if _cmul(c, _cconj(c)) != square:
            return t[0], {m: _exact(Fraction(q, r * d)) for m, q in c.items()}
    return None


def _with_defect(cert, x, r):
    """cert plus the first defect block of x / r and its coefficient, if any."""
    defect = _defect(x, r)
    if defect is not None:
        block, coeff = defect
        cert["defect_block"] = _fmt_tail(block)
        cert["defect_coefficient"] = render(Element(x.n, {((), ()): coeff}, _normal=True))
    return cert


def _refutation(method, k, witness, cert):
    """NOT_PRESERVES at level k, with its witness and certificate."""
    return DecisionReport(NOT_PRESERVES, method, depth=k, failing_level=k,
                          witness=witness, certificate=cert)


def cocycle_run(w, depth, check_unitary=True):
    """Gauge-cocycle recursion; (cocycles, report).

    A return of the state to zt_0 = I certifies PRESERVES: the recursion
    is deterministic, so the stream zt_1, ..., zt_k, all validated,
    repeats from there on.  It is the only repeat that can occur
    (endo.agreement), so the certificate's cycle starts at 0 and its
    period is k.  check_unitary=False skips the unitarity check, for a w
    the caller has already validated.
    """
    if check_unitary and not is_unitary(w):
        raise ValueError("preservation decisions need a unitary input")
    cocycles = []
    for k, zt, blocks in agreement(w, gauge(w), depth):
        if zt is None:
            # the certificate shows the failed unshift, the diagonal mean
            s = diagonal_sum(w.n, blocks)
            cert = _with_defect({"cocycle": render(s.scale(Fraction(1, w.n)))}, s, w.n)
            return cocycles, _refutation("cocycle", k, _failing_unit(w.n, k, blocks), cert)
        cocycles.append(zt)
        if zt.is_identity():
            cert = {"cycle_stream": "accumulated", "cycle_start": 0, "period": k}
            return cocycles, DecisionReport(PRESERVES, "cocycle", depth=k, certificate=cert)
    return cocycles, DecisionReport(
        UNDECIDED, "cocycle", depth=depth,
        certificate={"note": f"no failure and no state repetition within depth {depth}"})


def decide_preserves(w, method="auto", depth=16):
    """DecisionReport for whether the endomorphism of w preserves the core.

    auto: the graph route if it applies, else the cocycle route.  A
    non-unitary w raises ValueError on every route: the direct and
    cocycle routes check unitarity, and the graph route accepts only
    sums of words whose alphas and betas are partitions of unity
    (NotSumOfWords otherwise).
    """
    if method not in ("auto", "graph", "cocycle", "direct"):
        raise ValueError(f"unknown method {method!r}")
    _check_level(depth, "depth")

    if method == "direct":
        return direct_check(w, depth)
    if method == "cocycle":
        return cocycle_run(w, depth)[1]
    if method == "graph":
        return _graph_decision(w)

    try:
        return _graph_decision(w)
    except NotSumOfWords:
        checked = False
    except (DegreeOutOfRange, IncompleteEdgeRule):
        # sum_of_words_profile has passed: w is a unitary sum of words
        checked = True
    report = cocycle_run(w, depth, check_unitary=not checked)[1]
    if report.verdict == NOT_PRESERVES:
        image = lambda_apply(w, report.witness, check_unitary=False)
        if membership(image, "F"):
            raise RouteDisagreement(
                f"cocycle route refutes level {report.failing_level}, but the image of "
                f"its witness {render(report.witness)} lies in the core", report, image)
        report.certificate["image"] = render(image)
    return report


def _graph_decision(w):
    pairs = sum_of_words_profile(w)
    try:
        graph = build_overlap_graph(pairs)
    except Psi1NotConstant as bad:
        # a class mixing degrees refutes level 1: y_1 = w* gauge(w) leaves the
        # range, and S_a* S_a' = delta_(a,a') for the alphas, a partition of
        # unity, so y_1 = sum over the pairs of g^(|a| - |b|) P_b
        y1 = _canonical(w.n, [((b, b), {len(a) - len(b): 1}) for a, b in pairs])
        blocks = level_blocks(y1, 1)
        cert = _with_defect({"class": bad.class_name, "mixed_degrees": bad.values},
                            diagonal_sum(w.n, blocks), w.n)
        return _refutation("graph", 1, _failing_unit(w.n, 1, blocks), cert)
    ok, cert = path_condition(graph)
    cert["classes"] = {name: [_fmt_tail(b) for b in members]
                       for name, members in sorted(graph.classes.items())}
    cert["labels"] = {name: graph.label[name] for name in graph.vertices}
    cert["edges"] = [list(e) for e in graph.edges]
    if ok:
        return DecisionReport(PRESERVES, "graph", certificate=cert)
    # the level the pair search reports is the first failing one
    k = cert["bfs_depth"] + 1
    return _refutation("graph", k, matrix_unit_witness(w, k), cert)


def export_dot(graph):
    """Deterministic DOT text for an OverlapGraph."""
    lines = ["digraph overlap {"]
    for v in graph.vertices:
        lines.append(f'    "{v}" [label="{v} : {_fmt_label(graph.label[v])}"];')
    for a, b in sorted(graph.edges):
        lines.append(f'    "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
