"""Acceptance gate: eight timed end-to-end criteria.

Each test prints one summary line; the bound assertions keep the whole
gate honest about cost, not just correctness.
"""

import random
import time
from fractions import Fraction

from cuntzcalc.algebra import Element, membership
from cuntzcalc.decide import (
    NOT_PRESERVES,
    PRESERVES,
    UNDECIDED,
    IncompleteEdgeRule,
    Psi1NotConstant,
    build_overlap_graph,
    cocycle_run,
    decide_preserves,
    path_condition,
)
from cuntzcalc.endo import (
    gauge,
    is_unitary,
    lambda_apply,
    left_inverse,
    shift,
    sum_of_words_profile,
)
from cuntzcalc.exprio import W_CP_OVERLAP, resolve
from cuntzcalc.intertwine import (
    agree_on_F,
    coboundary_witness,
    intertwiner_space,
    is_self_intertwiner,
)
from cuntzcalc.sampling import random_permutation_unitary, random_sum_of_words_unitary
from oracles import n_covering_holds, random_labeled_digraph

U_CP = resolve("@u_cp")
V_CP = resolve("@v_cp")
W_CP = resolve("@w_cp")
W0 = resolve("S1 S11* + S21 S12* + S22 S2*", 2)


class timed:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.bound, \
                f"criterion exceeded its {self.bound}s budget ({self.elapsed:.2f}s)"
        return False


def random_element(rng, n=2, max_terms=3, max_len=3):
    raw = []
    for _ in range(rng.randint(0, max_terms)):
        a = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
        b = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
        q = Fraction(rng.randint(-3, 3))
        if q:
            raw.append(((a, b), {rng.randint(-2, 2): q}))
    return Element(n, raw)


def test_criterion_1_explicit_pair():
    with timed(1.0) as t:
        assert is_unitary(U_CP)
        assert membership(U_CP, "Fk", 4)
        assert is_unitary(V_CP)
        assert not membership(V_CP, "F")
        assert is_self_intertwiner(U_CP, V_CP)
    print(f"criterion 1: explicit pair verified in {t.elapsed:.3f}s")


def test_criterion_2_counterexample_pipeline():
    with timed(1.0) as t:
        assert W_CP == V_CP * U_CP
        assert not membership(W_CP, "F")
        assert agree_on_F(U_CP, W_CP, 4) == (True, 0)
        assert decide_preserves(W_CP, method="graph").verdict == PRESERVES
        assert decide_preserves(W_CP, method="cocycle").verdict == PRESERVES
    print(f"criterion 2: counterexample pipeline verified in {t.elapsed:.3f}s")


def test_criterion_3_graph_fidelity():
    with timed(1.0) as t:
        graph = build_overlap_graph(sum_of_words_profile(W_CP))
        assert len(graph.vertices) == 6
        labels = sorted(graph.label.values())
        assert labels == [-1, 0, 0, 0, 0, 1]
        got = ({v: graph.label[v] for v in graph.vertices}, sorted(graph.edges))
        want = (dict(W_CP_OVERLAP["labels"]),
                sorted(map(tuple, W_CP_OVERLAP["edges"])))
        # report any divergence from the tabulated data in full
        assert got == want, f"overlap data mismatch:\n got {got}\nwant {want}"
        assert len(graph.edges) == 7
        ok, cert = path_condition(graph)
        assert ok, cert
    print(f"criterion 3: overlap graph matches the tabulated data in {t.elapsed:.3f}s")


def test_criterion_4_negative_control():
    with timed(1.0) as t:
        assert is_unitary(W0)
        report = decide_preserves(W0)
        assert report.verdict == NOT_PRESERVES
        assert report.failing_level == 1
        cert = decide_preserves(W0, method="cocycle").certificate
        assert cert["defect_coefficient"] == "1/2 g^-1 I + 1/2 g^1 I"
    print(f"criterion 4: negative control fails at level 1 in {t.elapsed:.3f}s")


def test_criterion_5_intertwiner_recovery():
    with timed(30.0) as t:
        report = intertwiner_space(U_CP, 3)
        assert report.dimension >= 2
        assert report.contains(V_CP)
        coeffs = report.coefficients_of(V_CP)
        rebuilt = Element.zero(2)
        for q, b in zip(coeffs, report.basis):
            rebuilt = rebuilt + b.scale(q)
        assert rebuilt == V_CP
    print(f"criterion 5: intertwiner space (dim {report.dimension}) "
          f"recovers v_cp in {t.elapsed:.3f}s")


def test_criterion_6_property_suites():
    rng = random.Random(60606)
    flip = resolve("S2 S1* + S1 S2*")
    with timed(60.0) as t:
        # algebra axioms
        for _ in range(40):
            x, y, z = (random_element(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y).adjoint() == x.adjoint() + y.adjoint()
            assert (x * y).adjoint() == y.adjoint() * x.adjoint()
            assert x.adjoint().adjoint() == x

        # Cuntz relations
        for n in (2, 3):
            gens = [Element.gen(n, i) for i in range(1, n + 1)]
            assert sum((s * s.adjoint() for s in gens), Element.zero(n)) \
                == Element.identity(n)
            for i, s in enumerate(gens):
                for j, r in enumerate(gens):
                    expected = Element.identity(n) if i == j else Element.zero(n)
                    assert s.adjoint() * r == expected

        # shift identities
        for _ in range(40):
            x = random_element(rng)
            sx = shift(x)
            for i in (1, 2):
                s = Element.gen(2, i)
                assert s * x == sx * s
            assert left_inverse(sx) == x

        # endomorphism multiplicativity
        symbols = [flip, W0, W_CP, random_permutation_unitary(2, 2, rng)]
        for _ in range(25):
            u = rng.choice(symbols)
            x, y = random_element(rng), random_element(rng)
            assert lambda_apply(u, x * y) == lambda_apply(u, x) * lambda_apply(u, y)
            assert lambda_apply(u, x.adjoint()) == lambda_apply(u, x).adjoint()

        # gauge covariance
        for _ in range(25):
            u = rng.choice(symbols)
            x = random_element(rng)
            assert lambda_apply(gauge(u), x) == gauge(lambda_apply(u, gauge(x, -1)))

        # n-covering invariant of validated profiles
        for _ in range(50):
            w = random_sum_of_words_unitary(2, rng)
            assert n_covering_holds(2, sum_of_words_profile(w))

        # diagonality of w* gauge(w) across the sum-of-words family
        for _ in range(200):
            w = random_sum_of_words_unitary(2, rng)
            assert membership(w.adjoint() * gauge(w), "D")
    print(f"criterion 6: property suites passed in {t.elapsed:.2f}s")


def test_criterion_7_decision_cross_validation():
    rng = random.Random(70707)
    with timed(60.0) as t:
        agreements = 0
        for _ in range(100):
            w = random_sum_of_words_unitary(2, rng)
            try:
                g = build_overlap_graph(sum_of_words_profile(w))
                graph_verdict = PRESERVES if path_condition(g)[0] else NOT_PRESERVES
            except Psi1NotConstant:
                graph_verdict = NOT_PRESERVES
            except IncompleteEdgeRule:
                graph_verdict = None
            _, rep = cocycle_run(w, 12)
            if graph_verdict is not None and rep.verdict != UNDECIDED:
                assert rep.verdict == graph_verdict
                agreements += 1
            full = decide_preserves(w)
            if full.verdict == NOT_PRESERVES:
                assert full.witness is not None
                assert not membership(lambda_apply(w, full.witness), "F")

        def naive_to_depth(graph, depth):
            succ = graph.successors()
            for start in graph.vertices:
                frontier = {start}
                for _ in range(depth):
                    frontier = {b for a in frontier for b in succ[a]}
                    if len({graph.label[v] for v in frontier}) > 1:
                        return False
            return True

        def exact_closure(graph):
            succ = graph.successors()
            for start in graph.vertices:
                frontier = frozenset((start,))
                seen = {frontier}
                while frontier:
                    frontier = frozenset(b for a in frontier for b in succ[a])
                    if len({graph.label[v] for v in frontier}) > 1:
                        return False
                    if frontier in seen:
                        break
                    seen.add(frontier)
            return True

        for _ in range(100):
            g = random_labeled_digraph(rng)
            ok, cert = path_condition(g)
            assert ok == exact_closure(g)
            if ok:
                assert naive_to_depth(g, 8)
            elif cert["bfs_depth"] <= 8:
                assert not naive_to_depth(g, 8)
    print(f"criterion 7: cross-validation ({agreements} conclusive pairs) "
          f"in {t.elapsed:.2f}s")


def test_criterion_8_coboundary_witness():
    with timed(5.0) as t:
        U, z = coboundary_witness(W_CP)
        assert is_unitary(U)
        assert membership(U, "F")
        assert W_CP.adjoint() * U == shift(z)
        assert left_inverse(W_CP.adjoint() * gauge(W_CP)) == z * gauge(z.adjoint())
    print(f"criterion 8: coboundary witness identity verified in {t.elapsed:.3f}s")
