import random
from itertools import product

import pytest

from cuntzcalc.algebra import Element, membership
from cuntzcalc.decide import (
    NOT_PRESERVES,
    PRESERVES,
    UNDECIDED,
    DegreeOutOfRange,
    IncompleteEdgeRule,
    OverlapGraph,
    Psi1NotConstant,
    RouteDisagreement,
    build_overlap_graph,
    cocycle_run,
    decide_preserves,
    direct_check,
    export_dot,
    matrix_unit_witness,
    monomial_defect,
    overlap_classes,
    path_condition,
)
from cuntzcalc.endo import (
    NotSumOfWords,
    gauge,
    lambda_apply,
    shift,
    sum_of_words_profile,
)
from cuntzcalc.exprio import W_CP_OVERLAP, render, resolve
from cuntzcalc.sampling import (
    permutation_unitary,
    random_prefix_code,
    random_permutation_unitary,
    random_sum_of_words_unitary,
)
from oracles import random_labeled_digraph, w_cp_products

N = 2
W_CP = resolve("@w_cp")
V_CP = resolve("@v_cp")
W0 = resolve("S1 S11* + S21 S12* + S22 S2*", 2)
PHI_W0 = shift(W0)  # six words, fails one level later than w0
W_DEG2 = resolve("S111 S1* + S112 S21* + S12 S221* + S2 S222*", 2)
ROT = resolve("3/5 S1 S1* + 4/5 S1 S2* - 4/5 S2 S1* + 3/5 S2 S2*", 2)
# unitary, all degrees 0, yet pair (11, 12) has no successor tail
W_INCOMPLETE = resolve("S11 S12* + S12 S22* + S211 S112* + S212 S212* + S2211 S1111* "
                       "+ S2212 S2111* + S2221 S1112* + S2222 S2112*", 2)


def word(a, b=(), coeff=1, gpow=0):
    return Element.word(N, a, b, coeff, gpow)


# -- overlap graph construction ----------------------------------------------

def test_overlap_classes():
    w0_classes = overlap_classes(sum_of_words_profile(W0))
    assert len(w0_classes) == 1  # the empty tail chains to everything
    wcp_classes = overlap_classes(sum_of_words_profile(W_CP))
    assert sorted(wcp_classes) == sorted(W_CP_OVERLAP["labels"])
    rng = random.Random(12)
    sizes = set()
    for n in (2, 3):
        for _ in range(100):
            betas = random_prefix_code(n, rng, rng.randint(2, 12))
            pairs = tuple(zip(rng.sample(betas, len(betas)), betas))
            classes = overlap_classes(pairs)
            assert list(classes.items()) == list(_union_find_classes(pairs).items())
            sizes.add(len(classes))
    assert len(sizes) >= 5


def _union_find_classes(pairs):
    """The previous definition: union-find over prefix-comparable tails."""
    betas = sorted(b for _, b in pairs)
    parent = list(range(len(betas)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(betas)):
        ti = betas[i][1:]
        for j in range(i + 1, len(betas)):
            tj = betas[j][1:]
            m = min(len(ti), len(tj))
            if ti[:m] == tj[:m]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i, b in enumerate(betas):
        groups.setdefault(find(i), []).append(b)
    classes = {}
    for members in groups.values():
        tails = sorted({b[1:] for b in members})
        name = ",".join("".join(map(str, t)) if t else "0" for t in tails)
        classes[name] = tuple(sorted(members))
    return classes


def test_w_cp_graph_matches_table():
    g = build_overlap_graph(sum_of_words_profile(W_CP))
    assert g.label == W_CP_OVERLAP["labels"]
    assert sorted(g.edges) == sorted(W_CP_OVERLAP["edges"])
    assert g.vertices == tuple(sorted(W_CP_OVERLAP["labels"]))
    ok, cert = path_condition(g)
    assert ok
    assert (cert["bound"], cert["pairs_explored"]) == (3, 7)
    # the identity's one class has a loop: one pair, and the search ends at once
    identity = word((1,), (1,)) + word((2,), (2,))
    ok, cert = path_condition(build_overlap_graph(sum_of_words_profile(identity)))
    assert ok and (cert["bound"], cert["pairs_explored"]) == (2, 1)


def test_psi1_not_constant_for_v_cp():
    with pytest.raises(Psi1NotConstant) as e:
        build_overlap_graph(sum_of_words_profile(V_CP))
    assert len(e.value.values) > 1


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        build_overlap_graph(sum_of_words_profile(W_DEG2))


def test_incomplete_edge_rule():
    # synthetic family: the single alpha has no tail prefixing it
    with pytest.raises(IncompleteEdgeRule):
        build_overlap_graph((((1, 1), (2, 2)),))
    # a unitary sum of words: the graph route cannot decide it, auto falls
    # back to the cocycle route, which certifies preservation
    with pytest.raises(IncompleteEdgeRule, match=r"pair \(11, 12\) has no successor tail"):
        decide_preserves(W_INCOMPLETE, method="graph")
    r = decide_preserves(W_INCOMPLETE)
    assert (r.verdict, r.method, r.depth) == (PRESERVES, "cocycle", 1)


def test_export_dot():
    g = build_overlap_graph(sum_of_words_profile(W_CP))
    dot = export_dot(g)
    assert dot == export_dot(g)
    assert dot.startswith("digraph overlap {")
    assert '"11" [label="11 : +1"]' in dot
    assert '"211" [label="211 : -1"]' in dot
    assert dot.count("->") == len(g.edges)


# -- path condition on hand-built graphs -------------------------------------

def hand_graph(label, edges):
    classes = {v: () for v in label}
    return OverlapGraph(classes, label, tuple(edges))


def test_path_condition_hand_cases():
    ok, cert = path_condition(hand_graph({"a": 1}, [("a", "a")]))
    assert ok

    # two cycles of equal labels reached from a fork: still fine
    ok, _ = path_condition(hand_graph(
        {"r": 0, "a": 1, "b": 1},
        [("r", "a"), ("r", "b"), ("a", "a"), ("b", "b")]))
    assert ok

    # fork into different labels fails at depth 1 from the fork vertex
    ok, cert = path_condition(hand_graph(
        {"r": 0, "a": 1, "b": 0},
        [("r", "a"), ("r", "b"), ("a", "a"), ("b", "b")]))
    assert not ok
    assert cert["start"] == "r"
    assert cert["bfs_depth"] == 1
    assert sorted(cert["pair"]) == ["a", "b"]
    assert sorted(cert["labels"]) == [0, 1]

    # label clash deeper in: equal until the cycles drift apart
    ok, cert = path_condition(hand_graph(
        {"r": 0, "a": 1, "b": 1, "c": 0, "d": 1},
        [("r", "a"), ("r", "b"), ("a", "c"), ("b", "d"), ("c", "c"), ("d", "d")]))
    assert not ok
    assert cert["bfs_depth"] == 2

    # no successors anywhere: vacuously holds
    ok, _ = path_condition(hand_graph({"a": 1, "b": 0}, []))
    assert ok


def naive_path_condition(graph, depth):
    """Frontier-set reference: labels must be constant on every frontier."""
    succ = graph.successors()
    for start in graph.vertices:
        frontier = {start}
        for _ in range(depth):
            frontier = {b for a in frontier for b in succ[a]}
            if len({graph.label[v] for v in frontier}) > 1:
                return False
    return True


def exact_path_condition(graph):
    """Subset-dynamics closure: exact, terminates without a depth bound."""
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


def test_path_condition_matches_oracles_on_random_digraphs():
    rng = random.Random(20210)
    for _ in range(60):
        g = random_labeled_digraph(rng)
        ok, cert = path_condition(g)
        assert ok == exact_path_condition(g)
        assert ok == naive_path_condition(g, 2 * len(g.vertices) ** 2 + 2)
        if not ok:
            a, b = cert["pair"]
            assert graph_labels_differ(g, a, b)


def graph_labels_differ(g, a, b):
    return g.label[a] != g.label[b]


# -- full decisions ----------------------------------------------------------

def test_w_cp_preserves_by_all_methods():
    for method in ("graph", "cocycle"):
        r = decide_preserves(W_CP, method=method, depth=8)
        assert r.verdict == PRESERVES, method
    # enumeration can refute but never certify; it must stay silent here
    assert decide_preserves(W_CP, method="direct", depth=3).verdict == UNDECIDED
    auto = decide_preserves(W_CP)
    assert auto.verdict == PRESERVES
    assert auto.method == "graph"
    assert auto.certificate["labels"] == W_CP_OVERLAP["labels"]
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        decide_preserves(W_CP, method="bogus")


def test_w_cp_not_in_core_yet_preserves():
    assert not membership(W_CP, "F")
    x = word((1, 2), (2, 1), 3) + word((1,), (1,))
    assert membership(lambda_apply(W_CP, x), "F")


def test_w0_not_preserves_level_1():
    for method in ("graph", "cocycle", "direct"):
        r = decide_preserves(W0, method=method)
        assert r.verdict == NOT_PRESERVES, method
        assert r.failing_level == 1, method
    r = decide_preserves(W0)
    assert render(r.witness) == "S1 S2*"
    assert not membership(lambda_apply(W0, r.witness), "F")
    rc = decide_preserves(W0, method="cocycle")
    assert rc.certificate["defect_coefficient"] == "1/2 g^-1 I + 1/2 g^1 I"


def test_phi_w0_not_preserves_level_2():
    # conjugating the failing symbol under the shift defers the defect
    # one level; exercises the witness search above level 1
    for method in ("graph", "cocycle", "direct"):
        r = decide_preserves(PHI_W0, method=method, depth=6)
        assert r.verdict == NOT_PRESERVES, method
        assert r.failing_level == 2, method
        assert r.witness is not None
        assert not membership(lambda_apply(PHI_W0, r.witness), "F")


def test_graph_certificate_of_phi_w0():
    g = build_overlap_graph(sum_of_words_profile(PHI_W0))
    assert g.label == {"11": -1, "12": 0, "2": 1}
    ok, cert = path_condition(g)
    assert not ok
    assert cert["start"] == "11"
    assert sorted(cert["pair"]) == ["11", "2"]


def test_degree_window_fallback_is_conclusive():
    r = decide_preserves(W_DEG2, depth=8)
    assert r.method == "cocycle"
    assert r.verdict == NOT_PRESERVES
    assert r.failing_level == 1
    # auto mode checks the refutation by applying the endomorphism
    assert r.certificate["image"] == render(lambda_apply(W_DEG2, r.witness))


def test_depth_zero_checks_no_level():
    # off the graph route: refuted at level 1 by the cocycle route once depth allows it
    for method in ("auto", "cocycle", "direct"):
        r = decide_preserves(W_DEG2, method=method, depth=0)
        assert (r.verdict, r.depth, r.failing_level, r.witness) == (UNDECIDED, 0, 0, None)
    cocycles, r = cocycle_run(W_DEG2, 0)
    assert cocycles == [] and r.verdict == UNDECIDED
    assert decide_preserves(W_DEG2, depth=1).failing_level == 1
    with pytest.raises(ValueError, match="depth must be >= 0"):
        decide_preserves(W_DEG2, depth=-1)
    # not an int: True would count as depth 1, and 2.0 fail inside range()
    for depth in (True, False, 2.0, 2.5):
        for method in ("auto", "graph", "cocycle", "direct"):
            with pytest.raises(ValueError, match="depth must be an int"):
                decide_preserves(W0, method=method, depth=depth)
        with pytest.raises(ValueError, match="depth must be an int"):
            cocycle_run(W0, depth)


def test_rotation_in_core_preserves():
    r = decide_preserves(ROT)
    assert r.verdict == PRESERVES
    assert r.method == "cocycle"
    assert r.certificate["period"] == 1


def test_permutation_unitaries_preserve():
    rng = random.Random(7)
    for k in (1, 2, 3):
        u = random_permutation_unitary(2, k, rng)
        assert membership(u, "F")
        r = decide_preserves(u)
        assert r.verdict == PRESERVES
    assert decide_preserves(permutation_unitary(2, 1, [1, 0])).verdict == PRESERVES


NON_UNITARIES = ("S1", "1/2 I", "S1 S1* + S2 S1*", "3/5 S1 S1* + 4/5 S2 S2*")


@pytest.mark.parametrize("method", ["auto", "direct", "cocycle", "graph"])
@pytest.mark.parametrize("text", NON_UNITARIES)
def test_non_unitary_input_raises_on_every_route(method, text):
    with pytest.raises(ValueError) as info:
        decide_preserves(resolve(text, 2), method=method)
    if method == "graph":
        # the graph route admits only partitions of unity, which are unitary
        assert isinstance(info.value, NotSumOfWords)
    else:
        # auto falls back to the cocycle route, which still checks unitarity
        assert "need a unitary input" in str(info.value)


def test_route_disagreement_is_typed_and_carries_both_reports(monkeypatch):
    import cuntzcalc.decide as decide

    core = word((1,), (2,)) + word((2,), (1,))  # in the core, unlike a true image
    monkeypatch.setattr(decide, "lambda_apply", lambda w, x, check_unitary=True: core)
    with pytest.raises(RouteDisagreement) as info:
        decide_preserves(W_DEG2)  # off the graph route; the cocycle route refutes it
    assert info.value.report.verdict == NOT_PRESERVES
    assert info.value.report.method == "cocycle"
    assert info.value.report.witness == word((1,), (2,))
    assert info.value.probe is core


# gauge-twisted diagonal phase times a twisted word unitary: off the graph route
PHASE = word((1,), (1,), 1, 1) - word((2,), (2,))
TWISTED = (PHASE * gauge(W0, 2), PHASE * gauge(W_CP, -1))


@pytest.mark.parametrize("w", (W_DEG2, ROT) + TWISTED,
                         ids=["degree2", "rotation", "twisted_w0", "twisted_w_cp"])
def test_auto_runs_one_route_and_checks_refutations_by_the_action(monkeypatch, w):
    import cuntzcalc.decide as decide

    calls = {}

    def counted(name):
        fn = getattr(decide, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(decide, name, wrapper)

    for name in ("is_unitary", "agreement", "direct_check", "lambda_apply"):
        counted(name)
    r = decide_preserves(w)
    assert r.method == "cocycle"
    # a sum of words that the graph route has profiled is not checked again
    assert calls.get("is_unitary", 0) == (w is not W_DEG2)
    assert calls.get("agreement") == 1
    assert "direct_check" not in calls
    assert calls.get("lambda_apply", 0) == (r.verdict == NOT_PRESERVES)


def test_auto_checks_a_profiled_sum_of_words_once(monkeypatch):
    import cuntzcalc.endo as endo

    calls = []
    word_pairs = endo._word_pairs

    def counted(x):
        calls.append(x)
        return word_pairs(x)
    monkeypatch.setattr(endo, "_word_pairs", counted)
    r = decide_preserves(W_DEG2)  # profiled, then refused by the graph route for its degrees
    assert (r.verdict, r.method, r.failing_level) == (NOT_PRESERVES, "cocycle", 1)
    assert calls == [W_DEG2]


def test_direct_tests_every_level_up_to_its_depth():
    r = direct_check(W_CP, 16)
    assert (r.verdict, r.depth) == (UNDECIDED, 16)
    assert r.certificate == {"note": "no violation up to level 16"}


def test_direct_check_is_bounded():
    r = direct_check(W_CP, 3)
    assert r.verdict in (PRESERVES, UNDECIDED)
    if r.verdict == UNDECIDED:
        assert r.depth == 3


# -- cocycle stream ----------------------------------------------------------

def test_cocycle_run_w_cp():
    cocs, rep = cocycle_run(W_CP, 12)
    assert rep.verdict == PRESERVES
    assert rep.certificate == {
        "cycle_stream": "accumulated", "cycle_start": 0, "period": 5}
    assert len(cocs) == 5
    assert cocs[4].is_identity()
    for z in cocs:
        assert membership(z, "D")


def test_cocycle_run_w0_fails_immediately():
    cocs, rep = cocycle_run(W0, 4)
    assert rep.verdict == NOT_PRESERVES
    assert rep.failing_level == 1
    assert cocs == []


def test_psi_propagation_matches_stepwise_cocycles():
    # along the overlap graph, the level-k cocycle is the diagonal sum of
    # g^(k-step label) over the distinct tails; check all levels of one
    # full period
    g = build_overlap_graph(sum_of_words_profile(W_CP))
    succ = g.successors()
    cls_of = {b[1:]: name for name, betas in g.classes.items() for b in betas}
    tails = sorted(cls_of)
    cocs, _ = cocycle_run(W_CP, 10)
    psi = dict(g.label)
    for k in range(1, 6):
        zk = cocs[k - 1] * cocs[k - 2].adjoint() if k > 1 else cocs[0]
        pred = sum((word(t, t, 1, psi[cls_of[t]]) for t in tails),
                   Element.zero(N))
        assert zk == pred, k
        # an update is well defined: successors agree on the next value
        assert all(len({psi[s] for s in succ[v]}) == 1 for v in g.vertices)
        psi = {v: psi[succ[v][0]] for v in g.vertices}


# -- witnesses and defects ---------------------------------------------------

def test_matrix_unit_witness():
    assert render(matrix_unit_witness(W0, 1)) == "S1 S2*"
    assert render(matrix_unit_witness(PHI_W0, 2)) == "S11 S12*"
    assert matrix_unit_witness(W_CP, 3) is None
    # none is unitary, whether its recursion passes (2 I), fails with a
    # witness (S1 S2*) or fails with no failing unit (S1 S1*)
    for x in ("2 I", "S1 S2*", "S1 S1*"):
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="unitary"):
                matrix_unit_witness(resolve(x, 2), k)
    # True would name the level-1 witness S1 S2*
    for k in (True, 2.0, 2.5, -1):
        with pytest.raises(ValueError, match="depth"):
            matrix_unit_witness(W0, k)


def test_monomial_defect():
    from fractions import Fraction
    half = Fraction(1, 2)
    z = word((1,), (1,), half, -1) + word((1,), (1,), half, 1) + word((2,), (2,))
    a, c = monomial_defect(z)
    assert a == (1, 1) or a == (1,)
    assert c == {-1: half, 1: half}
    assert monomial_defect(word((1,), (1,), 1, 5) + word((2,), (2,))) is None
    assert monomial_defect(word((1,), (2,))) is None
    assert monomial_defect(Element.identity(N)) is None


def test_defect_certificates_match_the_defect_of_the_diagonal_mean():
    from fractions import Fraction

    from cuntzcalc.algebra import diagonal_mean, level_blocks, phi_preimage
    from oracles import rotation

    rng = random.Random(23)
    ws = [random_sum_of_words_unitary(n, rng, max_splits=3, max_len=3, degree_window=None)
          for n in (2, 3) for _ in range(30)]
    ws += [rotation(2, (1,), (2,), Fraction(3, 5), Fraction(4, 5)) * w for w in ws[:30:3]]
    ws += [(word((1,), (1,), 1, 1) - word((2,), (2,))) * w for w in ws[:30:5]]
    checked = 0
    for w in ws:
        r = decide_preserves(w)
        # refutations by the cocycle route or by a class mixing degrees
        if "cocycle" not in r.certificate and "mixed_degrees" not in r.certificate:
            continue
        # the failing level's y_k, by plain products
        wstar, z = w.adjoint(), Element.identity(w.n)
        for _ in range(r.failing_level):
            y = wstar * z * gauge(w)
            z = phi_preimage(y)
        defect = monomial_defect(diagonal_mean(w.n, level_blocks(y, 1)))
        if defect is None:
            assert "defect_block" not in r.certificate
        else:
            block, coeff = defect
            assert r.certificate["defect_block"] == "".join(map(str, block))
            assert r.certificate["defect_coefficient"] == render(Element(w.n, {((), ()): coeff}))
        checked += 1
    assert checked > 20
    # a unit-modulus first term is passed over
    z = word((1,), (1,), -1, 2) + word((2,), (2,), Fraction(1, 3))
    assert monomial_defect(z) == ((2,), {0: Fraction(1, 3)})


# -- reports -----------------------------------------------------------------

def test_report_json_shape():
    obj = decide_preserves(W0).to_json_obj()
    assert obj["verdict"] == NOT_PRESERVES
    assert obj["failing_level"] == 1
    assert obj["witness"] == "S1 S2*"
    obj2 = decide_preserves(W_CP).to_json_obj()
    assert obj2["verdict"] == PRESERVES
    assert obj2["witness"] is None


# -- sampled agreement (small here; the acceptance suite runs the full set) --

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("window", [(-1, 0, 1), None])
def test_graph_and_cocycle_agree_on_samples(n, window):
    # wherever both routes decide, they agree on the verdict, the first
    # failing level and its witness
    rng = random.Random(f"graph-cocycle/{n}/{window}")
    decided = 0
    for _ in range(40):
        w = random_sum_of_words_unitary(n, rng, max_splits=4 - n // 2, degree_window=window)
        try:
            rep = decide_preserves(w, method="graph")
        except (DegreeOutOfRange, IncompleteEdgeRule):
            continue
        _, ref = cocycle_run(w, 64)
        if ref.verdict != UNDECIDED:
            decided += 1
            assert (rep.verdict, rep.failing_level, rep.witness) == \
                (ref.verdict, ref.failing_level, ref.witness), render(w)
    assert decided >= 20


def test_graph_and_cocycle_agree_on_products_with_w_cp():
    # refutations above level 1: the pair search names the level, the
    # blocks of the failing state (or, one level up, the scan of the word
    # images) the witness, whose image must leave the core while every
    # unit one level down keeps to it
    tally = {}
    for w in w_cp_products(random.Random("w_cp products"), 600):
        rep = decide_preserves(w, method="graph")
        _, ref = cocycle_run(w, 64)
        assert (rep.verdict, rep.failing_level, rep.witness) == \
            (ref.verdict, ref.failing_level, ref.witness), render(w)
        assert not membership(w, "F")
        k = rep.failing_level
        tally[rep.verdict, k] = tally.get((rep.verdict, k), 0) + 1
        if rep.verdict == PRESERVES:
            continue
        for x in (rep.witness, matrix_unit_witness(w, k + 1)):
            assert not membership(lambda_apply(w, x, check_unitary=False), "F"), render(w)
        words = list(product((1, 2), repeat=k - 1))
        if len(words) <= 4:
            assert all(membership(lambda_apply(w, Element.word(2, a, b), check_unitary=False), "F")
                       for a in words for b in words), render(w)
    assert set(tally) == {(PRESERVES, 0)} | {(NOT_PRESERVES, k) for k in (1, 2, 3)}
    assert min(tally.values()) >= 3


@pytest.mark.parametrize("text", [
    "S21 S111* + S12 S211* + S221 S112* + S111 S212* + S112 S12* + S222 S22*",
    "S122 S1221* + S221 S1222* + S11 S222* + S222 S121* + S211 S221* + S121 S11* + S212 S21*",
])
def test_graph_and_cocycle_agree_on_level_two_pair_search_refutations(text):
    # non-core sums of words that pass level 1, drawn by the benchmark's
    # words sampler: the pair search and the recursion name one level and
    # one witness, whose image leaves the core
    w = resolve(text, 2)
    rep = decide_preserves(w, method="graph")
    _, ref = cocycle_run(w, 64)
    witness = Element.word(2, (1, 1), (1, 2))
    assert (rep.verdict, rep.failing_level, rep.witness) == \
        (ref.verdict, ref.failing_level, ref.witness) == (NOT_PRESERVES, 2, witness)
    assert not membership(lambda_apply(w, witness), "F")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("window", [(-1, 0, 1), None])
def test_level_one_state_of_a_sum_of_words(n, window):
    # y_1 = w* gauge(w) = sum over the pairs of g^(|a| - |b|) P_b, the state
    # the graph route builds for a class that mixes degrees; its level-1
    # refutation must match the recursion's in level, witness and defect
    rng = random.Random(f"y1/{n}/{window}")
    refuted = 0
    for _ in range(50):
        w = random_sum_of_words_unitary(n, rng, max_splits=4 - n // 2, degree_window=window)
        pairs = sum_of_words_profile(w)
        y1 = Element(n, [((b, b), {len(a) - len(b): 1}) for a, b in pairs])
        assert y1 == w.adjoint() * gauge(w), render(w)
        try:
            build_overlap_graph(pairs)
        except Psi1NotConstant:
            refuted += 1
            rep = decide_preserves(w, method="graph")
            _, ref = cocycle_run(w, 1)
            assert ref.failing_level == rep.failing_level == 1
            assert ref.witness == rep.witness
            for key in ("defect_block", "defect_coefficient"):
                assert ref.certificate.get(key) == rep.certificate.get(key), render(w)
        except (DegreeOutOfRange, IncompleteEdgeRule):
            pass
    assert refuted > 0
