"""Reference functions that only the tests call.

Each is a definition the engine does not need, kept here to check the
engine against: the product of two words (the all-pairs reference for
the indexed product), composition of endomorphisms, the gauge
expectation, the n-covering identity of a sum-of-words profile,
diagonality of the level-1 gauge cocycle, random labeled digraphs for
the path-condition search, rational rotations, and plain
rational-product references for the unitarity check, the level-k
recursion and the endomorphism action; the entries of a product
index, read off its trie; the bounded-level commutant of the range of
an endomorphism, by its own Gauss-Jordan reduction; the two-pass
cylinder merge and the Fraction-operator printer that the normal form
and exprio.render replaced; and products of w_cp with permutation
unitaries, inputs whose refutations lie above level 1.
"""

from fractions import Fraction
from itertools import product

from cuntzcalc.algebra import Element, _cadd, _canonical, level_blocks, membership, phi_preimage
from cuntzcalc.algebra import word_degree
from cuntzcalc.decide import OverlapGraph
from cuntzcalc.endo import gauge, is_unitary, lambda_apply, sum_of_words_profile
from cuntzcalc.exprio import constant
from cuntzcalc.intertwine import _span_words
from cuntzcalc.sampling import random_permutation_unitary


def word_mul(a, b):
    """Product of two words; a word or None (= zero).

    (S_p S_q*)(S_r S_s*) survives iff q is a prefix of r or r a prefix
    of q; the leftover letters move to the surviving side.
    """
    (pa, qa), (rb, sb) = a, b
    lq, lr = len(qa), len(rb)
    if lq <= lr:
        if rb[:lq] == qa:
            return (pa + rb[lq:], sb)
    else:
        if qa[:lr] == rb:
            return (pa, sb + qa[lr:])
    return None


def trie_entries(index):
    """Every entry (a, b, c) stored in the trie of algebra._inner_index
    at or under the node index, from a walk of all its nodes' here lists."""
    entries, stack = [], [index]
    while stack:
        kids, here, _ = stack.pop()
        entries += here
        stack.extend(kids.values())
    return entries


def cylinders(n, tails):
    """Maximal cylinders of f = sum_t tails[t] [t], as (gamma, value)
    for each largest [gamma] on which f is constant and nonzero.

    The trie of all prefixes of the tails is walked twice in order of
    length, with loops only: down, to sum f along each path, and up,
    children before parents, to find the nodes on which f is constant.
    A node that is not constant emits its constant children; a child
    that is no prefix of a tail carries its parent's sum.
    """
    nodes = set()
    for t in tails:
        for m in range(len(t), -1, -1):
            if t[:m] in nodes:
                break
            nodes.add(t[:m])
    order = sorted(nodes, key=len)
    acc = {}
    for v in order:
        c = tails.get(v)
        up = acc[v[:-1]] if v else {}
        acc[v] = _cadd(up, c) if c else up
    out, kids = [], {}
    for v in reversed(order):
        value = acc[v]
        below = kids.pop(v, None)
        if below is not None:
            values = [below.get(i, value) for i in range(1, n + 1)]
            value = values[0]
            if value is None or any(x != value for x in values[1:]):
                value = None
                out.extend((v + (i,), x) for i, x in enumerate(values, 1) if x)
        if v:
            kids.setdefault(v[:-1], {})[v[-1]] = value
        elif value:
            out.append(((), value))
    return out


def _fmt_index(idx):
    return "".join(str(i) for i in idx)


def render(x):
    """Canonical text form; parse(render(x)) == x."""
    if x.is_zero():
        return "0"
    chunks = []
    for (a, b), c in x.sorted_terms():
        for gpow in sorted(c):
            q = c[gpow]
            pieces = []
            if abs(q) != 1:
                pieces.append(str(abs(q)))
            if gpow != 0:
                pieces.append(f"g^{gpow}")
            if not a and not b:
                pieces.append("I")
            else:
                if a:
                    pieces.append(f"S{_fmt_index(a)}")
                if b:
                    pieces.append(f"S{_fmt_index(b)}*")
            chunks.append((q < 0, " ".join(pieces)))
    out = []
    for i, (neg, body) in enumerate(chunks):
        if i == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def compose(u, v):
    """The unitary whose endomorphism is (endomorphism of u) o (of v)."""
    for name, y in (("u", u), ("v", v)):
        if not is_unitary(y):
            raise ValueError(f"compose needs unitary inputs; {name} is not")
    return lambda_apply(u, v, check_unitary=False) * u


def w_cp_products(rng, count):
    """count products p w_cp, w_cp q and p w_cp q, the three in turn, with
    seeded permutation unitaries p and q at levels 1-3.

    None lies in the core.  p w_cp never refutes level 1: p lies in the
    core, and p w_cp sends S_i S_j* to p times its image under w_cp
    times p*.  The other refutations reach the graph route's pair search.
    """
    w = constant("w_cp")
    for i in range(count):
        p, q = (random_permutation_unitary(2, rng.randint(1, 3), rng) for _ in range(2))
        yield (p * w, w * q, p * w * q)[i % 3]


def gauge_expectation(x):
    """Keep the degree-0 terms, coefficients restricted to the g^0 part."""
    raw = {}
    for t, c in x.terms.items():
        if word_degree(t) == 0 and 0 in c:
            raw[t] = {0: c[0]}
    return _canonical(x.n, raw.items())


def n_covering_holds(n, pairs):
    """sum_beta P_{beta-tilde} == n * I as an exact Element identity, over
    the betas of the (alpha, beta) pairs, beta-tilde being beta[1:]."""
    total = Element.zero(n)
    for _, b in pairs:
        total = total + Element.word(n, b[1:], b[1:])
    return total == Element.identity(n).scale(n)


def normalizer_cocycle_check(w):
    """Whether w* gauge(w) is diagonal; holds for every sum of words."""
    sum_of_words_profile(w)
    return membership(w.adjoint() * gauge(w), "D")


def random_labeled_digraph(rng, max_vertices=8, edge_prob=0.3,
                           labels=(-1, 0, 1)):
    """Arbitrary labeled digraph wrapped as an OverlapGraph, for
    exercising the path-condition search away from algebra inputs."""
    count = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(count)]
    label = {v: rng.choice(labels) for v in names}
    edges = tuple(sorted((a, b) for a in names for b in names
                         if rng.random() < edge_prob))
    classes = {v: () for v in names}
    return OverlapGraph(classes, label, edges)


def rotation(n, a, b, cos, sin):
    """Rational rotation in the plane of the equal-length words a, b."""
    raw = [((a, a), cos), ((a, b), -sin), ((b, a), sin), ((b, b), cos)]
    raw += [((x, x), 1) for x in product(range(1, n + 1), repeat=len(a)) if x not in (a, b)]
    return Element(n, raw)


def unitary_reference(x):
    """x x* == I and x* x == I, by plain products of x itself."""
    one, xs = Element.identity(x.n), x.adjoint()
    return x * xs == one and xs * x == one


def agreement_reference(w, v, depth):
    """The levels (k, z_k, blocks) of endo.agreement, each from the two
    plain products w* z_{k-1} v: blocks are the level-1 blocks of y_k at
    the failing level, where z_k is None, and None elsewhere."""
    ws, z, levels = w.adjoint(), Element.identity(w.n), []
    for k in range(1, depth + 1):
        y = ws * z * v
        z = phi_preimage(y)
        levels.append((k, z, level_blocks(y, 1) if z is None else None))
        if z is None:
            break
    return levels


def lambda_reference(u, x):
    """The endomorphism of u on x, term by term: c S_a S_b* maps to
    c E_a E_b* with E_a = (u S_{a_1}) ... (u S_{a_k}) multiplied out."""
    def image(a):
        e = Element.identity(u.n)
        for j in a:
            e = e * (u * Element.gen(u.n, j))
        return e
    total = Element.zero(u.n)
    for (a, b), c in x.terms.items():
        total = total + Element(u.n, {((), ()): c}) * image(a) * image(b).adjoint()
    return total


def commutant_space(u, L):
    """(dimension, basis, free columns) of {x in Span_L : x T_j = T_j x
    for every j}, T_j = u S_j, over the spanning words of
    intertwine._span_words.

    Column x of the map x -> (x T_j - T_j x)_j is formed from word_mul
    products, each term padded by the Cuntz relation to the longest beta
    of its degree, and the matrix is brought to reduced row echelon form
    over Fraction by Gauss-Jordan, the columns taken in order.  A column
    without a pivot is free, and its basis vector is 1 there, 0 at every
    other free column and minus its pivot rows' entries elsewhere.
    """
    n = u.n
    words = _span_words(n, L)
    ts = [(u * Element.gen(n, j)).terms for j in range(1, n + 1)]
    columns = []
    for x in words:
        raw = []
        for j, t in enumerate(ts):
            for y, c in t.items():
                if set(c) != {0}:
                    raise ValueError("the commutant oracle works over plain rationals")
                for z, q in ((word_mul(x, y), c[0]), (word_mul(y, x), -c[0])):
                    if z is not None:
                        raw.append((j, z, Fraction(q)))
        columns.append(raw)
    lam = {}
    for raw in columns:
        for _, (a, b), _ in raw:
            lam[len(a) - len(b)] = max(lam.get(len(a) - len(b), 0), len(b))
    keyed = {}
    for col, raw in enumerate(columns):
        for j, (a, b), q in raw:
            d = len(a) - len(b)
            for rho in product(range(1, n + 1), repeat=lam[d] - len(b)):
                row = keyed.setdefault((j, d, b + rho, a + rho), {})
                row[col] = row.get(col, 0) + q
    rows = [{col: q for col, q in row.items() if q} for row in keyed.values()]
    where = {}  # column -> the rows with an entry there
    for i, row in enumerate(rows):
        for col in row:
            where.setdefault(col, set()).add(i)
    lead = {}  # pivot column -> its row, 1 there and 0 at every other pivot column
    for col in range(len(words)):
        pending = where.get(col, set()) - set(lead.values())
        if not pending:
            continue
        i = lead[col] = min(pending)
        pivot = rows[i]
        f = pivot[col]
        for k in pivot:
            pivot[k] /= f
        for r in where[col] - {i}:
            row, f = rows[r], rows[r][col]
            for k, q in pivot.items():
                v = row.get(k, 0) - f * q
                if v:
                    row[k] = v
                    where.setdefault(k, set()).add(r)
                else:
                    row.pop(k, None)
                    where[k].discard(r)
    free = [col for col in range(len(words)) if col not in lead]
    basis = tuple(Element(n, [(words[j], {0: 1})]
                          + [(words[c], {0: -rows[i][j]}) for c, i in lead.items() if j in rows[i]])
                  for j in free)
    return len(free), basis, tuple(free)
