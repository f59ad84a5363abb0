"""Outside-in tracing of the cuntzcalc modules.

The tracer wraps public entry points from outside the package: every
module binding of a traced function is replaced by one wrapper, and the
Element dunders are replaced on the class.  Each wrapped call records a
span (name, start, end, parent) in memory; counts are recorded at the
same boundaries.  A span's self time is its duration minus the part of
that interval its child spans cover, so nested and recursive calls are
never counted twice.  Nothing inside the package is changed on disk and
`uninstall` restores every original binding.
"""

import json
import sys
import time
from collections import defaultdict
from functools import wraps

# Factors with fewer terms than this count as small in the product split.
LARGE_TERMS = 64

# Every metric a traced pass reports, with its unit.  Span names carry
# .calls and .self_s; the rest are counts recorded at span boundaries.
SPANS = (
    "bench.op",
    "algebra.mul",
    "algebra.normal_form",
    "algebra.add",
    "algebra.sub",
    "algebra.membership",
    "endo.shift",
    "endo.left_inverse",
    "endo.gauge",
    "endo.is_unitary",
    "endo.u_tower",
    "endo.lambda_apply",
    "endo.sum_of_words_profile",
    "endo.minimal_presentation",
    "decide.graph",
    "decide.path_condition",
    "decide.cocycle_run",
    "decide.direct_check",
    "decide.matrix_unit_witness",
    "intertwine.intertwiner_space",
    "exprio.to_json",
    "exprio.render",
)
MUL_SHAPES = ("small_small", "small_large", "large_large")
COUNTS = (
    "algebra.mul.pairs",
    "algebra.mul.terms_out",
    "algebra.normal_form.terms_in",
    "algebra.normal_form.terms_out",
    "endo.u_tower.max_k",
    "decide.graph.vertices",
    "decide.graph.edges",
    "decide.graph.attempts",
    "decide.graph.fallbacks",
    "decide.path_condition.pairs_explored",
    "decide.cocycle_run.steps",
    "decide.direct_check.units",
    "decide.matrix_unit_witness.level",
    "intertwine.space.columns",
    "intertwine.space.rank",
    "intertwine.space.dimension",
)
MAXIMA = ("endo.u_tower.max_k", "decide.matrix_unit_witness.level")


def metric_units():
    """{metric name: unit} for everything `Tracer.summary` reports."""
    units = {}
    for name in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for shape in MUL_SHAPES:
        units[f"algebra.mul.{shape}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["bench.trace_overhead"] = "ratio"
    return units


class Tracer:
    """In-memory span and count recorder for one thread.

    `clock` is injectable so tests can drive the timeline by hand.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = self.clock()

    def count(self, name, value=1):
        self.counts[name] += value

    def maximum(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def self_times(self):
        """Per span index, duration minus the union of its children."""
        children = defaultdict(list)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children[i]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def summary(self):
        """{metric: value} over the spans and counts recorded so far."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
            if name.startswith("algebra.mul."):
                calls["algebra.mul"] += 1
                self_s["algebra.mul"] += own
        out = {}
        for name in SPANS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for shape in MUL_SHAPES:
            out[f"algebra.mul.{shape}.self_s"] = self_s[f"algebra.mul.{shape}"]
        for name in COUNTS:
            out[name] = self.maxima[name] if name in MAXIMA else self.counts[name]
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(result, args) records counts."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result, args)
            return result
        return traced


class Installation:
    """The set of patched bindings, so they can be restored exactly."""

    def __init__(self):
        self.undo = []

    def replace(self, owner, attr, new):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def rebind(self, original, new):
        """Point every cuntzcalc module binding of `original` at `new`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cuntzcalc" or mod_name.startswith("cuntzcalc."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.replace(mod, attr, new)

    def uninstall(self):
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)


def _level_rank(n, idx):
    rank = 0
    for letter in idx:
        rank = rank * n + letter - 1
    return rank


def _direct_units(n, depth, report):
    """Matrix units direct_check enumerated, read off its report."""
    if report.witness is None:
        return sum(n ** (2 * k) for k in range(1, depth + 1))
    k = report.failing_level
    ((a, b),) = report.witness.terms
    before = sum(n ** (2 * j) for j in range(1, k))
    return before + _level_rank(n, a) * n ** k + _level_rank(n, b) + 1


def install(tracer):
    """Wrap the traced entry points of the imported cuntzcalc package."""
    from cuntzcalc import algebra, decide, endo, exprio, intertwine

    inst = Installation()
    Element = algebra.Element

    def wrap_function(module, attr, name, after=None):
        inst.rebind(getattr(module, attr), tracer.wrap(name, getattr(module, attr), after))

    # -- algebra: product (split by shape), normal form, add/sub, membership
    mul = Element.__mul__

    def traced_mul(self, other):
        if not isinstance(other, Element):
            return mul(self, other)
        small, large = sorted((len(self.terms), len(other.terms)))
        shape = MUL_SHAPES[(small >= LARGE_TERMS) + (large >= LARGE_TERMS)]
        tracer.open("algebra.mul." + shape)
        try:
            result = mul(self, other)
        finally:
            tracer.close()
        tracer.count("algebra.mul.pairs", small * large)
        tracer.count("algebra.mul.terms_out", len(result.terms))
        return result

    init = Element.__init__

    def traced_init(self, ctx, raw=(), _normal=False):
        if _normal:
            return init(self, ctx, raw, True)
        if not isinstance(raw, (dict, list, tuple)):
            raw = list(raw)
        tracer.open("algebra.normal_form")
        try:
            init(self, ctx, raw)
        finally:
            tracer.close()
        tracer.count("algebra.normal_form.terms_in", len(raw))
        tracer.count("algebra.normal_form.terms_out", len(self.terms))

    inst.replace(Element, "__mul__", traced_mul)
    inst.replace(Element, "__init__", traced_init)
    inst.replace(Element, "__add__", tracer.wrap("algebra.add", Element.__add__))
    inst.replace(Element, "__sub__", tracer.wrap("algebra.sub", Element.__sub__))
    wrap_function(algebra, "membership", "algebra.membership")

    # -- endo
    for attr in ("shift", "left_inverse", "gauge", "is_unitary", "lambda_apply",
                 "sum_of_words_profile", "minimal_presentation"):
        wrap_function(endo, attr, "endo." + attr)
    wrap_function(endo, "u_tower", "endo.u_tower",
                  lambda r, args: tracer.maximum("endo.u_tower.max_k", args[1]))

    # -- decide
    graph_decision = decide._graph_decision

    def traced_graph(w):
        tracer.count("decide.graph.attempts")
        tracer.open("decide.graph")
        try:
            return graph_decision(w)
        except (endo.NotSumOfWords, decide.DegreeOutOfRange, decide.IncompleteEdgeRule):
            tracer.count("decide.graph.fallbacks")
            raise
        finally:
            tracer.close()

    def count_graph(graph):
        tracer.count("decide.graph.vertices", len(graph.vertices))
        tracer.count("decide.graph.edges", len(graph.edges))
        return graph

    build = decide.build_overlap_graph
    inst.rebind(graph_decision, traced_graph)
    inst.rebind(build, lambda profile: count_graph(build(profile)))
    wrap_function(decide, "path_condition", "decide.path_condition",
                  lambda r, args: tracer.count("decide.path_condition.pairs_explored",
                                               r[1].get("pairs_explored", 0)))
    wrap_function(decide, "cocycle_run", "decide.cocycle_run",
                  lambda r, args: tracer.count("decide.cocycle_run.steps", r[1].depth))
    wrap_function(decide, "direct_check", "decide.direct_check",
                  lambda r, args: tracer.count("decide.direct_check.units",
                                               _direct_units(args[0].n, args[1], r)))
    wrap_function(decide, "matrix_unit_witness", "decide.matrix_unit_witness",
                  lambda r, args: tracer.maximum("decide.matrix_unit_witness.level", args[1]))

    # -- intertwine
    def count_space(report, args):
        columns = len(report._words)
        tracer.count("intertwine.space.columns", columns)
        tracer.count("intertwine.space.dimension", report.dimension)
        tracer.count("intertwine.space.rank", columns - report.dimension)

    wrap_function(intertwine, "intertwiner_space", "intertwine.intertwiner_space", count_space)

    # -- exprio
    wrap_function(exprio, "to_json", "exprio.to_json")
    wrap_function(exprio, "render", "exprio.render")
    return inst
