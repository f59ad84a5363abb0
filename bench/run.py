"""Decision-engine benchmark for cuntzcalc.

    python3 bench/run.py --workload words --seed 1 --seconds 25 --trace 0

Runs one workload (words, offgraph, intertwine, deep) in this process,
on one thread, as one closed-loop client: each operation starts when
the previous one has returned.  The engine is imported from `src/` of
the checkout holding this file, and sees only the seeded inputs built
by `workloads.py`.

Set-up (import cuntzcalc, warm the constant() cache, build the inputs)
is repeated at least SETUP_REPEATS times and for at least SETUP_SECONDS,
and its median reported; the engine's
bytecode is cached under bench/out/, so every set-up after the first
reads the same compiled files.  The timed loop then runs whole passes
over the inputs until --seconds have gone by, and every execution is a
latency sample.  Set-ups and executions are timed with speed.py's
probes running and reported at its reference speed.  Afterwards,
untimed, every output is checked.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an
untraced and a traced pass instead and reports the per-layer metrics
of one pass (see tracer.py); the spans of the first traced pass are
written to bench/out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
from array import array
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import Speedometer
from tracer import Tracer, install, metric_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
# The tail is the highest percentile that leaves this many of a pass's
# operations beyond it, but at most TAIL_MAX_P.
TAIL_BEYOND = 10
TAIL_MAX_P = 0.90
# Executions the run's log holds before it grows.  The log is allocated
# in full at start, so the benchmark's own memory is the same in every
# run however many executions fit, and peak_rss_mb follows the engine.
LOG_CAPACITY = 1 << 17

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction (Numerical Recipes, section 6.4)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile of sorted `values`.

    A Beta-weighted average of the order statistics.  Unlike a single
    order statistic it moves smoothly when an input crosses one of the
    gaps of a cost distribution made of a few input kinds, so seeds
    that shuffle inputs between neighbouring ranks give close values.
    Weights more than 12 standard deviations of the Beta distribution
    away from p are below 1e-30 and are skipped.
    """
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / (n + 2))
    lo = max(0, math.floor((p - 12 * sd) * n) - 1)
    hi = min(n, math.ceil((p + 12 * sd) * n) + 1)
    cdf = [_betainc(a, b, i / n) for i in range(lo, hi + 1)]
    return sum((cdf[j + 1] - cdf[j]) * values[lo + j] for j in range(hi - lo))


def import_engine():
    """Import cuntzcalc afresh from this checkout's src/."""
    if not (SRC / "cuntzcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no cuntzcalc package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    # Bytecode goes to a cache the benchmark owns, not to src/, so set-up
    # times do not depend on what other tools left in src/__pycache__.
    sys.pycache_prefix = str(BENCH / "out" / "pycache")
    sys.dont_write_bytecode = False
    for name in [m for m in sys.modules if m == "cuntzcalc" or m.startswith("cuntzcalc.")]:
        del sys.modules[name]
    cc = importlib.import_module("cuntzcalc")
    if Path(cc.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported cuntzcalc from {cc.__file__}, not {SRC}")
    return cc


def setup(workload, seed):
    """(package, items): import, warm constants, build inputs."""
    cc = import_engine()
    for name in cc.CONSTANT_NAMES:
        cc.constant(name)
    return cc, WORKLOADS[workload].build(cc, random.Random(f"{workload}/{seed}"))


class Runner:
    """Runs passes over the items and keeps what the checks need."""

    def __init__(self, cc, workload, items):
        self.cc = cc
        self.wl = WORKLOADS[workload]
        self.items = items
        # (input index, start, end, probe time) of every execution
        self.log = array("d", [0.0]) * (4 * LOG_CAPACITY)
        self.completed = 0
        self.counts = [0] * len(items)
        self.first = [None] * len(items)
        self.digests = [None] * len(items)
        self.changed = [0] * len(items)
        self.errors = []
        self.attempted = 0

    def run_pass(self, speed=None, tracer=None):
        """One pass over the items; returns its wall time.  With a running
        Speedometer the spans record the probe time inside them."""
        pass_start = time.perf_counter()
        for i, item in enumerate(self.items):
            self.attempted += 1
            if tracer is not None:
                tracer.open("bench.op")
            start = speed.mark() if speed else (time.perf_counter(), 0.0)
            try:
                result = self.wl.run(self.cc, item)
            except Exception as exc:  # a raising operation is a failed one
                self.errors.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            finally:
                span = speed.span(start) if speed else (start[0], time.perf_counter(), 0.0)
                if tracer is not None:
                    tracer.close()
            self._record(i, span)
            digest = self.wl.digest(result)
            if self.first[i] is None:
                self.first[i], self.digests[i] = result, digest
            elif digest != self.digests[i]:
                self.changed[i] += 1
        return time.perf_counter() - pass_start

    def _record(self, i, span):
        j = 4 * self.completed
        if j < len(self.log):
            self.log[j], self.log[j + 1], self.log[j + 2], self.log[j + 3] = i, *span
        else:
            self.log.extend((i, *span))
        self.completed += 1
        self.counts[i] += 1

    def executions(self):
        """(input index, (start, end, probe time)) of every execution."""
        log = self.log
        for j in range(0, 4 * self.completed, 4):
            yield int(log[j]), (log[j + 1], log[j + 2], log[j + 3])

    def check(self):
        """(failed operations, problem lines) from the untimed checks."""
        failed = len(self.errors)
        problems = [f"{self.items[i].kind} #{i}: {msg}" for i, msg in self.errors]
        for i, item in enumerate(self.items):
            if self.first[i] is None:
                continue
            problem = self.wl.check(self.cc, item, self.first[i])
            if problem is not None:
                failed += self.counts[i]
                problems.append(f"{item.kind} #{i}: {problem}")
            elif self.changed[i]:
                failed += self.changed[i]
                problems.append(f"{item.kind} #{i}: output changed between passes")
        return failed, problems

    def decided_share(self):
        """Share of inputs whose output is conclusive; repeats of an input
        give the same output, so this is also the share of executions."""
        decided = sum(self.wl.decided(self.cc, r) for r in self.first if r is not None)
        return decided / len(self.items)

    def latency_summary(self, speed):
        """(p50, tail, tail percentile, total) over every execution's
        time at the reference speed; total is their sum.

        The tail percentile leaves TAIL_BEYOND of the M operations of a
        pass beyond it, or more where that would be above TAIL_MAX_P, so
        it is the same for every run of a workload however many passes
        fit; over P passes, at least TAIL_BEYOND * P samples lie beyond it.
        """
        samples = sorted(speed.corrected(span) for _, span in self.executions())
        if not samples:
            raise SystemExit("error: no operation completed: " + "; ".join(
                msg for _, msg in self.errors[:3]))
        per_pass = len(self.items)
        tail_p = min(max(per_pass - TAIL_BEYOND, 1) / per_pass, TAIL_MAX_P)
        return (harrell_davis(samples, 0.5), harrell_davis(samples, tail_p),
                100.0 * tail_p, math.fsum(samples))


def measure(runner, seconds, speed):
    """Whole passes until `seconds` have gone by, at least one, so every
    input is measured equally often.  Returns (passes, timed wall time)."""
    start = time.perf_counter()
    passes, wall = 0, 0.0
    while passes == 0 or time.perf_counter() - start < seconds:
        wall += runner.run_pass(speed)
        passes += 1
    return passes, wall


def measure_traced(runner, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer metrics of one pass."""
    tracer = Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        installation = install(tracer)
        try:
            traced.append(runner.run_pass(tracer=tracer))
        finally:
            installation.uninstall()
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path)
        tracer.reset()
        if time.perf_counter() - start >= seconds:
            break
    out = {}
    for name, value in summaries[0].items():
        if name.endswith(".self_s"):
            value = statistics.median(s[name] for s in summaries)
        out[name] = value
    out["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    return len(summaries), out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with Speedometer() as speed:
        setups = []
        begin = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
            start = speed.mark()
            cc, items = setup(args.workload, args.seed)
            setups.append(speed.span(start))
    setup_s = statistics.median(speed.corrected(span) for span in setups)
    gc.collect()
    runner = Runner(cc, args.workload, items)
    head = f"workload {args.workload} seed {args.seed}: {len(items)} inputs per pass"

    if args.trace:
        spans_path = BENCH / "out" / f"spans_{args.workload}_{args.seed}.jsonl"
        pairs, values = measure_traced(runner, args.seconds, spans_path)
        units = metric_units()
        print(f"{head}, {pairs} untraced+traced pass pairs, spans in {spans_path.name}")
    else:
        with Speedometer() as speed:
            passes, wall = measure(runner, args.seconds, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p50, tail, percentile, op_time = runner.latency_summary(speed)
        completed = runner.completed
        values = {
            "setup_s": setup_s,
            "ops_per_s": completed / op_time,
            "latency_p50_ms": p50 * 1e3,
            "latency_tail_ms": tail * 1e3,
            "decided_share": runner.decided_share(),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"{head}, {passes} whole passes, {completed} operations completed "
              f"in {wall:.3f} s of wall time ({completed / wall:.6g} per second); "
              f"{len(speed.durations)} speed probes took {speed.busy:.3f} s, "
              f"median {statistics.median(speed.durations) * 1e6:.1f} us")
        print(f"latencies are over all {completed} executions; latency_tail_ms is "
              f"p{percentile:.1f}, with {(1 - percentile / 100) * len(items):.3g} of "
              f"{len(items)} operations per pass "
              f"({(1 - percentile / 100) * completed:.0f} samples) beyond it; "
              f"setup_s is the median of {len(setups)}")

    failed, problems = runner.check()
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)
    for name, value in values.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {units[name]}")
    if not args.trace:
        print(f"error_share {failed / runner.attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
