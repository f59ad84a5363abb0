"""Tests of the benchmark itself: tracer arithmetic, seeded corpora, a
small smoke run of every workload, and agreement with BENCHMARK.json.

    python3 -m pytest -q bench
"""

import json
import random
import signal
import time
from pathlib import Path

import pytest

import run
import speed
import workloads
from tracer import SPANS, Tracer, install, metric_units
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_synthetic_nested_calls():
    tracer = Tracer(clock=fake_clock([0, 1, 2, 4, 7, 11, 16, 17, 18, 22]))

    def rec(depth):
        return rec_traced(depth - 1) if depth else None

    rec_traced = tracer.wrap("rec", rec)
    leaf = tracer.wrap("leaf", lambda: None)

    def outer():
        rec_traced(2)
        leaf()

    tracer.wrap("outer", outer)()
    spans = [(name, start, end) for name, start, end, _ in tracer.spans]
    assert spans == [("outer", 0, 22), ("rec", 1, 16), ("rec", 2, 11), ("rec", 4, 7),
                     ("leaf", 17, 18)]
    # outer: 22 - (15 + 1); recursive spans count only their own share
    assert tracer.self_times() == [6, 6, 6, 3, 1]
    assert sum(tracer.self_times()) == 22


def test_summary_counts_spans_and_clips_children():
    tracer = Tracer(clock=fake_clock([0, 1, 5, 6, 9, 12]))
    tracer.open("bench.op")
    tracer.open("endo.shift")
    tracer.close()
    tracer.open("algebra.mul.large_large")
    tracer.close()
    tracer.count("algebra.mul.pairs", 4096)
    tracer.maximum("endo.u_tower.max_k", 3)
    tracer.maximum("endo.u_tower.max_k", 2)
    with pytest.raises(RuntimeError):
        tracer.summary()
    tracer.close()
    out = tracer.summary()
    assert set(out) == set(metric_units()) - {"bench.trace_overhead"}
    assert out["bench.op.self_s"] == 12 - 4 - 3
    assert out["endo.shift.calls"] == 1 and out["endo.shift.self_s"] == 4
    assert out["algebra.mul.calls"] == 1 and out["algebra.mul.large_large.self_s"] == 3
    assert out["algebra.mul.pairs"] == 4096 and out["endo.u_tower.max_k"] == 3


def test_corrected_time_excludes_probes_and_scales_by_local_speed():
    meter = speed.Speedometer()
    # probes ending at 1.000 and 1.005 took twice the reference; the one
    # at 2.000 is outside the window of a span ending at 1.010
    meter.ends.extend([1.000, 1.005, 2.000])
    meter.durations.extend([2 * speed.REFERENCE_PROBE_S] * 2 + [speed.REFERENCE_PROBE_S])
    assert meter.corrected((1.0, 1.01, 0.002)) == pytest.approx(0.004)
    assert meter.corrected((1.995, 2.0, 0.0)) == pytest.approx(0.005)
    with pytest.raises(RuntimeError):
        meter.corrected((5.0, 5.1, 0.0))


def test_speedometer_probes_while_active_and_stops():
    with speed.Speedometer(interval=0.001) as meter:
        start = meter.mark()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
        span = meter.span(start)
    probes = len(meter.durations)
    assert probes >= 5 and 0 < span[2] <= meter.busy
    time.sleep(0.01)
    assert len(meter.durations) == probes
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < meter.corrected(span) < 1


def test_harrell_davis_against_closed_forms():
    # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1 - x)^b
    assert run._betainc(2.5, 1.0, 0.3) == pytest.approx(0.3 ** 2.5, rel=1e-10)
    assert run._betainc(1.0, 3.0, 0.4) == pytest.approx(1 - 0.6 ** 3, rel=1e-10)
    assert run._betainc(700.5, 20.5, 0.97) + run._betainc(20.5, 700.5, 0.03) \
        == pytest.approx(1.0, rel=1e-10)
    assert run.harrell_davis(list(range(101)), 0.5) == pytest.approx(50)
    assert run.harrell_davis([5.0] * 30, 0.9) == pytest.approx(5.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    def corpus(seed):
        cc, items = run.setup(workload, seed)
        return [item.key(cc) for item in items]

    first = corpus(1)
    assert corpus(1) == first
    assert corpus(2) != first


def test_harrell_davis_window_matches_the_full_sum():
    values = sorted(random.Random(0).expovariate(1.0) for _ in range(3000))
    for p in (0.5, 0.9, 0.99):
        n = len(values)
        a, b = p * (n + 1), (1 - p) * (n + 1)
        cdf = [run._betainc(a, b, i / n) for i in range(n + 1)]
        full = sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(values))
        assert run.harrell_davis(values, p) == pytest.approx(full, rel=1e-12)


def smoke_items(items):
    """One input of each kind, at the lowest level that kind has."""
    chosen = {}
    for item in items:
        best = chosen.get(item.kind)
        if best is None or item.level < best.level:
            chosen[item.kind] = item
    return list(chosen.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_errors(workload):
    cc, items = run.setup(workload, 3)
    runner = run.Runner(cc, workload, smoke_items(items))
    runner.run_pass()
    tracer = Tracer()
    installation = install(tracer)
    try:
        runner.run_pass(tracer=tracer)
    finally:
        installation.uninstall()
    failed, problems = runner.check()
    assert failed == 0, problems
    assert runner.attempted == 2 * len(runner.items)
    counts = tracer.summary()
    assert counts["bench.op.calls"] == len(runner.items)
    assert sum(counts[name + ".calls"] for name in SPANS) == len(tracer.spans)
    if workload == "offgraph":
        assert all(report.method != "graph" for report, _ in runner.first)
        assert counts["decide.graph.fallbacks"] == counts["decide.graph.attempts"] > 0


def test_uninstall_restores_every_binding():
    cc, _ = run.setup("words", 1)
    before = {(mod, name): value for mod in (cc, cc.algebra, cc.endo, cc.decide,
                                              cc.intertwine, cc.exprio)
              for name, value in vars(mod).items()}
    mul = cc.Element.__mul__
    installation = install(Tracer())
    assert cc.decide.is_unitary is not before[(cc.decide, "is_unitary")]
    assert cc.Element.__mul__ is not mul
    installation.uninstall()
    assert cc.Element.__mul__ is mul
    for (mod, name), value in before.items():
        assert vars(mod)[name] is value


def test_benchmark_json_matches_the_reported_metrics():
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup_bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in BENCHMARK["end_to_end"])
