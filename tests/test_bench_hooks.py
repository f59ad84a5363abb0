"""The benchmark's tracer can still wrap every engine name it hooks.

bench/tracer.py rebinds a fixed list of module functions, reads the
second positional argument of u_tower, direct_check and
matrix_unit_witness, and reads the `_words` and `dimension` fields of
an intertwiner space; a renamed function or field, or a keyword call,
breaks `bench/run.py --trace 1`.
"""

from pathlib import Path

import cuntzcalc
from cuntzcalc import decide, endo
from cuntzcalc.exprio import resolve

BENCH = Path(__file__).resolve().parents[1] / "bench"
W_DEG2 = "S111 S1* + S112 S21* + S12 S221* + S2 S222*"
W0 = "S1 S11* + S21 S12* + S22 S2*"


def test_tracer_installs_and_reads_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, install

    originals = (decide.direct_check, decide.matrix_unit_witness, endo.u_tower)
    tracer = Tracer()
    inst = install(tracer)
    try:
        # off the graph route: graph fallback, then the cocycle route only
        report = cuntzcalc.decide_preserves(resolve(W_DEG2, 2))
        auto = tracer.summary()
        direct = cuntzcalc.decide_preserves(resolve(W0, 2), "direct", 2)
        # above the first failing level: word images, not the tower
        witness = cuntzcalc.matrix_unit_witness(resolve(W0, 2), 3)
        space = cuntzcalc.intertwiner_space(resolve("@u_cp"), 2)
    finally:
        inst.uninstall()
    assert (report.verdict, report.failing_level) == (decide.NOT_PRESERVES, 1)
    assert (direct.verdict, direct.failing_level) == (decide.NOT_PRESERVES, 1)
    assert witness is not None
    assert auto["decide.direct_check.calls"] == 0
    got = tracer.summary()
    for name in ("decide.graph.fallbacks", "decide.cocycle_run.calls",
                 "decide.direct_check.calls", "decide.matrix_unit_witness.calls"):
        assert got[name] == 1, name
    assert got["endo.u_tower.calls"] == 0
    assert got["decide.matrix_unit_witness.level"] == 3
    assert got["intertwine.intertwiner_space.calls"] == 1
    assert got["intertwine.space.columns"] == len(space._words) == 40
    assert got["intertwine.space.dimension"] == space.dimension == 5
    assert (decide.direct_check, decide.matrix_unit_witness, endo.u_tower) == originals
