"""The benchmark's four workloads build and run cleanly on the engine.

Builds every workload's seed-1 inputs with bench/run.py's own set-up,
runs one untimed pass over them and asserts that the workload's output
checks find no problem.  A set-up or an operation that raises shows up
here, not only as a failed benchmark run.
"""

from pathlib import Path

import pytest

import cuntzcalc

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["words", "offgraph", "intertwine", "deep"])
def test_workload_runs_one_clean_pass(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    # the package under test, not a fresh import from the checkout's src/
    monkeypatch.setattr(run, "import_engine", lambda: cuntzcalc)
    cc, items = run.setup(workload, 1)
    runner = run.Runner(cc, workload, items)
    runner.run_pass()
    assert runner.errors == []
    assert runner.completed == len(items)
    assert runner.check() == (0, [])
    if workload == "offgraph":
        # one level-2 rotation of w_cp stays UNDECIDED at the cocycle depth
        assert runner.decided_share() == 116 / 117
    else:
        assert runner.decided_share() == 1.0
