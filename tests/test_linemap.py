"""tools/linemap.py maps each engine line to the tests that reach it."""

import importlib.util
from pathlib import Path

import cuntzcalc.sampling

ROOT = Path(__file__).resolve().parent.parent


def test_the_map_names_the_fallback_test_at_the_fallback_line():
    spec = importlib.util.spec_from_file_location("linemap", ROOT / "tools" / "linemap.py")
    linemap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linemap)
    lines = Path(cuntzcalc.sampling.__file__).read_text().splitlines()
    fallback = lines.index("    return random_permutation_unitary(n, rng.randint(1, 2), rng)") + 1
    found, status = linemap.line_map(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_sampling.py")])
    assert status == 0
    assert found["sampling.py", fallback] == {
        "tests/test_sampling.py::test_sum_of_words_falls_back_when_no_draw_hits_the_window"}
    # the lines of a module the file never calls are mapped, to no test
    unreached = [tests for (name, _), tests in found.items() if name == "intertwine.py"]
    assert len(unreached) > 100 and not any(unreached)
