import json
import re
import runpy
import sys
from pathlib import Path

import pytest

import cuntzcalc.exprio
from cuntzcalc.cli import main
from cuntzcalc.decide import build_overlap_graph, export_dot
from cuntzcalc.endo import lambda_apply, sum_of_words_profile
from cuntzcalc.exprio import constant, render, resolve

W0 = "S1 S11* + S21 S12* + S22 S2*"
ROT = "3/5 S1 S1* + 4/5 S1 S2* - 4/5 S2 S1* + 3/5 S2 S2*"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- arithmetic commands -----------------------------------------------------

def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "S11 S21* + S12 S22*")
    assert code == 0
    assert out.strip() == "S1 S2*"


def test_normalize_drops_zero_terms(capsys):
    code, out, _ = run(capsys, "normalize", "I + 0 S1")
    assert code == 0 and out.strip() == "I"
    code, out, _ = run(capsys, "normalize", "S1 - S1")
    assert code == 0 and out.strip() == "0"


def test_mul_chain(capsys):
    code, out, _ = run(capsys, "mul", "S1*", "S1", "S2 S2*")
    assert code == 0
    assert out.strip() == "S2 S2*"
    code, out, _ = run(capsys, "mul", "S1 S1*", "S2 S2*")
    assert code == 0
    assert out.strip() == "0"


def test_adjoint(capsys):
    code, out, _ = run(capsys, "adjoint", "2 g^1 S12")
    assert code == 0
    assert out.strip() == "2 g^-1 S12*"


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "S1 S1* + S2 S2*", "I")
    assert (code, out.strip()) == (0, "EQUAL")
    code, out, _ = run(capsys, "eq", "S1", "S2")
    assert (code, out.strip()) == (1, "DIFFERENT")


def test_unitary(capsys):
    assert run(capsys, "unitary", "@w_cp")[0] == 0
    code, out, _ = run(capsys, "unitary", "S1")
    assert code == 1 and "NOT UNITARY" in out


def test_member(capsys):
    assert run(capsys, "member", "S1 S2*", "--in", "F")[0] == 0
    assert run(capsys, "member", "@w_cp", "--in", "F")[0] == 1
    assert run(capsys, "member", "@u_cp", "--in", "Fk", "--level", "4")[0] == 0
    assert run(capsys, "member", "@u_cp", "--in", "Fk", "--level", "3")[0] == 1
    code, _, err = run(capsys, "member", "I", "--in", "Fk")
    assert code == 3 and "--level" in err


def test_lambda(capsys):
    code, out, _ = run(capsys, "lambda", "--u", "S2 S1* + S1 S2*", "S1")
    assert code == 0
    assert out.strip() == "S2"


def test_lambda_on_a_long_word(capsys):
    code, out, _ = run(capsys, "lambda", "--u", "@u_cp", "S" + "1" * 1100)
    assert code == 0
    assert out.strip() == render(lambda_apply(constant("u_cp"), resolve("S" + "1" * 1100, 2)))


def test_n_flag(capsys):
    assert run(capsys, "normalize", "--n", "3", "S3")[0] == 0
    assert run(capsys, "normalize", "S3")[0] == 3
    assert run(capsys, "normalize", "--n", "1", "S1")[0] == 3


# -- decision commands -------------------------------------------------------

def test_preserves_uhf_verdict_codes(capsys):
    code, out, _ = run(capsys, "preserves-uhf", "--w", "@w_cp")
    assert code == 0
    assert "verdict: PRESERVES" in out
    assert "method: graph" in out
    code, out, _ = run(capsys, "preserves-uhf", "--w", W0)
    assert code == 1
    assert "failing level: 1" in out
    assert "witness: S1 S2*" in out
    code, out, _ = run(capsys, "preserves-uhf", "--w", "@w_cp",
                       "--method", "direct", "--depth", "2")
    assert code == 2
    assert "verdict: UNDECIDED" in out


def test_preserves_uhf_direct_on_shifted_w0(capsys):
    phi_w0 = "S11 S111* + S21 S211* + S121 S112* + S221 S212* + S122 S12* + S222 S22*"
    code, out, _ = run(capsys, "preserves-uhf", "--w", phi_w0,
                       "--method", "direct", "--depth", "3")
    assert code == 1
    assert out.splitlines() == [
        "verdict: NOT_PRESERVES",
        "method: direct",
        "failing level: 2",
        "witness: S11 S12*",
        'certificate.image: "S11 S1221* + S121 S1222*"',
    ]


def test_preserves_uhf_json(capsys):
    code, out, _ = run(capsys, "preserves-uhf", "--json", "--w", W0)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "NOT_PRESERVES"
    assert doc["failing_level"] == 1
    assert doc["witness"] == "S1 S2*"
    assert doc["certificate"]["defect_block"]


def test_cocycles(capsys):
    code, out, _ = run(capsys, "cocycles", "--w", "@w_cp", "--k", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("z~(1) = ")
    assert lines[4] == "z~(5) = I"
    assert lines[5] == "state repetition: accumulated stream, start 0, period 5"
    code, out, _ = run(capsys, "cocycles", "--w", W0, "--k", "3")
    assert code == 1
    assert "leaves the shift's range at level 1" in out


def test_graph_output(capsys, tmp_path):
    dot_path = tmp_path / "overlap.dot"
    code, out, _ = run(capsys, "graph", "--w", "@w_cp", "--dot", str(dot_path))
    assert code == 0
    assert "classes (6):" in out
    assert "11: label +1" in out
    assert "211: label -1" in out
    assert "22: label 0" in out
    assert "edges (7):" in out
    assert "path condition: HOLDS" in out
    expected = export_dot(build_overlap_graph(sum_of_words_profile(resolve("@w_cp"))))
    assert dot_path.read_text() == expected


def test_graph_refusals(capsys):
    code, out, _ = run(capsys, "graph", "--w", "@v_cp")
    assert code == 1
    assert "not well defined" in out
    code, _, err = run(capsys, "graph", "--w",
                       "S111 S1* + S112 S21* + S12 S221* + S2 S222*")
    assert code == 3
    assert "degrees" in err


def test_graph_path_failure_exit(capsys):
    code, out, _ = run(capsys, "graph", "--w",
                       "S11 S111* + S121 S112* + S122 S12* + S21 S211* "
                       "+ S221 S212* + S222 S22*")
    # shift of w0: well-formed graph whose path condition fails
    assert code == 1
    assert "path condition: FAILS" in out


def test_graph_incomplete_edge_rule_exit(capsys):
    # a unitary whose pair (11, 12) has no successor tail: the graph route
    # cannot decide it, and preserves-uhf falls back to the cocycle route
    w = ("S11 S12* + S12 S22* + S211 S112* + S212 S212* + S2211 S1111* "
         "+ S2212 S2111* + S2221 S1112* + S2222 S2112*")
    code, out, _ = run(capsys, "graph", "--w", w)
    assert code == 2
    assert out == "INCOMPLETE_EDGE_RULE: pair (11, 12) has no successor tail\n"
    code, out, _ = run(capsys, "preserves-uhf", "--w", w)
    assert code == 0
    assert out.splitlines()[:2] == ["verdict: PRESERVES", "method: cocycle"]


# -- intertwiner commands ----------------------------------------------------

def test_intertwiner_check(capsys):
    code, out, _ = run(capsys, "intertwiner", "--u", "@u_cp", "--check", "@v_cp")
    assert code == 0 and "SELF-INTERTWINER" in out
    code, out, _ = run(capsys, "intertwiner", "--u", "@u_cp", "--check", "S1 S2* + S2 S1*")
    assert code == 1 and "NOT A SELF-INTERTWINER" in out


def test_intertwiner_basis(capsys):
    code, out, _ = run(capsys, "intertwiner", "--u", "@u_cp", "--level", "0")
    assert code == 0
    assert "dimension: 1" in out
    assert "basis[0] (core): I" in out
    code, _, _ = run(capsys, "intertwiner", "--u", "@u_cp", "--check", "x", "--level", "1")
    assert code == 3  # mutually exclusive flags


def test_perturb(capsys):
    code, out, _ = run(capsys, "perturb", "--u", "@u_cp", "--v", "@v_cp")
    assert code == 0
    assert resolve(out.strip()) == resolve("@w_cp")
    code, _, err = run(capsys, "perturb", "--u", "@u_cp", "--v", "S1 S2* + S2 S1*")
    assert code == 1
    assert "precondition failed" in err


def test_perturb_names_a_non_unitary_v(capsys):
    # 2 I is a self-intertwiner, but the product it makes is not unitary
    code, out, err = run(capsys, "perturb", "--u", "@u_cp", "--v", "2 I")
    assert code == 3 and out == ""
    assert "error: perturb needs a unitary v" in err


def test_agree(capsys):
    code, out, _ = run(capsys, "agree", "--v", "@u_cp", "--w", "@w_cp", "--depth", "3")
    assert code == 0 and "AGREE" in out
    code, out, _ = run(capsys, "agree", "--v", "S2 S1* + S1 S2*", "--w", "I", "--depth", "2")
    assert code == 1 and "DISAGREE at level 1" in out


# -- verification and search -------------------------------------------------

def test_verify_examples(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify-examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all claims pass"
    assert len([ln for ln in lines if ln.startswith("PASS")]) == len(lines) - 1
    # a claim that raises is reported with its message and fails the run
    monkeypatch.setattr(cuntzcalc.exprio, "W_CP_OVERLAP", {"labels": {}, "edges": []})
    code, out, _ = run(capsys, "verify-examples")
    assert code == 1
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL  overlap graph matches the tabulated classes and edges "
                               "(overlap data mismatch: got ")
    assert out.splitlines()[-1] == "1 claim(s) failed"


# Recorded standard output (tests/golden/<name>.txt) and exit code.
GOLDEN_CASES = {
    "intertwiner_u_cp_level3": (("intertwiner", "--u", "@u_cp", "--level", "3"), 0),
    "preserves_rotation_json": (("preserves-uhf", "--json", "--w", ROT), 0),
    "preserves_w0_cocycle_json": (("preserves-uhf", "--json", "--w", W0, "--method", "cocycle"), 1),
    "normalize_halves": (("normalize", "1/2 S1 S1* + 1/2 S1 S1* + 2 S2 S2*"), 0),
}


def test_outputs_match_the_recorded_ones_byte_for_byte(capsys):
    for name, (argv, want) in GOLDEN_CASES.items():
        code, out, _ = run(capsys, *argv)
        assert code == want, name
        assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes(), name
        # coefficients print as exact rationals, never as floats or reprs
        assert not re.search(r"\d\.\d|Fraction", out), name


def test_search_exhaustive_k1(capsys):
    code, out, _ = run(capsys, "search", "--k", "1")
    assert code == 0
    assert "candidates: 2" in out


def test_search_reports_flagged_candidates(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--samples", "20", "--level", "3")
    assert code == 0
    assert out.splitlines()[1:] == [
        "intertwiner dimension at level 3: 1x18, 2x1, 5x1",
        "candidates with non-core basis elements: 1",
        "  #7 dim 5, 2 non-core: S122 S111* + S121 S112* + S221 S121* + S211 S122* "
        "+ S112 S211* + S111 S212* + S222 S221* + S212 S222*",
    ]


def test_search_sampled_is_deterministic(capsys):
    args = ("search", "--k", "2", "--samples", "6", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    import cuntzcalc.cli as cli

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    serial = run(capsys, "search", "--k", "1")
    assert started == []
    assert run(capsys, "search", "--k", "1", "--jobs", "1000") == serial
    assert started == [2]


def test_search_refuses_fewer_than_one_job(capsys, monkeypatch):
    import cuntzcalc.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "search", "--k", "1", "--jobs", jobs)
        assert (code, out) == (3, "")
        assert err == "error: --jobs must be >= 1\n"


def test_search_guardrails(capsys):
    # exhaustive search lists (n^k)! permutations: refused above 8! = 40,320
    for argv in (("--k", "4"), ("--n", "3", "--k", "3"), ("--n", "3", "--k", "2")):
        code, _, err = run(capsys, "search", *argv)
        assert code == 3
        assert "--samples" in err
    assert run(capsys, "search", "--k", "-1")[0] == 3
    code, out, err = run(capsys, "search", "--k", "2", "--samples", "-1")
    assert code == 3 and out == ""
    assert "--samples" in err
    code, out, _ = run(capsys, "search", "--k", "2", "--samples", "0")
    assert code == 0 and out.startswith("candidates: 0\n")


# -- error mapping -----------------------------------------------------------

def test_usage_errors_exit_3(capsys, monkeypatch):
    assert run(capsys, "nonsense")[0] == 3
    # run as a script, the exit status is main's
    monkeypatch.setattr(sys, "argv", ["cuntzcalc", "nonsense"])
    monkeypatch.delitem(sys.modules, "cuntzcalc.cli")
    with pytest.raises(SystemExit) as e:
        runpy.run_module("cuntzcalc.cli", run_name="__main__")
    assert e.value.code == 3
    assert run(capsys, "normalize", "S1 +")[0] == 3
    assert run(capsys, "normalize", "@nope")[0] == 3
    assert run(capsys, "preserves-uhf", "--w", "@w_cp", "--method", "psychic")[0] == 3
    assert run(capsys, "eq", "S1")[0] == 3
    # a negative depth is refused on every route, the graph route (auto) too
    assert run(capsys, "agree", "--v", W0, "--w", "@w_cp", "--depth", "-1")[0] == 3
    for method in ("cocycle", "auto"):
        assert run(capsys, "preserves-uhf", "--w", "@w_cp", "--method", method,
                   "--depth", "-3")[0] == 3
    assert run(capsys, "cocycles", "--w", "@w_cp", "--k", "-2")[0] == 3
    assert run(capsys, "agree", "--v", "@u_cp", "--w", "@w_cp", "--depth", "0")[0] == 0
