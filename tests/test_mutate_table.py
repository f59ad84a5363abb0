"""The table of equivalent mutants in tools/mutate.py names live code."""

import ast
import importlib.util
from pathlib import Path

import cuntzcalc

SRC = Path(cuntzcalc.__file__).parent
MUTATE = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def test_every_equivalent_mutant_names_a_live_site():
    spec = importlib.util.spec_from_file_location("mutate", MUTATE)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    live = set()
    for module in {module for module, _, _ in mutate.EQUIVALENT}:
        source = (SRC / module).read_text()
        lines = source.splitlines()
        live |= {(module, lines[line - 1].strip(), label)
                 for _, _, line, label in mutate.sites(ast.parse(source))}
    assert len(mutate.EQUIVALENT) >= 1
    assert sorted(set(mutate.EQUIVALENT) - live) == []
