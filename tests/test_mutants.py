"""scripts/mutants.py plants each known fault in a copy of the tree and
reports whether the tests catch it; a smoke run on one mutant and one
test (about 1.5 s)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GATE_TIME_TEST = "tests/test_relations.py::test_gate_duration_is_a_wait_on_the_calibrated_layout"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_zero_gate_time_is_caught(capsys):
    assert load_mutants().main(["M11", "--", "-q", GATE_TIME_TEST]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"CAUGHT M11 by {GATE_TIME_TEST} (")
    assert lines[1:] == ["caught 1 of 1"]


def test_each_mutants_old_text_occurs_once_in_its_file(tmp_path):
    mutants = load_mutants()
    for mutant in mutants.MUTANTS:
        tree = tmp_path / mutant.name
        (tree / mutant.file).parent.mkdir(parents=True)
        (tree / mutant.file).write_text((ROOT / mutant.file).read_text(encoding="utf-8"))
        mutants.plant(mutant, tree)
        assert mutant.new in (tree / mutant.file).read_text(encoding="utf-8")


def test_unknown_mutant_is_refused():
    with pytest.raises(SystemExit, match="unknown mutants"):
        load_mutants().main(["M99"])
