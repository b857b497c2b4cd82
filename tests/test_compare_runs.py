"""scripts/compare_runs.py names every changed column and field of two
--out directories with the size of its change, and nothing else, then
counts the items identical and the invocations failed."""

import importlib.util
import shutil
from pathlib import Path

import pytest

from ionnet.cli import write_outputs
from ionnet.protocols import local_gate_experiment
from ionnet.scenario import loads_scenario

ROOT = Path(__file__).resolve().parents[1]


def load_compare_runs():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", ROOT / "scripts" / "compare_runs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare_runs():
    return load_compare_runs()


@pytest.fixture
def outputs(tmp_path):
    # One small local-gate run, written twice; in the second, one exact
    # cell of parity.csv is planted 1e-9 (relative) off.
    scenario = loads_scenario("", phi_points=6, seed=17, n_trials=100, shots_per_point=200)
    old, new = tmp_path / "old", tmp_path / "new"
    write_outputs(old, "local-gate", scenario, local_gate_experiment(scenario))
    shutil.copytree(old, new)
    path = new / "parity.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[3].split(",")
    cells = lines[5].split(",")
    column = header.index("exact_reported")
    value = float(cells[column])
    cells[column] = repr(value * (1.0 + 1e-9))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return old, new, value


def test_names_the_planted_change_and_nothing_else(compare_runs, outputs, capsys):
    old, new, value = outputs
    items = compare_runs.compare(old, new)
    changed = [item for item in items if item[2]]
    assert len(changed) == 1
    name, key, n_changed, cells, relative, absolute = changed[0]
    assert (name, key, n_changed, cells) == ("parity.csv", "exact_reported", 1, 6)
    assert relative == pytest.approx(1e-9, rel=1e-6)
    assert absolute == pytest.approx(1e-9 * abs(value), rel=1e-6)
    assert len(items) > 10  # every column and summary field is compared
    assert compare_runs.byte_changes(old, new) == ["parity.csv"]

    assert compare_runs.report("run", old, new) == (len(items) - 1, len(items))
    (line,) = capsys.readouterr().out.splitlines()  # only the changed item is printed
    assert line.startswith("run parity.csv exact_reported: 1 of 6 changed, largest relative 1e-09")


def test_identical_directories(compare_runs, outputs, capsys):
    old = outputs[0]
    items = compare_runs.compare(old, old)
    assert all(item[2] == 0 for item in items)
    assert compare_runs.report("run", old, old) == (len(items), len(items))
    assert capsys.readouterr().out == ""


def test_bytes_only_change_counts_as_one_changed_item(compare_runs, outputs, capsys):
    old, new, _ = outputs
    shutil.copy(old / "parity.csv", new / "parity.csv")
    config = new / "resolved_config.cfg"
    config.write_text(config.read_text(encoding="utf-8") + "# note\n", encoding="utf-8")
    n_items = len(compare_runs.compare(old, new))
    assert compare_runs.report("run", old, new) == (n_items, n_items + 1)
    assert capsys.readouterr().out == "run resolved_config.cfg: bytes differ\n"


def test_main_prints_changed_items_then_one_summary_line(compare_runs, outputs, monkeypatch,
                                                          capsys):
    old, new, _ = outputs
    outs = {"old": {"a": old, "b": old, "c": old}, "new": {"a": old, "b": new, "c": None}}
    monkeypatch.setattr(compare_runs, "run_matrix", lambda tree, work, seed: outs[work.name])
    assert compare_runs.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    n_items = len(compare_runs.compare(old, old))
    assert lines[0].startswith("b parity.csv exact_reported: 1 of 6 changed")
    assert lines[1] == "c: not compared, a run is missing or failed"
    assert lines[2] == (
        f"{2 * n_items - 1} of {2 * n_items} items identical, 1 of 3 invocations failed"
    )
    assert len(lines) == 3

    outs["new"] = {"a": old}
    outs["old"] = {"a": old}
    assert compare_runs.main([]) == 0
    assert capsys.readouterr().out == (
        f"{n_items} of {n_items} items identical, 0 of 1 invocations failed\n"
    )
