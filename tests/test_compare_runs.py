"""scripts/compare_runs.py names every changed column and field of two
--out directories with the size of its change, and nothing else."""

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
    scenario = loads_scenario("[run]\nphi_points = 6\n")
    old, new = tmp_path / "old", tmp_path / "new"
    write_outputs(old, "local-gate", scenario, 17, local_gate_experiment(scenario, 17, 100, 200))
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

    assert not compare_runs.report("run", old, new)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(items)
    (line,) = [line for line in lines if not line.endswith(": identical")]
    assert line.startswith("run parity.csv exact_reported: 1 of 6 changed, largest relative 1e-09")


def test_identical_directories(compare_runs, outputs, capsys):
    old = outputs[0]
    assert all(item[2] == 0 for item in compare_runs.compare(old, old))
    assert compare_runs.report("run", old, old)
    assert all(line.endswith(": identical") for line in capsys.readouterr().out.splitlines())
