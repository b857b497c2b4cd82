"""scripts/seed_sweep.py runs every sampled acceptance check and reports
its miss count; the README's miss-rate table lists the same checks."""

import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from acceptance_checks import CHECKS, populations_rule

ROOT = Path(__file__).resolve().parents[1]


def load_seed_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", ROOT / "scripts" / "seed_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_check(capsys):
    seed_sweep = load_seed_sweep()
    assert seed_sweep.main(["--seeds", "2", "--first", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seeds 8-9:"
    assert len(lines) == 1 + len(CHECKS)
    for line, (name, check) in zip(lines[1:], CHECKS.items()):
        match = re.fullmatch(
            rf"{re.escape(name)} \(stated rate (\S+)\): [0-2] of 2 missed \(\d+\.\d %\).*", line
        )
        assert match and float(match[1]) == check.rate, line


def _readme_miss_rate_rows() -> list[tuple[str, str]]:
    """(check, stated rate) of each row of the README's miss-rate table."""
    rows, in_table = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells == ["Check", "Form", "Stated rate", "Seeds missed"]:
            in_table = True
        elif in_table and not line.startswith("|"):
            break
        elif in_table and not set(cells[0]) <= set("-"):
            rows.append((cells[0], cells[2]))
    return rows


def test_readme_table_lists_the_checks():
    rows = _readme_miss_rate_rows()
    assert [name for name, _ in rows] == list(CHECKS)
    # A stated rate may be marked approximate (~) or an upper figure (<).
    assert [float(rate.lstrip("~<")) for _, rate in rows] == [c.rate for c in CHECKS.values()]


@pytest.mark.parametrize("table", ["populations_phid0", "populations_phidpi"])
@pytest.mark.parametrize("column", ["estimate", "uncertainty"])
def test_populations_rule_fails_on_nan(table, column):
    tables = {
        key: {"estimate": np.full(4, 0.25), "exact": np.full(4, 0.25), "uncertainty": np.full(4, 0.01)}
        for key in ("populations_phid0", "populations_phidpi")
    }
    assert populations_rule(SimpleNamespace(tables=tables))[0]
    tables[table][column][1] = np.nan
    assert not populations_rule(SimpleNamespace(tables=tables))[0]
