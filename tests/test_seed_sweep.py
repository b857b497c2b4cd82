"""scripts/seed_sweep.py runs every sampled acceptance check and reports
its miss count."""

import importlib.util
import re
from pathlib import Path

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
    assert len(lines) == 1 + len(seed_sweep.CHECKS)
    for line, (check, _, _) in zip(lines[1:], seed_sweep.CHECKS):
        assert re.fullmatch(rf"{re.escape(check)}: [0-2] of 2 missed \(\d+\.\d %\).*", line), line
