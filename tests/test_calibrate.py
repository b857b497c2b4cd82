"""The shipped calibrated constants are the ones scripts/calibrate.py
derives."""

import importlib.util
from pathlib import Path

from ionnet.scenario import LinkErrorModel, load_scenario

ROOT = Path(__file__).resolve().parents[1]


def load_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", ROOT / "scripts" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_constants_match_calibration(capsys):
    calibrate = load_calibrate()
    overlap = calibrate.calibrate_mode_overlap()
    crosstalk = calibrate.calibrate_crosstalk()
    assert LinkErrorModel().mode_overlap == 0.9237467653169369 == overlap
    shipped = load_scenario(ROOT / "configs" / "calibrated_3q.cfg")
    assert shipped.link_errors.mode_overlap == overlap
    assert shipped.protocol.crosstalk_depol == 0.13 == crosstalk
    out = capsys.readouterr().out
    assert "np.float64" not in out
    # Every row prints the signed residuals, the readout-free pair and its gap.
    rows = [line for line in out.splitlines() if line.startswith("  q=")]
    assert len(rows) == 21
    for row in rows:
        assert row.count(" [") == 3
        assert "C_even_ideal=" in row and "C_odd_ideal=" in row and "gap=+0.0400" in row
