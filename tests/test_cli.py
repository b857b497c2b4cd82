import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionnet.cli import main, write_outputs
from ionnet.protocols import ExperimentOutput
from ionnet.scenario import loads_scenario

ROOT = Path(__file__).resolve().parents[1]


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = (p.strip() for p in line.split("=", 1))
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def test_budget_subcommand(tmp_path):
    out = tmp_path / "budget"
    assert main(["budget", "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert f"{summary['success_probability']:.2g}" == "9.7e-06"
    assert abs(summary["expected_rate_per_s"] - 4.5) / 4.5 < 0.05
    assert (out / "resolved_config.cfg").exists()


def test_timing_subcommand(tmp_path):
    out = tmp_path / "timing"
    assert main(["timing", "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["gate_time_s"] == pytest.approx(1e-4, rel=1e-12)
    assert summary["phase_flip_time_s"] == pytest.approx(5e-5, rel=1e-12)


def test_phase_scan_noiseless_offset(tmp_path):
    cfg = tmp_path / "noiseless.cfg"
    cfg.write_text(
        "[link_errors]\natom_photon_fidelity = 1.0\nmode_overlap = 1.0\n"
        "[gate]\ndepolarizing_p = 0.0\n"
        "[phase_ledger]\ndelta_tau = 0.0\ndelta_x = 0.0\n"
        "[detectors]\nsingle_qubit_error = 0.0\ntwo_qubit_overlap = 0.0\n"
    )
    out = tmp_path / "scan"
    assert main([
        "phase-scan", "--config", str(cfg), "--out", str(out),
        "--seed", "4", "--shots", "800",
    ]) == 0
    summary = read_summary(out / "summary.txt")
    assert abs(summary["branch_phase_offset"] - math.pi) < 0.05
    assert (out / "phase_scan_phid0.csv").exists()
    assert (out / "phase_scan_phidpi.csv").exists()


def test_determinism_byte_identical(tmp_path):
    args = ["remote-bell", "--seed", "21", "--trials", "400"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_outputs_embed_seed_and_hash(tmp_path):
    out = tmp_path / "rb"
    assert main(["remote-bell", "--out", str(out), "--seed", "9", "--trials", "300"]) == 0
    for name in ("summary.txt", "populations_phid0.csv"):
        text = (out / name).read_text()
        assert "# seed = 9" in text
        assert "# config_sha256 = " in text


def test_invalid_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[link_budget]\nrep_rate = -1\n")
    assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["budget", "--config", "/no/such.cfg", "--out", str(tmp_path / "x")]) == 2


def test_bad_trials_exit_2(tmp_path):
    assert main(["remote-bell", "--out", str(tmp_path / "x"), "--trials", "0"]) == 2


def test_runtime_failure_exits_3(tmp_path):
    # output directory path collides with an existing file
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["budget", "--out", str(blocker)]) == 3


def test_local_gate_subcommand(tmp_path):
    out = tmp_path / "lg"
    assert main(["local-gate", "--out", str(out), "--seed", "2", "--shots", "600"]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["gate_fidelity_exact"] == pytest.approx(0.85, abs=1e-9)
    assert summary["even_population_exact"] == pytest.approx(0.90, abs=1e-9)
    assert (out / "parity.csv").exists()


def test_modular_3q_subcommand_small(tmp_path):
    out = tmp_path / "m3"
    assert main([
        "modular-3q", "--out", str(out), "--seed", "2",
        "--trials", "400", "--shots", "400",
    ]) == 0
    summary = read_summary(out / "summary.txt")
    assert 0.5 < summary["corr_even_given_remote1_exact"] < 1.0
    assert (out / "parity_remote1.csv").exists()
    assert (out / "parity_remote0.csv").exists()
    assert (out / "populations.csv").exists()


def test_coherence_subcommand_small(tmp_path):
    out = tmp_path / "coh"
    assert main([
        "coherence", "--out", str(out), "--seed", "6",
        "--trials", "500", "--shots", "500",
    ]) == 0
    summary = read_summary(out / "summary.txt")
    assert abs(summary["tau_fit_exact_s"] - 1.12) / 1.12 < 0.02
    assert summary["d_ent_m"] > 0
    assert (out / "coherence.csv").exists()
    assert (out / "waiting.csv").exists()


def test_dark_counts_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("[link_errors]\natom_photon_fidelity = 0.92\ndark_counts = 0.0\n")
    assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"{cfg}:3: unknown key link_errors.dark_counts" in capsys.readouterr().err


def test_numpy_floats_written_as_plain_numbers(tmp_path):
    output = ExperimentOutput(
        tables={"t": (("x", "y"), [(np.float64(0.05), np.float64(1e-12))])},
        summary={"p": np.float64(0.05), "n": np.int64(7)},
    )
    write_outputs(tmp_path, "budget", loads_scenario(""), 1, output)
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "p = 0.05" in summary
    assert "n = 7" in summary
    assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "0.05,1e-12"


def test_benchmark_trace_hooks_bind():
    # perfbench/layertrace.py rebinds named ionnet entry points and fails
    # when one of them is no longer bound in the package.
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "import ionnet.cli, layertrace; layertrace.install()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
