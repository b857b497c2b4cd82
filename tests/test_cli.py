import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ionnet import detection, montecarlo, protocols
from ionnet.cli import SUBCOMMANDS, driver, main, write_outputs
from ionnet.fitting import KS_STAT_CRITICAL, MAX_TAU_REL_STDERR
from ionnet.records import replace
from ionnet.scenario import (
    _SECTIONS,
    _SETTING_KINDS,
    ExperimentOutput,
    ScenarioError,
    emit_scenario,
    expected_rate,
    format_value,
    loads_scenario,
)

ROOT = Path(__file__).resolve().parents[1]
CALIBRATED = ROOT / "configs" / "calibrated_3q.cfg"
CALIBRATED_STEPS = (
    "step.1 = herald\nstep.2 = reinit q1\nstep.3 = gate q1 q2\n"
    "step.4 = analyze q1 q2\nstep.5 = measure\n"
)


def calibrated_with_steps(tmp_path: Path, steps: str) -> Path:
    """The calibrated scenario with its step list replaced by ``steps``."""
    text = CALIBRATED.read_text()
    assert CALIBRATED_STEPS in text
    cfg = tmp_path / "steps.cfg"
    cfg.write_text(text.replace(CALIBRATED_STEPS, steps))
    return cfg


def assert_rejected(tmp_path, capsys, argv, reason):
    """The run exits 2 before any work with an error line that names
    ``reason``, and writes nothing."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert errors and reason in errors[0]
    assert not out.exists()


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


@pytest.mark.parametrize(
    "text, d_ent",
    [
        ("[link_budget]\np_bell = 0\n", 0.0),
        ("[memory]\ntau_s = inf\n", math.inf),
        ("[link_budget]\np_bell = 0\n[memory]\ntau_s = inf\n", None),
    ],
    ids=["zero-rate", "no-decay", "zero-rate-no-decay"],
)
def test_budget_reports_no_undetermined_distance(tmp_path, capsys, text, d_ent):
    # d_ent_m is rate * tau_s: a zero rate with an infinite tau_s is 0 * inf,
    # which is left out with a warning rather than written as nan.
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    warnings = [w for w in capsys.readouterr().err.splitlines() if w.startswith("warning:")]
    if d_ent is None:
        assert "d_ent_m" not in summary
        assert len(warnings) == 1 and "d_ent_m" in warnings[0], warnings
    else:
        assert summary["d_ent_m"] == d_ent
        assert warnings == []


def test_timing_subcommand(tmp_path):
    out = tmp_path / "timing"
    assert main(["timing", "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["gate_time_s"] == pytest.approx(1e-4, rel=1e-12)
    assert summary["phase_flip_time_s"] == pytest.approx(5e-5, rel=1e-12)
    # Then the default script's timeline.
    lines = (out / "summary.txt").read_text().splitlines()
    timeline = lines[lines.index("sideband_rabi_hz = 7071.067811865475") + 1:]
    assert timeline == [
        "step_1_herald_s = 0.0",
        "step_2_reinit_s = 0.0",
        "step_3_gate_s = 0.0001",
        "step_4_analyze_s = 0.0",
        "step_5_measure_s = 0.0",
        "script_time_s = 0.0001",
    ]


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


def test_resolved_config_reproduces_a_flagged_run(tmp_path, capsys):
    # The flags set [run], so the written config records them, and a run
    # of that config alone writes the same files. The count of defaulted
    # fields goes to stderr, not into the files.
    first, again = tmp_path / "a", tmp_path / "b"
    flags = ["--seed", "3", "--trials", "500", "--shots", "7"]
    assert main(["remote-bell", *flags, "--out", str(first)]) == 0
    defaulted = len(loads_scenario("").defaulted)
    assert capsys.readouterr().err.endswith(f"\n{defaulted} fields left out of the config\n")
    config = first / "resolved_config.cfg"
    assert main(["remote-bell", "--config", str(config), "--out", str(again)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    assert "n_trials = 500\nseed = 3\nshots_per_point = 7\n" in config.read_text()


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


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_missing_config_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "in.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"[run]\nseed = 3 \xff\n")
    # main returns 2 instead of raising, so the console script prints no
    # traceback.
    assert_rejected(tmp_path, capsys, ["budget", "--config", str(cfg)], str(cfg))


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--trials", "0", "run.n_trials = 0 is not a count from 1 to 2**63 - 1"),
        ("--shots", "0", "run.shots_per_point = 0 is not a count from 1 to 2**63 - 1"),
        ("--seed", "-1", "run.seed = -1 is not a seed >= 0"),
    ],
)
def test_bad_run_flag_exits_2(tmp_path, capsys, flag, value, reason):
    # A flag sets [run], so the [run] rule rejects it and names the field.
    assert_rejected(tmp_path, capsys, ["remote-bell", flag, value], reason)


# Counts above 2**63 - 1, the largest that numpy draws; each is rejected
# before anything is allocated.
BEYOND_INT64 = (2**63, 10**20)


@pytest.mark.parametrize("count", BEYOND_INT64)
@pytest.mark.parametrize(
    "sub, flag, key",
    [("phase-scan", "--shots", "shots_per_point"), ("remote-bell", "--trials", "n_trials")],
)
def test_count_beyond_int64_flag_exits_2(tmp_path, capsys, sub, flag, key, count):
    # A flag sets [run], so RunSettings rejects it as it rejects the key.
    reason = f"run.{key} = {count} is not a count from 1 to 2**63 - 1"
    assert_rejected(tmp_path, capsys, [sub, flag, str(count)], reason)


@pytest.mark.parametrize("count", BEYOND_INT64)
@pytest.mark.parametrize("sub, key", [("phase-scan", "shots_per_point"), ("remote-bell", "n_trials")])
def test_count_beyond_int64_in_run_section_exits_2(tmp_path, capsys, sub, key, count):
    cfg = tmp_path / "count.cfg"
    cfg.write_text(f"[run]\n{key} = {count}\n")
    reason = f"run.{key} = {count} is not a count from 1 to 2**63 - 1"
    assert_rejected(tmp_path, capsys, [sub, "--config", str(cfg)], reason)


def fail_second_write(monkeypatch):
    """Make the second ``Path.write_text`` call raise, as a full disk would."""
    real = Path.write_text
    calls = []

    def write_text(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    return calls


def test_runtime_failure_exits_3(tmp_path, monkeypatch, capsys):
    # A write that fails part-way exits 3 and leaves neither the --out
    # directory nor the temporary directory it was written in.
    calls = fail_second_write(monkeypatch)
    assert main(["remote-bell", "--trials", "300", "--out", str(tmp_path / "x")]) == 3
    assert len(calls) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_earlier_run(tmp_path, monkeypatch):
    out = tmp_path / "x"
    assert main(["remote-bell", "--trials", "300", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    fail_second_write(monkeypatch)
    assert main(["budget", "--out", str(out)]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert list(tmp_path.iterdir()) == [out]


def test_rerun_into_one_directory_leaves_only_its_files(tmp_path):
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    assert main(["remote-bell", "--trials", "300", "--out", str(out)]) == 0
    assert (out / "populations_phid0.csv").exists()
    assert main(["budget", "--out", str(out)]) == 0
    assert main(["budget", "--out", str(fresh)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["resolved_config.cfg", "summary.txt"]
    assert [(out / f).read_bytes() for f in files] == [(fresh / f).read_bytes() for f in files]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "o"]


def test_empty_out_directory_is_used(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["budget", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.cfg", "summary.txt"]


def test_out_through_symlink_replaces_the_run_it_names(tmp_path):
    # The run is staged beside the directory the link points at, so the
    # rename replaces that run and the link stays a link.
    run, link = tmp_path / "data" / "run", tmp_path / "link"
    assert main(["budget", "--out", str(run)]) == 0
    link.symlink_to(Path("data") / "run")
    assert main(["budget", "--seed", "5", "--out", str(link)]) == 0
    assert "# seed = 5" in (run / "summary.txt").read_text().splitlines()
    assert link.is_symlink()
    for directory in (tmp_path, run.parent):
        assert not [p.name for p in directory.iterdir() if p.name.startswith(".")]


def test_unequal_columns_rejected_and_earlier_run_kept(tmp_path):
    # zip would cut such a table short without a word.
    out = tmp_path / "x"
    assert main(["budget", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    output = ExperimentOutput(tables={"t": {"x": [0.1, 0.2], "y": [0.3]}})
    with pytest.raises(ValueError, match="unequal length"):
        write_outputs(out, "budget", loads_scenario(""), output)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert list(tmp_path.iterdir()) == [out]


def test_every_driver_takes_the_same_arguments():
    # The seed and the counts are read from scenario.run, so a driver
    # runs what resolved_config.cfg records.
    assert len(SUBCOMMANDS) == 7
    for name in SUBCOMMANDS:
        params = tuple(inspect.signature(driver(name)).parameters)
        assert params == ("scenario",), name


@pytest.mark.parametrize(
    "foreign",
    ["notes.txt", "summary-not-ionnet", "summary-dir", "earlier-run-plus-subdir"],
)
def test_foreign_out_directory_exits_2_untouched(tmp_path, capsys, foreign):
    out = tmp_path / "o"
    if foreign == "earlier-run-plus-subdir":
        assert main(["budget", "--out", str(out)]) == 0
        (out / "keep").mkdir()
    else:
        out.mkdir()
    if foreign == "notes.txt":
        (out / "notes.txt").write_text("mine\n")
    elif foreign == "summary-not-ionnet":
        (out / "summary.txt").write_text("# my own summary\n")
    elif foreign == "summary-dir":
        (out / "summary.txt").mkdir()
    before = sorted((p.name, p.is_dir(), p.is_file() and p.read_bytes()) for p in out.iterdir())
    capsys.readouterr()
    assert main(["budget", "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert errors and str(out) in errors[0]
    assert sorted((p.name, p.is_dir(), p.is_file() and p.read_bytes()) for p in out.iterdir()) == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    out = blocker / below if below else blocker
    assert main(["budget", "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert errors and str(out) in errors[0]
    assert blocker.read_text() == "not a directory"
    assert sorted(tmp_path.iterdir()) == [blocker]


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
    assert summary["tau_fit_rel_stderr"] == pytest.approx(
        summary["tau_fit_stderr"] / summary["tau_fit_s"], rel=1e-12
    )
    assert summary["tau_fit_ok"] == "True"
    assert summary["d_ent_m"] > 0
    assert (out / "coherence.csv").exists()
    assert (out / "waiting.csv").exists()


def test_coherence_undetermined_tau_withholds_distance(tmp_path, capsys):
    # A coherence time far beyond the delay grid leaves tau undetermined:
    # the run still succeeds, flags the fit and leaves out d_ent_m.
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("[memory]\ntau_s = 1e9\n")
    out = tmp_path / "coh"
    argv = ["coherence", "--config", str(cfg), "--seed", "1", "--trials", "500", "--shots", "2000"]
    assert main([*argv, "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["tau_fit_ok"] == "False"
    assert summary["tau_fit_rel_stderr"] > MAX_TAU_REL_STDERR
    assert "d_ent_m" not in summary
    err = capsys.readouterr().err.splitlines()
    warnings = [line for line in err if line.startswith("warning: ")]
    assert len(warnings) == 1 and "d_ent_m" in warnings[0]



def test_coherence_on_a_delay_grid_to_the_float_limit_warns(tmp_path, capsys):
    # Neither fit determines tau on a grid to the largest or the smallest
    # floats: both taus built from them are withheld, each with a warning.
    for delay_max in ("1e300", "1e-300"):
        cfg = tmp_path / "delays.cfg"
        cfg.write_text(f"[run]\ndelay_max_s = {delay_max}\n")
        out = tmp_path / f"coh{delay_max}"
        argv = ["coherence", "--config", str(cfg), "--seed", "1", "--trials", "500"]
        assert main([*argv, "--shots", "2000", "--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert summary["tau_fit_ok"] == "False" and summary["tau_fit_stderr"] == math.inf
        assert "tau_fit_exact_s" not in summary and "d_ent_m" not in summary
        warnings = [w for w in capsys.readouterr().err.splitlines() if w.startswith("warning: ")]
        assert len(warnings) == 2 and all("tau undetermined" in w for w in warnings)
        assert "tau_fit_exact_s" in warnings[0] and "d_ent_m" in warnings[1]


# Each run would evolve the register for a time whose Zeeman beat phase
# delta_omega_ab * t overflows a float.
OVERFLOWING_BEATS = {
    "echo-half": ("coherence", "[run]\ndelay_max_s = 1e305\n", "run.delay_max_s"),
    "phase-scan-delay": ("phase-scan", "[run]\nphase_scan_delay_s = 1e305\n",
                         "run.phase_scan_delay_s"),
    "reinit": ("modular-3q", "[protocol]\nreinit_duration_s = 1e305\n",
               "protocol.reinit_duration_s"),
    "gate": ("modular-3q", "[gate]\ndetuning_hz = 1e-305\n", "gate.detuning_hz"),
    "wait": ("modular-3q", "[protocol]\nstep.1 = herald\nstep.2 = wait 1e305\n"
             "step.3 = reinit q1\nstep.4 = gate q1 q2\nstep.5 = analyze q1 q2\n"
             "step.6 = measure\n", "protocol.step.2 (wait)"),
}


@pytest.mark.parametrize("sub, text, setting", OVERFLOWING_BEATS.values(), ids=OVERFLOWING_BEATS)
def test_overflowing_beat_phase_exits_2_before_any_work(
    tmp_path, capfd, monkeypatch, sub, text, setting
):
    def no_work(*args, **kwargs):
        raise AssertionError("the run propagated a state")

    for name in ("exact_branches", "propagate"):
        monkeypatch.setattr(protocols, name, no_work)
    cfg = tmp_path / "beat.cfg"
    cfg.write_text(text)
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    # One line on stderr, from the C level too: no warning, no LAPACK note.
    err = capfd.readouterr().err
    assert err.startswith("error: the Zeeman beat phase overflows") and err.count("\n") == 1
    assert "phase_ledger.delta_omega_ab = " in err and setting in err
    assert not (tmp_path / "out").exists()


def test_echo_beat_is_checked_over_each_half_of_the_delay(tmp_path):
    # delta_omega_ab times 1.5e304 s overflows, times each echo half does
    # not: the run evolves the pair for half the delay at a time.
    cfg = tmp_path / "beat.cfg"
    cfg.write_text("[run]\ndelay_max_s = 1.5e304\n")
    argv = ["coherence", "--config", str(cfg), "--trials", "200", "--shots", "50"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_finite_herald_phase_beyond_k_times_c_runs(tmp_path, sub):
    # (k*c)*delta_tau overflows, k*(c*delta_tau) = 3e298 does not: the
    # herald phase, about 1e305, is finite.
    cfg = tmp_path / "ledger.cfg"
    cfg.write_text("[phase_ledger]\nk = 1e300\ndelta_x = 1e5\n")
    argv = [sub, "--config", str(cfg), "--trials", "200", "--shots", "50"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_overflowing_herald_phase_exits_2_at_load(tmp_path, capfd, sub):
    # k*delta_x = 1e600 is inf: the engine would make a NaN phase factor of it.
    cfg = tmp_path / "ledger.cfg"
    cfg.write_text("[phase_ledger]\nk = 1e300\ndelta_x = 1e300\n")
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: the herald phase ") and err.count("\n") == 1
    for setting in ("phase_ledger.k = ", "delta_tau = ", "delta_x = ", "delta_phi_t = "):
        assert setting in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["remote-bell", "coherence", "modular-3q"])
def test_overflowing_waiting_times_exit_2_before_any_work(tmp_path, capfd, monkeypatch, sub):
    # p * rep_rate underflows to 0: the waiting times would sum to inf.
    def no_work(*args, **kwargs):
        raise AssertionError("the run propagated a state")

    for name in ("exact_branches", "propagate"):
        monkeypatch.setattr(protocols, name, no_work)
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("[link_budget]\nrep_rate = 1e-320\n")
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: link_budget.rep_rate = 1e-320 ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "budget")]) == 0


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_protocol_step_rule_names_its_line(tmp_path, capsys, sub):
    # The phonon bus acts within a module; the layout check runs in the load.
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("[protocol]\nstep.1 = herald\nstep.2 = gate q2 q3\nstep.3 = measure\n")
    assert_rejected(tmp_path, capsys, [sub, "--config", str(cfg)], "protocol.step.2 = gate q2 q3 ")


@pytest.mark.parametrize("sub", ["remote-bell", "coherence", "modular-3q"])
def test_saturating_attempt_counts_exit_2_before_any_work(tmp_path, capfd, monkeypatch, sub):
    # p = 1.9e-19: a trial's int64 attempt count could reach 2**63 - 1,
    # where numpy's geometric draw saturates and the rate comes out wrong.
    def no_work(*args, **kwargs):
        raise AssertionError("the run propagated a state")

    for name in ("exact_branches", "propagate"):
        monkeypatch.setattr(protocols, name, no_work)
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[link_budget]\np_bell = 1e-14\n")
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: link_budget gives a herald probability of ")
    assert err.endswith("2**63 - 1\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "budget")]) == 0


def test_small_drawable_herald_probability_gives_its_rate(tmp_path):
    # p = 1.9e-17 keeps every attempt count well below 2**63 - 1.
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[link_budget]\np_bell = 1e-12\n")
    out = tmp_path / "out"
    argv = ["remote-bell", "--config", str(cfg), "--trials", "200", "--shots", "50"]
    assert main([*argv, "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    expected = expected_rate(loads_scenario(cfg.read_text()).budget)
    assert abs(float(summary["rate_per_s"]) - expected) < 5 * float(summary["rate_stderr"])


@pytest.mark.parametrize("sub", ["coherence", "modular-3q"])
def test_vanishing_coherence_time_writes_finite_values(tmp_path, sub):
    # delay / tau_s exceeds the float range; pytest's filterwarnings fails
    # the run on an overflow warning.
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("[memory]\ntau_s = 1e-320\n")
    out = tmp_path / "out"
    argv = [sub, "--config", str(cfg), "--trials", "200", "--shots", "50", "--out", str(out)]
    assert main(argv) == 0
    for path in out.iterdir():
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text, path.name


@pytest.mark.parametrize("sub", ["remote-bell", "coherence", "modular-3q"])
def test_rate_fit_diagnostics_in_summary(tmp_path, sub):
    out = tmp_path / sub
    assert main([sub, "--out", str(out), "--seed", "3", "--trials", "300", "--shots", "300"]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["rate_ks_ok"] == str(summary["rate_ks_stat"] <= KS_STAT_CRITICAL)


def test_dark_counts_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("[link_errors]\natom_photon_fidelity = 0.92\ndark_counts = 0.0\n")
    assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"{cfg}:3: unknown key link_errors.dark_counts" in capsys.readouterr().err


def test_phi_d_key_rejected(tmp_path, capsys):
    # The detector phase comes with each herald; no setting chooses it.
    cfg = tmp_path / "old.cfg"
    cfg.write_text("[phase_ledger]\nphi_d = 3.0\n")
    reason = f"{cfg}:2: unknown key phase_ledger.phi_d"
    assert_rejected(tmp_path, capsys, ["remote-bell", "--config", str(cfg)], reason)


@pytest.mark.parametrize(
    "sub, setting",
    [
        ("modular-3q", "crosstalk_depol = 1.5"),
        ("remote-bell", "reinit_duration_s = -1"),
        ("budget", "crosstalk_depol = 1.5"),
        ("budget", "reinit_duration_s = -1"),
        # the herald takes the first atom as the module-A emitter
        ("remote-bell", "link = q3 q2"),
        # the default steps re-initialize q1 right after the herald
        ("remote-bell", "link = q1 q3"),
    ],
)
def test_protocol_value_out_of_range_exits_2(tmp_path, capsys, sub, setting):
    cfg = tmp_path / "protocol.cfg"
    cfg.write_text(f"[protocol]\n{setting}\n")
    key = setting.split(" = ")[0]
    assert_rejected(tmp_path, capsys, [sub, "--config", str(cfg)], f"protocol.{key} = ")


@pytest.mark.parametrize("sub", ["remote-bell", "phase-scan", "coherence", "modular-3q"])
def test_qubit_named_like_a_herald_photon_runs(tmp_path, sub):
    # The herald's photons carry labels of their own, so no qubit name
    # collides with them.
    cfg = tmp_path / "photon-name.cfg"
    cfg.write_text("[protocol]\nqubits_b = _ph_q2\nlink = q2 _ph_q2\n")
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_numpy_floats_written_as_plain_numbers(tmp_path):
    output = ExperimentOutput(
        tables={"t": {"x": [np.float64(0.05)], "y": [np.float64(1e-12)]}},
        summary={"p": np.float64(0.05), "n": np.int64(7)},
    )
    write_outputs(tmp_path, "budget", loads_scenario(""), output)
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "p = 0.05" in summary
    assert "n = 7" in summary
    assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "0.05,1e-12"


def test_replaced_ledger_writes_its_warning(tmp_path):
    scenario = loads_scenario("")
    scenario = replace(scenario, ledger=replace(scenario.ledger, delta_tau=1e-6))
    write_outputs(tmp_path, "budget", scenario, ExperimentOutput(summary={}))
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert [line for line in summary if line.startswith("# warning: ")] == [
        f"# warning: {warning}" for warning in scenario.ledger.warnings()
    ]
    assert "k*c*delta_tau" in summary[-1]


def test_columns_written_as_format_value_writes_each_cell(tmp_path):
    table = {
        "f": np.array([-0.0, 1e-17, 5e-324, math.inf, 0.1]),
        "i": np.array([0, -3, 7, 2**40, 1]),
        "p": [0.05, -0.0, 1e-17, 5e-324, -math.inf],
        "s": ["a", "b c", "-0.0", "", "x"],
    }
    scenario = loads_scenario("", seed=3)
    write_outputs(tmp_path, "budget", scenario, ExperimentOutput(tables={"t": table}, summary={}))
    rows = zip(*(np.asarray(col).tolist() for col in table.values()))
    digest = hashlib.sha256((tmp_path / "resolved_config.cfg").read_bytes()).hexdigest()
    lines = [
        "# ionnet budget",
        "# seed = 3",
        f"# config_sha256 = {digest}",
        "f,i,p,s",
        *(",".join(format_value(v) for v in row) for row in rows),
    ]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert lines[4] == "-0.0,0,0.05,a"
    assert lines[7] == "inf,1099511627776,5e-324,"


def python_env(**overrides: str | None) -> dict:
    """This process's environment with the package on the path and
    ``overrides`` applied; an override of None unsets the variable."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **overrides}
    return {k: v for k, v in env.items() if v is not None}


def run_python(code: str, *args: str, **env: str | None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with the package on the path."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=python_env(**env),
        capture_output=True,
        text=True,
    )


# Prints the OPENBLAS_THREAD_TIMEOUT in force when numpy is first looked
# up, while the console script looks up an engine subcommand's driver.
NUMPY_LOOKUP_PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Probe())
import ionnet.cli
ionnet.cli.driver("remote-bell")
print(seen[0] if seen else "numpy not looked up")
"""


@pytest.mark.parametrize("user_value, in_force", [(None, "4"), ("28", "28")])
def test_blas_thread_timeout_set_before_numpy_loads(user_value, in_force):
    # OpenBLAS reads the variable once, when numpy loads it; a value the
    # user set is kept. (Importing ionnet here has set it in os.environ.)
    proc = run_python(NUMPY_LOOKUP_PROBE, OPENBLAS_THREAD_TIMEOUT=user_value)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == in_force


def test_import_spends_no_cpu_on_idle_blas_workers():
    # OpenBLAS starts one worker per extra core when numpy loads; at its
    # own default timeout each busy-waits ~0.1 s of CPU for work that
    # never comes, so a fresh import used more CPU than wall time.
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip("one core: OpenBLAS starts no worker threads")
    env = python_env(OPENBLAS_NUM_THREADS=str(cores), OPENBLAS_THREAD_TIMEOUT=None)
    # An engine module's first use loads numpy; ionnet.cli loads none.
    code = (
        "import sys; from ionnet.montecarlo import run_protocol; "
        "sys.exit('numpy' not in sys.modules)"
    )
    excess = []
    for _ in range(5):
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        excess.append(usage.ru_utime + usage.ru_stime - wall)
    assert statistics.median(excess) < 0.04, excess


def test_benchmark_trace_hooks_bind():
    # perfbench/layertrace.py rebinds named ionnet entry points and fails
    # when one of them is no longer bound in the package.
    proc = run_python(
        "import sys; sys.path.insert(0, 'perfbench'); "
        "import ionnet.cli, layertrace; layertrace.install()"
    )
    assert proc.returncode == 0, proc.stderr


# Runs main as perfbench/child.py does, with the scenario loaders wrapped,
# and prints the exit code, the ionnet, numpy and scipy modules loaded
# when the first load returned, and those loaded at the end. The
# benchmark's set-up time ends at that return, and its compute time
# begins. An engine module registered lazily counts once it has run;
# type() reads the class without running it.
LOAD_BOUNDARY_PROBE = """
import json, sys
from ionnet import cli
def loaded():
    return sorted(
        n for n, m in sys.modules.items()
        if n.split(".")[0] in ("ionnet", "numpy", "scipy") and type(m).__name__ != "_LazyModule"
    )
marks = {}
def mark_on_return(fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.setdefault("loaded", loaded())
        return result
    return wrapper
cli.load_scenario = mark_on_return(cli.load_scenario)
cli.loads_scenario = mark_on_return(cli.loads_scenario)
code = cli.main(sys.argv[1:])
print(json.dumps([code, marks["loaded"], loaded()]))
"""


def run_load_boundary_probe(*args: str, block_scipy: bool = False) -> tuple[int, list, list]:
    # sys.modules["scipy"] = None makes any import of scipy fail.
    prefix = "import sys; sys.modules['scipy'] = None\n" if block_scipy else ""
    proc = run_python(prefix + LOAD_BOUNDARY_PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def test_engine_subcommand_loads_numpy_random_before_its_scenario_not_scipy(tmp_path):
    # numpy.random is loaded before the scenario, so no run pays for it
    # in its compute time; scipy is never loaded.
    code, loaded, end = run_load_boundary_probe("remote-bell", "--out", str(tmp_path / "out"))
    assert code == 0
    assert "numpy.random" in loaded
    assert not [m for m in end if m.split(".")[0] == "scipy"], end


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_runs_without_scipy_and_imports_no_numpy_module(tmp_path, sub):
    # No numpy or ionnet module is imported, or run, after the scenario
    # is loaded.
    code, loaded, end = run_load_boundary_probe(
        sub, "--out", str(tmp_path / "out"), block_scipy=True
    )
    assert code == 0
    assert end == loaded, sorted(set(end) - set(loaded))


# Runs main as the console script does and exits 1 if numpy was loaded.
NUMPY_FREE_PROBE = """
import atexit, os, sys
atexit.register(lambda: "numpy" in sys.modules and os._exit(1))
from ionnet.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args, code",
    [(["budget"], 0), (["timing"], 0), (["budget", "--seed", "x"], 2)],
    ids=["budget", "timing", "argparse-error"],
)
def test_budget_timing_and_usage_errors_load_no_numpy(tmp_path, args, code):
    proc = run_python(NUMPY_FREE_PROBE, *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize(
    "raw, value", [("1e30", 10**30), ("12345678901234567e3", 12345678901234567 * 1000)]
)
def test_exponent_form_seed_is_read_exactly(tmp_path, raw, value):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"[run]\nseed = {raw}\n")
    out = tmp_path / "out"
    assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
    assert f"\nseed = {value}\n" in (out / "resolved_config.cfg").read_text()


@pytest.mark.parametrize("raw", ["1.5", "nan", "inf", "1e-3"])
def test_seed_that_is_no_whole_number_exits_2(tmp_path, capsys, raw):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"[run]\nseed = {raw}\n")
    reason = f"cannot parse run.seed value '{raw}' as a whole number"
    assert_rejected(tmp_path, capsys, ["budget", "--config", str(cfg)], reason)


def test_plain_integers_load_no_fractions(tmp_path):
    # Only a whole number in exponent form needs the fractions module.
    cfg = tmp_path / "plain.cfg"
    cfg.write_text(f"[run]\nseed = {2**70}\nn_trials = 500\n")
    probe = (
        "import sys\nfrom ionnet.cli import main\n"
        "code = main(sys.argv[1:])\nsys.exit(code or 'fractions' in sys.modules)\n"
    )
    for i, args in enumerate((["budget"], ["budget", "--config", str(cfg)])):
        proc = run_python(probe, *args, "--out", str(tmp_path / f"out{i}"))
        assert proc.returncode == 0, (args, proc.stderr)


def test_package_import_loads_no_numpy_and_every_public_name_resolves():
    # The engine modules are lazy: each one's public names resolve on first access.
    code = (
        "import sys, ionnet\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in ionnet._ENGINE:\n"
        "    module = getattr(ionnet, name)\n"
        "    missing = [n for n in module.__all__ if not hasattr(module, n)]\n"
        "    assert not missing, (name, missing)\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


# Runs main as the console script does and prints the number of frozen
# objects at exit. The probe is registered before ionnet.cli is
# imported, so it runs after main's handler: exit handlers run last in,
# first out.
FREEZE_AT_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
from ionnet.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args, code",
    [
        (["budget"], 0),
        (["modular-3q"], 0),
        (["remote-bell", "--trials", "50"], 2),
        (["budget", "--seed", "x"], 2),
    ],
    ids=["budget", "modular-3q", "load-error", "argparse-error"],
)
def test_console_run_freezes_the_import_heap_at_exit(tmp_path, args, code):
    # CPython's shutdown collections then skip the objects made at
    # import; none of them is garbage.
    proc = run_python(FREEZE_AT_EXIT_PROBE, *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == code, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "frozen" and int(last[1]) > 10_000, proc.stdout


# Counts the freezes of the interpreter's exit; the counter is
# registered first, so it runs last.
IN_PROCESS_PROBE = """
import atexit, gc, sys
freezes = []
atexit.register(lambda: print("freezes", len(freezes), gc.get_freeze_count() > 10_000))
freeze = gc.freeze
gc.freeze = lambda: (freezes.append(1), freeze())
from ionnet.cli import main
for out in sys.argv[1:]:
    assert main(["budget", "--out", out]) == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
"""


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    # The freeze waits for the interpreter's exit and runs once there,
    # however often main was called.
    proc = run_python(IN_PROCESS_PROBE, str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "freezes 1 True", proc.stdout


# Prints how many objects the two young generations hold when the
# console run starts its scenario load, after the engine import.
YOUNG_AT_LOAD_PROBE = """
import gc, sys
from ionnet import cli
load = cli.loads_scenario
def probe(*args, **kwargs):
    print("young", len(gc.get_objects(0)) + len(gc.get_objects(1)))
    return load(*args, **kwargs)
cli.loads_scenario = probe
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("sub", ["budget", "remote-bell"])
def test_run_starts_with_the_import_out_of_the_young_generations(tmp_path, sub):
    # So no collection during the run traces the objects the import made,
    # and whether one falls inside the run does not depend on their number.
    proc = run_python(YOUNG_AT_LOAD_PROBE, sub, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    young = [line for line in proc.stdout.splitlines() if line.startswith("young ")]
    assert len(young) == 1 and int(young[0].split()[1]) < 100, proc.stdout


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_run_needs_no_exit_time_finalization(tmp_path, sub):
    # With the heap frozen at exit, an unclosed file in a reference cycle
    # would be neither flushed nor closed. Development mode (-X dev) warns
    # of such a file, here as an error, once gc.collect() finalizes it.
    code = "import gc, sys\nfrom ionnet.cli import main\ncode = main(sys.argv[1:])\ngc.collect()\nsys.exit(code)\n"
    env = {"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error::ResourceWarning"}
    proc = run_python(code, sub, "--out", str(tmp_path / "out"), **env)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("sub", ["remote-bell", "coherence", "modular-3q"])
def test_rate_fit_trials_below_minimum_exit_2(tmp_path, capsys, sub):
    assert_rejected(tmp_path, capsys, [sub, "--trials", "50"], "at least 100 trials")


@pytest.mark.parametrize("sub", ["remote-bell", "coherence", "modular-3q"])
def test_zero_herald_probability_exits_2(tmp_path, capsys, sub):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("[link_budget]\nq_e = 0.0\n")
    assert_rejected(tmp_path, capsys, [sub, "--config", str(cfg)], "zero herald probability")


@pytest.mark.parametrize(
    "sub, grid",
    [
        ("phase-scan", "phase_scan_points"),
        ("coherence", "delay_points"),
        ("local-gate", "phi_points"),
        ("modular-3q", "phi_points"),
    ],
)
def test_scan_grid_too_small_for_fit_exits_2(tmp_path, capsys, sub, grid):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"[run]\n{grid} = 2\n")
    assert_rejected(tmp_path, capsys, [sub, "--config", str(cfg)], f"run.{grid} >= 3")


@pytest.mark.parametrize(
    "settings",
    [
        "[phase_ledger]\ndelta_omega_ab = 0.0\n",
        "[phase_ledger]\ndelta_omega_ab = 6.283185307179586e3\n"
        "[run]\nphase_scan_points = 3\nphase_scan_delay_s = 2e-3\n",
    ],
    ids=["no-beat", "whole-beat-steps"],
)
def test_phase_scan_degenerate_beat_grid_exits_2(tmp_path, capsys, settings):
    # Every delay of the grid gives the same beat phase modulo 2 pi, so
    # the phase-scan cosine fit has nothing to determine its phase from.
    cfg = tmp_path / "beat.cfg"
    cfg.write_text(settings)
    out = tmp_path / "out"
    assert main(["phase-scan", "--config", str(cfg), "--out", str(out)]) == 2
    (error,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert "do not determine a cosine" in error
    for name in ("phase_ledger.delta_omega_ab", "run.phase_scan_points", "run.phase_scan_delay_s"):
        assert name in error
    assert not out.exists()


@pytest.mark.parametrize(
    "protocol, reason",
    [
        ("qubits_a = q1 q2 q4\n", "two qubits in module A"),
        (
            "step.1 = reinit q1\nstep.2 = gate q1 q2\nstep.3 = analyze q1 q2\nstep.4 = measure\n",
            "needs a herald step",
        ),
        ("step.1 = herald\nstep.2 = gate q1 q2\nstep.3 = measure\n", "needs an analyze step"),
        (
            "step.1 = herald\nstep.2 = gate q1 q2\nstep.3 = analyze q1\nstep.4 = measure\n",
            "exactly the module-A qubits",
        ),
        ("step.1 = herald\nstep.2 = analyze q2 q3\nstep.3 = measure\n", "exactly the module-A qubits"),
    ],
    ids=["qubit-count", "no-herald", "no-analyze", "analyze-one-qubit", "analyze-remote"],
)
def test_modular_3q_script_requirements_exit_2(tmp_path, capsys, protocol, reason):
    cfg = tmp_path / "m3.cfg"
    cfg.write_text(f"[protocol]\n{protocol}")
    assert_rejected(tmp_path, capsys, ["modular-3q", "--config", str(cfg)], reason)


@pytest.mark.parametrize("sub", ["remote-bell", "phase-scan", "coherence", "local-gate"])
def test_fixed_script_subcommands_reject_changed_steps(tmp_path, capsys, sub):
    cfg = calibrated_with_steps(tmp_path, "step.0 = wait 0.5\n" + CALIBRATED_STEPS)
    assert_rejected(tmp_path, capsys, [sub, "--config", str(cfg)], "fixed script")


@pytest.mark.parametrize("sub", ["remote-bell", "phase-scan", "coherence", "local-gate"])
def test_fixed_script_subcommands_accept_default_steps(tmp_path, sub):
    # calibrated_3q.cfg lists the default steps explicitly
    argv = [sub, "--config", str(CALIBRATED), "--trials", "100", "--shots", "100"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


def test_wait_step_takes_effect_in_modular_3q(tmp_path):
    def exact_summary(name, steps):
        out = tmp_path / name
        cfg = calibrated_with_steps(tmp_path, steps)
        argv = ["modular-3q", "--config", str(cfg), "--trials", "200", "--shots", "100"]
        assert main([*argv, "--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        return {k: v for k, v in summary.items() if "exact" in k or "ideal_readout" in k}

    base = exact_summary("base", CALIBRATED_STEPS)
    before_analyze = exact_summary("gate", (
        "step.1 = herald\nstep.2 = reinit q1\nstep.3 = gate q1 q2\n"
        "step.4 = wait 0.5\nstep.5 = analyze q1 q2\nstep.6 = measure\n"
    ))
    after_herald = exact_summary("herald", (
        "step.1 = herald\nstep.2 = wait 0.5\nstep.3 = reinit q1\n"
        "step.4 = gate q1 q2\nstep.5 = analyze q1 q2\nstep.6 = measure\n"
    ))
    # The wait dephases the stored pair (q2, q3); the fringe of (q1, q2)
    # given q3 = 1 carries one flip of that coherence, sqrt(gamma).
    tau = loads_scenario(CALIBRATED.read_text()).memory.tau_s
    key = "parity_amplitude_remote1_ideal_readout"
    assert before_analyze[key] == pytest.approx(base[key] * math.exp(-0.5 / (2 * tau)), rel=1e-9)
    for corr in ("corr_even_given_remote1_exact", "corr_odd_given_remote0_exact"):
        assert before_analyze[corr] == pytest.approx(base[corr], rel=1e-12)
    # Before the gate q3 is only ever read in Z, so the wait changes nothing.
    assert after_herald == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize(
    "sub", ["modular-3q", "phase-scan", "local-gate", "remote-bell", "coherence"]
)
def test_exact_propagation_once_per_run(tmp_path, monkeypatch, sub):
    # Runs of the step loop from the initial register: a run propagates
    # its unscanned prefix once, shared by its sampled and scanned parts,
    # whatever the grid size.
    full_runs = []
    original = montecarlo.propagate

    def counting(script, cfg, steps, branches=None):
        if branches is None:
            full_runs.append(steps)
        return original(script, cfg, steps, branches)

    monkeypatch.setattr(montecarlo, "propagate", counting)
    monkeypatch.setattr(protocols, "propagate", counting)
    counts = []
    for points in (4, 24):
        cfg = tmp_path / f"grid{points}.cfg"
        cfg.write_text(
            f"[run]\nphi_points = {points}\nphase_scan_points = {points}\n"
            f"delay_points = {points}\n"
        )
        argv = [sub, "--config", str(cfg), "--trials", "100", "--shots", "50"]
        full_runs.clear()
        assert main([*argv, "--out", str(tmp_path / f"out{points}")]) == 0
        counts.append(len(full_runs))
    assert counts == [1, 1]


@pytest.mark.parametrize("sub", ["phase-scan", "coherence", "local-gate", "modular-3q"])
def test_confusion_matrix_built_per_run_not_per_point(tmp_path, monkeypatch, sub):
    # The readout channel does not depend on the scan point, so a run
    # builds it the same number of times whatever the grid size.
    calls = []
    original = detection.confusion_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (detection, montecarlo):
        monkeypatch.setattr(module, "confusion_matrix", counting)
    counts = []
    for points in (4, 24):
        cfg = tmp_path / f"grid{points}.cfg"
        cfg.write_text(
            f"[run]\nphi_points = {points}\nphase_scan_points = {points}\n"
            f"delay_points = {points}\n"
        )
        argv = [sub, "--config", str(cfg), "--trials", "100", "--shots", "50"]
        calls.clear()
        assert main([*argv, "--out", str(tmp_path / f"out{points}")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


NOT_FINITE = hs.sampled_from(["nan", "inf", "-inf"])


def below(bound, inclusive):
    """Finite raw values under ``bound``, or equal to it when ``inclusive``."""
    values = hs.floats(max_value=bound, exclude_max=not inclusive, allow_infinity=False)
    return values.map(repr)


# One strategy of out-of-range raw values per bounded field.
_PROBABILITY = hs.one_of(
    below(0.0, inclusive=False),
    hs.floats(min_value=1.0, exclude_min=True, allow_infinity=False).map(repr),
    NOT_FINITE,
)
_POSITIVE = hs.one_of(below(0.0, inclusive=True), hs.sampled_from(["nan", "-inf"]))
_COUNT = hs.integers(max_value=0).map(str)
OUT_OF_RANGE = {
    **{
        f"link_budget.{key}": _PROBABILITY
        for key in ("p_bell", "p_pi", "p_s_half", "q_e", "t_fib", "t_opt", "solid_angle_fraction")
    },
    "link_budget.rep_rate": hs.one_of(_POSITIVE, hs.just("inf")),
    "link_errors.atom_photon_fidelity": _PROBABILITY,
    "link_errors.mode_overlap": _PROBABILITY,
    "gate.phi_a": NOT_FINITE,
    "gate.depolarizing_p": _PROBABILITY,
    "gate.detuning_hz": hs.one_of(_POSITIVE, hs.just("inf")),
    **{
        f"phase_ledger.{key}": NOT_FINITE
        for key in ("delta_omega_ab", "k", "delta_tau", "delta_x", "delta_phi_t")
    },
    "memory.tau_s": _POSITIVE,  # inf means no dephasing, which is in range
    "detectors.single_qubit_error": _PROBABILITY,
    "detectors.two_qubit_overlap": _PROBABILITY,
    "detectors.module_a": hs.sampled_from(["both", "none", "Shared"]),
    "detectors.module_b": hs.sampled_from(["both", "none", "Individual"]),
    "protocol.link": hs.sampled_from(["q2", "q2 q3 q1", "q1 q2", "q2 q9"]),
    "protocol.crosstalk_depol": _PROBABILITY,
    "protocol.reinit_duration_s": hs.one_of(below(0.0, inclusive=False), NOT_FINITE),
    **{
        f"run.{key}": _COUNT
        for key in (
            "n_trials", "shots_per_point", "phi_points", "delay_points", "phase_scan_points"
        )
    },
    "run.seed": hs.integers(max_value=-1).map(str),
    **{
        f"run.{key}": hs.one_of(_POSITIVE, hs.just("inf"))
        for key in ("delay_max_s", "phase_scan_delay_s", "qubit_separation_m")
    },
}
DEFAULT_TEXT = emit_scenario(loads_scenario(""))


def test_out_of_range_table_covers_every_field():
    # Every field has out-of-range values except the free qubit lists.
    fields = {f"{section}.{key}" for section, (_, cls) in _SECTIONS.items() for key in cls.kinds}
    assert set(OUT_OF_RANGE) == fields - {"protocol.qubits_a", "protocol.qubits_b"}


@settings(max_examples=24, deadline=None)
@given(data=hs.data(), sub=hs.sampled_from(tuple(SUBCOMMANDS)))
def test_out_of_range_field_exits_2_at_load(data, sub):
    # The default scenario with one field set out of range is rejected
    # while loading: exit 2, never 3, no output directory, and an error
    # that names the field's dotted path. Every field of the table is
    # checked in every example.
    for path in sorted(OUT_OF_RANGE):
        section, key = path.split(".")
        raw = data.draw(OUT_OF_RANGE[path], label=path)
        text, n = re.subn(
            rf"(?ms)^(\[{section}\].*?^{key} = ).*?$",
            lambda m: m.group(1) + raw,
            DEFAULT_TEXT,
            count=1,
        )
        assert n == 1
        with pytest.raises(ScenarioError):
            loads_scenario(text)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "bad.cfg"
            cfg.write_text(text)
            out = Path(tmp) / "out"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
            assert not out.exists()
            assert path in stderr.getvalue(), (path, raw, stderr.getvalue())


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "path",
    [f"{section}.{key}" for section, (_, cls) in _SECTIONS.items() for key, kind in cls.kinds.items()
     if _SETTING_KINDS[kind][0] is float],
)
def test_non_finite_field_exits_2(tmp_path, path, raw):
    # A config file that sets a float field to nan, inf or -inf exits 2
    # naming the field, except memory.tau_s = inf (no memory dephasing).
    section, key = path.split(".")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["budget", "--config", str(cfg), "--out", str(out)])
    if (path, raw) == ("memory.tau_s", "inf"):
        assert code == 0
    else:
        assert code == 2
        assert not out.exists()
        assert path in stderr.getvalue(), stderr.getvalue()


QUBIT = hs.sampled_from(["q1", "q2", "q3"])
STEP = hs.one_of(
    hs.just("herald"),
    hs.just("analyze q1 q2"),
    hs.builds("reinit {}".format, QUBIT),
    hs.sampled_from(["gate q1 q2", "gate q2 q1"]),
    hs.builds("wait {}".format, hs.sampled_from(["0.0", "1e-4", "0.5"])),
)
# Valid steps around one herald and one analyze step, in any order.
SCRIPT = hs.lists(STEP, max_size=4).flatmap(
    lambda extra: hs.permutations(["herald", "analyze q1 q2", *extra])
)
# Replaces one step, so that a fair share of the scripts is valid and
# runs end to end; "" deletes the step.
DEFECT = hs.one_of(
    hs.builds("gate {} {}".format, QUBIT, QUBIT),
    hs.builds(lambda qs: "analyze " + " ".join(qs), hs.lists(QUBIT, max_size=3)),
    hs.sampled_from(["", "measure", "wait -1", "wait nan", "wait inf", "reinit", "herald ab", "gate q1"]),
)


@settings(max_examples=25, deadline=None)
@given(steps=SCRIPT, defect=hs.one_of(hs.none(), DEFECT), where=hs.integers(0, 5))
def test_modular_3q_step_scripts_run_or_exit_2(steps, defect, where):
    # Every step script either runs or is rejected at load time.
    steps = list(steps)
    if defect is not None:
        steps[where % len(steps)] = defect
    steps = [s for s in steps if s] + ["measure"]
    text = "[protocol]\n" + "".join(f"step.{i} = {s}\n" for i, s in enumerate(steps, 1))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        argv = ["modular-3q", "--config", str(cfg), "--out", str(Path(tmp) / "out"),
                "--trials", "100", "--shots", "50"]
        assert main(argv) in (0, 2), text
