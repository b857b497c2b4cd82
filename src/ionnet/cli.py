"""Command-line interface: scenario loading, experiment orchestration,
deterministic result files.

``--seed``, ``--trials`` and ``--shots`` set the loaded scenario's
``[run]`` fields, which ``RunSettings`` checks, and every driver takes
the scenario alone. So ``resolved_config.cfg`` records the run that
happened: every output file embeds the seed and the sha256 of that
configuration, and re-running a subcommand on it reproduces the files
byte for byte. An ``--out`` directory holds exactly one complete run:
the files are written beside it and moved into place last, and only an
empty directory or an earlier ionnet run is replaced. Exit codes: 0
success, 2 configuration or usage error, 3 runtime failure. ``main``
freezes the heap at interpreter exit, so the shutdown collections skip
the objects created at import.

``budget``, ``timing`` and usage errors run without numpy. An engine
subcommand's driver is looked up, and numpy imported with it, before
its scenario is loaded. Each driver checks the settings it reads: a
``ScenarioError`` it raises before any work exits 2, with nothing
written.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import importlib
import os
import shutil
import sys
from collections.abc import Callable
from pathlib import Path

from .scenario import (
    ExperimentOutput,
    Scenario,
    ScenarioError,
    emit_scenario,
    format_value,
    load_scenario,
    loads_scenario,
)

# Subcommand name -> (module, driver); every driver takes the scenario
# alone. budget and timing are arithmetic on the scenario's records; the
# other drivers run the engine, and looking one up imports numpy.
SUBCOMMANDS = {
    "remote-bell": ("protocols", "remote_bell_experiment"),
    "phase-scan": ("protocols", "phase_scan_experiment"),
    "coherence": ("protocols", "coherence_experiment"),
    "local-gate": ("protocols", "local_gate_experiment"),
    "modular-3q": ("protocols", "modular_3q_experiment"),
    "budget": ("scenario", "budget_report"),
    "timing": ("scenario", "timing_report"),
}


def driver(subcommand: str) -> Callable[[Scenario], ExperimentOutput]:
    module, name = SUBCOMMANDS[subcommand]
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


# How the first line of every summary.txt that ionnet writes starts.
SUMMARY_MARK = b"# ionnet "


def _header(subcommand: str, seed: int, config_hash: str) -> list[str]:
    return [
        f"# ionnet {subcommand}",
        f"# seed = {seed}",
        f"# config_sha256 = {config_hash}",
    ]


def write_outputs(
    out_dir: Path, subcommand: str, scenario: Scenario, output: ExperimentOutput
) -> list[Path]:
    """Write the run's files and return their paths under ``out_dir``.

    The files go into a fresh temporary sibling of ``out_dir``, which is
    moved into place as the last step; an earlier ionnet run there is
    replaced whole. A symlinked ``out_dir`` is followed, so the run
    replaces the directory it points at and the link stays. On any error
    the temporary directory is removed and ``out_dir`` is left as it was.
    """
    target = Path(os.path.realpath(out_dir))
    target.parent.mkdir(parents=True, exist_ok=True)
    # Siblings of out_dir, so that moving them is a rename.
    token = f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}"
    staged, replaced = target.with_name(token + ".new"), target.with_name(token + ".old")
    staged.mkdir()
    try:
        names = _write_files(staged, subcommand, scenario, output)
        if target.exists():
            check_out_dir(out_dir)
            target.rename(replaced)
            try:
                staged.rename(target)
            except BaseException:
                replaced.rename(target)
                raise
            shutil.rmtree(replaced, ignore_errors=True)
        else:
            staged.rename(target)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise
    return [out_dir / name for name in names]


def _write_files(
    out_dir: Path, subcommand: str, scenario: Scenario, output: ExperimentOutput
) -> list[str]:
    text, seed = emit_scenario(scenario), scenario.run.seed
    config_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()
    names = ["resolved_config.cfg"]
    (out_dir / names[0]).write_text(text, encoding="utf-8")

    for name, table in output.tables.items():
        cells = [_format_column(col) for col in table.values()]
        if len({len(col) for col in cells}) > 1:
            raise ValueError(f"table {name} has columns of unequal length")
        lines = _header(subcommand, seed, config_hash)
        lines.append(",".join(table))
        lines.extend(map(",".join, zip(*cells)))
        names.append(f"{name}.csv")
        (out_dir / names[-1]).write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = _header(subcommand, seed, config_hash)
    for key in output.summary:
        lines.append(f"{key} = {format_value(output.summary[key])}")
    for warning in scenario.ledger.warnings():
        lines.append(f"# warning: {warning}")
    names.append("summary.txt")
    (out_dir / names[-1]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return names


def _format_column(col) -> list[str]:
    """One CSV column's cells, each as ``format_value`` writes it: a
    float column as Python floats, so that they are written as in the
    summary, with ``float.__repr__`` over the whole column."""
    import numpy as np  # only the engine's drivers write tables

    arr = np.asarray(col)
    values = arr.tolist()
    if arr.dtype.kind == "f":
        return list(map(float.__repr__, values))
    return list(map(format_value, values))


def check_out_dir(out_dir: Path) -> None:
    """Reject an output path that names a file or lies under one, and an
    existing directory that is neither empty nor an earlier ionnet run."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ScenarioError(f"--out {out_dir}: {path} exists and is not a directory")
            break
    if out_dir.is_dir() and any(out_dir.iterdir()) and not _earlier_run(out_dir):
        raise ScenarioError(
            f"--out {out_dir}: the directory is not empty and holds more than "
            "an earlier ionnet run; name an empty or new directory"
        )


def _earlier_run(out_dir: Path) -> bool:
    """Whether ``out_dir`` holds only regular files named as an ionnet run
    names them, with a ``summary.txt`` written by ionnet."""
    for path in out_dir.iterdir():
        name = path.name
        if path.is_symlink() or not path.is_file():
            return False
        if name not in ("resolved_config.cfg", "summary.txt") and not name.endswith(".csv"):
            return False
    summary = out_dir / "summary.txt"
    if not summary.is_file():
        return False
    with summary.open("rb") as fh:
        return fh.read(len(SUMMARY_MARK)) == SUMMARY_MARK


def run_subcommand(subcommand: str, scenario: Scenario) -> ExperimentOutput:
    return driver(subcommand)(scenario)


# Flag -> the [run] field it sets.
RUN_FLAGS = {"--seed": "seed", "--trials": "n_trials", "--shots": "shots_per_point"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionnet",
        description="Simulator of a two-module trapped-ion network with "
        "photonic and phonon entanglement buses.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None, help="scenario file (defaults apply when omitted)")
        p.add_argument("--out", type=str, required=True, help="output directory")
        for flag, field in RUN_FLAGS.items():
            p.add_argument(flag, type=int, dest=field, metavar="N", help=f"set [run] {field}")
    return parser


def main(argv=None) -> int:
    # Exit handlers run before CPython's shutdown collections, which skip
    # frozen objects. One handler per process, however often main runs;
    # nothing is frozen before exit, so in-process callers keep a normal
    # collector.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    # The engine is imported before the scenario is loaded, so that its
    # import counts as start-up and not as the run.
    driver(args.subcommand)
    try:
        flags = {f: getattr(args, f) for f in RUN_FLAGS.values() if getattr(args, f) is not None}
        if args.config is None:
            scenario = loads_scenario("", source="<defaults>", **flags)
        else:
            scenario = load_scenario(args.config, **flags)
        check_out_dir(Path(args.out))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in scenario.ledger.warnings():
        print(f"warning: {warning}", file=sys.stderr)

    try:
        output = run_subcommand(args.subcommand, scenario)
        written = write_outputs(Path(args.out), args.subcommand, scenario, output)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    for warning in output.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for key, value in output.summary.items():
        print(f"{key} = {format_value(value)}")
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    if scenario.defaulted:
        print(f"{len(scenario.defaulted)} fields left out of the config", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
