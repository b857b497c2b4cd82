#!/usr/bin/env python3
"""Plant known faults in ionnet, one at a time, and report which of them
the tests catch (mutation analysis).

    python3 scripts/mutants.py [NAME ...] [-- PYTEST_ARGS ...]

Each mutant is one text replacement in one file: its old text must
occur there exactly once. For each mutant (by default every one in
``MUTANTS``) the tree is copied to a temporary directory, the mutant is
planted in the copy and pytest runs there, with ``-x -q`` or the
arguments given after ``--``. A mutant is CAUGHT when a test fails, and
the first failing test is named; it is MISSED when every test passes.
The last line is ``caught k of n``, and the exit code is 0 only when
every mutant is caught.

The default run leaves out tests/test_mutants.py, whose smoke test
would plant a second mutant in the copy.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# What a run leaves in the tree, which the copies do without.
NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work",
              ".benchmarks", "*.egg-info", "build", "dist")

DEFAULT_PYTEST_ARGS = ("-x", "-q", "--ignore=tests/test_mutants.py")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


MUTANTS = (
    # A reinit takes no time, whatever reinit_duration_s says.
    Mutant("M3", "src/ionnet/scenario.py",
           "return self.protocol.reinit_duration_s", "return 0.0"),
    # The entangling gate takes no time.
    Mutant("M11", "src/ionnet/scenario.py",
           "return self.gate.gate_time_s", "return 0.0"),
    # A reinit's crosstalk hits the atoms of the other module (when the
    # script has one) instead of its own.
    Mutant("M12", "src/ionnet/montecarlo.py",
           "module = script.module_of(step.qubit)",
           "module = next((m for m in script.modules if m != script.module_of(step.qubit)), "
           "script.module_of(step.qubit))"),
    # The herald takes the link's atoms in swapped order: the module-B atom
    # emits first, and the transfer phase lands on it.
    Mutant("M13", "src/ionnet/photonics.py",
           "atom_a, atom_b = link", "atom_b, atom_a = link"),
)


def plant(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {found} times in {mutant.file}, "
                         "not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant, pytest_args) -> str | None:
    """The first failing test with ``mutant`` planted (a collection error
    counts), or None when every test passes."""
    with tempfile.TemporaryDirectory(prefix=f"ionnet-{mutant.name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*NOT_COPIED))
        plant(mutant, tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *pytest_args],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return None
    failures = [line.split(" - ")[0].split(maxsplit=1)[1]
                for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (1, 2) or not failures:
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode} without a failing "
                         f"test:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return failures[0]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    names, pytest_args = argv, DEFAULT_PYTEST_ARGS
    if "--" in argv:
        cut = argv.index("--")
        names, pytest_args = argv[:cut], argv[cut + 1:]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants {sorted(unknown)}; known: "
                         f"{', '.join(m.name for m in MUTANTS)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    caught = 0
    for mutant in chosen:
        start = time.monotonic()
        failure = run(mutant, pytest_args)
        took = f"({time.monotonic() - start:.1f} s)"
        if failure is None:
            print(f"MISSED {mutant.name} {took}", flush=True)
        else:
            caught += 1
            print(f"CAUGHT {mutant.name} by {failure} {took}", flush=True)
    print(f"caught {caught} of {len(chosen)}")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
