#!/usr/bin/env python3
"""Compare the output files of two ionnet trees over one invocation matrix.

    python3 scripts/compare_runs.py [--against REV] [--seed 17]

The matrix is every subcommand at its defaults and on
configs/calibrated_3q.cfg, the invocations of the benchmark workloads
(``perfbench/run.py``'s ``workload_invocations`` at full size), and
modular-3q on two protocols of their own: a link q1 q3, and two heralds.
Each tree runs every invocation at ``--seed`` in a fresh process, from
its own ``src`` and ``configs``.

With ``--against REV``, the working tree is compared with REV, exported
by ``git archive``. Without it, the working tree is compared with a
second run of itself: every file must then come out byte for byte the
same.

Each invocation's ``--out`` directory is read with
``perfbench/gate.read_outputs``. Each CSV column and summary field is
an item. One line names each item that changed, with how many cells
changed, the largest relative change |new - old| / max(|new|, |old|)
and the largest absolute change |new - old| (both ``inf`` for a changed
value that is not a number). A value that rounds an exact zero, such as
1e-17, shows a relative change near 1 and a tiny absolute one. A file
that differs in bytes with every field the same (a comment line,
``resolved_config.cfg``) is named too, and counts as one more item that
changed. The last line counts the items identical out of the items
compared, and the invocations that failed. The exit code is 1 when
anything differs or an invocation fails.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402
import run as perfbench_run  # noqa: E402

SUBCOMMANDS = ("budget", "timing", "remote-bell", "phase-scan", "coherence", "local-gate",
               "modular-3q")

# Protocols that run only under modular-3q: a link that the herald
# replaces out of register order, and a second herald.
PROTOCOLS = {
    "link-q1-q3": "[protocol]\nlink = q1 q3\nstep.1 = herald\nstep.2 = wait 0.2\n"
                  "step.3 = gate q1 q2\nstep.4 = analyze q1 q2\nstep.5 = measure\n",
    "two-heralds": "[protocol]\nstep.1 = herald\nstep.2 = herald\nstep.3 = wait 0.5\n"
                   "step.4 = reinit q1\nstep.5 = gate q1 q2\nstep.6 = analyze q1 q2\n"
                   "step.7 = measure\n",
}

RUN_CLI = "import sys; from ionnet.cli import main; sys.exit(main(sys.argv[1:]))"


def matrix(tree, work):
    """(label, ionnet arguments) of every invocation, without --seed and
    --out; config paths are relative to ``tree`` or absolute."""
    work.mkdir(parents=True, exist_ok=True)
    calibrated = ["--config", perfbench_run.CALIBRATED]
    runs = [(f"defaults/{s}", [s]) for s in SUBCOMMANDS]
    runs += [(f"calibrated/{s}", [s, *calibrated]) for s in SUBCOMMANDS]
    cwd = os.getcwd()
    os.chdir(tree)  # the workloads read the tree's calibrated config
    try:
        for workload in perfbench_run.WORKLOADS:
            for inv in perfbench_run.workload_invocations(
                workload, perfbench_run.SIZES["full"], work
            ):
                runs.append((f"{workload}/{inv.label}", inv.args))
    finally:
        os.chdir(cwd)
    for name, text in PROTOCOLS.items():
        path = work / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        runs.append((f"protocol/{name}", ["modular-3q", "--config", str(path)]))
    seen, unique = set(), []
    for label, args in runs:  # cli-defaults repeats the defaults and calibrated runs
        if tuple(args) not in seen:
            seen.add(tuple(args))
            unique.append((label, args))
    return unique


def run_matrix(tree, work, seed):
    """Run the matrix in ``tree``; label -> its --out directory, or None
    when the invocation failed."""
    env = {**perfbench_run.child_env(), "PYTHONPATH": str(tree / "src")}
    outs = {}
    for label, args in matrix(tree, work):
        out = work / "out" / label
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *args, "--seed", str(seed), "--out", str(out)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{label} in {tree}: exit {proc.returncode}: {proc.stderr.strip()}")
            out = None
        outs[label] = out
    return outs


def _change(old, new):
    """Relative and absolute change between two written values."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf, math.inf
    scale = max(abs(a), abs(b))
    return (abs(a - b) / scale if scale > 0 else 0.0), abs(a - b)


def compare(old_dir, new_dir):
    """Changes between two --out directories: (file, column or field,
    changed cells, cells, largest relative change, largest absolute
    change) for every CSV column and summary field, in file order. An
    item missing on one side counts all its cells as changed, by an
    infinite amount."""
    old, new = gate.read_outputs(old_dir), gate.read_outputs(new_dir)
    pairs = [("summary.txt", old["summary"], new["summary"])]
    for table in dict.fromkeys([*old["tables"], *new["tables"]]):
        pairs.append((f"{table}.csv", old["tables"].get(table, {}),
                      new["tables"].get(table, {})))
    items = []
    for name, before, after in pairs:
        for key in dict.fromkeys([*before, *after]):
            a, b = before.get(key), after.get(key)
            if isinstance(a, str) or isinstance(b, str):  # one summary field
                a, b = None if a is None else [a], None if b is None else [b]
            if a is None or b is None or len(a) != len(b):
                cells = len(a or b)
                items.append((name, key, cells, cells, math.inf, math.inf))
                continue
            changes = [_change(x, y) for x, y in zip(a, b) if x != y]
            largest = [max(c, default=0.0) for c in zip(*changes)] or [0.0, 0.0]
            items.append((name, key, len(changes), len(a), *largest))
    return items


def byte_changes(old_dir, new_dir):
    """Names of the files that are not byte for byte the same."""
    old, new = gate.digest(old_dir), gate.digest(new_dir)
    return sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))


def report(label, old_dir, new_dir):
    """Print one line per changed item of an invocation; return (items
    identical, items compared)."""
    items = compare(old_dir, new_dir)
    changed_files = set()
    for name, key, changed, cells, relative, absolute in items:
        if changed:
            changed_files.add(name)
            print(f"{label} {name} {key}: {changed} of {cells} changed, "
                  f"largest relative {relative:.2g}, absolute {absolute:.2g}")
    bytes_only = [n for n in byte_changes(old_dir, new_dir) if n not in changed_files]
    for name in bytes_only:
        print(f"{label} {name}: bytes differ")
    identical = sum(1 for item in items if not item[2])
    return identical, len(items) + len(bytes_only)


def export(rev, dest):
    """Extract ``rev`` of this repository into ``dest`` with git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision to compare with (default: a rerun of the working tree)")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        tmp = Path(tmp)
        old_tree = export(args.against, tmp / "against") if args.against else ROOT
        old = run_matrix(old_tree, tmp / "old", args.seed)
        new = run_matrix(ROOT, tmp / "new", args.seed)
        labels = list(dict.fromkeys([*old, *new]))
        identical = compared = failed = 0
        for label in labels:
            if old.get(label) is None or new.get(label) is None:
                print(f"{label}: not compared, a run is missing or failed")
                failed += 1
            else:
                n_same, n_items = report(label, old[label], new[label])
                identical += n_same
                compared += n_items
    print(f"{identical} of {compared} items identical, "
          f"{failed} of {len(labels)} invocations failed")
    return 0 if identical == compared and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
