"""Record the seed-independent values the correctness gate compares against.

    python3 perfbench/record_reference.py

Run from the root of an ionnet checkout whose results are trusted. Each
invocation of every workload runs twice: as the benchmark runs it at
seed 1, and at seed 7 with other trial and shot counts. A summary field
or CSV column is recorded only when both runs wrote it identically, so
``reference.json`` holds exactly the values that depend neither on the
seed nor on the sample sizes: the exact density-matrix columns and
fields, the scan variables and the deterministic reports.
"""

import json
import shutil
import sys
from pathlib import Path

import gate
import run

VARIED = ["--seed", "7", "--trials", "150", "--shots", "2000"]

# Seed-independent but not a result: it counts the configuration fields
# left at their defaults, so it changes whenever the schema does.
NOT_RESULTS = {"defaulted_fields"}


def invariant(a, b):
    summary = {
        k: v for k, v in a["summary"].items() if b["summary"].get(k) == v and k not in NOT_RESULTS
    }
    tables = {}
    for name, columns in a["tables"].items():
        kept = {c: v for c, v in columns.items() if b["tables"].get(name, {}).get(c) == v}
        if kept:
            tables[name] = kept
    return {"summary": summary, "tables": tables}


def main():
    work = (Path(run.WORK_DIR) / "reference").resolve()
    work.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    reference = {}
    try:
        for workload in run.WORKLOADS:
            for inv in run.workload_invocations(workload, run.SIZES["full"], work):
                outputs = []
                for tag, extra in (("a", ["--seed", "1"]), ("b", VARIED)):
                    rec = run.run_child(inv.args + extra, work, tag, False, env)
                    if rec["code"] != 0:
                        sys.exit(f"{workload}/{inv.label} exited {rec['code']}")
                    outputs.append(gate.read_outputs(rec["out_dir"]))
                    shutil.rmtree(rec["out_dir"])
                reference[f"{workload}/{inv.label}"] = invariant(*outputs)
                print(f"{workload}/{inv.label}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
