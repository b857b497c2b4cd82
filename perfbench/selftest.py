"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of an ionnet checkout (about two minutes). It checks
that:

* each workload, at the ``tiny`` size, passes the correctness gate and
  reports every metric named in BENCHMARK.json with its unit, untraced
  and traced;
* the traced self times add up to the traced compute time within the
  tracing overhead;
* the gate fails on a tampered exact value, on a sampled estimate far
  from its exact value, and on an invocation that exits non-zero;
* ``run.py`` exits non-zero, printing no result, where there is no
  ionnet source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run

SEED = 5


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def check_metrics(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    expect(got == want, f"{what}: every declared metric with its unit")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"FAIL: {what}: {name} is not a number")


def test_workloads(bench, work):
    for workload in run.WORKLOADS:
        result, problems, _ = run.run(workload, SEED, 0, 0, work / workload, "tiny")
        expect(result["correct"] and result["failed"] == 0 and not problems,
               f"{workload}: gate passes untraced ({problems[:3]})")
        check_metrics(result["metrics"], bench["end_to_end"], f"{workload} untraced")

        result, problems, _ = run.run(workload, SEED, 0, 1, work / f"{workload}-traced", "tiny")
        expect(result["correct"] and not problems, f"{workload}: gate passes traced")
        metrics = result["metrics"]
        check_metrics(metrics, bench["per_layer"], f"{workload} traced")
        unattributed = abs(metrics["trace.unattributed_s"]["value"])
        overhead = abs(metrics["trace.overhead_s"]["value"])
        expect(unattributed <= max(overhead, 1e-3),
               f"{workload}: self times sum to traced compute_s within the overhead "
               f"({unattributed:.2e} s vs {overhead:.2e} s)")


def tamper(path, column, row, new_value):
    """Rewrite one cell of a CSV output file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    col = lines[data[0]].split(",").index(column)
    cells = lines[data[1 + row]].split(",")
    cells[col] = new_value
    lines[data[1 + row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_gate_rejects(work):
    env = run.child_env()
    references = gate.load_reference()
    args = ["local-gate", "--seed", str(SEED)]
    rec = run.run_child(args, work, "tamper", False, env)
    out = rec["out_dir"]
    reference = references["cli-defaults/local-gate"]
    expect(rec["code"] == 0 and gate.check(out, reference) == [], "untouched outputs pass the gate")

    populations = out / "populations.csv"
    original = populations.read_text(encoding="utf-8")
    exact = gate.read_outputs(out)["tables"]["populations"]["exact"][0]
    tamper(populations, "exact", 0, repr(float(exact) * (1 + 1e-6)))
    expect(any("reference" in p for p in gate.check(out, reference)),
           "a tampered exact value fails the gate")

    populations.write_text(original, encoding="utf-8")
    estimate = float(gate.read_outputs(out)["tables"]["populations"]["estimate"][0])
    tamper(populations, "estimate", 0, repr(estimate + 0.05))
    problems = gate.check(out, reference)
    expect(problems and all("estimate" in p for p in problems),
           "a sampled estimate far from its exact value fails the gate")

    def failing(name, size, work_dir):
        return [run.Invocation("remote-bell", ["remote-bell", "--trials", "0"])]

    real = run.workload_invocations
    run.workload_invocations = failing
    try:
        result, problems, _ = run.run("cli-defaults", SEED, 0, 0, work / "failing", "tiny")
    finally:
        run.workload_invocations = real
    expect(not result["correct"] and result["failed"] >= 1
           and any("exit code 2" in p for p in problems),
           "an invocation that exits non-zero counts as failed")


def test_without_source(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-defaults", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(done.returncode != 0 and not done.stdout.strip(),
           "run.py exits non-zero without a result where there is no source tree")


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    work = (Path(run.WORK_DIR) / "selftest").resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_gate_rejects(work)
        test_without_source(work)
        test_workloads(bench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            Path(run.WORK_DIR).rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
