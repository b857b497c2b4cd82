"""ionnet benchmark: the CLI end to end, and its layers in a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every invocation is one ionnet
subcommand in a fresh ``python3`` process with ``src`` on the path, so
interpreter start-up and package import count as a user pays them.
Invocations run one at a time (a closed loop with one client), round-
robin over the workload's list, for ``--seconds``.

Each metric is the median over one invocation's runs, summed over the
workload's invocations. Times are seconds at a reference speed of the
host: the reference work of ``speed.py``, timed right before and right
after each invocation, gives the host's slowdown at that moment, and
the invocation's times are divided by it. With ``--trace 1`` the rounds
alternate between untraced and traced; the traced runs wrap the layer
entry points (see ``layertrace.py``) and give the per-layer metrics.
Every output directory goes through the correctness gate (``gate.py``);
a failed check or a non-zero exit counts the invocation as failed.

The last line of standard output is the JSON result; the line before it
records the environment, the host's median slowdown and the end-to-end
times before they were divided by it.
"""

import argparse
import collections
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layertrace  # noqa: E402
import speed  # noqa: E402
from child import IMPORT_MARKER  # noqa: E402

WORK_DIR = ".perfbench_work"
CALIBRATED = "configs/calibrated_3q.cfg"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Workload sizes. ``tiny`` keeps every scan grid (the exact reference
# values depend on them) and cuts only the sampled trial count; the
# self-test uses it.
SIZES = {
    "full": {"sampled_trials": 10000, "scan_trials": 1000,
             "phase_scan_points": 128, "phi_points": 96, "delay_points": 256},
    "tiny": {"sampled_trials": 1000, "scan_trials": 1000,
             "phase_scan_points": 128, "phi_points": 96, "delay_points": 256},
}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "compute_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "trials_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "import.total_s": "s", "import.scipy_s": "s",
    "scenario.load_s": "s", "scenario.load_calls": "count",
    "montecarlo.exact_branches_s": "s", "montecarlo.exact_branches_calls": "count",
    "montecarlo.exact_per_scan_point": "ratio", "montecarlo.scan_points": "count",
    "photonics.herald_states_s": "s", "photonics.herald_states_calls": "count",
    "gates.ms_gate_calls": "count", "gates.spin_echo_s": "s", "states.kernel_calls": "count",
    "montecarlo.run_protocol_self_s": "s", "montecarlo.us_per_trial": "us",
    "montecarlo.rng_streams": "count", "montecarlo.parity_scan_self_s": "s",
    "detection.readout_s": "s", "detection.readout_calls": "count",
    "detection.confusion_matrix_s": "s", "detection.confusion_matrix_calls": "count",
    "fitting.rate_fit_s": "s", "fitting.rate_fit_calls": "count",
    "fitting.cosine_fit_s": "s", "fitting.cosine_fit_calls": "count",
    "fitting.decay_fit_s": "s", "fitting.decay_fit_calls": "count",
    "protocols.self_s": "s", "cli.write_s": "s", "cli.output_bytes": "bytes",
    "trace.compute_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

# per-layer metric -> span whose self time (and call count) it reports
SPAN_METRICS = {
    "scenario.load": "scenario.load",
    "montecarlo.exact_branches": "montecarlo.exact_branches",
    "photonics.herald_states": "photonics.herald_states",
    "gates.spin_echo": "gates.spin_echo",
    "montecarlo.run_protocol_self": "montecarlo.run_protocol",
    "montecarlo.parity_scan_self": "montecarlo.parity_scan",
    "detection.readout": "detection.readout",
    "detection.confusion_matrix": "detection.confusion_matrix",
    "fitting.rate_fit": "fitting.rate_fit",
    "fitting.cosine_fit": "fitting.cosine_fit",
    "fitting.decay_fit": "fitting.decay_fit",
    "protocols.self": "protocols.driver",
    "cli.write": "cli.write",
}

# Scan points each subcommand propagates exactly, one exact_branches call
# per point today: resolved [run] keys and their multiplier.
EXACT_SCAN_POINTS = {
    "phase-scan": ("phase_scan_points", 2),
    "local-gate": ("phi_points", 1),
    "modular-3q": ("phi_points", 1),
}


# One CLI invocation of a workload: its label and the ionnet arguments
# (without --seed and --out).
Invocation = collections.namedtuple("Invocation", "label args")


def scan_config(work, size):
    """Calibrated scenario with the enlarged scan grids of ``exact-scans``."""
    text = Path(CALIBRATED).read_text(encoding="utf-8")
    for key in ("phase_scan_points", "phi_points", "delay_points"):
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {size[key]}", text)
        if n != 1:
            raise SystemExit(f"error: {CALIBRATED} has no single '{key} =' line")
    path = work / "exact_scans.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def workload_invocations(name, size, work):
    calibrated = ["--config", CALIBRATED]
    if name == "cli-defaults":
        subs = ("budget", "timing", "remote-bell", "phase-scan", "coherence", "local-gate")
        return [Invocation(s, [s]) for s in subs] + [
            Invocation("modular-3q", ["modular-3q", *calibrated])
        ]
    if name == "sampled-trials":
        trials = ["--trials", str(size["sampled_trials"])]
        return [
            Invocation("remote-bell", ["remote-bell", *trials]),
            Invocation("coherence", ["coherence", *trials]),
            Invocation("modular-3q", ["modular-3q", *calibrated, *trials]),
        ]
    if name == "exact-scans":
        cfg = ["--config", scan_config(work, size)]
        trials = ["--trials", str(size["scan_trials"])]
        return [
            Invocation("phase-scan", ["phase-scan", *cfg]),
            Invocation("local-gate", ["local-gate", *cfg]),
            Invocation("coherence", ["coherence", *cfg, *trials]),
            Invocation("modular-3q", ["modular-3q", *cfg, *trials]),
        ]
    raise SystemExit(f"error: unknown workload {name!r}")


WORKLOADS = ("cli-defaults", "sampled-trials", "exact-scans")

# Times of an invocation that are divided by the host's slowdown.
TIME_KEYS = ("wall", "setup", "compute", "cpu")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def run_child(argv, work, tag, traced, env):
    """Run one invocation; returns its measurements and paths."""
    out_dir = work / f"out-{tag}"
    marks_path = work / f"marks-{tag}.json"
    err_path = work / f"stderr-{tag}.txt"
    flags = ["-X", "importtime"] if traced else []
    cmd = [sys.executable, *flags, str(HERE / "child.py"), str(marks_path),
           "1" if traced else "0", "--", *argv, "--out", str(out_dir)]
    with open(err_path, "w", encoding="utf-8") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "code": proc.returncode,
        "out_dir": out_dir,
        "stderr": err_path,
        "wall": exited - spawn,
        "exited": exited,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }
    if proc.returncode == 0:
        marks = json.loads(marks_path.read_text(encoding="utf-8"))
        rec["setup"] = marks["loaded"] - spawn
        rec["compute"] = marks["written"] - marks["loaded"]
        rec["trace"] = marks.get("trace")
    marks_path.unlink(missing_ok=True)
    return rec


def resolved_run_settings(out_dir):
    settings = {}
    text = (Path(out_dir) / "resolved_config.cfg").read_text(encoding="utf-8")
    section = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[run]" and " = " in line:
            key, value = line.split(" = ", 1)
            settings[key] = value
    return settings


def import_times(stderr_path):
    """(total, scipy) import seconds from ``-X importtime`` output.

    The total covers everything imported before ``ionnet.cli`` was
    ready; the scipy share counts scipy modules imported at any time.
    """
    total = scipy = 0
    before_marker = True
    for line in Path(stderr_path).read_text(encoding="utf-8").splitlines():
        if line == IMPORT_MARKER:
            before_marker = False
            continue
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, module = int(parts[0]), parts[2].strip()
        if before_marker:
            total += self_us
        if module == "scipy" or module.startswith("scipy."):
            scipy += self_us
    return total / 1e6, scipy / 1e6


def layer_metrics(rec, label, trials):
    """Per-layer values of one traced invocation."""
    trace = rec["trace"]
    selfs = layertrace.self_times(trace)
    m = {}
    for metric, span in SPAN_METRICS.items():
        calls, total = selfs.get(span, (0, 0.0))
        m[f"{metric}_s"] = total
        m[f"{metric}_calls"] = calls
    counts = trace["counts"]
    m["montecarlo.rng_streams"] = counts["montecarlo.rng_stream"]
    m["gates.ms_gate_calls"] = counts["gates.ms_gate"]
    m["states.kernel_calls"] = counts["states.kernel"]
    m["montecarlo.run_protocol_inclusive_s"] = layertrace.inclusive_times(
        trace, "montecarlo.run_protocol"
    )
    m["montecarlo.run_protocol_trials"] = trials if selfs.get("montecarlo.run_protocol") else 0
    settings = resolved_run_settings(rec["out_dir"])
    key, mult = EXACT_SCAN_POINTS.get(label, (None, 0))
    m["montecarlo.scan_points"] = int(settings[key]) * mult if key else 0
    m["import.total_s"], m["import.scipy_s"] = import_times(rec["stderr"])
    m["cli.output_bytes"] = sum(p.stat().st_size for p in Path(rec["out_dir"]).iterdir())
    m["trace.compute_s"] = rec["raw_compute"]
    m["trace.attributed_s"] = sum(
        total for span, (_, total) in selfs.items() if span != "scenario.load"
    )
    return {k: v / rec["slowdown"] if k.endswith("_s") else v for k, v in m.items()}


def median_by_label(records, key):
    return {label: statistics.median(r[key] for r in recs) for label, recs in records.items()}


def end_to_end(untraced, trials):
    med = {key: median_by_label(untraced, key) for key in ("wall", "setup", "compute", "cpu", "rss_mb")}
    sampled = [label for label, n in trials.items() if n]
    values = {
        "wall_s": sum(med["wall"].values()),
        "setup_s": sum(med["setup"].values()),
        "compute_s": sum(med["compute"].values()),
        "cpu_s": sum(med["cpu"].values()),
        "peak_rss_mb": max(med["rss_mb"].values()),
        "trials_per_s": sum(trials[l] for l in sampled) / sum(med["compute"][l] for l in sampled),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(untraced, traced_layers):
    keys = next(iter(traced_layers.values()))[0].keys()
    summed = {k: sum(statistics.median(m[k] for m in ms) for ms in traced_layers.values()) for k in keys}
    untraced_compute = sum(median_by_label(untraced, "compute").values())
    values = {k: summed[k] for k in PER_LAYER_UNITS if k in summed}
    values["montecarlo.exact_per_scan_point"] = (
        summed["montecarlo.exact_branches_calls"] / summed["montecarlo.scan_points"]
    )
    values["montecarlo.us_per_trial"] = (
        1e6 * summed["montecarlo.run_protocol_inclusive_s"] / summed["montecarlo.run_protocol_trials"]
    )
    values["trace.overhead_s"] = summed["trace.compute_s"] - untraced_compute
    values["trace.unattributed_s"] = summed["trace.compute_s"] - summed["trace.attributed_s"]
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def source_digest():
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        # Look for a repository at the checkout root only, not above it.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().resolve().parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, size, env):
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": size,
    }


def run(workload, seed, seconds, trace, work, size_name="full"):
    """Run one workload in the directory ``work``; returns the result and
    the list of failed checks."""
    size = SIZES[size_name]
    work = Path(work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    invocations = workload_invocations(workload, size, work)
    references = gate.load_reference()
    seed_args = ["--seed", str(seed)]

    attempted = failed = 0
    problems = []
    digests = {}
    untraced = {inv.label: [] for inv in invocations}
    traced_layers = {inv.label: [] for inv in invocations}
    trials = {}
    reference_before = None

    def invoke(inv, tag, traced, checked=True):
        nonlocal attempted, failed, reference_before
        attempted += 1
        rec = run_child(inv.args + seed_args, work, tag, traced, env)
        reference_after = speed.measure()
        rec["slowdown"] = (reference_before + reference_after) / (2 * speed.REFERENCE_S)
        reference_before = reference_after
        for key in TIME_KEYS:
            if key in rec:
                rec["raw_" + key] = rec[key]
                rec[key] /= rec["slowdown"]
        issues = []
        if rec["code"] != 0:
            issues.append(f"exit code {rec['code']}")
        elif checked:
            issues += gate.check(rec["out_dir"], references.get(f"{workload}/{inv.label}"))
            got = gate.digest(rec["out_dir"])
            want = digests.setdefault(inv.label, got)
            if got != want:
                issues.append("outputs differ from an earlier run at the same seed")
        if issues:
            failed += 1
            problems.extend(f"{inv.label}: {p}" for p in issues)
        elif checked:
            n = gate.read_outputs(rec["out_dir"])["summary"].get("n_trials")
            trials[inv.label] = int(n) if n is not None else 0
            if traced:
                traced_layers[inv.label].append(layer_metrics(rec, inv.label, trials[inv.label]))
            else:
                untraced[inv.label].append(rec)
        shutil.rmtree(rec["out_dir"], ignore_errors=True)
        rec["stderr"].unlink(missing_ok=True)
        return rec

    # Warm-up: compiles bytecode and loads the libraries into the page
    # cache, which a user's second run finds done as well; the first
    # timing of the reference work pays its own first-call costs.
    speed.measure()
    reference_before = speed.measure()
    invoke(Invocation("warmup", ["budget"]), "warmup", False, checked=False)

    # Round-robin over the invocations until the next one would end after
    # ``seconds``. The first round (two with --trace 1) always runs; with
    # --trace 1 the rounds alternate between untraced and traced.
    start = time.monotonic()
    last_wall = {}
    for n in itertools.count():
        inv = invocations[n % len(invocations)]
        rounds = n // len(invocations)
        traced = bool(trace) and rounds % 2 == 1
        expected_end = time.monotonic() - start + last_wall.get((inv.label, traced), 0.0)
        if rounds >= (2 if trace else 1) and expected_end > seconds:
            break
        rec = invoke(inv, str(n), traced)
        last_wall[(inv.label, traced)] = rec["raw_wall"] + time.monotonic() - rec["exited"]

    if any(not recs for recs in untraced.values()) or (
        trace and any(not ms for ms in traced_layers.values())
    ):
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}, problems, {}
    metrics = per_layer(untraced, traced_layers) if trace else end_to_end(untraced, trials)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    records = [r for recs in untraced.values() for r in recs]
    host = {
        "reference_s": speed.REFERENCE_S,
        "slowdown_median": statistics.median(r["slowdown"] for r in records),
        "raw_sums_of_medians_s": {
            f"{key}_s": sum(median_by_label(untraced, "raw_" + key).values()) for key in TIME_KEYS
        },
    }
    return result, problems, host


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in ("src/ionnet/cli.py", CALIBRATED) if not Path(p).is_file()]
    if missing:
        print(f"error: run from the root of an ionnet checkout; missing {missing}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so that the running child is killed
    # and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Path(WORK_DIR) / f"run-{os.getpid()}"
    try:
        result, problems, host = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            Path(WORK_DIR).rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not result["metrics"]:
        print("error: no invocation of some subcommand succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(args, SIZES["full"], child_env()), "host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
