"""Correctness gate for one ionnet CLI invocation.

Three checks on an ``--out`` directory (the exit code is checked by the
caller):

* every seed-independent value recorded in ``reference.json`` (the
  ``exact*`` CSV columns, the scan variable, the exact summary fields)
  matches to ``REL_TOL``/``ABS_TOL``;
* every sampled estimate lies within ``K_SIGMA`` of its own reported
  uncertainty from its exact counterpart;
* ``digest`` lets the caller require byte-identical directories for
  repeated runs at one seed.

Nothing here depends on how the samples were drawn, so an engine that
changes the random streams still passes as long as it samples the
right distributions.
"""

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Exact values may move in the last digits when an engine change
# reorders floating-point work; anything larger is a changed result.
REL_TOL = 1e-8
ABS_TOL = 1e-10

# Sampled estimates against exact values, in units of the estimate's own
# reported uncertainty. Chosen from the exact binomial tails of the rows
# these workloads produce (see README.md), not from observed outcomes.
K_SIGMA = 6.0

# Summary estimates with a reported uncertainty and an exact counterpart
# in the same summary: (estimate, uncertainty, exact).
SUMMARY_PAIRS = (
    ("corr_even_given_remote1", "corr_even_given_remote1_err", "corr_even_given_remote1_exact"),
    ("corr_odd_given_remote0", "corr_odd_given_remote0_err", "corr_odd_given_remote0_exact"),
    ("parity_amplitude_remote1", "parity_amplitude_remote1_stderr", "parity_amplitude_remote1_exact"),
    ("parity_amplitude_sampled", "parity_amplitude_sampled_stderr", "parity_amplitude_exact_reported"),
    ("tau_fit_s", "tau_fit_stderr", "tau_fit_exact_s"),
)


def load_reference():
    with REFERENCE.open(encoding="utf-8") as fh:
        return json.load(fh)


def read_outputs(out_dir):
    """Parse an ``--out`` directory into its summary and CSV tables.

    Values stay strings, exactly as written.
    """
    out_dir = Path(out_dir)
    summary = {}
    for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        summary[key] = value
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        columns = lines[0].split(",")
        rows = [l.split(",") for l in lines[1:]]
        tables[path.stem] = {c: [r[i] for r in rows] for i, c in enumerate(columns)}
    return {"summary": summary, "tables": tables}


def digest(out_dir):
    """sha256 of every file in an ``--out`` directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
    }


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _same(want, got):
    a, b = _number(want), _number(got)
    if a is None or b is None:
        return want == got
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_reference(outputs, reference):
    """Problems where the outputs differ from the recorded exact values."""
    problems = []
    for key, want in reference["summary"].items():
        got = outputs["summary"].get(key)
        if got is None or not _same(want, got):
            problems.append(f"summary {key}: {got} != reference {want}")
    for table, columns in reference["tables"].items():
        have = outputs["tables"].get(table)
        if have is None:
            problems.append(f"table {table} missing")
            continue
        for column, want in columns.items():
            got = have.get(column)
            if got is None or len(got) != len(want):
                problems.append(f"table {table} column {column} missing or resized")
                continue
            for row, (w, g) in enumerate(zip(want, got)):
                if not _same(w, g):
                    problems.append(f"table {table} {column}[{row}]: {g} != reference {w}")
    return problems


def _outside(estimate, uncertainty, exact):
    return abs(float(estimate) - float(exact)) > K_SIGMA * float(uncertainty)


def check_sampled(outputs):
    """Problems where a sampled estimate is too far from its exact value.

    In every table with an ``uncertainty`` column followed by an
    ``exact*`` column, the column before the uncertainty is the estimate.
    (The waiting-time table compares with a CDF fitted to the same
    samples, which is not an exact value.)
    """
    problems = []
    for table, columns in outputs["tables"].items():
        names = list(columns)
        if "uncertainty" not in names:
            continue
        i = names.index("uncertainty")
        if i + 1 >= len(names) or not names[i + 1].startswith("exact"):
            continue
        est, unc, exact = columns[names[i - 1]], columns[names[i]], columns[names[i + 1]]
        for row, (e, u, x) in enumerate(zip(est, unc, exact)):
            if _outside(e, u, x):
                problems.append(
                    f"table {table} row {row}: {names[i - 1]} {e} +- {u} vs {names[i + 1]} {x}"
                )
    summary = outputs["summary"]
    for est, unc, exact in SUMMARY_PAIRS:
        if est in summary and _outside(summary[est], summary[unc], summary[exact]):
            problems.append(
                f"summary {est} {summary[est]} +- {summary[unc]} vs {exact} {summary[exact]}"
            )
    return problems


def check(out_dir, reference):
    """All content problems of one ``--out`` directory (empty when correct)."""
    if reference is None:
        return ["no reference values recorded for this invocation"]
    try:
        outputs = read_outputs(out_dir)
        return check_reference(outputs, reference) + check_sampled(outputs)
    except (OSError, IndexError, KeyError, ValueError) as exc:
        return [f"malformed outputs: {exc!r}"]
