"""Scenario configuration: parsing, validation, defaults and emission.

The format is a minimal sectioned key-value text file:

* UTF-8, line oriented;
* blank lines and lines whose first non-space character is ``#`` are
  ignored;
* ``[section]`` opens a section;
* ``key = value`` assigns a field; values are SI numbers, bare words, or
  space-separated word lists depending on the field;
* protocol steps use numbered keys ``step.1``, ``step.2`` and so on.

Unknown sections or keys are rejected with the offending line number;
invariant violations report the dotted field path. Every field left out
is filled from the built-in defaults and listed in the validation
report. The config record classes are the schema: each section maps
onto one record class and takes its keys, their order and their
defaults from the class's fields. ``emit_scenario`` writes the fully
resolved form, which parses back to an identical scenario (floats are
emitted with ``repr`` so the round trip is exact).
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from .detection import DetectorModel
from .gates import GateSettings
from .montecarlo import (
    AnalysisStep,
    HeraldStep,
    MeasureStep,
    MSGateStep,
    ProtocolScript,
    ReinitStep,
    WaitStep,
)
from .phases import MemoryDecoherence, PhaseLedger
from .photonics import LinkBudget, LinkErrorModel
from .records import Record, fields

__all__ = ["Scenario", "ScenarioError", "load_scenario", "loads_scenario", "emit_scenario"]


class ScenarioError(ValueError):
    """Configuration rejected: parse error, unknown key or bad value."""


class RunSettings(Record):
    n_trials: int = 2000
    seed: int = 1
    shots_per_point: int = 10000
    phi_points: int = 12
    delay_points: int = 16
    delay_max_s: float = 3.0
    phase_scan_points: int = 16
    phase_scan_delay_s: float = 8e-4
    qubit_separation_m: float = 1.0

    def __post_init__(self):
        for name in ("n_trials", "shots_per_point", "phi_points", "delay_points", "phase_scan_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"run.{name} must be at least 1")
        if self.seed < 0:
            raise ValueError("run.seed must be non-negative")
        for name in ("delay_max_s", "phase_scan_delay_s", "qubit_separation_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"run.{name} must be positive")


class ProtocolLayout(Record):
    qubits_a: tuple[str, ...] = ("q1", "q2")
    qubits_b: tuple[str, ...] = ("q3",)
    link: tuple[str, str] = ("q2", "q3")
    crosstalk_depol: float = 0.0
    reinit_duration_s: float = 0.0
    steps: tuple[tuple[str, ...], ...] = (
        ("herald",),
        ("reinit", "q1"),
        ("gate", "q1", "q2"),
        ("analyze", "q1", "q2"),
        ("measure",),
    )

    def __post_init__(self):
        if len(self.link) != 2:
            raise ValueError("protocol.link must name exactly two qubits")
        # The herald takes the first atom as the module-A emitter.
        a, b = self.link
        if a not in self.qubits_a or b not in self.qubits_b:
            raise ValueError(
                f"protocol.link = {a} {b} must join qubits of two modules, "
                "a qubit of qubits_a first and one of qubits_b second"
            )
        # Re-initializing a heralded atom throws the remote pair away.
        heralded = False
        for verb, *args in self.steps:
            heralded = heralded or verb == "herald"
            if heralded and verb == "reinit" and set(args) & set(self.link):
                raise ValueError(
                    f"protocol.link = {a} {b}: step reinit {' '.join(args)} follows "
                    "a herald and discards the pair it heralded"
                )
        if not 0.0 <= self.crosstalk_depol <= 1.0:
            raise ValueError(f"protocol.crosstalk_depol = {self.crosstalk_depol} outside [0, 1]")
        if self.reinit_duration_s < 0:
            raise ValueError(
                f"protocol.reinit_duration_s = {self.reinit_duration_s} must be non-negative"
            )


# Section -> (Scenario attribute, record class), in emission order. The
# class's fields are the section's keys, in order, with their defaults;
# protocol steps use the step.N keys instead.
_SECTIONS: dict[str, tuple[str, type[Record]]] = {
    "link_budget": ("budget", LinkBudget),
    "link_errors": ("link_errors", LinkErrorModel),
    "gate": ("gate", GateSettings),
    "phase_ledger": ("ledger", PhaseLedger),
    "memory": ("memory", MemoryDecoherence),
    "detectors": ("detectors", DetectorModel),
    "protocol": ("protocol", ProtocolLayout),
    "run": ("run", RunSettings),
}

# Section -> key -> default. A key's kind follows the type of its
# default: float, int, word (str) or words (tuple).
_SCHEMA: dict[str, dict[str, object]] = {
    section: {name: default for name, default in fields(cls).items() if name != "steps"}
    for section, (_, cls) in _SECTIONS.items()
}

_KINDS = ((float, "float"), (int, "int"), (str, "word"), (tuple, "words"))


def _kind(default: object) -> str:
    return next(kind for cls, kind in _KINDS if isinstance(default, cls))


# step verb -> (fewest, most) arguments
_STEP_ARITY = {
    "herald": (0, 0),
    "reinit": (1, 1),
    "gate": (2, 2),
    "analyze": (1, math.inf),
    "wait": (1, 1),
    "measure": (0, 0),
}


class Scenario(Record):
    budget: LinkBudget
    link_errors: LinkErrorModel
    gate: GateSettings
    ledger: PhaseLedger
    memory: MemoryDecoherence
    detectors: DetectorModel
    protocol: ProtocolLayout
    run: RunSettings
    defaulted: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def resolved_text(self) -> str:
        return emit_scenario(self)

    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode("utf-8")).hexdigest()

    def qubits(self) -> tuple[str, ...]:
        return self.protocol.qubits_a + self.protocol.qubits_b

    def script(self, qubits: tuple[str, ...] | None = None) -> ProtocolScript:
        """The configured protocol script over the register ``qubits``
        (by default every declared qubit), in that order: each module and
        the link keep what lies in the register, and a step is kept when
        every declared qubit it names does (a herald names the link's
        atoms). Analyze steps carry phase 0; a parity scan sets the
        phase it scans."""
        register = self.qubits() if qubits is None else tuple(qubits)
        protocol, declared = self.protocol, set(self.qubits())
        steps = []
        for raw in protocol.steps:
            verb, args = raw[0], raw[1:]
            named = {"herald": protocol.link, "wait": ()}.get(verb, args)
            if any(q in declared and q not in register for q in named):
                continue
            if verb == "herald":
                steps.append(HeraldStep())
            elif verb == "reinit":
                steps.append(ReinitStep(args[0]))
            elif verb == "gate":
                steps.append(MSGateStep((args[0], args[1]), self.gate.phi_a))
            elif verb == "analyze":
                steps.append(AnalysisStep(tuple(args), math.pi / 2.0, 0.0))
            elif verb == "wait":
                steps.append(WaitStep(float(args[0])))
            elif verb == "measure":
                steps.append(MeasureStep())
            else:  # pragma: no cover - rejected at parse time
                raise ScenarioError(f"unknown protocol step verb {verb!r}")
        modules = {"A": protocol.qubits_a, "B": protocol.qubits_b}
        modules = {m: tuple(q for q in qs if q in register) for m, qs in modules.items()}
        return ProtocolScript(
            qubits=register,
            modules={m: qs for m, qs in modules.items() if qs},
            steps=tuple(steps),
            link=protocol.link if set(protocol.link) <= set(register) else None,
        )


# The one float setting with a meaning at infinity: no memory dephasing.
_INFINITE_OK = {"memory.tau_s"}


def _parse_value(kind: str, raw: str, path: str, lineno: int):
    try:
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value) and not (value == math.inf and path in _INFINITE_OK):
                raise ScenarioError(f"line {lineno}: {path} = {raw} is not a finite number")
            return value
        if kind == "int":
            try:
                return int(raw)  # exact at any size
            except ValueError:
                value = float(raw)  # "1e4"
                if not value.is_integer():
                    raise ValueError from None
                return int(value)
        if kind == "word":
            parts = raw.split()
            if len(parts) != 1:
                raise ValueError
            return parts[0]
        if kind == "words":
            parts = tuple(raw.split())
            if not parts:
                raise ValueError
            return parts
    except ScenarioError:
        raise
    except ValueError:
        raise ScenarioError(
            f"line {lineno}: cannot parse {path} value {raw!r} as {kind}"
        ) from None
    raise ScenarioError(f"internal schema error for {path}")  # pragma: no cover


def _parse_text(text: str, source: str) -> tuple[dict[str, dict[str, object]], set[str]]:
    """Raw parse: the values set per section (protocol steps in order,
    as ``steps``) and the dotted paths of the fields set."""
    values: dict[str, dict[str, object]] = {sec: {} for sec in _SCHEMA}
    steps: dict[int, tuple[str, ...]] = {}
    seen: set[str] = set()
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ScenarioError(f"{source}:{lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in stripped:
            raise ScenarioError(
                f"{source}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        if section is None:
            raise ScenarioError(f"{source}:{lineno}: assignment before any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        path = f"{section}.{key}"
        if section == "protocol" and key.startswith("step."):
            try:
                index = int(key.split(".", 1)[1])
            except ValueError:
                raise ScenarioError(f"{source}:{lineno}: malformed step key {key!r}") from None
            parts = tuple(raw.split())
            if not parts or parts[0] not in _STEP_ARITY:
                raise ScenarioError(
                    f"{source}:{lineno}: unknown step verb in {path}: {raw!r}"
                )
            fewest, most = _STEP_ARITY[parts[0]]
            if not fewest <= len(parts) - 1 <= most:
                raise ScenarioError(
                    f"{source}:{lineno}: wrong number of arguments in {path}: {raw!r}"
                )
            if index in steps:
                raise ScenarioError(f"{source}:{lineno}: duplicate step index {index}")
            steps[index] = parts
            seen.add("protocol.steps")
            continue
        if key not in _SCHEMA[section]:
            raise ScenarioError(f"{source}:{lineno}: unknown key {path}")
        if path in seen:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {path}")
        values[section][key] = _parse_value(_kind(_SCHEMA[section][key]), raw, path, lineno)
        seen.add(path)
    if steps:
        values["protocol"]["steps"] = tuple(steps[i] for i in sorted(steps))
    return values, seen


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    values, seen = _parse_text(text, source)
    defaulted = tuple(
        path
        for section, (_, cls) in _SECTIONS.items()
        for path in (f"{section}.{key}" for key in fields(cls))
        if path not in seen
    )
    try:
        # Each record fills the keys its section leaves out with its defaults.
        parts = {attr: cls(**values[section]) for section, (attr, cls) in _SECTIONS.items()}
        warnings = tuple(parts["ledger"].warnings())
        scenario = Scenario(**parts, defaulted=defaulted, warnings=warnings)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    # Validate the script eagerly so config errors surface at load time.
    try:
        scenario.script()
    except ValueError as exc:
        raise ScenarioError(f"protocol script invalid: {exc}") from None
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"config file not found: {path}")
    return loads_scenario(path.read_text(encoding="utf-8"), source=str(path))


def format_value(value) -> str:
    """A value as the config and result files write it: floats with
    ``repr`` (exact round trip), tuples space-separated, the rest with
    ``str``."""
    # float() first: numpy float scalars are floats too, but their repr
    # carries the type name under numpy 2.
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def emit_scenario(s: Scenario) -> str:
    """Fully resolved canonical text form (parses back identically)."""
    lines = ["# resolved scenario configuration"]
    for section, (attr, _) in _SECTIONS.items():
        part = getattr(s, attr)
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {format_value(getattr(part, key))}" for key in _SCHEMA[section]]
        steps = getattr(part, "steps", ())
        lines += [f"step.{i} = {' '.join(step)}" for i, step in enumerate(steps, start=1)]
    return "\n".join(lines) + "\n"
