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
report. ``emit_scenario`` writes the fully resolved form, which parses
back to an identical scenario (floats are emitted with ``repr`` so the
round trip is exact).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .detection import DetectorModel
from .gates import GateNoise, GateTiming, gate_timing
from .montecarlo import (
    AnalysisStep,
    HeraldStep,
    MeasureStep,
    MSGateStep,
    ProtocolConfig,
    ProtocolScript,
    ReinitStep,
    WaitStep,
)
from .phases import MemoryDecoherence, PhaseLedger
from .photonics import CALIBRATED_MODE_OVERLAP, LinkBudget, LinkErrorModel

__all__ = ["Scenario", "ScenarioError", "load_scenario", "loads_scenario", "emit_scenario"]


class ScenarioError(ValueError):
    """Configuration rejected: parse error, unknown key or bad value."""


@dataclass(frozen=True)
class RunSettings:
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


@dataclass(frozen=True)
class ProtocolLayout:
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


# Section -> key -> (parser kind, default). Kind is one of
# "float", "int", "word", "words".
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "link_budget": {
        "p_bell": ("float", 0.5),
        "p_pi": ("float", 0.95),
        "p_s_half": ("float", 0.995),
        "q_e": ("float", 0.35),
        "t_fib": ("float", 0.14),
        "t_opt": ("float", 0.95),
        "solid_angle_fraction": ("float", 0.1),
        "rep_rate": ("float", 4.7e5),
    },
    "link_errors": {
        "atom_photon_fidelity": ("float", 0.92),
        "mode_overlap": ("float", CALIBRATED_MODE_OVERLAP),
    },
    "gate": {
        "phi_a": ("float", 0.0),
        "depolarizing_p": ("float", 0.2),
        "detuning_hz": ("float", 2.0e4),
    },
    "phase_ledger": {
        "phi_d": ("float", 0.0),
        "delta_omega_ab": ("float", 2.0 * math.pi * 2.5e3),
        "k": ("float", 0.33),
        "delta_tau": ("float", 1e-10),
        "delta_x": ("float", 0.03),
        "delta_phi_t": ("float", 0.0),
    },
    "memory": {
        "tau_s": ("float", 1.12),
    },
    "detectors": {
        "single_qubit_error": ("float", 0.01),
        "two_qubit_overlap": ("float", 0.08),
        "module_a": ("word", "shared"),
        "module_b": ("word", "individual"),
    },
    "protocol": {
        "qubits_a": ("words", ("q1", "q2")),
        "qubits_b": ("words", ("q3",)),
        "link": ("words", ("q2", "q3")),
        "crosstalk_depol": ("float", 0.0),
        "reinit_duration_s": ("float", 0.0),
        # step.N keys are validated separately
    },
    "run": {
        "n_trials": ("int", 2000),
        "seed": ("int", 1),
        "shots_per_point": ("int", 10000),
        "phi_points": ("int", 12),
        "delay_points": ("int", 16),
        "delay_max_s": ("float", 3.0),
        "phase_scan_points": ("int", 16),
        "phase_scan_delay_s": ("float", 8e-4),
        "qubit_separation_m": ("float", 1.0),
    },
}

# step verb -> (fewest, most) arguments
_STEP_ARITY = {
    "herald": (0, 0),
    "reinit": (1, 1),
    "gate": (2, 2),
    "analyze": (1, math.inf),
    "wait": (1, 1),
    "measure": (0, 0),
}


@dataclass(frozen=True)
class Scenario:
    budget: LinkBudget
    link_errors: LinkErrorModel
    gate_noise: GateNoise
    gate_phi_a: float
    timing: GateTiming
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

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            budget=self.budget,
            link_errors=self.link_errors,
            gate_noise=self.gate_noise,
            timing=self.timing,
            ledger=self.ledger,
            decoherence=self.memory,
            detectors=self.detectors,
            crosstalk_depol=self.protocol.crosstalk_depol,
            reinit_duration_s=self.protocol.reinit_duration_s,
        )

    def qubits(self) -> tuple[str, ...]:
        return self.protocol.qubits_a + self.protocol.qubits_b

    def script(self) -> ProtocolScript:
        """Build the typed protocol script. Analyze steps carry phase 0;
        a parity scan sets the phase it scans."""
        steps = []
        for raw in self.protocol.steps:
            verb, args = raw[0], raw[1:]
            if verb == "herald":
                steps.append(HeraldStep("ab"))
            elif verb == "reinit":
                steps.append(ReinitStep(args[0]))
            elif verb == "gate":
                steps.append(MSGateStep((args[0], args[1]), self.gate_phi_a))
            elif verb == "analyze":
                steps.append(AnalysisStep(tuple(args), math.pi / 2.0, 0.0))
            elif verb == "wait":
                steps.append(WaitStep(float(args[0])))
            elif verb == "measure":
                steps.append(MeasureStep())
            else:  # pragma: no cover - rejected at parse time
                raise ScenarioError(f"unknown protocol step verb {verb!r}")
        return ProtocolScript(
            qubits=self.qubits(),
            modules={"A": self.protocol.qubits_a, "B": self.protocol.qubits_b},
            links={"ab": self.protocol.link},
            steps=tuple(steps),
        )


def _parse_value(kind: str, raw: str, path: str, lineno: int):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            value = float(raw)
            if value != int(value):
                raise ValueError
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
    except ValueError:
        raise ScenarioError(
            f"line {lineno}: cannot parse {path} value {raw!r} as {kind}"
        ) from None
    raise ScenarioError(f"internal schema error for {path}")  # pragma: no cover


def _parse_text(text: str, source: str) -> tuple[dict[str, dict[str, object]], list[tuple[str, ...]], set[str]]:
    """Raw parse: values per section, ordered protocol steps, seen fields."""
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
        kind, _ = _SCHEMA[section][key]
        values[section][key] = _parse_value(kind, raw, path, lineno)
        seen.add(path)
    ordered_steps = [steps[i] for i in sorted(steps)]
    return values, ordered_steps, seen


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    values, steps, seen = _parse_text(text, source)

    def get(section: str, key: str):
        if key in values[section]:
            return values[section][key]
        return _SCHEMA[section][key][1]

    defaulted = tuple(
        f"{section}.{key}"
        for section in _SCHEMA
        for key in _SCHEMA[section]
        if f"{section}.{key}" not in seen
    ) + (() if "protocol.steps" in seen else ("protocol.steps",))

    try:
        budget = LinkBudget(**{k: get("link_budget", k) for k in _SCHEMA["link_budget"]})
        link_errors = LinkErrorModel(
            atom_photon_fidelity=get("link_errors", "atom_photon_fidelity"),
            mode_overlap=get("link_errors", "mode_overlap"),
        )
        gate_noise = GateNoise(depolarizing_p=get("gate", "depolarizing_p"))
        timing = gate_timing(get("gate", "detuning_hz"))
        ledger = PhaseLedger(
            phi_d=get("phase_ledger", "phi_d"),
            delta_omega_ab=get("phase_ledger", "delta_omega_ab"),
            k=get("phase_ledger", "k"),
            delta_tau=get("phase_ledger", "delta_tau"),
            delta_x=get("phase_ledger", "delta_x"),
            delta_phi_t=get("phase_ledger", "delta_phi_t"),
        )
        memory = MemoryDecoherence(tau_s=get("memory", "tau_s"))
        detectors = DetectorModel(
            single_qubit_error=get("detectors", "single_qubit_error"),
            two_qubit_overlap=get("detectors", "two_qubit_overlap"),
            topology={
                "A": get("detectors", "module_a"),
                "B": get("detectors", "module_b"),
            },
        )
        protocol = ProtocolLayout(
            qubits_a=tuple(get("protocol", "qubits_a")),
            qubits_b=tuple(get("protocol", "qubits_b")),
            link=tuple(get("protocol", "link")),
            crosstalk_depol=get("protocol", "crosstalk_depol"),
            reinit_duration_s=get("protocol", "reinit_duration_s"),
            steps=tuple(steps) if steps else ProtocolLayout().steps,
        )
        run = RunSettings(**{k: get("run", k) for k in _SCHEMA["run"]})
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    if len(protocol.link) != 2:
        raise ScenarioError("protocol.link must name exactly two qubits")
    scenario = Scenario(
        budget=budget,
        link_errors=link_errors,
        gate_noise=gate_noise,
        gate_phi_a=get("gate", "phi_a"),
        timing=timing,
        ledger=ledger,
        memory=memory,
        detectors=detectors,
        protocol=protocol,
        run=run,
        defaulted=defaulted,
        warnings=tuple(ledger.warnings()),
    )
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def emit_scenario(s: Scenario) -> str:
    """Fully resolved canonical text form (parses back identically)."""
    lines = ["# resolved scenario configuration"]
    sections: dict[str, dict[str, object]] = {
        "link_budget": {k: getattr(s.budget, k) for k in _SCHEMA["link_budget"]},
        "link_errors": {
            "atom_photon_fidelity": s.link_errors.atom_photon_fidelity,
            "mode_overlap": s.link_errors.mode_overlap,
        },
        "gate": {
            "phi_a": s.gate_phi_a,
            "depolarizing_p": s.gate_noise.depolarizing_p,
            "detuning_hz": s.timing.detuning_hz,
        },
        "phase_ledger": {
            "phi_d": s.ledger.phi_d,
            "delta_omega_ab": s.ledger.delta_omega_ab,
            "k": s.ledger.k,
            "delta_tau": s.ledger.delta_tau,
            "delta_x": s.ledger.delta_x,
            "delta_phi_t": s.ledger.delta_phi_t,
        },
        "memory": {"tau_s": s.memory.tau_s},
        "detectors": {
            "single_qubit_error": s.detectors.single_qubit_error,
            "two_qubit_overlap": s.detectors.two_qubit_overlap,
            "module_a": s.detectors.topology["A"],
            "module_b": s.detectors.topology["B"],
        },
        "protocol": {
            "qubits_a": s.protocol.qubits_a,
            "qubits_b": s.protocol.qubits_b,
            "link": s.protocol.link,
            "crosstalk_depol": s.protocol.crosstalk_depol,
            "reinit_duration_s": s.protocol.reinit_duration_s,
        },
        "run": {k: getattr(s.run, k) for k in _SCHEMA["run"]},
    }
    for section, kv in sections.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, value in kv.items():
            lines.append(f"{key} = {_fmt(value)}")
        if section == "protocol":
            for i, step in enumerate(s.protocol.steps, start=1):
                lines.append(f"step.{i} = {' '.join(step)}")
    return "\n".join(lines) + "\n"
