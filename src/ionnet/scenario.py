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

This module needs no numpy, and holds everything that loading a
scenario or running ``budget`` and ``timing`` needs: the record class
of every section, the protocol step records and ``ProtocolScript`` with
its checks, the link budget's arithmetic (``success_probability``,
``expected_rate``), the fits' smallest sample sizes, ``ExperimentOutput``
and the two reports. The engine modules that use them re-export them.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from .records import Record, fields

if TYPE_CHECKING:  # annotations only: this module runs without numpy
    import numpy as np

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "loads_scenario",
    "emit_scenario",
    "LinkBudget",
    "LinkErrorModel",
    "GateSettings",
    "PhaseLedger",
    "MemoryDecoherence",
    "DetectorModel",
    "DetectorGroup",
    "success_probability",
    "expected_rate",
    "ScriptError",
    "HeraldStep",
    "ReinitStep",
    "MSGateStep",
    "AnalysisStep",
    "WaitStep",
    "MeasureStep",
    "ProtocolScript",
    "ExperimentOutput",
    "budget_report",
    "timing_report",
]


class ScenarioError(ValueError):
    """Configuration rejected: parse error, unknown key or bad value."""


# Mode overlap that combines with the 0.92 atom-photon fidelity per
# module to give a heralded fidelity of 0.79. Derived in
# scripts/calibrate.py from F = w^2 (1 + v^2)/2 + (1 - w^2)/4 with
# w = (4*0.92 - 1)/3 the per-module Werner weight.
CALIBRATED_MODE_OVERLAP = 0.9237467653169369


class LinkBudget(Record):
    """Multiplicative factors of the coincidence probability.

    The per-photon factors (excitation, decay branch, detector quantum
    efficiency, fiber and optics transmission, collection solid angle)
    enter squared; selecting two of the four photonic Bell states gives
    the remaining factor of one half.
    """

    p_bell: float = 0.5
    p_pi: float = 0.95
    p_s_half: float = 0.995
    q_e: float = 0.35
    t_fib: float = 0.14
    t_opt: float = 0.95
    solid_angle_fraction: float = 0.1
    rep_rate: float = 4.7e5

    def __post_init__(self):
        for name in (
            "p_bell",
            "p_pi",
            "p_s_half",
            "q_e",
            "t_fib",
            "t_opt",
            "solid_angle_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"link_budget.{name} = {value} outside [0, 1]")
        if self.rep_rate <= 0:
            raise ValueError(f"link_budget.rep_rate = {self.rep_rate} must be positive")


def success_probability(b: LinkBudget) -> float:
    """Coincidence probability of a single excitation attempt."""
    per_photon = (
        b.p_pi * b.p_s_half * b.q_e * b.t_fib * b.t_opt * b.solid_angle_fraction
    )
    return b.p_bell * per_photon**2


def expected_rate(b: LinkBudget) -> float:
    """Heralded entanglement rate in events per second."""
    return success_probability(b) * b.rep_rate


class LinkErrorModel(Record):
    """Imperfections of one heralding attempt.

    ``atom_photon_fidelity`` is the fidelity of each module's
    atom-photon state to the ideal singlet; internally it maps to a
    Werner mixing weight so that the produced state has exactly this
    fidelity. ``mode_overlap`` is the wave-packet overlap v at the
    beam-splitter. Detector dark counts are not modelled.
    """

    atom_photon_fidelity: float = 0.92
    mode_overlap: float = CALIBRATED_MODE_OVERLAP

    def __post_init__(self):
        for name in ("atom_photon_fidelity", "mode_overlap"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"link_errors.{name} = {value} outside [0, 1]")

    def werner_weight(self) -> float:
        """Mixing weight w with rho = w |psi><psi| + (1 - w) I/4."""
        return (4.0 * self.atom_photon_fidelity - 1.0) / 3.0


_SQRT8 = 2.0 ** 1.5


class GateSettings(Record):
    """The ``[gate]`` section: intramodular gate phase, gate noise and
    drive detuning (cyclic frequency, Hz).

    The detuning fixes the gate schedule: gate time 2/delta, a pi phase
    advance of the sidebands at half the gate time, and sideband Rabi
    rate delta / 2^(3/2).
    """

    phi_a: float = 0.0
    # Two-qubit depolarizing probability applied after each gate; 0.2
    # reproduces the measured entangling gate fidelity of 0.85:
    # F = 1 - 3 p / 4.
    depolarizing_p: float = 0.2
    detuning_hz: float = 2e4

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_p <= 1.0:
            raise ValueError(f"gate.depolarizing_p = {self.depolarizing_p} outside [0, 1]")
        if not self.detuning_hz > 0:
            raise ValueError(f"gate.detuning_hz = {self.detuning_hz} must be positive")

    @property
    def gate_time_s(self) -> float:
        return 2.0 / self.detuning_hz

    @property
    def phase_flip_time_s(self) -> float:
        return self.gate_time_s / 2.0

    @property
    def sideband_rabi_hz(self) -> float:
        return self.detuning_hz / _SQRT8


SPEED_OF_LIGHT = 2.99792458e8  # m/s

# The geometric terms are supposed to stay below 1e-2 rad; larger values
# are allowed but flagged at configuration load.
GEOMETRIC_PHASE_BOUND = 1e-2


class PhaseLedger(Record):
    """The apparatus phase terms, with SI units.

    delta_omega_ab: difference of the qubit splittings, rad/s.
    k: wavenumber of the emission Zeeman splitting, 1/m.
    delta_tau: excitation-time mismatch, s.
    delta_x: path-length mismatch to the beam-splitter, m.
    delta_phi_t: transfer-pulse phase difference, radians.
    """

    delta_omega_ab: float = 2.0 * math.pi * 2.5e3
    k: float = 0.33
    delta_tau: float = 1e-10
    delta_x: float = 0.03
    delta_phi_t: float = 0.0
    c = SPEED_OF_LIGHT  # a constant, not a setting

    def geometric_phase(self) -> float:
        """Static geometric contribution k*c*delta_tau + k*delta_x."""
        return self.k * self.c * self.delta_tau + self.k * self.delta_x

    def herald_phase(self, phi_d: float) -> float:
        """Phase of the pair at its herald: phi_d plus the static terms."""
        return phi_d + self.geometric_phase() + self.delta_phi_t

    def warnings(self) -> list[str]:
        """Soft invariant checks, reported at configuration load."""
        notes = []
        if abs(self.k * self.c * self.delta_tau) >= GEOMETRIC_PHASE_BOUND:
            notes.append(
                f"excitation-time phase k*c*delta_tau = {self.k * self.c * self.delta_tau:.3g} "
                f"rad is not small (expected < {GEOMETRIC_PHASE_BOUND})"
            )
        if abs(self.k * self.delta_x) >= GEOMETRIC_PHASE_BOUND:
            notes.append(
                f"path-length phase k*delta_x = {self.k * self.delta_x:.3g} "
                f"rad is not small (expected < {GEOMETRIC_PHASE_BOUND})"
            )
        return notes


class MemoryDecoherence(Record):
    """Collective dephasing of a stored entangled pair.

    A single coherence time drives an exponential decay of the pair
    coherences; the mechanism is the residual magnetic-field-gradient
    noise between the modules, so the odd-parity coherence is the
    primary casualty. Even-parity coherences use the same constant.
    """

    tau_s: float = 1.12

    def __post_init__(self):
        if self.tau_s <= 0:
            raise ValueError(f"memory.tau_s = {self.tau_s} must be positive")


class DetectorModel(Record):
    """The ``[detectors]`` section: readout errors and, per module,
    whether its ions share one detector or each have their own."""

    single_qubit_error: float = 0.01
    two_qubit_overlap: float = 0.08
    module_a: str = "shared"
    module_b: str = "individual"

    def __post_init__(self):
        for name in ("single_qubit_error", "two_qubit_overlap"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"detectors.{name} = {value} outside [0, 1]")
        for name in ("module_a", "module_b"):
            kind = getattr(self, name)
            if kind not in ("shared", "individual"):
                raise ValueError(f"detectors.{name} = {kind} must be 'shared' or 'individual'")

    def is_shared(self, module: str) -> bool:
        if module not in ("A", "B"):
            raise ValueError(f"no detector declared for module {module!r}")
        return getattr(self, f"module_{module.lower()}") == "shared"


class DetectorGroup(Record):
    """Ions of one module mapped to bit positions of the outcome string."""

    module: str
    positions: tuple[int, ...]


# Fewest waiting times the rate fit accepts, and fewest points the
# decay and cosine fits accept.
MIN_RATE_SAMPLES = 100
MIN_FIT_POINTS = 3


class ScriptError(ValueError):
    """Raised when a protocol script fails validation."""


class HeraldStep(Record):
    pass


class ReinitStep(Record):
    qubit: str


class MSGateStep(Record):
    pair: tuple[str, str]
    phi_a: float


# A scan sets ``theta``, ``phi`` or ``duration_s`` to a 1-D array, one
# value per scan point (see ``montecarlo.propagate``).
class AnalysisStep(Record):
    targets: tuple[str, ...]
    theta: float | np.ndarray
    phi: float | np.ndarray


class WaitStep(Record):
    duration_s: float | np.ndarray


class MeasureStep(Record):
    pass


Step = HeraldStep | ReinitStep | MSGateStep | AnalysisStep | WaitStep | MeasureStep


class ProtocolScript(Record):
    """Declared register plus the ordered step list.

    ``modules`` maps module names to the qubits they host (used for
    crosstalk and detector grouping); ``link`` is the (module-A atom,
    module-B atom) pair every herald step entangles, None without one;
    ``Scenario.script`` takes it from the checked ``protocol.link``.
    """

    qubits: tuple[str, ...]
    modules: dict[str, tuple[str, ...]]
    steps: tuple[Step, ...]
    link: tuple[str, str] | None = None

    def __post_init__(self):
        declared = set(self.qubits)
        if len(declared) != len(self.qubits):
            raise ScriptError(f"duplicate qubit declarations: {self.qubits}")
        hosted = [q for qs in self.modules.values() for q in qs]
        if sorted(hosted) != sorted(self.qubits):
            raise ScriptError("modules must partition the declared qubits")
        if not self.steps or not isinstance(self.steps[-1], MeasureStep):
            raise ScriptError("script must end with exactly one measure step")
        measures = [s for s in self.steps if isinstance(s, MeasureStep)]
        if len(measures) != 1:
            raise ScriptError("script must contain exactly one measure step")
        for step in self.steps:
            if isinstance(step, HeraldStep) and self.link is None:
                raise ScriptError("herald step in a script without a link")
            if isinstance(step, ReinitStep) and step.qubit not in declared:
                raise ScriptError(f"reinit step references unknown qubit {step.qubit!r}")
            if isinstance(step, MSGateStep):
                if any(q not in declared for q in step.pair):
                    raise ScriptError(f"gate step references unknown qubits {step.pair}")
                if step.pair[0] == step.pair[1]:
                    raise ScriptError(f"gate step needs two distinct qubits, got {step.pair}")
                if self.module_of(step.pair[0]) != self.module_of(step.pair[1]):
                    raise ScriptError(
                        f"gate step on {step.pair} spans two modules; "
                        "the phonon bus acts within one module"
                    )
            if isinstance(step, AnalysisStep):
                if any(q not in declared for q in step.targets):
                    raise ScriptError(
                        f"analysis step references unknown qubits {step.targets}"
                    )
                if len(set(step.targets)) != len(step.targets):
                    raise ScriptError(f"analysis step names a qubit twice: {step.targets}")
            if isinstance(step, WaitStep):
                # A scan's array of durations has a NaN min and max when it
                # holds a NaN, and every comparison with NaN is false.
                d = step.duration_s
                low, high = (d.min(), d.max()) if hasattr(d, "min") else (d, d)
                if not 0.0 <= low <= high < math.inf:
                    raise ScriptError(f"wait duration {d} is not a finite time >= 0")

    def module_of(self, qubit: str) -> str:
        for module, qs in self.modules.items():
            if qubit in qs:
                return module
        raise ScriptError(f"qubit {qubit!r} not hosted by any module")

    def detector_layout(self) -> tuple[DetectorGroup, ...]:
        """Detector groups over bit positions in ``qubits`` order."""
        groups = []
        for module, qs in self.modules.items():
            positions = tuple(self.qubits.index(q) for q in qs)
            if positions:
                groups.append(DetectorGroup(module=module, positions=positions))
        return tuple(groups)


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


class ExperimentOutput:
    """Tables and summary record of one run; ``warnings`` say which
    summary figures could not be trusted and were left out.

    ``tables`` maps a file stem to a table. A table maps each CSV column
    name, in file order, to its values, one per row; every column of a
    table has the same length.
    """

    def __init__(
        self,
        tables: dict[str, dict[str, Sequence]] | None = None,
        summary: dict[str, object] | None = None,
        warnings: list[str] | None = None,
    ):
        self.tables = {} if tables is None else tables
        self.summary = {} if summary is None else summary
        self.warnings = [] if warnings is None else warnings


def budget_report(scenario: Scenario, seed: int, n_trials: int, shots: int) -> ExperimentOutput:
    p = success_probability(scenario.budget)
    rate = expected_rate(scenario.budget)
    d_ent = scenario.run.qubit_separation_m * rate * scenario.memory.tau_s
    out = ExperimentOutput()
    out.summary = {
        "success_probability": p,
        "success_probability_2sf": float(f"{p:.2g}"),
        "expected_rate_per_s": rate,
        "rep_rate_hz": scenario.budget.rep_rate,
        "coherence_time_s": scenario.memory.tau_s,
        "qubit_separation_m": scenario.run.qubit_separation_m,
        "d_ent_m": d_ent,
    }
    return out


def timing_report(scenario: Scenario, seed: int, n_trials: int, shots: int) -> ExperimentOutput:
    gate = scenario.gate
    out = ExperimentOutput()
    out.summary = {
        "detuning_hz": gate.detuning_hz,
        "gate_time_s": gate.gate_time_s,
        "phase_flip_time_s": gate.phase_flip_time_s,
        "sideband_rabi_hz": gate.sideband_rabi_hz,
    }
    return out
