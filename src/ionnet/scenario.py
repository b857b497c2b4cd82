"""Scenario configuration: parsing, validation, defaults and emission.

The format is a minimal sectioned key-value text file:

* UTF-8, line oriented;
* blank lines and lines whose first non-space character is ``#`` are
  ignored;
* ``[section]`` opens a section;
* ``key = value`` assigns a field; values are SI numbers, bare words, or
  space-separated word lists depending on the field;
* protocol steps use numbered keys ``step.1``, ``step.2`` and so on;
  each such line becomes its step record where it is read.

Unknown sections or keys, values that do not parse as their kind's type
and malformed steps are rejected with the offending line number. Each
field left out takes its built-in default and is listed in
``Scenario.defaulted``. The config record classes are the schema: each
section maps onto one ``Section`` record class and takes its keys, their
order, their defaults and their kinds from the class's fields. Whenever
a section record is built, loaded or not, it checks each setting by its
kind, and a scenario checks each section's record class and its
protocol script; each raises ``ScenarioError`` naming the field or
section. ``emit_scenario`` writes
the fully resolved form, which parses back to an identical scenario
(floats are emitted with ``repr`` so the round trip is exact).

This module needs no numpy, and holds everything that loading a
scenario or running ``budget`` and ``timing`` needs: the record class
of every section, the protocol step records and ``ProtocolScript`` with
its checks, the link budget's arithmetic (``success_probability``,
``expected_rate``), ``ExperimentOutput`` and the two reports. A setting
that only one experiment reads is checked by that experiment's driver.
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
    "format_value",
    "RunSettings",
    "ProtocolLayout",
    "Section",
    "CALIBRATED_MODE_OVERLAP",
    "LinkBudget",
    "LinkErrorModel",
    "GateSettings",
    "SPEED_OF_LIGHT",
    "PhaseLedger",
    "phi_ab",
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

# Largest trial or shot count that numpy draws: its samplers take a
# signed 64-bit count.
MAX_COUNT = 2**63 - 1

# The setting kinds. A section field names its kind as its annotation
# (``p_bell: Probability = 0.5``); with postponed annotations that name
# is the annotation's text, and each name is also an alias of its
# config type for readers and type checkers.
Real = Probability = Positive = NonNegative = Lifetime = float
Count = Seed = int
Topology = str
Words = tuple[str, ...]

# kind -> (config type, the values it accepts, the rule a rejected value
# breaks).
_SETTING_KINDS = {
    "Real": (float, math.isfinite, "is not a finite number"),
    "Probability": (float, lambda v: 0.0 <= v <= 1.0, "is not a probability in [0, 1]"),
    "Positive": (float, lambda v: 0.0 < v < math.inf, "is not a finite number > 0"),
    "NonNegative": (float, lambda v: 0.0 <= v < math.inf, "is not a finite number >= 0"),
    "Lifetime": (float, lambda v: v > 0.0, "is not a time > 0 (inf: no decay)"),
    "Count": (int, lambda v: 1 <= v <= MAX_COUNT, "is not a count from 1 to 2**63 - 1"),
    "Seed": (int, lambda v: v >= 0, "is not a seed >= 0"),
    "Topology": (str, lambda v: v in ("shared", "individual"), "is not 'shared' or 'individual'"),
    "Words": (
        tuple,
        lambda v: bool(v) and all(isinstance(w, str) and w.split() == [w] for w in v),
        "is not one or more words",
    ),
}


def _parse_int(raw: str) -> int:
    """A whole number, read exactly at any size (``1e30`` is 10**30)."""
    try:
        return int(raw)
    except ValueError:
        pass
    # Exponent form, read as a fraction. Its module is imported here
    # only: the import costs about 2 ms, which a config of plain
    # integers does not pay. An exponent is held to int()'s 4300 digits.
    from fractions import Fraction

    exponent = raw.lower().partition("e")[2]
    if "/" in raw or abs(int(exponent or 0)) > 4300:
        raise ValueError
    value = Fraction(raw)
    if value.denominator != 1:
        raise ValueError
    return value.numerator


# config type -> (its parser of a raw value, its name in messages).
_CONFIG_TYPES = {
    float: (float, "number"),
    int: (_parse_int, "whole number"),
    str: (str, "word"),
    tuple: (lambda raw: tuple(raw.split()), "word list"),
}


class Section(Record):
    """The record of one config section, named by ``section=`` in its
    class statement. A field whose annotation names a setting kind is a
    key of the section (``kinds`` maps each key to its kind); building a
    record, loaded, built or ``replace``d, checks each key's value by its
    kind. A field of another annotation (``ProtocolLayout.steps``) is no
    key."""

    def __init_subclass__(cls, section: str):
        super().__init_subclass__()
        cls.section = section
        own = cls.__dict__.get("__annotations__", {})
        cls.kinds = {name: kind for name, kind in own.items() if kind in _SETTING_KINDS}

    def __post_init__(self):
        for name, kind in self.kinds.items():
            config_type, accepts, rule = _SETTING_KINDS[kind]
            value = getattr(self, name)
            # A float field also takes an int, and stores it as its float.
            held = (int, float) if config_type is float else config_type
            if isinstance(value, bool) or not isinstance(value, held):
                type_name = _CONFIG_TYPES[config_type][1]
                raise ScenarioError(f"{self.section}.{name} = {value!r} is not a {type_name}")
            if config_type is float and type(value) is not float:
                try:
                    value = float(value)
                except OverflowError:  # an int beyond the float range, as float() reads it
                    value = math.inf if value > 0 else -math.inf
                vars(self)[name] = value
            if not accepts(value):
                raise ScenarioError(f"{self.section}.{name} = {value!r} {rule}")


class LinkBudget(Section, section="link_budget"):
    """Multiplicative factors of the coincidence probability.

    The per-photon factors (excitation, decay branch, detector quantum
    efficiency, fiber and optics transmission, collection solid angle)
    enter squared; selecting two of the four photonic Bell states gives
    the remaining factor of one half.
    """

    p_bell: Probability = 0.5
    p_pi: Probability = 0.95
    p_s_half: Probability = 0.995
    q_e: Probability = 0.35
    t_fib: Probability = 0.14
    t_opt: Probability = 0.95
    solid_angle_fraction: Probability = 0.1
    rep_rate: Positive = 4.7e5


def success_probability(b: LinkBudget) -> float:
    """Coincidence probability of a single excitation attempt."""
    per_photon = (
        b.p_pi * b.p_s_half * b.q_e * b.t_fib * b.t_opt * b.solid_angle_fraction
    )
    return b.p_bell * per_photon**2


def expected_rate(b: LinkBudget) -> float:
    """Heralded entanglement rate in events per second."""
    return success_probability(b) * b.rep_rate


class LinkErrorModel(Section, section="link_errors"):
    """Imperfections of one heralding attempt.

    ``atom_photon_fidelity`` is the fidelity of each module's
    atom-photon state to the ideal singlet; internally it maps to a
    Werner mixing weight so that the produced state has exactly this
    fidelity. ``mode_overlap`` is the wave-packet overlap v at the
    beam-splitter. Detector dark counts are not modelled.
    """

    atom_photon_fidelity: Probability = 0.92
    mode_overlap: Probability = CALIBRATED_MODE_OVERLAP

    def werner_weight(self) -> float:
        """Mixing weight w with rho = w |psi><psi| + (1 - w) I/4."""
        return (4.0 * self.atom_photon_fidelity - 1.0) / 3.0


_SQRT8 = 2.0 ** 1.5


class GateSettings(Section, section="gate"):
    """The ``[gate]`` section: intramodular gate phase, gate noise and
    drive detuning (cyclic frequency, Hz).

    The detuning fixes the gate schedule: gate time 2/delta, a pi phase
    advance of the sidebands at half the gate time, and sideband Rabi
    rate delta / 2^(3/2).
    """

    phi_a: Real = 0.0
    # Two-qubit depolarizing probability applied after each gate; 0.2
    # reproduces the measured entangling gate fidelity of 0.85:
    # F = 1 - 3 p / 4.
    depolarizing_p: Probability = 0.2
    detuning_hz: Positive = 2e4

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


class PhaseLedger(Section, section="phase_ledger"):
    """The apparatus phase terms, with SI units. The phase of a heralded
    pair is the herald's detector phase phi_d plus the four terms set
    here: the Zeeman beat delta_omega_ab * t, the geometric terms
    k*c*delta_tau and k*delta_x, and delta_phi_t. All are tracked in
    full precision; only ``phi_ab`` reduces their sum to (-pi, pi].

    delta_omega_ab: difference of the qubit splittings, rad/s.
    k: wavenumber of the emission Zeeman splitting, 1/m.
    delta_tau: excitation-time mismatch, s.
    delta_x: path-length mismatch to the beam-splitter, m.
    delta_phi_t: transfer-pulse phase difference, radians.
    """

    delta_omega_ab: Real = 2.0 * math.pi * 2.5e3
    k: Real = 0.33
    delta_tau: Real = 1e-10
    delta_x: Real = 0.03
    delta_phi_t: Real = 0.0
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


def phi_ab(ledger: PhaseLedger, phi_d: float, t: float) -> float:
    """Inter-module phase at time ``t`` after a herald with detector
    phase ``phi_d``, reduced to (-pi, pi]."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    total = ledger.herald_phase(phi_d) + ledger.delta_omega_ab * t
    reduced = math.remainder(total, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


class MemoryDecoherence(Section, section="memory"):
    """Collective dephasing of a stored entangled pair.

    A single coherence time drives an exponential decay of the pair
    coherences; the mechanism is the residual magnetic-field-gradient
    noise between the modules, so the odd-parity coherence is the
    primary casualty. Even-parity coherences use the same constant.
    """

    tau_s: Lifetime = 1.12


class DetectorModel(Section, section="detectors"):
    """The ``[detectors]`` section: readout errors and, per module,
    whether its ions share one detector or each have their own."""

    single_qubit_error: Probability = 0.01
    two_qubit_overlap: Probability = 0.08
    module_a: Topology = "shared"
    module_b: Topology = "individual"

    def is_shared(self, module: str) -> bool:
        if module not in ("A", "B"):
            raise ValueError(f"no detector declared for module {module!r}")
        return getattr(self, f"module_{module.lower()}") == "shared"


class DetectorGroup(Record):
    """Ions of one module mapped to bit positions of the outcome string."""

    module: str
    positions: tuple[int, ...]


class ScriptError(ValueError):
    """Raised when a protocol script fails validation."""


# A step record's ``verb`` is the word that names it in a step.N line.
class HeraldStep(Record):
    verb = "herald"


class ReinitStep(Record):
    verb = "reinit"
    qubit: str


class MSGateStep(Record):
    verb = "gate"
    pair: tuple[str, str]


# A scan sets ``theta``, ``phi`` or ``duration_s`` to a 1-D array, one
# value per scan point (see ``montecarlo.propagate``).
class AnalysisStep(Record):
    verb = "analyze"
    targets: tuple[str, ...]
    theta: float | np.ndarray
    phi: float | np.ndarray


class WaitStep(Record):
    verb = "wait"
    duration_s: float | np.ndarray


class MeasureStep(Record):
    verb = "measure"


Step = HeraldStep | ReinitStep | MSGateStep | AnalysisStep | WaitStep | MeasureStep


def _named(step: Step, link: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The qubits ``step`` names; a herald names the ``link`` atoms."""
    if isinstance(step, ReinitStep):
        return (step.qubit,)
    if isinstance(step, MSGateStep):
        return step.pair
    if isinstance(step, AnalysisStep):
        return step.targets
    return link if isinstance(step, HeraldStep) else ()


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
        if not all(isinstance(step, Step) for step in self.steps):
            raise ScriptError(f"every protocol step must be a step record: {self.steps}")
        if not self.steps or not isinstance(self.steps[-1], MeasureStep):
            raise ScriptError("script must end with exactly one measure step")
        measures = [s for s in self.steps if isinstance(s, MeasureStep)]
        if len(measures) != 1:
            raise ScriptError("script must contain exactly one measure step")
        for step in self.steps:
            if isinstance(step, HeraldStep) and self.link is None:
                raise ScriptError("herald step in a script without a link")
            unknown = [q for q in _named(step, self.link) if q not in declared]
            if unknown:
                raise ScriptError(f"{step.verb} step references unknown qubits {unknown}")
            if isinstance(step, MSGateStep):
                if step.pair[0] == step.pair[1]:
                    raise ScriptError(f"gate step needs two distinct qubits, got {step.pair}")
                if self.module_of(step.pair[0]) != self.module_of(step.pair[1]):
                    raise ScriptError(
                        f"gate step on {step.pair} spans two modules; "
                        "the phonon bus acts within one module"
                    )
            if isinstance(step, AnalysisStep) and len(set(step.targets)) != len(step.targets):
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


class RunSettings(Section, section="run"):
    n_trials: Count = 2000
    seed: Seed = 1
    shots_per_point: Count = 10000
    phi_points: Count = 12
    delay_points: Count = 16
    delay_max_s: Positive = 3.0
    phase_scan_points: Count = 16
    phase_scan_delay_s: Positive = 8e-4
    qubit_separation_m: Positive = 1.0


class ProtocolLayout(Section, section="protocol"):
    qubits_a: Words = ("q1", "q2")
    qubits_b: Words = ("q3",)
    link: Words = ("q2", "q3")
    crosstalk_depol: Probability = 0.0
    reinit_duration_s: NonNegative = 0.0
    steps: tuple[Step, ...] = (
        HeraldStep(),
        ReinitStep("q1"),
        MSGateStep(("q1", "q2")),
        AnalysisStep(("q1", "q2"), math.pi / 2.0, 0.0),
        MeasureStep(),
    )

    def __post_init__(self):
        super().__post_init__()
        if len(self.link) != 2:
            raise ScenarioError("protocol.link must name exactly two qubits")
        # The herald takes the first atom as the module-A emitter.
        a, b = self.link
        if a not in self.qubits_a or b not in self.qubits_b:
            raise ScenarioError(
                f"protocol.link = {a} {b} must join qubits of two modules, "
                "a qubit of qubits_a first and one of qubits_b second"
            )
        # Re-initializing a heralded atom throws the remote pair away.
        heralded = False
        for step in self.steps:
            heralded = heralded or isinstance(step, HeraldStep)
            if heralded and isinstance(step, ReinitStep) and step.qubit in self.link:
                raise ScenarioError(
                    f"protocol.link = {a} {b}: step reinit {step.qubit} follows "
                    "a herald and discards the pair it heralded"
                )


# Section -> (Scenario attribute, record class), in emission order. The
# class's setting fields are the section's keys, in order, with their
# defaults; protocol steps use the step.N keys instead.
_SECTIONS: dict[str, tuple[str, type[Section]]] = {
    cls.section: (attr, cls)
    for attr, cls in (
        ("budget", LinkBudget),
        ("link_errors", LinkErrorModel),
        ("gate", GateSettings),
        ("ledger", PhaseLedger),
        ("memory", MemoryDecoherence),
        ("detectors", DetectorModel),
        ("protocol", ProtocolLayout),
        ("run", RunSettings),
    )
}

# step verb -> the record of a step.N line's arguments. A wrong argument
# count raises TypeError and a duration that is no float ValueError.
# Analyze steps carry phase 0; a parity scan sets the phase it scans.
_STEPS = {
    "herald": HeraldStep,
    "reinit": ReinitStep,
    "gate": lambda a, b: MSGateStep((a, b)),
    "analyze": lambda first, *rest: AnalysisStep((first, *rest), math.pi / 2.0, 0.0),
    "wait": lambda duration: WaitStep(float(duration)),
    "measure": MeasureStep,
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

    def __post_init__(self):
        # Each section record checked its settings when it was built;
        # loaded, built or replaced, a scenario checks each section's
        # record class and its script here.
        for section, (attr, cls) in _SECTIONS.items():
            if type(part := getattr(self, attr)) is not cls:
                name = type(part).__name__
                raise ScenarioError(f"[{section}] is a {name} record, not {cls.__name__}")
        try:
            self.script()
        except ValueError as exc:
            raise ScenarioError(f"protocol script invalid: {exc}") from None

    def config_hash(self) -> str:
        return hashlib.sha256(emit_scenario(self).encode("utf-8")).hexdigest()

    def qubits(self) -> tuple[str, ...]:
        return self.protocol.qubits_a + self.protocol.qubits_b

    def script(self, qubits: tuple[str, ...] | None = None) -> ProtocolScript:
        """The configured protocol script over the register ``qubits``
        (by default every declared qubit), in that order: each module and
        the link keep what lies in the register, and a step is kept when
        every declared qubit it names does (a herald names the link's
        atoms)."""
        register = self.qubits() if qubits is None else tuple(qubits)
        protocol, declared = self.protocol, set(self.qubits())
        modules = {"A": protocol.qubits_a, "B": protocol.qubits_b}
        modules = {m: tuple(q for q in qs if q in register) for m, qs in modules.items()}
        return ProtocolScript(
            qubits=register,
            modules={m: qs for m, qs in modules.items() if qs},
            steps=tuple(
                step
                for step in protocol.steps
                if all(q in register or q not in declared for q in _named(step, protocol.link))
            ),
            link=protocol.link if set(protocol.link) <= set(register) else None,
        )

    def step_duration(self, step: Step) -> float | np.ndarray:
        """The time ``step`` takes: a reinit's ``reinit_duration_s``, a gate's
        ``gate_time_s``, a wait's duration (a scan's array as it is), else 0."""
        if isinstance(step, ReinitStep):
            return self.protocol.reinit_duration_s
        if isinstance(step, MSGateStep):
            return self.gate.gate_time_s
        if isinstance(step, WaitStep):
            return step.duration_s
        return 0.0


def _parse_text(text: str, source: str) -> tuple[dict[str, dict[str, object]], set[str]]:
    """Raw parse: the values set per section (the protocol's step
    records in order, as ``steps``) and the dotted paths of the fields
    set."""
    values: dict[str, dict[str, object]] = {sec: {} for sec in _SECTIONS}
    steps: dict[int, Step] = {}
    seen: set[str] = set()
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
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
            verb, *args = raw.split() or [""]
            if verb not in _STEPS:
                raise ScenarioError(
                    f"{source}:{lineno}: unknown step verb in {path}: {raw!r}"
                )
            if index in steps:
                raise ScenarioError(f"{source}:{lineno}: duplicate step index {index}")
            try:
                steps[index] = _STEPS[verb](*args)
            except TypeError:
                raise ScenarioError(
                    f"{source}:{lineno}: wrong number of arguments in {path}: {raw!r}"
                ) from None
            except ValueError:
                raise ScenarioError(
                    f"{source}:{lineno}: cannot parse {path} duration {args[0]!r} as float"
                ) from None
            seen.add("protocol.steps")
            continue
        kind = _SECTIONS[section][1].kinds.get(key)
        if kind is None:
            raise ScenarioError(f"{source}:{lineno}: unknown key {path}")
        if path in seen:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {path}")
        parse, type_name = _CONFIG_TYPES[_SETTING_KINDS[kind][0]]
        try:
            values[section][key] = parse(raw)
        except ValueError:
            raise ScenarioError(
                f"{source}:{lineno}: cannot parse {path} value {raw!r} as a {type_name}"
            ) from None
        seen.add(path)
    if steps:
        values["protocol"]["steps"] = tuple(steps[i] for i in sorted(steps))
    return values, seen


def loads_scenario(text: str, source: str = "<string>", **run) -> Scenario:
    """The scenario of ``text``; ``run`` sets ``[run]`` fields over the
    text's (the CLI's flags), checked as the text's are."""
    values, seen = _parse_text(text, source)
    values["run"].update(run)
    defaulted = tuple(
        path
        for section, (_, cls) in _SECTIONS.items()
        for path in (f"{section}.{key}" for key in fields(cls))
        if path not in seen
    )
    # Each record fills the keys its section leaves out with its defaults.
    parts = {attr: cls(**values[section]) for section, (attr, cls) in _SECTIONS.items()}
    return Scenario(**parts, defaulted=defaulted)


def load_scenario(path: str | Path, **run) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ScenarioError(f"config file {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"config file {path} is not UTF-8 (byte {exc.start})") from None
    return loads_scenario(text, source=str(path), **run)


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
    for section, (attr, cls) in _SECTIONS.items():
        part = getattr(s, attr)
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {format_value(getattr(part, key))}" for key in cls.kinds]
        steps = getattr(part, "steps", ())
        for i, step in enumerate(steps, start=1):
            words = (format_value(step.duration_s),) if isinstance(step, WaitStep) else _named(step)
            lines.append(f"step.{i} = {' '.join((step.verb, *words))}")
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


def budget_report(scenario: Scenario) -> ExperimentOutput:
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
    }
    if math.isnan(d_ent):  # a zero rate times tau_s = inf
        out.warnings.append("d_ent_m = 0 * inf (zero rate, tau_s = inf) is not reported")
    else:
        out.summary["d_ent_m"] = d_ent
    return out


def timing_report(scenario: Scenario) -> ExperimentOutput:
    """The gate's schedule, then the configured script's timeline: each
    step's duration, and ``script_time_s`` from the last herald (or the
    first step) to the measure."""
    gate = scenario.gate
    out = ExperimentOutput()
    out.summary = {
        "detuning_hz": gate.detuning_hz,
        "gate_time_s": gate.gate_time_s,
        "phase_flip_time_s": gate.phase_flip_time_s,
        "sideband_rabi_hz": gate.sideband_rabi_hz,
    }
    script_time = 0.0
    for n, step in enumerate(scenario.protocol.steps, start=1):
        duration = out.summary[f"step_{n}_{step.verb}_s"] = scenario.step_duration(step)
        script_time = 0.0 if isinstance(step, HeraldStep) else script_time + duration
    out.summary["script_time_s"] = script_time
    return out
