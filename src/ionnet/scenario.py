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

Unknown sections or keys and malformed steps are rejected with the
offending line number. Whenever a scenario is built, loaded or not, its
float settings are checked to be finite and its protocol script is
checked; these and the range checks of each section raise
``ScenarioError`` with the dotted field path.
Each field left out takes its built-in default and is listed in
``Scenario.defaulted``. The config record classes are the schema: each
section maps onto one record class and takes its keys, their order and
their defaults from the class's fields. ``emit_scenario`` writes the
fully resolved form, which parses back to an identical scenario (floats
are emitted with ``repr`` so the round trip is exact).

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
    "CALIBRATED_MODE_OVERLAP",
    "LinkBudget",
    "LinkErrorModel",
    "GateSettings",
    "SPEED_OF_LIGHT",
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
                raise ScenarioError(f"link_budget.{name} = {value} outside [0, 1]")
        if self.rep_rate <= 0:
            raise ScenarioError(f"link_budget.rep_rate = {self.rep_rate} must be positive")


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
                raise ScenarioError(f"link_errors.{name} = {value} outside [0, 1]")

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
            raise ScenarioError(f"gate.depolarizing_p = {self.depolarizing_p} outside [0, 1]")
        if not self.detuning_hz > 0:
            raise ScenarioError(f"gate.detuning_hz = {self.detuning_hz} must be positive")

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
            raise ScenarioError(f"memory.tau_s = {self.tau_s} must be positive")


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
                raise ScenarioError(f"detectors.{name} = {value} outside [0, 1]")
        for name in ("module_a", "module_b"):
            kind = getattr(self, name)
            if kind not in ("shared", "individual"):
                raise ScenarioError(f"detectors.{name} = {kind} must be 'shared' or 'individual'")

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


# Largest trial or shot count that numpy draws: its samplers take a
# signed 64-bit count.
MAX_COUNT = 2**63 - 1


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
                raise ScenarioError(f"run.{name} must be at least 1")
        for name in ("n_trials", "shots_per_point"):
            if getattr(self, name) > MAX_COUNT:
                raise ScenarioError(f"run.{name} must be at most 2**63 - 1")
        if self.seed < 0:
            raise ScenarioError("run.seed must be non-negative")
        for name in ("delay_max_s", "phase_scan_delay_s", "qubit_separation_m"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"run.{name} must be positive")


class ProtocolLayout(Record):
    qubits_a: tuple[str, ...] = ("q1", "q2")
    qubits_b: tuple[str, ...] = ("q3",)
    link: tuple[str, str] = ("q2", "q3")
    crosstalk_depol: float = 0.0
    reinit_duration_s: float = 0.0
    steps: tuple[Step, ...] = (
        HeraldStep(),
        ReinitStep("q1"),
        MSGateStep(("q1", "q2")),
        AnalysisStep(("q1", "q2"), math.pi / 2.0, 0.0),
        MeasureStep(),
    )

    def __post_init__(self):
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
        if not 0.0 <= self.crosstalk_depol <= 1.0:
            raise ScenarioError(f"protocol.crosstalk_depol = {self.crosstalk_depol} outside [0, 1]")
        if self.reinit_duration_s < 0:
            raise ScenarioError(
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
        # Loaded, built or replaced, a scenario's settings and script are
        # checked here; memory.tau_s = inf means no memory dephasing.
        for section, (attr, _) in _SECTIONS.items():
            for key, default in _SCHEMA[section].items():
                value = getattr(getattr(self, attr), key)
                if isinstance(default, float) and not (
                    math.isfinite(value) or (key, value) == ("tau_s", math.inf)
                ):
                    raise ScenarioError(f"{section}.{key} = {value} is not a finite number")
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


def _parse_value(kind: str, raw: str, path: str, lineno: int):
    try:
        if kind == "float":
            return float(raw)
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
    except ValueError:
        raise ScenarioError(
            f"line {lineno}: cannot parse {path} value {raw!r} as {kind}"
        ) from None
    raise ScenarioError(f"internal schema error for {path}")  # pragma: no cover


def _parse_text(text: str, source: str) -> tuple[dict[str, dict[str, object]], set[str]]:
    """Raw parse: the values set per section (the protocol's step
    records in order, as ``steps``) and the dotted paths of the fields
    set."""
    values: dict[str, dict[str, object]] = {sec: {} for sec in _SCHEMA}
    steps: dict[int, Step] = {}
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
        if key not in _SCHEMA[section]:
            raise ScenarioError(f"{source}:{lineno}: unknown key {path}")
        if path in seen:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {path}")
        values[section][key] = _parse_value(_kind(_SCHEMA[section][key]), raw, path, lineno)
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
    for section, (attr, _) in _SECTIONS.items():
        part = getattr(s, attr)
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {format_value(getattr(part, key))}" for key in _SCHEMA[section]]
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
        "d_ent_m": d_ent,
    }
    return out


def timing_report(scenario: Scenario) -> ExperimentOutput:
    gate = scenario.gate
    out = ExperimentOutput()
    out.summary = {
        "detuning_hz": gate.detuning_hz,
        "gate_time_s": gate.gate_time_s,
        "phase_flip_time_s": gate.phase_flip_time_s,
        "sideband_rabi_hz": gate.sideband_rabi_hz,
    }
    return out
