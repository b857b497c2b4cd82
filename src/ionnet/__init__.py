"""Simulator of a two-module trapped-ion network.

Remote entanglement between modules is heralded by two-photon
interference; entanglement within a module uses the shared motional bus.
The package reproduces the phase bookkeeping, fidelity budget,
entanglement rates and three-qubit conditional parities of such a
system.
"""

import os

# ionnet's largest products are (P, 8, 8) stacks, too small for OpenBLAS
# to thread, yet each of its idle workers busy-waits 2**28 cycles (~0.1 s
# of CPU) after numpy loads. 2**4 cycles, OpenBLAS's minimum, lets them
# sleep at once. This must run before numpy is first imported; a value
# the user set wins, and other BLAS libraries ignore the variable.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .detection import DetectorGroup, DetectorModel, confusion_matrix
from .gates import GateSettings, analysis_rotation, ms_gate, rotation, spin_echo_ramsey
from .montecarlo import ProtocolResult, ProtocolScript, coherent_entanglement_distance, run_protocol
from .phases import MemoryDecoherence, PhaseLedger, free_evolution, phi_ab
from .photonics import (
    LinkBudget,
    LinkErrorModel,
    emit_atom_photon,
    expected_rate,
    qwp_map,
    success_probability,
)
from .scenario import Scenario, ScenarioError, emit_scenario, load_scenario, loads_scenario
from .states import QuantumState, fidelity, partial_trace, tensor

__version__ = "0.1.0"

__all__ = [
    "QuantumState", "tensor", "fidelity", "partial_trace",
    "LinkBudget", "LinkErrorModel", "emit_atom_photon", "qwp_map",
    "success_probability", "expected_rate",
    "GateSettings", "ms_gate", "rotation", "analysis_rotation",
    "spin_echo_ramsey",
    "PhaseLedger", "MemoryDecoherence", "phi_ab", "free_evolution",
    "DetectorModel", "DetectorGroup", "confusion_matrix",
    "ProtocolScript", "ProtocolResult",
    "run_protocol", "coherent_entanglement_distance",
    "Scenario", "ScenarioError", "load_scenario", "loads_scenario", "emit_scenario",
    "__version__",
]
