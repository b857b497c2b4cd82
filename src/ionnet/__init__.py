"""Simulator of a two-module trapped-ion network.

Remote entanglement between modules is heralded by two-photon
interference; entanglement within a module uses the shared motional bus.
The package reproduces the phase bookkeeping, fidelity budget,
entanglement rates and three-qubit conditional parities of such a
system.

Importing the package loads no numpy. The engine modules, which import
it, are registered in ``sys.modules`` as lazy modules and run on their
first attribute access. So the scenario, ``budget`` and ``timing`` run
without numpy. Each public name is imported from the module that
defines it; the package itself re-exports none.
"""

import os

# ionnet's largest products are (P, 8, 8) stacks, too small for OpenBLAS
# to thread, yet each of its idle workers busy-waits 2**28 cycles (~0.1 s
# of CPU) after numpy loads. 2**4 cycles, OpenBLAS's minimum, lets them
# sleep at once. This must run before numpy is first imported; a value
# the user set wins, and other BLAS libraries ignore the variable.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

# The modules that import numpy.
_ENGINE = (
    "states", "photonics", "gates", "detection", "fitting", "montecarlo", "protocols",
)


def _register_lazily(name: str):
    fullname = f"{__name__}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _ENGINE:
    globals()[_name] = _register_lazily(_name)
del _name

