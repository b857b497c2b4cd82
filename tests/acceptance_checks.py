"""What the sampled acceptance checks share with their seed sweep.

``tests/test_acceptance.py`` runs each check at one seed and
``scripts/seed_sweep.py`` at many; both read the noiseless scenario, the
false-failure rate and the chi-square rule from here, so that the sweep
measures the checks the suite runs.
"""

import numpy as np
from scipy.stats import chi2

# Rate at which a chi-square check of a sampled table fails by chance.
FALSE_FAILURE = 1e-3

NOISELESS = """
[link_errors]
atom_photon_fidelity = 1.0
mode_overlap = 1.0
[gate]
depolarizing_p = 0.0
[phase_ledger]
delta_tau = 0.0
delta_x = 0.0
[detectors]
single_qubit_error = 0.0
two_qubit_overlap = 0.0
"""


def chi_square(z: np.ndarray) -> tuple[float, float]:
    """Sum of the squared z-scores of a table's points, and the chi-square
    quantile that an unbiased table exceeds with probability
    ``FALSE_FAILURE``."""
    return float(np.sum(z**2)), float(chi2.ppf(1.0 - FALSE_FAILURE, z.size))
