"""The level-set test of Byers (SIAM J. Sci. Stat. Comput. 1988), kept as
the oracle of the chord certificate in ``twospeed.spectral.psi_sweep``.

``g`` is a singular value of ``S0 - i w`` for a real ``w`` exactly when
the Hamiltonian matrix

    H(g) = [[S0, -g I], [g I, -S0^T]]

has the eigenvalue ``i w`` (Boyd & Balakrishnan, Syst. Control Lett.
1990).  ``sigma_min(S0 - i lambda)`` is continuous and grows like
``|lambda|``, so a level whose ``H`` has no imaginary-axis eigenvalue
lies below it on all of R, and a level above its infimum has at least
one.
"""

import numpy as np
import scipy.linalg

from twospeed.generator import RANK_TOL


def hamiltonian_crossings(op, level, scale):
    """Sorted ``|w|`` of the imaginary-axis eigenvalues ``i w`` of ``H(level)``."""
    eye = np.eye(len(op))
    vals = scipy.linalg.eigvals(np.block([[op, -level * eye], [level * eye, -op.T]]))
    return np.sort(np.abs(vals[np.abs(vals.real) <= RANK_TOL * max(scale, 1.0)].imag))
