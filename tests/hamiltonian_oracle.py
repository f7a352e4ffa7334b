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

The axis test is absolute: an eigenvalue counts as imaginary when its
real part is at most ``RANK_TOL * max(scale, 1)``, 8.9e-7 at ``n = 32``
and 1.8e-6 at ``n = 64`` on the variant fields.  A level ``g`` a gap
``d`` below the infimum leaves the nearest eigenvalues only about
``sqrt(2 g d)`` off the axis (4.2e-8 for the certified level at
``n = 32``, ``sigma = 1.5e-4``, where ``g = 3e-4`` and ``d = 3e-12``).
So the oracle is sound for levels of order one, such as those of the
benchmark box (``sigma`` in ``[0.5, 1.5]``) that its users draw from.
With ``d = RANK_TOL g`` at the certified level, it reports crossings
there once ``g`` falls below about the axis tolerance over
``sqrt(2 RANK_TOL)``: on the variant fields for ``sigma <= 3e-3`` at
``n = 32`` and ``sigma <= 6e-3`` at ``n = 64``, although the dense
minimum lies above the level.
"""

import numpy as np
import scipy.linalg

from twospeed.generator import RANK_TOL


def hamiltonian_crossings(op, level, scale):
    """Sorted ``|w|`` of the imaginary-axis eigenvalues ``i w`` of ``H(level)``."""
    eye = np.eye(len(op))
    vals = scipy.linalg.eigvals(np.block([[op, -level * eye], [level * eye, -op.T]]))
    return np.sort(np.abs(vals[np.abs(vals.real) <= RANK_TOL * max(scale, 1.0)].imag))
