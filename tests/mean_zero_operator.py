"""Reference for the generator on the mean-zero subspace, built apart
from the deflation that ``twospeed.spectral`` uses.

The mean-zero subspace is the orthogonal complement of the unit vector
``z0 = sqrt(h * v)``, ``v`` the discrete steady state.  An orthonormal
basis ``Q`` of it comes from a dense SVD (``scipy.linalg.null_space``),
and the compression

    S0 = Q^T S Q,        S = D^{-1/2} A D^{1/2},

of side ``2n - 1`` is the operator whose ``sigma_min(S0 - i lambda)``
and propagator norms the library reproduces with ``S_c = S + c z0 z0^T``,
and whose Hamiltonian crossings (``hamiltonian_oracle.py``) check the
psi certificate.  ``S0`` depends on the choice of ``Q`` only up to an
orthogonal similarity, which leaves all three unchanged.
"""

import numpy as np
import scipy.linalg

from twospeed.generator import symmetrized


def mean_zero_operator(gen) -> np.ndarray:
    """``Q^T S Q`` for an orthonormal basis ``Q`` of the complement of ``z0``."""
    z0 = np.sqrt(gen.grid.h * gen.steady)
    q = scipy.linalg.null_space(z0[None, :])
    return q.T @ symmetrized(gen) @ q
