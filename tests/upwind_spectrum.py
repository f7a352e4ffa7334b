"""Closed-form spectrum of the upwind Goldstein-Taylor generator, and the
transport frequency range the ``sigma_min`` tests probe.

For ``b1 = 1``, ``b2 = -1`` and ``sigma = 1`` on ``n`` cells the
assembled generator is block circulant: each transport block is a
circulant upwind difference and the reaction couples equal cells.  The
Fourier mode ``exp(i j theta_k)`` with ``theta_k = 2 pi k h`` therefore
spans an invariant 2 x 2 block

    [[-(1 - exp(-i theta_k))/h - 1,  1                            ],
     [ 1,                            -(1 - exp(i theta_k))/h - 1]]

whose eigenvalues are

    mu_(+/-)(k) = -(1 - cos theta_k)/h - 1 +/- i sqrt(sin^2 theta_k / h^2 - 1).

``k = 0`` gives the zero mode and ``-2``.  The real-part shift
``(1 - cos theta_k)/h ~ 2 pi^2 k^2 h`` against the continuum values
``-1 +/- i sqrt(4 pi^2 k^2 - 1)`` is the scheme's numerical damping.
"""

import numpy as np


def goldstein_taylor_upwind_eigenvalues(n: int, modes=None) -> np.ndarray:
    """Eigenvalues ``mu_(+/-)(k)`` of the upwind generator on ``n`` cells.

    ``modes`` lists the wavenumbers ``k`` (default ``0..n-1``, the whole
    spectrum).  Returns a complex array of shape ``(len(modes), 2)``
    whose rows are ``(mu_+(k), mu_-(k))``.
    """
    h = 1.0 / n
    k = np.arange(n) if modes is None else np.asarray(modes)
    theta = 2.0 * np.pi * k * h
    # Complex root: for modes with |sin theta_k| < h the pair is real.
    root = 1j * np.sqrt(np.sin(theta) ** 2 / h**2 - 1.0 + 0j)
    centre = -(1.0 - np.cos(theta)) / h - 1.0
    return np.stack([centre + root, centre - root], axis=-1)


def goldstein_taylor_continuum_eigenvalues(kmax: int) -> np.ndarray:
    """Continuum block values ``0``, ``-2`` and ``-1 +/- i sqrt(4 pi^2 k^2 - 1)``, ``k <= kmax``."""
    vals = [0.0 + 0.0j, -2.0 + 0.0j]
    for k in range(1, kmax + 1):
        omega = np.sqrt(4.0 * np.pi**2 * k**2 - 1.0)
        vals += [-1.0 + 1j * omega, -1.0 - 1j * omega]
    return np.array(vals)


def transport_lambda_max(gen) -> float:
    """The probe range ``4 pi max|b| n`` of the ``sigma_min`` route tests.

    It is about six times ``||S0||_2``, so most of ``[0, 4 pi max|b| n]``
    lies above the norm, where the singular values of ``S0 - i lambda``
    cluster and inverse Lanczos converges slowest.
    """
    speed = max(np.abs(gen.face_b1).max(), np.abs(gen.face_b2).max())
    return 4.0 * speed * gen.grid.n * np.pi
