"""Classical RK4 on the 2x2 flux system, kept as the oracle of the
closed-form steady state in ``twospeed.steady_state``.

The flux system ``dJ/dx = M(x) J`` with
``M = sigma [[-1, 1], [1, -1]] diag(1/b1, 1/b2)`` is integrated stage
by stage, one step at a time, from ``Phi(0) = I``.  The periodic flux
is the kernel direction of ``Phi(1) - I``.  The growing mode of ``Phi``
is about ``exp(sigma int |1/b1 + 1/b2|)``, so this shooting oracle is
only trusted at moderate ``sigma``.
"""

import numpy as np

from twospeed.fields import evaluate
from twospeed.quadrature import trapezoid_weights


def coupling_matrices(b1, b2, sigma, xs):
    """Stack of flux-system coefficient matrices ``M(x)`` sampled along ``xs``."""
    sg = evaluate(sigma, xs)
    inv1, inv2 = sg / evaluate(b1, xs), sg / evaluate(b2, xs)
    return np.stack([np.stack([-inv1, inv2], -1), np.stack([inv1, -inv2], -1)], -2)


def rk4_sweep(mats, y, h, record_every=0):
    """Classical RK4 stage by stage over a half-step lattice of ``mats``.

    With ``record_every = r > 0`` the states after every ``r`` steps
    (and the initial state) are returned stacked; otherwise the final
    state.
    """
    steps = (len(mats) - 1) // 2
    out = [y]
    for k in range(steps):
        i = 2 * k
        k1 = mats[i] @ y
        k2 = mats[i + 1] @ (y + (0.5 * h) * k1)
        k3 = mats[i + 1] @ (y + (0.5 * h) * k2)
        k4 = mats[i + 2] @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if record_every and (k + 1) % record_every == 0:
            out.append(y)
    return np.array(out) if record_every else y


def rk4_steady_densities(b1, b2, sigma, n, substeps):
    """Unit-mass densities ``(p1, p2)`` on ``n + 1`` nodes by shooting.

    ``substeps`` RK4 steps per cell record ``Phi`` at every node; the
    periodic flux is the smallest right singular vector of
    ``Phi(1) - I``.
    """
    mats = coupling_matrices(b1, b2, sigma, np.linspace(0.0, 1.0, 2 * substeps * n + 1))
    phis = rk4_sweep(mats, np.eye(2), 1.0 / (substeps * n), record_every=substeps)
    fluxes = phis @ np.linalg.svd(phis[-1] - np.eye(2))[2][-1]
    nodes = np.linspace(0.0, 1.0, n + 1)
    p1 = fluxes[:, 0] / evaluate(b1, nodes)
    p2 = fluxes[:, 1] / evaluate(b2, nodes)
    mass = trapezoid_weights(n + 1, 1.0 / n) @ (p1 + p2)
    return p1 / mass, p2 / mass
