"""Oscillatory-integral diagnostics for high-frequency non-degeneracy.

For a real phase slope ``psi`` on ``[0, 1]`` define

    I(lambda) = int_0^1 exp( i * lambda * int_0^x psi(w) dw ) dx.

When ``psi`` is continuous, real and not identically zero, the modulus
``|I(lambda)|`` stays bounded away from one along any sequence
``lambda -> +infinity``: the oscillating part of the interval loses its
contribution (Riemann-Lebesgue), while only the measure of the set
where ``psi`` vanishes survives.  The specialisation
``psi = 1/b1 - 1/b2`` is exactly the quantity that controls whether the
two-speed model can degenerate along the imaginary axis at high
frequency, so sweeping ``|I(lambda)|`` provides numerical evidence for
a gap that no finite spectral computation can see.

The quadrature resolves every oscillation with at least eight
subintervals and uses composite Gauss-Legendre rules (eight nodes per
subinterval) both for the cumulative phase and the outer integral, so
constant-slope cases are accurate to well below 1e-10 at any swept
frequency.  A sweep integrates the cumulative phase once, on the grid
of its largest frequency, and sums every frequency there.  A ``limsup``
over a sequence is replaced by the maximum over the geometric tail of
the sweep; it is reported with its margin, never claimed as proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

#: Minimum number of outer subintervals, read at call time.
DEFAULT_BASE_POINTS = 64

#: Fewest frequencies :func:`lemma_sweep` accepts.
MIN_SWEEP_POINTS = 8

#: Subintervals per oscillation period of the integrand.
POINTS_PER_PERIOD = 8

#: Hard cap on the oscillation-resolving grid.
MAX_SUBINTERVALS = 10_000_000

#: Verdict margin: the tail maximum must stay below ``1 - margin``.
DEFAULT_MARGIN = 0.05

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: Subintervals processed per vectorised chunk (memory guard).
_CHUNK = 32768


@dataclass(frozen=True)
class PhaseSweep:
    """Sweep record of ``|I(lambda)|`` over a geometric frequency grid."""

    lambdas: np.ndarray
    moduli: np.ndarray
    values: np.ndarray
    limsup_estimate: float
    lemma_consistent: bool
    margin: float
    warnings: tuple = ()


def _psi_values(psi, x: np.ndarray) -> np.ndarray:
    return np.asarray(psi(x), dtype=float)


def _resolution(lam: float, psi_max: float) -> tuple:
    needed = math.ceil(POINTS_PER_PERIOD * abs(lam) * psi_max / (2.0 * math.pi))
    m = max(DEFAULT_BASE_POINTS, needed)
    capped = m > MAX_SUBINTERVALS
    return (MAX_SUBINTERVALS if capped else m), capped


def _capped_note(lam: float) -> str:
    return (
        f"oscillation grid capped at {MAX_SUBINTERVALS} subintervals for "
        f"lambda = {lam:.3g}; modulus accuracy is degraded"
    )


def _phase_sums(psi, lams: np.ndarray) -> tuple:
    """``I(lambda)`` at every ``lams`` on one grid, and the ``lams`` that grid under-resolves.

    ``psi`` is probed once for its maximum, and the grid is the one that
    resolves the largest ``|lambda|``: at least ``DEFAULT_BASE_POINTS``
    subintervals, and ``POINTS_PER_PERIOD`` per period of the integrand
    up to ``MAX_SUBINTERVALS`` (:func:`_resolution`).  The cumulative
    phase at its outer nodes is integrated once; each frequency is then
    one weighted sum of exponentials.  A chunk holds at most
    ``_CHUNK * 8`` frequency-node pairs.
    """
    probe = _psi_values(psi, np.linspace(0.0, 1.0, 2049))
    psi_max = float(np.abs(probe).max())
    m, _ = _resolution(float(np.abs(lams).max()), psi_max)
    under = [float(lam) for lam in lams if _resolution(float(lam), psi_max)[1]]

    width = 1.0 / m
    offsets = 0.5 * width * (_GL_NODES + 1.0)  # node offsets within one subinterval
    chunk = max(1, _CHUNK // len(lams))

    totals = np.zeros(len(lams), dtype=complex)
    phase_at_edge = 0.0
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        left = (np.arange(start, stop) * width)[:, None]
        nodes = left + offsets[None, :]  # (chunk, 8)

        # Cumulative phase at the outer nodes: prefix sums of the
        # per-subinterval integrals plus an inner rule from the left edge
        # to each node.
        inner_len = nodes - left  # (chunk, 8)
        inner_nodes = left[:, :, None] + 0.5 * inner_len[:, :, None] * (_GL_NODES + 1.0)
        inner_vals = _psi_values(psi, inner_nodes.reshape(-1)).reshape(inner_nodes.shape)
        partial = 0.5 * inner_len * (inner_vals @ _GL_WEIGHTS)  # (chunk, 8)

        cell_integrals = 0.5 * width * (_psi_values(psi, nodes.reshape(-1)).reshape(nodes.shape) @ _GL_WEIGHTS)
        prefix = phase_at_edge + np.concatenate(([0.0], np.cumsum(cell_integrals)[:-1]))
        phases = (prefix[:, None] + partial).reshape(-1)

        totals += np.exp(1j * np.multiply.outer(lams, phases)) @ np.tile(_GL_WEIGHTS, stop - start)
        phase_at_edge = prefix[-1] + cell_integrals[-1]
    return totals * (0.5 * width), under


def lemma_sweep(psi, lambda_min: float, lambda_max: float, points: int) -> PhaseSweep:
    """Sweep ``|I(lambda)|`` on a geometric grid and judge the tail.

    ``psi`` may be a :class:`~twospeed.fields.FieldSpec` or any callable
    mapping coordinates in ``[0, 1]`` to real values.  Every frequency is
    summed on one grid, the one that resolves ``lambda_max``
    (:func:`_phase_sums`), so ``psi`` is probed and its cumulative phase
    integrated once per sweep.  ``warnings`` holds one note for each
    frequency that a grid capped at ``MAX_SUBINTERVALS`` under-resolves.
    The surrogate for the limit superior is the maximum modulus over the
    largest half of the sweep; the verdict is consistent with
    high-frequency non-degeneracy when that maximum stays below
    ``1 - DEFAULT_MARGIN``.
    """
    if not 0.0 < lambda_min < lambda_max:
        raise ConfigurationError("need 0 < lambda_min < lambda_max")
    if points < MIN_SWEEP_POINTS:
        raise ConfigurationError(f"need at least {MIN_SWEEP_POINTS} sweep points")
    lambdas = np.geomspace(lambda_min, lambda_max, points)
    values, under = _phase_sums(psi, lambdas)
    moduli = np.abs(values)
    tail = moduli[points // 2 :]
    limsup = float(tail.max())
    return PhaseSweep(
        lambdas=lambdas,
        moduli=moduli,
        values=values,
        limsup_estimate=limsup,
        lemma_consistent=bool(limsup < 1.0 - DEFAULT_MARGIN),
        margin=DEFAULT_MARGIN,
        warnings=tuple(_capped_note(lam) for lam in under),
    )
