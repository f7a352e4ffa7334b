"""The weighted Hilbert-space structure built on a steady state.

States are complex pairs ``(p1, p2)`` sampled on the cells of an
assembled generator.  The inner product weights each component by the
reciprocal of the generator's discrete steady state ``gen.steady``,

    (p, q) = sum_i  int  p_i * conj(q_i) / p_i,inf  dx,

so that the squared norm of a perturbation is its quadratic relative
entropy.  Every integral is the midpoint rule on the generator's uniform
cells, a dot with the weight ``h`` on each cell; :func:`norm`,
:func:`total_mass` and :func:`deflate_to_mean_zero` read the cell
centres, ``h`` and the steady weights from the generator itself.  All
operations are pure; the discrete identities (idempotence and
self-adjointness of the mean-zero deflation) hold to rounding because
every integral uses the same weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError

if TYPE_CHECKING:
    from .generator import GeneratorMatrix

__all__ = [
    "StateVector",
    "norm",
    "total_mass",
    "deflate_to_mean_zero",
]


@dataclass(frozen=True)
class StateVector:
    """Complex two-component state sampled on a grid."""

    x: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=complex))
        object.__setattr__(self, "p2", np.asarray(self.p2, dtype=complex))
        if len(self.p1) != len(self.x) or len(self.p2) != len(self.x):
            raise ShapeError("state components must match the grid")
        if not (np.all(np.isfinite(self.p1)) and np.all(np.isfinite(self.p2))):
            raise ShapeError("state contains non-finite entries")

    @property
    def stacked(self) -> np.ndarray:
        """Both components as one vector (p1 block then p2 block)."""
        return np.concatenate([self.p1, self.p2])


def _check_grid(gen: GeneratorMatrix, p: StateVector) -> None:
    x = gen.grid.centers()
    if len(p.x) != len(x) or not np.array_equal(p.x, x):
        raise ShapeError("state grid does not match the generator's cells")


def norm(gen: GeneratorMatrix, p: StateVector) -> float:
    """Weighted norm ``sqrt((p, p))``."""
    _check_grid(gen, p)
    quad = np.full(gen.grid.n, gen.grid.h)
    val = quad @ (np.abs(p.p1) ** 2 / gen.steady1)
    val = val + quad @ (np.abs(p.p2) ** 2 / gen.steady2)
    return float(np.sqrt(val))


def total_mass(gen: GeneratorMatrix, p: StateVector) -> complex:
    """Quadrature of ``p1 + p2``; equals ``(p, p_inf)`` in this metric."""
    _check_grid(gen, p)
    return complex(np.full(gen.grid.n, gen.grid.h) @ (p.p1 + p.p2))


def deflate_to_mean_zero(gen: GeneratorMatrix, p: StateVector) -> StateVector:
    """Remove the equilibrium component; the result has zero total mass."""
    m = total_mass(gen, p)
    return StateVector(p.x, p.p1 - m * gen.steady1, p.p2 - m * gen.steady2)
