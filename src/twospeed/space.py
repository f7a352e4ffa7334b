"""The weighted Hilbert-space structure built on a steady state.

States are complex pairs ``(p1, p2)`` sampled on a shared grid.  The
inner product weights each component by the reciprocal of the steady
profile,

    (p, q) = sum_i  int  p_i * conj(q_i) / p_i,inf  dx,

so that the squared norm of a perturbation is its quadratic relative
entropy.  The quadrature is a weight vector on the grid; an assembled
generator supplies uniform (midpoint) weights on its cells.  All
operations are pure; the discrete identities (idempotence and
self-adjointness of the mean-zero deflation) hold to rounding because
every integral uses the same weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .quadrature import midpoint_weights

__all__ = [
    "StateVector",
    "WeightedSpace",
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


@dataclass(frozen=True)
class WeightedSpace:
    """Grid, quadrature weights and reciprocal-steady-state weights."""

    x: np.ndarray
    quad: np.ndarray
    steady1: np.ndarray
    steady2: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.x)
        for name in ("quad", "steady1", "steady2"):
            if len(getattr(self, name)) != m:
                raise ShapeError(f"space array {name} does not match the grid")
        if min(self.steady1.min(), self.steady2.min()) <= 0.0:
            raise ShapeError("steady weights must be strictly positive")

    @classmethod
    def from_cells(cls, centers, h, steady1, steady2) -> "WeightedSpace":
        """Cell-based space with uniform (midpoint) quadrature."""
        return cls(
            np.asarray(centers, dtype=float),
            midpoint_weights(len(centers), h),
            np.asarray(steady1, dtype=float),
            np.asarray(steady2, dtype=float),
        )

    def steady_state_vector(self) -> StateVector:
        return StateVector(self.x, self.steady1, self.steady2)


def _check_grid(space: WeightedSpace, p: StateVector) -> None:
    if len(p.x) != len(space.x) or not np.array_equal(p.x, space.x):
        raise ShapeError("state grid does not match the space grid")


def norm(space: WeightedSpace, p: StateVector) -> float:
    """Weighted norm ``sqrt((p, p))``."""
    _check_grid(space, p)
    val = space.quad @ (np.abs(p.p1) ** 2 / space.steady1)
    val = val + space.quad @ (np.abs(p.p2) ** 2 / space.steady2)
    return float(np.sqrt(val))


def total_mass(space: WeightedSpace, p: StateVector) -> complex:
    """Quadrature of ``p1 + p2``; equals ``(p, p_inf)`` in this metric."""
    _check_grid(space, p)
    return complex(space.quad @ (p.p1 + p.p2))


def deflate_to_mean_zero(space: WeightedSpace, p: StateVector) -> StateVector:
    """Remove the equilibrium component; the result has zero total mass."""
    m = total_mass(space, p)
    return StateVector(space.x, p.p1 - m * space.steady1, p.p2 - m * space.steady2)
