"""Steady states of the two-speed model via the periodic flux ODE.

A stationary profile ``(p1, p2)`` with flux-periodic boundary coupling
is characterised by its fluxes ``J_i = b_i * p_i``, which solve the
linear system

    dJ/dx = sigma(x) * [[-1, 1], [1, -1]] * diag(1/b1, 1/b2) * J,
    J(0) = J(1).

Let ``Phi(x)`` be the fundamental matrix of that system.  Periodic
fluxes are exactly the fixed vectors of ``Phi(1)``, and the row vector
``(1, 1)`` is always a left fixed vector, so a non-trivial fixed flux
exists; under the admissibility conditions checked in
:mod:`twospeed.fields`, the fixed space is one-dimensional and the
recovered densities are single-signed.  This module constructs
``Phi(x)`` with a fixed-step classical fourth-order one-step scheme,
extracts the periodic flux direction, recovers the densities
``p_i = J_i / b_i`` on a uniform node grid, and normalises the total
mass to one.

The defect of a candidate steady state is measured by
:func:`steady_residual`, which re-derives the fluxes from the stored
densities and differentiates them with fourth-order finite-difference
stencils, independently of the solver's internal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFieldError,
    NonUniqueSteadyStateError,
    NumericalError,
    PositivityError,
    ShapeError,
)
from .fields import DEGENERACY_FLOOR, FieldSpec, evaluate
from .generator import RANK_TOL
from .quadrature import trapezoid_weights

#: Integrator steps across ``[0, x]`` in :func:`fundamental_matrix`, and
#: the least number across ``[0, 1]`` in :func:`solve_steady`; read at
#: call time.
DEFAULT_STEPS = 4096


@dataclass(frozen=True)
class SteadyState:
    """Grid-sampled positive steady state and its fluxes.

    Attributes
    ----------
    x:
        ``n + 1`` uniform nodes on ``[0, 1]``.
    p1, p2:
        Nodal densities, normalised so the trapezoid quadrature of
        ``p1 + p2`` equals one.
    J1, J2:
        Nodal fluxes ``J_i = b_i * p_i``.
    lower_bound, upper_bound:
        Empirical nodal extrema ``c <= p_i <= C`` over both components.
    residual:
        Maximum defect of the stationary equations and the boundary
        coupling, as computed by :func:`steady_residual`.
    """

    x: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    lower_bound: float
    upper_bound: float
    residual: float

    def __post_init__(self) -> None:
        m = len(self.x)
        for name in ("p1", "p2", "J1", "J2"):
            if len(getattr(self, name)) != m:
                raise ShapeError(f"steady-state array {name} does not match the grid")


def _coupling_matrices(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec, xs: np.ndarray) -> np.ndarray:
    """Stack of flux-ODE coefficient matrices sampled along ``xs``."""
    v1 = np.asarray(evaluate(b1, xs))
    v2 = np.asarray(evaluate(b2, xs))
    small = min(np.abs(v1).min(), np.abs(v2).min())
    if small < DEGENERACY_FLOOR:
        raise DegenerateFieldError(
            f"velocity field reaches |b| = {small:.3e} on the integration path "
            f"(floor {DEGENERACY_FLOOR:.1e})"
        )
    sg = np.asarray(evaluate(sigma, xs))
    inv1 = sg / v1
    inv2 = sg / v2
    mats = np.empty((len(xs), 2, 2))
    mats[:, 0, 0] = -inv1
    mats[:, 0, 1] = inv2
    mats[:, 1, 0] = inv1
    mats[:, 1, 1] = -inv2
    return mats


def _rk4_sweep(mats: np.ndarray, y: np.ndarray, h: float, record_every: int = 0) -> np.ndarray:
    """Advance ``y' = M(x) y`` over a half-step lattice of matrices.

    ``mats`` holds ``2*steps + 1`` coefficient matrices at spacing
    ``h/2``.  The system is linear, so classical RK4 step ``k`` is the
    2x2 propagator ``P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` with
    ``K1 = M(x_k)``, ``K2 = M(x_k + h/2) (I + h/2 K1)``,
    ``K3 = M(x_k + h/2) (I + h/2 K2)`` and ``K4 = M(x_k + h) (I + h K3)``.
    All propagators are built by batched products over the stack, and
    ``y`` then advances by one 2x2 product per step.  With
    ``record_every = r > 0`` the state is recorded after every ``r``
    steps (plus the initial state) and the stacked record is returned;
    otherwise only the final state is returned.

    A coupling too stiff for the step makes RK4 unstable; the state then
    overflows, and :class:`NumericalError` is raised instead of returning
    a non-finite result.
    """
    steps = (len(mats) - 1) // 2
    eye = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        k1, mid = mats[:-1:2], mats[1::2]
        k2 = mid @ (eye + (0.5 * h) * k1)
        k3 = mid @ (eye + (0.5 * h) * k2)
        k4 = mats[2::2] @ (eye + h * k3)
        props = eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if record_every:
            out = np.empty((steps // record_every + 1,) + y.shape)
            out[0] = y
        for k in range(steps):
            y = props[k] @ y
            if record_every and (k + 1) % record_every == 0:
                out[(k + 1) // record_every] = y
    result = out if record_every else y
    if not np.isfinite(result).all():
        raise NumericalError(
            f"flux ODE too stiff for {steps} RK4 steps: h * sigma/|b| reaches "
            f"{h * np.abs(mats).max():.3g}, and Phi overflows"
        )
    return result


def fundamental_matrix(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec, x: float) -> np.ndarray:
    """Fundamental matrix ``Phi(x)`` of the flux system, ``Phi(0) = I``.

    Integrates with ``DEFAULT_STEPS`` uniform classical fourth-order
    steps on ``[0, x]``.  Columns of the result describe how unit fluxes
    at 0 propagate to ``x``; the column sums stay equal to one because
    ``(1, 1)`` is a left fixed vector of the coefficient matrix.

    Raises
    ------
    DegenerateFieldError
        If a velocity field drops below ``DEGENERACY_FLOOR`` anywhere on
        the path.
    DomainError
        If ``x`` lies outside ``[0, 1]``.
    NumericalError
        If the coupling is too stiff for the steps and ``Phi`` overflows.
    """
    if x == 0.0:
        return np.eye(2)
    lattice = np.linspace(0.0, x, 2 * DEFAULT_STEPS + 1)
    mats = _coupling_matrices(b1, b2, sigma, lattice)
    return _rk4_sweep(mats, np.eye(2), x / DEFAULT_STEPS)


def solve_steady(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec, n: int) -> SteadyState:
    """Construct the normalised positive steady state on ``n + 1`` nodes.

    One sweep of the integrator over ``[0, 1]`` (``substeps`` steps per
    cell, ``substeps * n >= DEFAULT_STEPS``) records the fundamental
    matrix ``Phi`` at every node.  The periodic flux direction is the
    kernel direction of ``Phi(1) - I`` (smallest singular direction);
    the node fluxes are ``Phi(x_k)`` applied to it, densities are
    recovered as ``J_i / b_i``, the sign is fixed so the total mass is
    positive, and the profile is scaled to unit total mass.

    Raises
    ------
    NonUniqueSteadyStateError
        If the kernel of ``Phi(1) - I`` is not one-dimensional within
        the rank tolerance (signals a discretisation or admissibility
        failure; analytically the dimension is exactly one).
    PositivityError
        If the recovered profile changes sign.
    NumericalError
        If the coupling is too stiff for the steps and ``Phi`` overflows.
    """
    if n < 8:
        raise ValueError("steady-state grid needs at least 8 cells")
    substeps = max(1, math.ceil(DEFAULT_STEPS / n))
    lattice = np.linspace(0.0, 1.0, 2 * substeps * n + 1)
    mats = _coupling_matrices(b1, b2, sigma, lattice)
    phis = _rk4_sweep(mats, np.eye(2), 1.0 / (substeps * n), record_every=substeps)

    _, svals, vh = np.linalg.svd(phis[-1] - np.eye(2))
    tol = RANK_TOL * max(svals[0], 1.0)
    if svals[0] <= tol:
        raise NonUniqueSteadyStateError(
            "Phi(1) is the identity: every flux is periodic (kernel dimension 2)"
        )
    if svals[1] > tol:
        raise NonUniqueSteadyStateError(
            f"no periodic flux direction within tolerance (smallest singular value "
            f"{svals[1]:.3e} > {tol:.3e})"
        )
    fluxes = phis @ vh[-1]

    nodes = np.linspace(0.0, 1.0, n + 1)
    bv1 = np.asarray(evaluate(b1, nodes))
    bv2 = np.asarray(evaluate(b2, nodes))
    p1 = fluxes[:, 0] / bv1
    p2 = fluxes[:, 1] / bv2

    weights = trapezoid_weights(n + 1, 1.0 / n)
    mass = float(weights @ (p1 + p2))
    scale = max(np.abs(p1).max(), np.abs(p2).max())
    if abs(mass) <= 1e-12 * scale:
        raise PositivityError("recovered steady state integrates to zero (sign change)")
    p1 = p1 / mass
    p2 = p2 / mass
    J1 = fluxes[:, 0] / mass
    J2 = fluxes[:, 1] / mass

    low = float(min(p1.min(), p2.min()))
    high = float(max(p1.max(), p2.max()))
    if low <= 0.0:
        raise PositivityError(f"steady state is not positive: min p = {low:.3e}")

    ss = SteadyState(nodes, p1, p2, J1, J2, low, high, float("nan"))
    res = steady_residual(ss, b1, b2, sigma)
    return SteadyState(nodes, p1, p2, J1, J2, low, high, res)


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid.

    Centered five-point stencils in the interior, one-sided stencils of
    the same order at the four boundary-adjacent nodes (the coefficient
    fields need not be periodic, so wrap-around differencing would be
    wrong at the seam).
    """
    m = len(values)
    if m < 5:
        raise ShapeError("need at least five nodes for the residual stencils")
    y = values
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    return d


def steady_residual(ss: SteadyState, b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec) -> float:
    """Max-norm defect of the stationary system for a candidate profile.

    Re-derives the fluxes from the stored densities, differentiates them
    with the fourth-order stencils of :func:`_derivative` and evaluates

        d(b_i p_i)/dx + sigma * (p_i - p_other)

    at every node, plus the boundary coupling defect
    ``|b_i(0) p_i(0) - b_i(1) p_i(1)|``.  The result is the maximum
    absolute defect over both equations, all nodes and the boundary.
    """
    x = ss.x
    m = len(x)
    if m < 9:
        raise ShapeError("steady residual needs a grid with at least 8 cells")
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12):
        raise ShapeError("steady residual requires a uniform grid")

    bv1 = np.asarray(evaluate(b1, x))
    bv2 = np.asarray(evaluate(b2, x))
    sg = np.asarray(evaluate(sigma, x))
    J1 = bv1 * ss.p1
    J2 = bv2 * ss.p2
    defect1 = _derivative(J1, h) + sg * (ss.p1 - ss.p2)
    defect2 = _derivative(J2, h) + sg * (ss.p2 - ss.p1)
    boundary = max(abs(J1[0] - J1[-1]), abs(J2[0] - J2[-1]))
    return float(max(np.abs(defect1).max(), np.abs(defect2).max(), boundary))
