"""Steady states of the two-speed model from the conserved total flux.

A stationary profile ``(p1, p2)`` with flux-periodic boundary coupling
is characterised by its fluxes ``J_i = b_i * p_i``, which solve the
linear system

    dJ/dx = sigma(x) * [[-1, 1], [1, -1]] * diag(1/b1, 1/b2) * J,
    J(0) = J(1).

The row vector ``(1, 1)`` annihilates the coefficient matrix, so the
total flux ``K = J1 + J2`` is constant and each flux solves the scalar
equation ``J_i' = -a J_i + g_i K`` with ``a = sigma (1/b1 + 1/b2)``,
``g_1 = sigma / b2`` and ``g_2 = sigma / b1``.  With ``A`` the integral
of ``a`` from 0, the Green's function of that periodic scalar equation
(Coddington & Levinson, *Theory of Ordinary Differential Equations*,
1955) gives the periodic fluxes up to one common scale:

    J_i(x) = B_i(x) + e^{A(1)} F_i(x),
    B_i(x) = int_x^1 e^{A(s) - A(x)} g_i(s) ds,
    F_i(x) = int_0^x e^{A(s) - A(x)} g_i(s) ds.

Every term has the sign of ``g_i``.  Under the admissibility conditions
checked in :mod:`twospeed.fields` (each ``b_i`` of one sign,
``sigma >= 0``) the profile is therefore single-signed by construction,
nothing cancels, and the periodic flux is unique unless ``sigma``
vanishes identically.  ``B_i`` and ``F_i`` are first-order recurrences
over a uniform lattice, Simpson's rule on each step; a step carries only
the ``e^{+-Delta A}`` of that step, so no ``e^{A}`` is formed.  The
densities are recovered as ``p_i = J_i / b_i`` on a uniform node
grid and scaled to unit total mass.

The defect of a candidate steady state is measured by
:func:`steady_residual`, which re-derives the fluxes from the stored
densities and differentiates them with fourth-order finite-difference
stencils, independently of the solver.
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
from .fields import FieldSpec, cross_section, evaluate, speed_defect
from .quadrature import trapezoid_weights

#: The least number of Simpson steps across ``[0, 1]`` in
#: :func:`solve_steady`; read at call time.
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


def _lattice(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec, steps: int):
    """Sources and per-step exponents on ``steps`` Simpson steps of ``[0, 1]``.

    Returns ``(h, g, step, half)``: ``g`` stacks ``g_1`` and ``g_2`` at
    the ``2 * steps + 1`` half-step points, ``step[k]`` is the Simpson
    increment of ``A`` over step ``k`` and ``half[k]`` its increment to
    the step's midpoint, the integral of ``a``'s quadratic interpolant.
    A velocity field that :func:`twospeed.fields.speed_defect` rejects
    raises :class:`DegenerateFieldError` naming it.
    """
    for defect in (speed_defect("b1", b1), speed_defect("b2", b2)):
        if defect:
            raise DegenerateFieldError(f"velocity field {defect}")
    xs = np.linspace(0.0, 1.0, 2 * steps + 1)
    sg = cross_section(sigma, xs)
    g = np.array([sg / evaluate(b2, xs), sg / evaluate(b1, xs)])
    a = g[0] + g[1]
    h = 1.0 / steps
    lo, mid, hi = a[:-1:2], a[1::2], a[2::2]
    step = (h / 6.0) * (lo + 4.0 * mid + hi)
    half = (h / 24.0) * (5.0 * lo + 8.0 * mid - hi)
    return h, g, step, half


def _forward(g: np.ndarray, step: np.ndarray, half: np.ndarray, h: float) -> np.ndarray:
    """``F(x_k) = int_0^{x_k} e^{A(s) - A(x_k)} g(s) ds`` at every step end.

    Simpson's rule on each step gives ``F_{k+1} = e^{-dA} F_k + s_k`` with
    ``s_k = h/6 (e^{-dA} g_k + 4 e^{dA/2 - dA} g_{k+1/2} + g_{k+1})``; the
    recurrence runs over Python floats, which overflow to ``inf`` silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-step)
        src = (h / 6.0) * (decay * g[:-1:2] + 4.0 * np.exp(half - step) * g[1::2] + g[2::2])
    f = 0.0
    out = [f]
    for e, s in zip(decay.tolist(), src.tolist()):
        f = e * f + s
        out.append(f)
    return np.array(out)


def _backward(g: np.ndarray, step: np.ndarray, half: np.ndarray, h: float) -> np.ndarray:
    """``B(x_k) = int_{x_k}^1 e^{A(s) - A(x_k)} g(s) ds``: :func:`_forward` on the mirrored lattice."""
    return _forward(g[::-1], -step[::-1], (half - step)[::-1], h)[::-1]


def _range_error(step: np.ndarray) -> NumericalError:
    swing = np.ptp(np.cumsum(step))
    return NumericalError(f"steady flux spans more than the double range: A varies by {swing:.3g}")


def solve_steady(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec, n: int) -> SteadyState:
    """Construct the normalised positive steady state on ``n + 1`` nodes.

    The fluxes ``B_i + e^{A(1)} F_i`` of the module docstring are taken
    on a lattice of ``substeps`` Simpson steps per cell
    (``substeps * n >= DEFAULT_STEPS``), scaled by ``e^{-A(1)}`` instead
    when ``A(1) > 0`` so that no factor exceeds one.  Densities are
    recovered as ``J_i / b_i`` and scaled to unit total mass.

    Raises
    ------
    ShapeError
        If ``n < 8``.
    DegenerateFieldError
        If a velocity field reaches ``|b| <= DEGENERACY_FLOOR`` or
        changes sign anywhere on ``[0, 1]``, where the profile would.
    InvalidCrossSectionError
        If ``sigma`` falls below ``-DEGENERACY_FLOOR`` anywhere on
        ``[0, 1]``, the test of :func:`twospeed.generator.assemble`.
    NonUniqueSteadyStateError
        If every flux vanishes (``sigma = 0`` identically): then every
        constant flux pair is periodic.
    PositivityError
        If the recovered profile is negative at a node.
    NumericalError
        If the profile spans more than the double range.
    """
    if n < 8:
        raise ShapeError("steady-state grid needs at least 8 cells")
    substeps = max(1, math.ceil(DEFAULT_STEPS / n))
    h, g, step, half = _lattice(b1, b2, sigma, substeps * n)
    total = float(step.sum())
    back, fore = math.exp(min(0.0, -total)), math.exp(min(0.0, total))
    with np.errstate(over="ignore", invalid="ignore"):
        fluxes = np.array([back * _backward(gi, step, half, h) + fore * _forward(gi, step, half, h) for gi in g])
    if not np.isfinite(fluxes).all():
        raise _range_error(step)
    if not fluxes.any():
        raise NonUniqueSteadyStateError("sigma vanishes identically: every constant flux is periodic")
    fluxes = fluxes[:, ::substeps] / np.abs(fluxes).max()

    nodes = np.linspace(0.0, 1.0, n + 1)
    bv = np.array([evaluate(b1, nodes), evaluate(b2, nodes)])
    mass = trapezoid_weights(n + 1, 1.0 / n) @ (fluxes / bv).sum(axis=0)
    J1, J2 = fluxes / mass
    p1, p2 = fluxes / (mass * bv)
    low = float(min(p1.min(), p2.min()))
    high = float(max(p1.max(), p2.max()))
    if low < 0.0:
        raise PositivityError(f"steady state is not positive: min p = {low:.3e}")
    if low == 0.0:
        raise _range_error(step)

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

    The stencils see only the ``n + 1`` nodes, so on a steep profile the
    number measures their truncation on that grid, not the profile's
    error: on the variant fields at ``n = 64`` it reads 4.7e-2, 0.96 and
    25 at ``sigma`` = 1e2, 3e2 and 1e3, while four times as many Simpson
    steps move the profile by at most 5e-14 of its peak.
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
