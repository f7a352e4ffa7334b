"""Declarative scalar coefficient fields on the unit interval.

The model is driven by a handful of scalar functions on ``[0, 1]``: two
velocity fields ``b1``, ``b2``, an optional reaction cross-section
``sigma`` and, for the oscillatory-integral diagnostics, a phase slope
``psi``.  A :class:`FieldSpec` describes one such function declaratively
so that a run is reproducible from its configuration alone.  Supported
kinds:

``constant``
    ``value``
``affine``
    ``a + b*x``
``trigonometric``
    ``a + b*sin(2*pi*x) + c*cos(2*pi*x)``
``tabulated``
    monotone piecewise-cubic interpolation through sample points
    ``(x_k, v_k)`` with ``x_0 = 0`` and ``x_last = 1``

Evaluation is pure and deterministic: the same spec evaluated at the
same coordinate returns the same value bit for bit.  Tabulated fields
use shape-preserving cubics so that single-signed sample data cannot
acquire spurious zeros through interpolation overshoot.  The
interpolation module (``scipy.interpolate``) is imported at the first
evaluation of a tabulated field, so a process that uses only the
closed-form kinds never loads it.

The module also houses the admissibility checks used by every driver:
both velocity fields must stay away from zero with a fixed sign and
differ somewhere on the interval; with a variable cross-section, the
velocity difference and the cross-section must additionally be non-zero
at a common point.  Sign, ``min |b_i|`` and ``sigma >= 0`` hold for
every ``x`` by each kind's closed-form range (:func:`field_range`),
each decided in one place (:func:`speed_defect`,
:func:`cross_section_defect`); the distinctness and overlap are
sampled, where a sample is a valid witness.  Each condition has one
report: the speeds and their difference belong to
:func:`validate_transport_fields`, ``sigma >= 0`` and the overlap to
:func:`validate_cross_section_overlap`.  Margins are reported, not
raised, so degenerate experiments remain expressible; the solvers, which
cannot run on a negative ``sigma``, raise on the same decision
(:func:`cross_section`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidCrossSectionError

#: Margin at or below which a quantity counts as degenerate (zero).
DEGENERACY_FLOOR = 1e-10

#: Number of sample points for the overlap witness, read at call time.
DEFAULT_SAMPLES = 4097

_KINDS = ("constant", "affine", "trigonometric", "tabulated")

# Slack for endpoint coordinates produced by floating-point arithmetic.
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of one scalar coefficient function.

    Instances are immutable and hashable; use the class methods
    :meth:`constant`, :meth:`affine`, :meth:`trigonometric` and
    :meth:`tabulated` rather than the raw constructor.

    Attributes
    ----------
    kind:
        One of ``constant``, ``affine``, ``trigonometric``, ``tabulated``.
    coeffs:
        Kind-specific finite real coefficients (empty for tabulated
        fields).
    table:
        For tabulated fields, a pair ``(xs, vs)`` of equal-length tuples
        of finite values with ``xs`` strictly increasing from 0 to 1.
    """

    kind: str
    coeffs: tuple = ()
    table: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}; expected one of {_KINDS}")
        arity = {"constant": 1, "affine": 2, "trigonometric": 3, "tabulated": 0}[self.kind]
        if len(self.coeffs) != arity:
            raise ValueError(f"{self.kind} field takes {arity} coefficients, got {len(self.coeffs)}")
        if not np.all(np.isfinite(np.asarray(self.coeffs, dtype=float))):
            raise ValueError(f"{self.kind} field coefficients must be finite, got {self.coeffs}")
        if self.kind == "tabulated":
            if len(self.table) != 2 or len(self.table[0]) != len(self.table[1]):
                raise ValueError("tabulated field needs matching abscissa and value tuples")
            xs = np.asarray(self.table[0], dtype=float)
            if xs.size < 2:
                raise ValueError("tabulated field needs at least two samples")
            vs = np.asarray(self.table[1], dtype=float)
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
                raise ValueError("tabulated samples must be finite")
            if not np.all(np.diff(xs) > 0):
                raise ValueError("tabulated abscissae must be strictly increasing")
            if abs(xs[0]) > _EDGE_TOL or abs(xs[-1] - 1.0) > _EDGE_TOL:
                raise ValueError("tabulated abscissae must cover [0, 1] exactly")
        elif self.table:
            raise ValueError(f"{self.kind} field does not take a sample table")

    @classmethod
    def constant(cls, value: float) -> "FieldSpec":
        return cls("constant", (float(value),))

    @classmethod
    def affine(cls, a: float, b: float) -> "FieldSpec":
        """Field ``a + b*x``."""
        return cls("affine", (float(a), float(b)))

    @classmethod
    def trigonometric(cls, a: float, b: float, c: float = 0.0) -> "FieldSpec":
        """Field ``a + b*sin(2*pi*x) + c*cos(2*pi*x)``."""
        return cls("trigonometric", (float(a), float(b), float(c)))

    @classmethod
    def tabulated(cls, xs, vs) -> "FieldSpec":
        """Monotone piecewise-cubic interpolant through ``(xs, vs)``."""
        return cls(
            "tabulated",
            (),
            (tuple(float(x) for x in xs), tuple(float(v) for v in vs)),
        )

    def __call__(self, x):
        return evaluate(self, x)


@functools.lru_cache(maxsize=128)
def _interpolator(table: tuple):
    # Imported here, not at module level: scipy.interpolate pulls in
    # scipy.special and scipy.optimize, which only tabulated fields need
    # (README, "Cost of start-up").
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(table[0], dtype=float)
    vs = np.asarray(table[1], dtype=float)
    return PchipInterpolator(xs, vs, extrapolate=False)


def evaluate(spec: FieldSpec, x):
    """Evaluate ``spec`` at ``x`` (scalar or array) inside ``[0, 1]``.

    Raises
    ------
    DomainError
        If any coordinate lies outside the unit interval (beyond a
        rounding-level slack at the endpoints).
    """
    arr = np.asarray(x, dtype=float)
    if arr.size:
        lo = arr.min()
        hi = arr.max()
        if lo < -_EDGE_TOL or hi > 1.0 + _EDGE_TOL:
            raise DomainError(f"coordinate outside [0, 1]: range [{lo}, {hi}]")
    arr = np.clip(arr, 0.0, 1.0)

    if spec.kind == "constant":
        out = np.full_like(arr, spec.coeffs[0])
    elif spec.kind == "affine":
        a, b = spec.coeffs
        out = a + b * arr
    elif spec.kind == "trigonometric":
        a, b, c = spec.coeffs
        arg = (2.0 * np.pi) * arr
        out = a + b * np.sin(arg) + c * np.cos(arg)
    else:
        out = _interpolator(spec.table)(arr)

    if np.ndim(x) == 0:
        return float(out)
    return out


def field_range(spec: FieldSpec) -> tuple:
    """Closed-form ``(min, max)`` of ``spec`` over ``[0, 1]``, exact up to rounding.

    ``[0, 1]`` is one full period of a trigonometric field, and the
    monotone cubic of a tabulated field stays between the values at the
    ends of each knot interval (Fritsch & Carlson, SIAM J. Numer. Anal.
    17 (1980) 238-246), so its range is that of the knot values.
    """
    if spec.kind == "tabulated":
        return min(spec.table[1]), max(spec.table[1])
    if spec.kind == "trigonometric":
        a, b, c = spec.coeffs
        return a - math.hypot(b, c), a + math.hypot(b, c)
    ends = spec.coeffs[0], sum(spec.coeffs)  # a constant's value twice, or an affine a and a + b
    return min(ends), max(ends)


def speed_defect(name: str, b: FieldSpec):
    """Why velocity field ``b`` (called ``name``) is inadmissible on ``[0, 1]``, or ``None``.

    From :func:`field_range`: ``b`` must keep one sign and stay above
    ``DEGENERACY_FLOOR`` in modulus for every ``x``.
    """
    lo, hi = field_range(b)
    if lo < 0.0 < hi:
        return f"{name} changes sign on [0, 1]"
    small = max(lo, -hi)
    if small <= DEGENERACY_FLOOR:
        return f"{name} reaches |b| = {small:.3e} (floor {DEGENERACY_FLOOR:.1e})"
    return None


def cross_section_defect(sigma: FieldSpec):
    """Why cross-section ``sigma`` is inadmissible on ``[0, 1]``, or ``None``.

    From :func:`field_range`: ``sigma`` must not fall below
    ``-DEGENERACY_FLOOR`` at any ``x``.
    """
    low = field_range(sigma)[0]
    if low < -DEGENERACY_FLOOR:
        return f"cross-section is negative: min sigma = {low:.3e} on [0, 1]"
    return None


def cross_section(sigma: FieldSpec, xs: np.ndarray) -> np.ndarray:
    """``sigma`` at ``xs``; :class:`InvalidCrossSectionError` if :func:`cross_section_defect` finds a fault."""
    defect = cross_section_defect(sigma)
    if defect:
        raise InvalidCrossSectionError(defect)
    return np.asarray(evaluate(sigma, xs))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one admissibility check.

    Attributes
    ----------
    passed:
        Whether the quantitative criterion in ``detail`` holds.
    min_abs_value:
        ``min |b_i|`` over ``[0, 1]`` and both fields, from
        :func:`field_range` (0 when a field changes sign).
    sign:
        ``+1`` if both velocity fields are positive on ``[0, 1]``,
        ``-1`` if both are negative, ``0`` when signs differ across or
        within the fields.
    witness_x:
        Sample coordinate where the distinguishing quantity (the
        velocity difference, or its product with the cross-section)
        attains its maximum.
    detail:
        Human-readable summary of the margins and the verdict.
    """

    passed: bool
    min_abs_value: float
    sign: int
    witness_x: float
    detail: str


def _sampled_report(b1: FieldSpec, b2: FieldSpec, weight, label: str, failure: str, problems=()) -> ValidationReport:
    """``problems`` plus the sampled witness of ``|b1 - b2| * weight(x)`` (called ``label``), with the speeds' margins."""
    samples = DEFAULT_SAMPLES
    xs = np.linspace(0.0, 1.0, samples)
    quantity = np.abs(evaluate(b1, xs) - evaluate(b2, xs)) * weight(xs)
    ranges = field_range(b1), field_range(b2)
    min_abs = min(max(0.0, lo, -hi) for lo, hi in ranges)
    s1, s2 = (int(lo > 0.0) - int(hi < 0.0) for lo, hi in ranges)
    iw = int(np.argmax(quantity))
    top = float(quantity[iw])

    if top <= DEGENERACY_FLOOR:
        problems = [*problems, f"{failure}: max {label} = {top:.3e} ({samples} samples)"]
    detail = "; ".join(problems) or (
        f"min |b_i| = {min_abs:.6e}, max {label} = {top:.6e} at x = {xs[iw]:.6f} "
        f"(floor {DEGENERACY_FLOOR:.1e}, {samples} samples)"
    )
    return ValidationReport(not problems, min_abs, s1 if s1 == s2 else 0, float(xs[iw]), detail)


def validate_transport_fields(b1: FieldSpec, b2: FieldSpec) -> ValidationReport:
    """Check that both velocity fields are non-degenerate and distinct.

    Passes iff :func:`speed_defect` finds no fault in either field and
    they differ by more than ``DEGENERACY_FLOOR`` at one of
    ``DEFAULT_SAMPLES`` uniform points.  This is the one verdict on the
    speeds.  Failure is reported, not raised.
    """
    problems = [f"degenerate velocity: {d}" for d in (speed_defect("b1", b1), speed_defect("b2", b2)) if d]
    return _sampled_report(b1, b2, np.ones_like, "|b1 - b2|", "indistinguishable fields", problems)


def validate_cross_section_overlap(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec) -> ValidationReport:
    """Check that ``sigma >= 0`` and that the velocities differ where it is non-zero.

    Passes iff :func:`cross_section_defect` finds no fault in ``sigma``
    and the product ``|b1 - b2| * sigma`` exceeds ``DEGENERACY_FLOOR``
    at one of ``DEFAULT_SAMPLES`` uniform points, i.e. the fields are
    distinguishable *where collisions happen*.  The speeds themselves are
    judged by :func:`validate_transport_fields` alone: here
    ``min_abs_value`` and ``sign`` only describe them, and a speed fault
    does not fail this report.  Failure is reported, not raised.
    """
    defect = cross_section_defect(sigma)
    label, failure = "|b1 - b2|*sigma", "velocity difference and cross-section are never simultaneously non-zero"
    problems = [defect] if defect else []
    return _sampled_report(b1, b2, lambda xs: np.maximum(evaluate(sigma, xs), 0.0), label, failure, problems)
