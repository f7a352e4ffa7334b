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
at a common point.  The checks sample a declared grid resolution and
report quantitative margins instead of raising, so that deliberately
degenerate experiments remain expressible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidCrossSectionError

#: Margin below which a sampled quantity counts as degenerate (zero).
DEGENERACY_FLOOR = 1e-10

#: Number of sample points for the admissibility checks, read at call time.
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


def cross_section(sigma: FieldSpec, xs: np.ndarray) -> np.ndarray:
    """``sigma`` at ``xs``; a value below ``-DEGENERACY_FLOOR`` raises :class:`InvalidCrossSectionError`."""
    sg = np.asarray(evaluate(sigma, xs))
    if sg.min() < -DEGENERACY_FLOOR:
        k = int(np.argmin(sg))
        raise InvalidCrossSectionError(f"cross-section is negative: sigma({xs[k]:.6f}) = {sg[k]:.3e}")
    return sg


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one sampled admissibility check.

    Attributes
    ----------
    passed:
        Whether the quantitative criterion in ``detail`` holds at the
        sampled resolution.
    min_abs_value:
        Smallest ``|b_i|`` seen over the sample grid (degeneracy margin).
    sign:
        ``+1`` if every checked velocity sample is positive, ``-1`` if
        every sample is negative, ``0`` when signs differ across or
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


def _sign_class(values: np.ndarray) -> int:
    if np.all(values > DEGENERACY_FLOOR):
        return 1
    if np.all(values < -DEGENERACY_FLOOR):
        return -1
    return 0


def _sampled_report(b1: FieldSpec, b2: FieldSpec, sigma=None) -> ValidationReport:
    """Verdict on ``b1``, ``b2`` over ``DEFAULT_SAMPLES`` uniform points.

    The distinguishing quantity is ``|b1 - b2|``, weighted by the
    clipped ``sigma`` when one is given.
    """
    samples = DEFAULT_SAMPLES
    xs = np.linspace(0.0, 1.0, samples)
    v1 = np.asarray(evaluate(b1, xs))
    v2 = np.asarray(evaluate(b2, xs))
    quantity = np.abs(v1 - v2)
    if sigma is None:
        label, distinct = "|b1 - b2|", "indistinguishable fields"
    else:
        quantity *= np.maximum(cross_section(sigma, xs), 0.0)
        label = "|b1 - b2|*sigma"
        distinct = "velocity difference and cross-section are never simultaneously non-zero"

    s1 = _sign_class(v1)
    s2 = _sign_class(v2)
    min_abs = float(min(np.abs(v1).min(), np.abs(v2).min()))
    iw = int(np.argmax(quantity))
    top = float(quantity[iw])

    problems = []
    if s1 == 0 or s2 == 0 or min_abs <= DEGENERACY_FLOOR:
        problems.append(f"degenerate velocity: min |b_i| = {min_abs:.3e} (floor {DEGENERACY_FLOOR:.1e})")
    if top <= DEGENERACY_FLOOR:
        problems.append(f"{distinct}: max {label} = {top:.3e}")

    passed = not problems
    if passed:
        detail = (
            f"min |b_i| = {min_abs:.6e}, max {label} = {top:.6e} at x = {xs[iw]:.6f} "
            f"(floor {DEGENERACY_FLOOR:.1e}, {samples} samples)"
        )
    else:
        detail = "; ".join(problems) + f" ({samples} samples)"
    sign = s1 if s1 == s2 else 0
    return ValidationReport(passed, min_abs, sign, float(xs[iw]), detail)


def validate_transport_fields(b1: FieldSpec, b2: FieldSpec) -> ValidationReport:
    """Check that both velocity fields are non-degenerate and distinct.

    Passes iff, over a uniform grid of ``DEFAULT_SAMPLES`` points, each
    field is single-signed with ``min |b_i|`` above ``DEGENERACY_FLOOR``
    and the two fields differ by more than ``DEGENERACY_FLOOR``
    somewhere.  Failure is reported, not raised.
    """
    return _sampled_report(b1, b2)


def validate_cross_section_overlap(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec) -> ValidationReport:
    """Check admissibility with a variable reaction cross-section.

    Passes iff, over a uniform grid of ``DEFAULT_SAMPLES`` points, both
    velocities are non-degenerate and single-signed, the cross-section
    is non-negative, and the product ``|b1 - b2| * sigma`` exceeds
    ``DEGENERACY_FLOOR`` at some common sample point, i.e. the fields
    are distinguishable *where collisions happen*.

    Raises
    ------
    InvalidCrossSectionError
        If ``sigma`` falls below ``-DEGENERACY_FLOOR`` at any sample.
    """
    return _sampled_report(b1, b2, sigma)
