import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twospeed as ts
from twospeed.errors import DomainError, InvalidCrossSectionError
from twospeed.fields import cross_section_defect, field_range, speed_defect


def test_constant_evaluation():
    assert ts.evaluate(ts.FieldSpec.constant(1.0), 0.3) == 1.0


def test_affine_evaluation():
    assert ts.evaluate(ts.FieldSpec.affine(-1.0, 2.0), 0.5) == 0.0


def test_trigonometric_evaluation():
    spec = ts.FieldSpec.trigonometric(-1.0, 0.5, 0.0)
    assert ts.evaluate(spec, 0.25) == pytest.approx(-0.5, abs=1e-15)


def test_vectorized_evaluation_matches_scalar():
    spec = ts.FieldSpec.trigonometric(0.3, -0.2, 0.7)
    xs = np.linspace(0.0, 1.0, 11)
    vec = ts.evaluate(spec, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert ts.evaluate(spec, float(x)) == v


def test_evaluation_is_deterministic():
    spec = ts.FieldSpec.tabulated([0.0, 0.3, 1.0], [1.0, 2.0, 0.5])
    xs = np.linspace(0.0, 1.0, 101)
    a = ts.evaluate(spec, xs)
    b = ts.evaluate(spec, xs)
    assert np.array_equal(a, b)


def test_domain_error_outside_interval():
    spec = ts.FieldSpec.constant(1.0)
    with pytest.raises(DomainError):
        ts.evaluate(spec, 1.5)
    with pytest.raises(DomainError):
        ts.evaluate(spec, np.array([0.2, -0.1]))


def test_tabulated_reproduces_samples_exactly():
    xs = [0.0, 0.2, 0.55, 0.8, 1.0]
    vs = [1.0, 1.5, 0.7, 0.9, 1.1]
    spec = ts.FieldSpec.tabulated(xs, vs)
    for x, v in zip(xs, vs):
        assert ts.evaluate(spec, x) == pytest.approx(v, abs=1e-15)


def test_tabulated_no_overshoot_on_monotone_data():
    # Shape-preserving cubics must not leave the sample range, so
    # single-signed tables never acquire interpolation zeros.
    spec = ts.FieldSpec.tabulated([0.0, 0.1, 0.5, 1.0], [0.5, 0.6, 3.0, 3.1])
    dense = ts.evaluate(spec, np.linspace(0.0, 1.0, 2001))
    assert dense.min() >= 0.5 - 1e-12
    assert dense.max() <= 3.1 + 1e-12


def test_tabulated_validation():
    with pytest.raises(ValueError):
        ts.FieldSpec.tabulated([0.0, 0.5, 0.5, 1.0], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        ts.FieldSpec.tabulated([0.1, 1.0], [1, 1])
    with pytest.raises(ValueError):
        ts.FieldSpec.tabulated([0.0, 0.5, 1.0], [1, float("inf"), 1])
    with pytest.raises(ValueError):
        ts.FieldSpec.tabulated([0.0, float("nan"), 1.0], [1, 1, 1])


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: ts.FieldSpec.constant(bad),
        lambda bad: ts.FieldSpec.affine(1.0, bad),
        lambda bad: ts.FieldSpec.trigonometric(1.0, 0.2, bad),
    ],
    ids=["constant", "affine", "trigonometric"],
)
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_coefficients_rejected(make, bad):
    with pytest.raises(ValueError):
        make(bad)


def test_defining_parameters_reproduced():
    assert ts.evaluate(ts.FieldSpec.constant(2.5), 0.77) == 2.5
    aff = ts.FieldSpec.affine(1.0, 3.0)
    assert ts.evaluate(aff, 0.0) == 1.0
    assert ts.evaluate(aff, 1.0) == 4.0
    trig = ts.FieldSpec.trigonometric(2.0, 0.3, -0.4)
    assert ts.evaluate(trig, 0.0) == pytest.approx(1.6, abs=1e-15)


def test_validate_goldstein_taylor_passes(gt_fields):
    b1, b2, _ = gt_fields
    rep = ts.validate_transport_fields(b1, b2)
    assert rep.passed
    assert rep.min_abs_value == pytest.approx(1.0)
    assert abs(ts.evaluate(b1, rep.witness_x) - ts.evaluate(b2, rep.witness_x)) == pytest.approx(2.0)


def test_validate_identical_fields_fails():
    b = ts.FieldSpec.constant(1.0)
    rep = ts.validate_transport_fields(b, b)
    assert not rep.passed
    assert "indistinguishable" in rep.detail


@pytest.mark.parametrize(
    "b",
    [
        ts.FieldSpec.constant(0.7),
        ts.FieldSpec.affine(0.5, 0.25),
        ts.FieldSpec.trigonometric(2.0, 0.3, 0.1),
        ts.FieldSpec.tabulated([0.0, 0.4, 1.0], [1.0, 2.0, 1.5]),
    ],
)
def test_validate_fails_for_any_field_against_itself(b):
    assert not ts.validate_transport_fields(b, b).passed


def test_validate_sign_change_is_degenerate():
    rep = ts.validate_transport_fields(ts.FieldSpec.affine(-0.5, 1.0), ts.FieldSpec.constant(1.0))
    assert not rep.passed
    assert "degenerate" in rep.detail
    assert rep.min_abs_value < 1e-3
    assert rep.sign == 0


def test_failure_persists_under_grid_refinement(monkeypatch):
    # b1 and b2 are equal on [1/2, 1] and sigma vanishes on [0, 1/2], so
    # |b1 - b2| sigma is 0 at every sample of every refinement, while
    # both speeds are admissible and distinct.
    b1 = ts.FieldSpec.tabulated([0.0, 1.0], [1.0, 1.0])
    b2 = ts.FieldSpec.tabulated([0.0, 0.2, 0.45, 0.5, 1.0], [1.5, 1.4, 1.05, 1.0, 1.0])
    sigma = ts.FieldSpec.tabulated([0.0, 0.5, 0.55, 1.0], [0.0, 0.0, 1.0, 1.0])
    for samples in (9, 17, 33, 4097):
        monkeypatch.setattr("twospeed.fields.DEFAULT_SAMPLES", samples)
        assert ts.validate_transport_fields(b1, b2).passed
        rep = ts.validate_cross_section_overlap(b1, b2, sigma)
        assert not rep.passed
        assert rep.detail.endswith(f"= 0.000e+00 ({samples} samples)")


def test_cross_section_everywhere_simultaneous(gt_fields):
    rep = ts.validate_cross_section_overlap(*gt_fields)
    assert rep.passed


def test_cross_section_zero_fails(gt_fields):
    b1, b2, _ = gt_fields
    rep = ts.validate_cross_section_overlap(b1, b2, ts.FieldSpec.constant(0.0))
    assert not rep.passed
    assert "simultaneously" in rep.detail


def test_cross_section_negative_fails(gt_fields):
    # A negative sigma is an admissibility failure, reported, not raised.
    b1, b2, _ = gt_fields
    rep = ts.validate_cross_section_overlap(b1, b2, ts.FieldSpec.constant(-0.5))
    assert not rep.passed
    assert rep.detail.startswith("cross-section is negative: min sigma = -5.000e-01 on [0, 1]")
    assert cross_section_defect(ts.FieldSpec.constant(-0.5)) in rep.detail
    assert ts.validate_transport_fields(b1, b2).passed


def test_disjoint_witnesses_fail():
    # b1 - b2 is supported on [0, 1/2) while sigma vanishes there and
    # only switches on in (1/2, 1]: each condition holds somewhere, but
    # never at a common point, so the overlap check must fail.
    b1 = ts.FieldSpec.constant(1.0)
    b2 = ts.FieldSpec.tabulated([0.0, 0.2, 0.45, 0.5, 1.0], [1.5, 1.4, 1.05, 1.0, 1.0])
    sigma = ts.FieldSpec.tabulated([0.0, 0.5, 0.55, 1.0], [0.0, 0.0, 1.0, 1.0])
    assert ts.validate_transport_fields(b1, b2).passed
    rep = ts.validate_cross_section_overlap(b1, b2, sigma)
    assert not rep.passed
    assert "simultaneously" in rep.detail


coeff = st.floats(-2.0, 2.0)
knots = st.lists(st.integers(1, 99), unique=True, max_size=6).map(lambda ks: [0.0, *sorted(k / 100 for k in ks), 1.0])
any_field = st.one_of(
    st.builds(ts.FieldSpec.constant, coeff),
    st.builds(ts.FieldSpec.affine, coeff, coeff),
    st.builds(ts.FieldSpec.trigonometric, coeff, coeff, coeff),
    knots.flatmap(lambda xs: st.lists(coeff, min_size=len(xs), max_size=len(xs)).map(
        lambda vs: ts.FieldSpec.tabulated(xs, vs))),
)


def _margin(spec):
    lo, hi = field_range(spec)
    return 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=any_field, other=any_field)
def test_field_range_is_the_range_of_dense_samples(spec, other):
    # Samples on a grid of spacing h, with a table's knots, lie inside the
    # closed-form range to rounding and reach both of its ends to O(h^2)
    # (exactly for the affine ends and the knots), so a range that is
    # too narrow or too wide fails. The validator's min |b_i| is the
    # closed-form margin, never above the sampled one.
    xs = np.union1d(np.linspace(0.0, 1.0, 4097), spec.table[0] if spec.table else [])
    values = ts.evaluate(spec, xs)
    lo, hi = field_range(spec)
    tol = 8.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    assert lo - tol <= values.min() <= lo + (2.0 * np.pi / 4096) ** 2 * (hi - lo) + tol
    assert hi - (2.0 * np.pi / 4096) ** 2 * (hi - lo) - tol <= values.max() <= hi + tol
    assert np.abs(values).min() >= _margin(spec) - tol
    rep = ts.validate_transport_fields(spec, other)
    assert rep.min_abs_value == min(_margin(spec), _margin(other))
    if rep.passed:
        assert rep.min_abs_value > ts.DEGENERACY_FLOOR and np.all(np.sign(values) == np.sign(values[0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(b1=any_field, b2=any_field, sigma=any_field)
def test_each_condition_has_one_report(b1, b2, sigma):
    # The speeds and their difference belong to the transport report,
    # sigma >= 0 and the overlap to the overlap report: each failing
    # condition shows in exactly one, and the pair passes only when all
    # five hold.
    xs = np.linspace(0.0, 1.0, ts.fields.DEFAULT_SAMPLES)
    diff = np.abs(ts.evaluate(b1, xs) - ts.evaluate(b2, xs))
    defects = [d for d in (speed_defect("b1", b1), speed_defect("b2", b2)) if d]
    distinct = diff.max() > ts.DEGENERACY_FLOOR
    transport = ts.validate_transport_fields(b1, b2)
    assert transport.passed == (not defects and distinct)
    assert ("indistinguishable" in transport.detail) == (not distinct)
    assert all(d in transport.detail for d in defects) and "simultaneously" not in transport.detail
    negative = field_range(sigma)[0] < -ts.DEGENERACY_FLOOR
    overlap = ts.validate_cross_section_overlap(b1, b2, sigma)
    overlaps = (diff * np.maximum(ts.evaluate(sigma, xs), 0.0)).max() > ts.DEGENERACY_FLOOR
    assert overlap.passed == (overlaps and not negative)
    assert ("cross-section is negative" in overlap.detail) == negative
    assert "cross-section is negative" not in transport.detail
    assert ("simultaneously" in overlap.detail) == (not overlaps)
    assert "degenerate" not in overlap.detail and "indistinguishable" not in overlap.detail
    assert (transport.passed and overlap.passed) == (not defects and distinct and overlaps and not negative)


FLOOR = ts.DEGENERACY_FLOOR


@pytest.mark.parametrize(
    "sigma, low, speed",
    [
        (ts.FieldSpec.trigonometric(1.0, 1.0), 0.0, 1.0),
        (ts.FieldSpec.tabulated([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]), 0.0, 1.0),
        (ts.FieldSpec.tabulated([0.0, 0.5, 1.0], [1.0, -FLOOR, 1.0]), -FLOOR, 1.0),
        # A trigonometric minimum is exactly -FLOOR only at the scale of
        # FLOOR itself (1e-10 - 2e-10 is exact). Against unit speeds its
        # 3e-10 of coupling leaves the kernel below the rank tolerance, so
        # the speeds are 1e-3, and the overlap falls below the floor.
        (ts.FieldSpec.trigonometric(FLOOR, 2.0 * FLOOR), -FLOOR, 1e-3),
    ],
    ids=["trigonometric-zero", "tabulated-zero", "tabulated-floor", "trigonometric-floor"],
)
def test_cross_section_at_its_floor_is_accepted(sigma, low, speed):
    assert field_range(sigma)[0] == low
    b1, b2 = ts.FieldSpec.constant(speed), ts.FieldSpec.constant(-speed)
    gen = ts.assemble(b1, b2, sigma, ts.Grid(32))
    assert gen.sigma_cells.min() >= 0.0 and gen.steady.min() > 0.0
    assert ts.solve_steady(b1, b2, sigma, 32).p1.min() > 0.0
    assert ts.validate_cross_section_overlap(b1, b2, sigma).passed == (speed == 1.0)


@pytest.mark.parametrize(
    "sigma",
    [ts.FieldSpec.trigonometric(2.0 * FLOOR, 4.0 * FLOOR), ts.FieldSpec.tabulated([0.0, 0.5, 1.0], [1.0, -2.0 * FLOOR, 1.0])],
    ids=["trigonometric", "tabulated"],
)
def test_cross_section_twice_below_its_floor_raises(gt_fields, sigma):
    assert field_range(sigma)[0] == -2.0 * FLOOR
    b1, b2, _ = gt_fields
    with pytest.raises(InvalidCrossSectionError, match="min sigma = -2.000e-10"):
        ts.assemble(b1, b2, sigma, ts.Grid(32))
    with pytest.raises(InvalidCrossSectionError, match="min sigma = -2.000e-10"):
        ts.solve_steady(b1, b2, sigma, 32)
    rep = ts.validate_cross_section_overlap(b1, b2, sigma)
    assert not rep.passed and "cross-section is negative: min sigma = -2.000e-10" in rep.detail


_IMPORT_PROBE = """
import sys
import numpy as np
import twospeed, twospeed.cli
loaded = [m for m in ("scipy.interpolate", "scipy.special", "scipy.optimize") if m in sys.modules]
assert not loaded, loaded
xs, vs = [0.0, 0.3, 1.0], [1.0, 2.0, 0.5]
pts = np.array([0.0, 0.1, 0.3, 0.65, 1.0])
got = twospeed.FieldSpec.tabulated(xs, vs)(pts)
assert "scipy.interpolate" in sys.modules
from scipy.interpolate import PchipInterpolator
want = PchipInterpolator(np.array(xs), np.array(vs), extrapolate=False)(pts)
assert np.array_equal(got, want), (got, want)
"""


_PSI_PROBE = """
import sys
import twospeed
c = twospeed.FieldSpec.constant
gen = twospeed.assemble(c(1.0), twospeed.FieldSpec.trigonometric(-1.0, 0.4), c(1.0), twospeed.Grid(16))
twospeed.psi_sweep(gen, coarse_points=16)
assert "scipy.optimize" not in sys.modules
"""


def _run_fresh(source: str) -> None:
    # A fresh interpreter: this process has scipy.interpolate and
    # scipy.optimize loaded through other tests already.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_interpolation():
    _run_fresh(_IMPORT_PROBE)


def test_psi_sweep_loads_no_optimizer():
    # The chord certificate needs no optimizer: importing scipy.optimize
    # would add about a quarter of a second and 15 MB to every run's start-up.
    _run_fresh(_PSI_PROBE)
