import numpy as np
import pytest

import twospeed as ts
from twospeed.errors import (
    DegenerateFieldError,
    InvalidCrossSectionError,
    NonUniqueSteadyStateError,
    NumericalError,
    ShapeError,
)
from twospeed.quadrature import trapezoid_weights
from twospeed.steady_state import DEFAULT_STEPS

from rk4_oracle import rk4_steady_densities


@pytest.mark.parametrize("fields", ["gt_fields", "variant_fields"])
@pytest.mark.parametrize("sigma", [1.0, 10.0])
def test_closed_form_matches_rk4_oracle(fields, sigma, request):
    b1, b2, _ = request.getfixturevalue(fields)
    sg = ts.FieldSpec.constant(sigma)
    ss = ts.solve_steady(b1, b2, sg, 64)
    p1, p2 = rk4_steady_densities(b1, b2, sg, 64, DEFAULT_STEPS // 64)
    scale = max(p1.max(), p2.max())
    assert max(np.abs(ss.p1 - p1).max(), np.abs(ss.p2 - p2).max()) <= 1e-12 * scale


def test_steady_grid_needs_eight_cells(gt_fields):
    with pytest.raises(ShapeError, match="at least 8 cells"):
        ts.solve_steady(*gt_fields, 7)


def test_degenerate_field_raises():
    b1 = ts.FieldSpec.affine(-0.5, 1.0)  # vanishes at x = 0.5
    b2 = ts.FieldSpec.constant(1.0)
    with pytest.raises(DegenerateFieldError):
        ts.solve_steady(b1, b2, ts.FieldSpec.constant(1.0), 32)


def test_sign_changing_field_raises():
    # 0.3 + sin(2 pi x) changes sign between lattice points without
    # coming within the floor of 0 at any of them; the profile would
    # change sign with it.
    wave, left, sigma = ts.FieldSpec.trigonometric(0.3, 1.0), ts.FieldSpec.constant(-1.0), ts.FieldSpec.constant(1.0)
    for b1, b2, name in ((wave, left, "b1"), (left, wave, "b2")):
        with pytest.raises(DegenerateFieldError, match=f"{name} changes sign"):
            ts.solve_steady(b1, b2, sigma, 32)


@pytest.mark.parametrize("value", [1e-10, -1e-10])
def test_speed_at_the_floor_is_degenerate(value):
    # |b| = DEGENERACY_FLOOR exactly is degenerate for the validator and
    # the steady solver alike.
    b1, b2, sigma = ts.FieldSpec.constant(value), ts.FieldSpec.constant(-1.0), ts.FieldSpec.constant(1.0)
    assert abs(value) == ts.DEGENERACY_FLOOR
    assert not ts.validate_transport_fields(b1, b2).passed
    with pytest.raises(DegenerateFieldError, match=r"b1 reaches \|b\| = 1.000e-10"):
        ts.solve_steady(b1, b2, sigma, 32)


@pytest.mark.parametrize(
    "sigma",
    [
        ts.FieldSpec.trigonometric(0.0, 1.0),
        ts.FieldSpec.trigonometric(0.5, 1.0),
        ts.FieldSpec.constant(-1.0e-3),
    ],
    ids=["mean-zero", "sign-changing", "negative"],
)
@pytest.mark.parametrize("n", [32, 64])
def test_negative_cross_section_raises(gt_fields, sigma, n):
    # The rule of assemble's cell centres holds on the steady lattice. A
    # mean-zero sigma makes every periodic flux pair a solution, so the
    # normalised fluxes would be rounding noise (residual 8.3 at n = 32);
    # the other two fields have no physical steady state.
    b1, b2, _ = gt_fields
    with pytest.raises(InvalidCrossSectionError, match="negative"):
        ts.solve_steady(b1, b2, sigma, n)
    with pytest.raises(InvalidCrossSectionError):
        ts.assemble(b1, b2, sigma, ts.Grid(n))


def test_stiff_coupling_raises_numerical_error(variant_fields):
    # At sigma = 1e5, A = int sigma (1/b1 + 1/b2) varies by about 1.9e4,
    # so the steady profile spans more than the double range. The GT
    # fields have a = 0 and stay finite at any sigma.
    b1, b2, _ = variant_fields
    sigma = ts.FieldSpec.constant(1.0e5)
    with pytest.raises(NumericalError, match="more than the double range"):
        ts.solve_steady(b1, b2, sigma, 16)


@pytest.mark.parametrize("sigma", [3.0e2, 1.0e3])
def test_steep_variant_profile_is_positive(variant_fields, sigma):
    # The profile falls to 1e-13 (3e2) and 3e-43 (1e3) of its peak, far
    # below the rounding of Phi(1)'s growing mode; only a sum of terms of
    # one sign keeps it positive.
    b1, b2, _ = variant_fields
    ss = ts.solve_steady(b1, b2, ts.FieldSpec.constant(sigma), 64)
    assert ss.lower_bound > 0.0
    assert ss.p1.min() > 0.0 and ss.p2.min() > 0.0
    w = trapezoid_weights(65, 1.0 / 64)
    assert abs(w @ (ss.p1 + ss.p2) - 1.0) < 1e-12


def test_goldstein_taylor_steady_state(gt_fields):
    ss = ts.solve_steady(*gt_fields, 256)
    assert np.abs(ss.p1 - 0.5).max() < 1e-12
    assert np.abs(ss.p2 - 0.5).max() < 1e-12
    assert np.abs(ss.J1 - 0.5).max() < 1e-12
    assert np.abs(ss.J2 + 0.5).max() < 1e-12
    assert ss.residual < 1e-12


def test_variant_residual_is_fourth_order(variant_fields):
    residuals = {n: ts.solve_steady(*variant_fields, n).residual for n in (64, 128, 256)}
    assert residuals[64] / residuals[128] > 8.0
    assert residuals[128] / residuals[256] > 8.0


def test_variant_component_masses(variant_fields):
    ss = ts.solve_steady(*variant_fields, 1024)
    w = trapezoid_weights(1025, 1.0 / 1024)
    assert abs(w @ ss.p1 - 0.5) < 1e-8
    assert abs(w @ ss.p2 - 0.5) < 1e-8


def test_steady_invariants(variant_fields):
    ss = ts.solve_steady(*variant_fields, 256)
    # positivity bounds
    assert 0.0 < ss.lower_bound <= ss.upper_bound
    assert ss.p1.min() >= ss.lower_bound
    assert ss.p2.max() <= ss.upper_bound
    # total flux constant, components single-signed, periodic
    total = ss.J1 + ss.J2
    assert np.abs(total - total[0]).max() < 1e-10
    assert (np.sign(ss.J1) == np.sign(ss.J1[0])).all()
    assert (np.sign(ss.J2) == np.sign(ss.J2[0])).all()
    assert abs(ss.J1[0] - ss.J1[-1]) < 1e-10
    assert abs(ss.J2[0] - ss.J2[-1]) < 1e-10
    # normalisation
    w = trapezoid_weights(257, 1.0 / 256)
    assert abs(w @ (ss.p1 + ss.p2) - 1.0) < 1e-12


def test_step_doubling_invariance(variant_fields, monkeypatch):
    # Doubling the Simpson lattice moves the profile by rounding only,
    # also where it is steep (min p = 3e-5 at sigma = 1e2, 3e-43 at 1e3).
    b1, b2, _ = variant_fields
    for sigma in (ts.FieldSpec.constant(s) for s in (1.0, 1.0e2, 1.0e3)):
        monkeypatch.setattr("twospeed.steady_state.DEFAULT_STEPS", DEFAULT_STEPS)
        a = ts.solve_steady(b1, b2, sigma, 64)
        monkeypatch.setattr("twospeed.steady_state.DEFAULT_STEPS", 2 * DEFAULT_STEPS)
        b = ts.solve_steady(b1, b2, sigma, 64)
        assert np.abs(a.p1 - b.p1).max() < 1e-12 * a.upper_bound, sigma
        assert np.abs(a.p2 - b.p2).max() < 1e-12 * a.upper_bound, sigma


def test_common_speed_rescaling_leaves_densities_unchanged():
    b1 = ts.FieldSpec.constant(1.0)
    b2 = ts.FieldSpec.trigonometric(-1.0, 0.4)
    sigma = ts.FieldSpec.constant(1.0)
    scaled = (
        ts.FieldSpec.constant(3.0),
        ts.FieldSpec.trigonometric(-3.0, 1.2),
        ts.FieldSpec.constant(3.0),
    )
    base = ts.solve_steady(b1, b2, sigma, 128)
    other = ts.solve_steady(*scaled, 128)
    assert np.abs(base.p1 - other.p1).max() < 1e-10
    assert np.abs(base.p2 - other.p2).max() < 1e-10
    assert np.abs(3.0 * base.J1 - other.J1).max() < 1e-9


def test_zero_cross_section_has_no_unique_steady_state():
    b1 = ts.FieldSpec.constant(1.0)
    b2 = ts.FieldSpec.constant(-1.0)
    with pytest.raises(NonUniqueSteadyStateError):
        ts.solve_steady(b1, b2, ts.FieldSpec.constant(0.0), 64)


def test_residual_detects_perturbation(gt_fields):
    ss = ts.solve_steady(*gt_fields, 128)
    perturbed = ts.SteadyState(
        ss.x, 1.1 * ss.p1, ss.p2, 1.1 * ss.J1, ss.J2,
        ss.lower_bound, 1.1 * ss.upper_bound, ss.residual,
    )
    res = ts.steady_residual(perturbed, *gt_fields)
    scale = max(perturbed.p1.max(), perturbed.p2.max())
    assert res >= 0.05 * scale


def test_residual_decreases_with_resolution(variant_fields):
    coarse = ts.solve_steady(*variant_fields, 256)
    fine = ts.solve_steady(*variant_fields, 512)
    assert 0.0 < fine.residual < coarse.residual
