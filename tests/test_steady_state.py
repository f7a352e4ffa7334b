import numpy as np
import pytest

import twospeed as ts
from twospeed.errors import DegenerateFieldError, NonUniqueSteadyStateError
from twospeed.fields import DEGENERACY_FLOOR
from twospeed.quadrature import trapezoid_weights
from twospeed.steady_state import DEFAULT_STEPS, _coupling_matrices, _rk4_sweep


def test_fundamental_matrix_at_zero_is_identity(variant_fields):
    phi = ts.fundamental_matrix(*variant_fields, 0.0)
    assert np.array_equal(phi, np.eye(2))


def test_goldstein_taylor_fundamental_matrix_closed_form(gt_fields):
    # The coefficient matrix is the constant nilpotent [[-1,-1],[1,1]],
    # so Phi(x) = I + x * M in closed form.
    M = np.array([[-1.0, -1.0], [1.0, 1.0]])
    for x in (0.25, 0.5, 1.0):
        phi = ts.fundamental_matrix(*gt_fields, x)
        assert np.abs(phi - (np.eye(2) + x * M)).max() < 1e-12
    phi1 = ts.fundamental_matrix(*gt_fields, 1.0)
    assert np.abs(phi1 - np.array([[0.0, -1.0], [1.0, 2.0]])).max() < 1e-8


def test_column_sums_are_conserved(variant_fields):
    for x in (0.1, 0.37, 0.83, 1.0):
        phi = ts.fundamental_matrix(*variant_fields, x, steps=512)
        assert np.abs(phi.sum(axis=0) - 1.0).max() < 1e-12


def _stepwise_rk4_sweep(mats, y, h, record_every=0):
    """Reference: classical RK4 stage by stage, one step at a time."""
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


@pytest.mark.parametrize("fields", ["gt_fields", "variant_fields"])
@pytest.mark.parametrize("record_every", [0, 1, 7])
def test_rk4_propagators_match_stepwise_sweep(fields, record_every, request):
    b1, b2, sigma = request.getfixturevalue(fields)
    steps = DEFAULT_STEPS
    lattice = np.linspace(0.0, 1.0, 2 * steps + 1)
    mats = _coupling_matrices(b1, b2, sigma, lattice, DEGENERACY_FLOOR)
    for y0 in (np.eye(2), np.array([0.3, 0.7])):
        got = _rk4_sweep(mats, y0, 1.0 / steps, record_every)
        want = _stepwise_rk4_sweep(mats, y0, 1.0 / steps, record_every)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_degenerate_field_raises():
    b1 = ts.FieldSpec.affine(-0.5, 1.0)  # vanishes at x = 0.5
    b2 = ts.FieldSpec.constant(1.0)
    with pytest.raises(DegenerateFieldError):
        ts.fundamental_matrix(b1, b2, ts.FieldSpec.constant(1.0), 1.0)


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


def test_step_doubling_invariance(variant_fields):
    a = ts.solve_steady(*variant_fields, 64, steps=4096)
    b = ts.solve_steady(*variant_fields, 64, steps=8192)
    assert np.abs(a.p1 - b.p1).max() < 1e-12
    assert np.abs(a.p2 - b.p2).max() < 1e-12


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
