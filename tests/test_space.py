import numpy as np
import pytest

import twospeed as ts
from twospeed.errors import ShapeError


@pytest.fixture(scope="module")
def space(gen_variant_128):
    return gen_variant_128.space()


def _inner(space, p, q):
    """``(p, q)`` from the weighted norm by polarization."""
    total = 0.0
    for k in range(4):
        shifted = ts.StateVector(space.x, p.p1 + 1j**k * q.p1, p.p2 + 1j**k * q.p2)
        total += 1j**k * ts.norm(space, shifted) ** 2
    return 0.25 * total


def _project(space, p):
    """Orthogonal projection onto the steady state: the part that deflation removes."""
    rest = ts.deflate_to_mean_zero(space, p)
    return ts.StateVector(space.x, p.p1 - rest.p1, p.p2 - rest.p2)


def _random_state(space, rng):
    m = len(space.x)
    return ts.StateVector(
        space.x,
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
    )


def test_steady_state_has_unit_norm(space):
    p_inf = space.steady_state_vector()
    assert ts.norm(space, p_inf) == pytest.approx(1.0, abs=1e-12)


def test_inner_against_steady_is_total_mass(space):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = _random_state(space, rng)
        ip = _inner(space, p, space.steady_state_vector())
        assert ip == pytest.approx(ts.total_mass(space, p), abs=1e-12)


def test_conjugate_symmetry_and_linearity(space):
    rng = np.random.default_rng(11)
    p = _random_state(space, rng)
    q = _random_state(space, rng)
    assert _inner(space, p, q) == pytest.approx(np.conj(_inner(space, q, p)), abs=1e-12)
    two_p = ts.StateVector(space.x, 2.0 * p.p1, 2.0 * p.p2)
    assert _inner(space, two_p, q) == pytest.approx(2.0 * _inner(space, p, q), abs=1e-12)


def test_projector_fixes_steady_state(space):
    p_inf = space.steady_state_vector()
    proj = _project(space, p_inf)
    assert np.abs(proj.p1 - p_inf.p1).max() < 1e-13
    assert np.abs(proj.p2 - p_inf.p2).max() < 1e-13


def test_projector_is_idempotent(space):
    rng = np.random.default_rng(3)
    p = _random_state(space, rng)
    deflated = ts.deflate_to_mean_zero(space, p)
    again = _project(space, deflated)
    assert np.abs(again.p1).max() < 1e-13 * max(1.0, np.abs(p.p1).max())
    assert np.abs(again.p2).max() < 1e-13 * max(1.0, np.abs(p.p2).max())


def test_projector_annihilates_antisymmetric_profiles(space):
    s = np.sin(3.0 * np.pi * space.x) + 0.2
    p = ts.StateVector(space.x, s, -s)
    proj = _project(space, p)
    assert np.abs(proj.p1).max() < 1e-13


def test_deflation_properties(space):
    p_inf = space.steady_state_vector()
    zero = ts.deflate_to_mean_zero(space, p_inf)
    assert np.abs(zero.p1).max() < 1e-13

    rng = np.random.default_rng(5)
    p = _random_state(space, rng)
    deflated = ts.deflate_to_mean_zero(space, p)
    assert abs(ts.total_mass(space, deflated)) < 1e-12
    twice = ts.deflate_to_mean_zero(space, deflated)
    assert np.abs(twice.p1 - deflated.p1).max() < 1e-13

    half = ts.StateVector(space.x, space.steady1, np.zeros_like(space.steady2))
    assert abs(ts.total_mass(space, ts.deflate_to_mean_zero(space, half))) < 1e-12


def test_projector_is_self_adjoint(space):
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = _random_state(space, rng)
        q = _random_state(space, rng)
        lhs = _inner(space, _project(space, p), q)
        rhs = _inner(space, p, _project(space, q))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_norm_equivalence_with_empirical_bounds(space):
    lower = min(space.steady1.min(), space.steady2.min())
    upper = max(space.steady1.max(), space.steady2.max())
    rng = np.random.default_rng(17)
    w = np.asarray(space.quad)
    for _ in range(5):
        p = _random_state(space, rng)
        l2 = np.sqrt(float(w @ (np.abs(p.p1) ** 2 + np.abs(p.p2) ** 2)))
        weighted = ts.norm(space, p)
        assert weighted**2 <= l2**2 / lower + 1e-12
        assert weighted**2 >= l2**2 / upper - 1e-12


def test_grid_mismatch_raises(space):
    other = ts.StateVector(np.linspace(0, 1, 7), np.ones(7), np.ones(7))
    with pytest.raises(ShapeError):
        ts.norm(space, other)
    with pytest.raises(ShapeError):
        ts.StateVector(space.x, np.ones(3), np.ones(3))
