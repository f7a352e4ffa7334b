import numpy as np
import pytest

import twospeed as ts
from twospeed.errors import ShapeError


@pytest.fixture(scope="module")
def gen(gen_variant_128):
    return gen_variant_128


def _inner(gen, p, q):
    """``(p, q)`` from the weighted norm by polarization."""
    total = 0.0
    for k in range(4):
        shifted = gen.state(p.p1 + 1j**k * q.p1, p.p2 + 1j**k * q.p2)
        total += 1j**k * ts.norm(gen, shifted) ** 2
    return 0.25 * total


def _project(gen, p):
    """Orthogonal projection onto the steady state: the part that deflation removes."""
    rest = ts.deflate_to_mean_zero(gen, p)
    return gen.state(p.p1 - rest.p1, p.p2 - rest.p2)


def _random_state(gen, rng):
    m = gen.grid.n
    return gen.state(
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
    )


def test_steady_state_has_unit_norm(gen):
    p_inf = gen.state(gen.steady1, gen.steady2)
    assert ts.norm(gen, p_inf) == pytest.approx(1.0, abs=1e-12)


def test_inner_against_steady_is_total_mass(gen):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = _random_state(gen, rng)
        ip = _inner(gen, p, gen.state(gen.steady1, gen.steady2))
        assert ip == pytest.approx(ts.total_mass(gen, p), abs=1e-12)


def test_conjugate_symmetry_and_linearity(gen):
    rng = np.random.default_rng(11)
    p = _random_state(gen, rng)
    q = _random_state(gen, rng)
    assert _inner(gen, p, q) == pytest.approx(np.conj(_inner(gen, q, p)), abs=1e-12)
    two_p = gen.state(2.0 * p.p1, 2.0 * p.p2)
    assert _inner(gen, two_p, q) == pytest.approx(2.0 * _inner(gen, p, q), abs=1e-12)


def test_projector_fixes_steady_state(gen):
    p_inf = gen.state(gen.steady1, gen.steady2)
    proj = _project(gen, p_inf)
    assert np.abs(proj.p1 - p_inf.p1).max() < 1e-13
    assert np.abs(proj.p2 - p_inf.p2).max() < 1e-13


def test_projector_is_idempotent(gen):
    rng = np.random.default_rng(3)
    p = _random_state(gen, rng)
    deflated = ts.deflate_to_mean_zero(gen, p)
    again = _project(gen, deflated)
    assert np.abs(again.p1).max() < 1e-13 * max(1.0, np.abs(p.p1).max())
    assert np.abs(again.p2).max() < 1e-13 * max(1.0, np.abs(p.p2).max())


def test_projector_annihilates_antisymmetric_profiles(gen):
    s = np.sin(3.0 * np.pi * gen.grid.centers()) + 0.2
    p = gen.state(s, -s)
    proj = _project(gen, p)
    assert np.abs(proj.p1).max() < 1e-13


def test_deflation_properties(gen):
    p_inf = gen.state(gen.steady1, gen.steady2)
    zero = ts.deflate_to_mean_zero(gen, p_inf)
    assert np.abs(zero.p1).max() < 1e-13

    rng = np.random.default_rng(5)
    p = _random_state(gen, rng)
    deflated = ts.deflate_to_mean_zero(gen, p)
    assert abs(ts.total_mass(gen, deflated)) < 1e-12
    twice = ts.deflate_to_mean_zero(gen, deflated)
    assert np.abs(twice.p1 - deflated.p1).max() < 1e-13

    half = gen.state(gen.steady1, np.zeros_like(gen.steady2))
    assert abs(ts.total_mass(gen, ts.deflate_to_mean_zero(gen, half))) < 1e-12


def test_projector_is_self_adjoint(gen):
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = _random_state(gen, rng)
        q = _random_state(gen, rng)
        lhs = _inner(gen, _project(gen, p), q)
        rhs = _inner(gen, p, _project(gen, q))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_norm_equivalence_with_empirical_bounds(gen):
    lower = min(gen.steady1.min(), gen.steady2.min())
    upper = max(gen.steady1.max(), gen.steady2.max())
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = _random_state(gen, rng)
        l2 = np.sqrt(gen.grid.h * float(np.sum(np.abs(p.p1) ** 2 + np.abs(p.p2) ** 2)))
        weighted = ts.norm(gen, p)
        assert weighted**2 <= l2**2 / lower + 1e-12
        assert weighted**2 >= l2**2 / upper - 1e-12


def test_grid_mismatch_raises(gen):
    other = ts.StateVector(np.linspace(0, 1, 7), np.ones(7), np.ones(7))
    with pytest.raises(ShapeError):
        ts.norm(gen, other)
    n = gen.grid.n
    shifted = ts.StateVector(gen.grid.centers() + 0.5 / n, np.ones(n), np.ones(n))
    with pytest.raises(ShapeError):
        ts.total_mass(gen, shifted)
    with pytest.raises(ShapeError):
        gen.state(np.ones(3), np.ones(3))
