import numpy as np
import pytest
import scipy.integrate

import twospeed as ts
from twospeed.errors import ConfigurationError
from twospeed.stationary_phase import MIN_SWEEP_POINTS


def _constant_modulus(c, lam):
    """|I(lambda)| for constant slope c: |2 sin(c lam / 2) / (c lam)|."""
    return abs(2.0 * np.sin(c * lam / 2.0) / (c * lam))


def test_full_period_cancels_exactly():
    sweep = ts.lemma_sweep(ts.FieldSpec.constant(1.0), 2.0 * np.pi, 4.0 * np.pi, MIN_SWEEP_POINTS)
    assert abs(sweep.values[0]) <= 1e-10


def test_constant_slope_closed_form():
    sweep = ts.lemma_sweep(ts.FieldSpec.constant(1.0), np.pi, 1e3 * np.pi, 21)
    assert np.abs(sweep.moduli - _constant_modulus(1.0, sweep.lambdas)).max() <= 1e-8


def test_zero_slope_gives_unit_modulus():
    sweep = ts.lemma_sweep(ts.FieldSpec.constant(0.0), 1.0, 555.0, MIN_SWEEP_POINTS)
    assert np.abs(sweep.moduli - 1.0).max() <= 1e-12


def test_against_brute_force_quadrature():
    # Independent oracle: dense composite Simpson on the same integrand.
    psi = ts.FieldSpec.trigonometric(1.5, 0.5, 0.0)
    sweep = ts.lemma_sweep(psi, 37.0, 74.0, MIN_SWEEP_POINTS)
    x = np.linspace(0.0, 1.0, 40001)
    inner = scipy.integrate.cumulative_simpson(
        np.asarray(ts.evaluate(psi, x)), x=x, initial=0.0
    )
    brute = scipy.integrate.simpson(np.exp(1j * np.multiply.outer(sweep.lambdas, inner)), x=x)
    assert np.abs(sweep.values - brute).max() <= 1e-8


def test_resolution_adequacy(monkeypatch):
    psi = ts.FieldSpec.trigonometric(1.2, -0.3, 0.2)
    for lam in (7.0, 131.0):
        monkeypatch.setattr("twospeed.stationary_phase.DEFAULT_BASE_POINTS", 64)
        a = ts.lemma_sweep(psi, lam / 2.0, lam, MIN_SWEEP_POINTS).values
        monkeypatch.setattr("twospeed.stationary_phase.DEFAULT_BASE_POINTS", 128)
        b = ts.lemma_sweep(psi, lam / 2.0, lam, MIN_SWEEP_POINTS).values
        assert np.abs(a - b).max() < 1e-8


def test_moduli_never_exceed_one():
    psi = ts.FieldSpec.tabulated([0.0, 0.3, 1.0], [0.5, 2.0, 1.0])
    sweep = ts.lemma_sweep(psi, 1.0, 500.0, 16)
    assert (sweep.moduli <= 1.0 + 1e-12).all()


def test_lemma_sweep_constant_slope_decays():
    sweep = ts.lemma_sweep(ts.FieldSpec.constant(1.0), np.pi, 1e3 * np.pi, 33)
    bound = 2.0 / sweep.lambdas
    assert (sweep.moduli <= bound + 1e-10).all()
    # the tail-half surrogate is capped by 2/lambda at the tail's start
    points = len(sweep.lambdas)
    assert sweep.limsup_estimate <= 2.0 / sweep.lambdas[points // 2] + 1e-10
    assert sweep.lemma_consistent


def test_lemma_sweep_from_goldstein_taylor_difference():
    # 1/b1 - 1/b2 = 2 for the constant pair; modulus |sin(lam)/lam|.
    psi = ts.FieldSpec.constant(2.0)
    sweep = ts.lemma_sweep(psi, np.pi, 100.0 * np.pi, 17)
    expected = np.abs(np.sin(sweep.lambdas) / sweep.lambdas)
    assert np.abs(sweep.moduli - expected).max() < 1e-8
    assert sweep.lemma_consistent


def test_vanishing_slope_keeps_its_support_length():
    # The slope is zero on [0, 0.9]: that segment contributes its full
    # length with no oscillation, while the active tail decays, so the
    # sweep tail settles near 0.9 - consistent, but with a small margin.
    psi = ts.FieldSpec.tabulated([0.0, 0.45, 0.9, 0.95, 1.0], [0.0, 0.0, 0.0, 1.0, 4.0])
    sweep = ts.lemma_sweep(psi, 1e2, 2e4, 16)
    assert sweep.limsup_estimate == pytest.approx(0.9, abs=0.02)
    assert sweep.lemma_consistent


def test_identically_zero_slope_is_inconsistent():
    sweep = ts.lemma_sweep(ts.FieldSpec.constant(0.0), 1.0, 100.0, 8)
    assert sweep.limsup_estimate == pytest.approx(1.0, abs=1e-12)
    assert not sweep.lemma_consistent


def test_callable_slopes_are_accepted():
    two = lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)
    sweep = ts.lemma_sweep(two, 7.7, 15.4, MIN_SWEEP_POINTS)
    assert np.abs(sweep.moduli - _constant_modulus(2.0, sweep.lambdas)).max() <= 1e-10


def test_argument_validation():
    with pytest.raises(ConfigurationError):
        ts.lemma_sweep(ts.FieldSpec.constant(1.0), 10.0, 1.0, 16)
    with pytest.raises(ConfigurationError):
        ts.lemma_sweep(ts.FieldSpec.constant(1.0), 1.0, 10.0, 4)


@pytest.mark.parametrize(
    "psi",
    [
        ts.FieldSpec.trigonometric(1.5, 0.5, 0.2),
        # Collinear samples: the shape-preserving cubic is the line itself.
        # Between kinked samples the cubic is only C^1, and the coarse
        # grids of the low frequencies alone err by about 3e-8.
        ts.FieldSpec.tabulated([0.0, 0.3, 0.7, 1.0], [0.5, 0.95, 1.55, 2.0]),
    ],
    ids=["trigonometric", "tabulated"],
)
def test_sweep_matches_per_frequency_integrals(psi):
    # The sweep sums every frequency on the grid of the largest one; each
    # value is also the last of a sweep that ends at it, on its own grid.
    sweep = ts.lemma_sweep(psi, np.pi, 200.0 * np.pi, 17)
    direct = np.array(
        [ts.lemma_sweep(psi, lam / 2.0, lam, MIN_SWEEP_POINTS).values[-1] for lam in sweep.lambdas]
    )
    assert np.abs(sweep.values - direct).max() <= 1e-12
    assert sweep.warnings == ()


def test_sweep_notes_every_under_resolved_frequency(monkeypatch):
    # With the grid capped at 200 subintervals, a slope of 1 resolves
    # eight points per period up to lambda = 50 pi.
    monkeypatch.setattr("twospeed.stationary_phase.MAX_SUBINTERVALS", 200)
    one = ts.FieldSpec.constant(1.0)
    sweep = ts.lemma_sweep(one, np.pi, 200.0 * np.pi, 16)
    under = sweep.lambdas[np.ceil(8.0 * sweep.lambdas / (2.0 * np.pi)) > 200]
    assert len(sweep.warnings) == len(under) > 0
    for note, lam in zip(sweep.warnings, under):
        assert note.startswith("oscillation grid capped at 200 subintervals") and f"{lam:.3g}" in note
