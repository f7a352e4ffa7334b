import numpy as np
import pytest

import twospeed as ts
from twospeed.errors import (
    ConfigurationError,
    InsufficientDataError,
    NonuniformSamplingError,
)


def test_steady_initial_data_is_a_fixed_point(gen_gt_64):
    series = ts.evolve(gen_gt_64, gen_gt_64.steady_state_vector(), T=1.0, dt=0.01, observe_every=10)
    assert np.abs(series.mass - 1.0).max() < 1e-12
    assert series.entropy.max() < 1e-22
    assert series.deviation.max() < 1e-11
    assert series.dissipation.max() < 1e-22


def test_mass_conserved_by_both_schemes(gen_gt_64):
    p0 = ts.steady_plus_mode(gen_gt_64, 1, 0.05)
    implicit = ts.evolve(gen_gt_64, p0, T=2.0, dt=1e-3, observe_every=100)
    cfl_dt = 0.5 * gen_gt_64.grid.h
    explicit = ts.evolve(gen_gt_64, p0, T=2.0, dt=cfl_dt, scheme="explicit-rk4", observe_every=64)
    assert np.abs(implicit.mass - implicit.mass[0]).max() < 1e-12
    assert np.abs(explicit.mass - explicit.mass[0]).max() < 1e-12


def test_cfl_violation_raises(gen_gt_64):
    with pytest.raises(ConfigurationError):
        ts.evolve(
            gen_gt_64,
            ts.steady_plus_mode(gen_gt_64, 1, 0.01),
            T=1.0,
            dt=10.0 * gen_gt_64.grid.h,
            scheme="explicit-rk4",
        )


def test_negative_snapshot_every_raises(gen_gt_64):
    with pytest.raises(ConfigurationError):
        ts.evolve(gen_gt_64, ts.steady_plus_mode(gen_gt_64, 1, 0.01), T=0.1, dt=0.01, snapshot_every=-5)


def test_schemes_agree_on_smooth_data(gen_gt_64):
    p0 = ts.steady_plus_mode(gen_gt_64, 1, 0.01)
    dt = 2e-4
    a = ts.evolve(gen_gt_64, p0, T=0.5, dt=dt, observe_every=250)
    b = ts.evolve(gen_gt_64, p0, T=0.5, dt=dt, scheme="explicit-rk4", observe_every=250)
    assert np.array_equal(a.times, b.times)
    assert np.abs(a.deviation - b.deviation).max() < 5e-9


def test_decay_rate_matches_spectral_abscissa(gen_gt_128):
    # Time-domain rate against the frequency-domain oracle for the
    # same matrix: both must see the least-damped mode.
    series = ts.evolve(gen_gt_128, ts.steady_plus_mode(gen_gt_128, 1, 0.01), T=10.0, dt=1e-3, observe_every=10)
    fit = ts.estimate_decay(series)
    rep = ts.spectrum(gen_gt_128)
    assert fit.alpha_hat == pytest.approx(abs(rep.x0_abscissa), abs=0.02)
    # and against the closed-form continuum rate, off by the upwind shift
    assert fit.alpha_hat == pytest.approx(1.0 + (1 - np.cos(2 * np.pi / 128)) * 128, abs=0.02)


def test_entropy_monotone_for_implicit_scheme(gen_variant_64):
    series = ts.evolve(gen_variant_64, ts.steady_plus_mode(gen_variant_64, 1, 0.05), T=4.0, dt=2e-3, observe_every=10)
    h0 = series.entropy[0]
    assert np.diff(series.entropy).max() <= 1e-10 * h0


def test_projection_constant_in_time(gen_variant_64):
    from twospeed.space import project_equilibrium

    space = gen_variant_64.space()
    series = ts.evolve(
        gen_variant_64,
        ts.steady_plus_mode(gen_variant_64, 2, 0.05),
        T=2.0, dt=1e-3, observe_every=200, snapshot_every=200,
    )
    projections = [project_equilibrium(space, snap) for _, snap in series.snapshots]
    for proj in projections[1:]:
        assert np.abs(proj.p1 - projections[0].p1).max() < 1e-12


def test_entropy_identity_stationary_series_is_zero(gen_gt_64):
    series = ts.evolve(gen_gt_64, gen_gt_64.steady_state_vector(), T=0.5, dt=0.01, observe_every=5)
    assert ts.entropy_identity_residual(series) == pytest.approx(0.0, abs=1e-12)


def test_entropy_identity_spatial_floor(gt_fields):
    # With a spatially varying ratio the upwind dissipation shows up as
    # an O(h) defect of the identity: for a mode-1 cosine ratio the
    # floor sits at pi^2 * h, far above the dt^2 part.
    gen = ts.assemble(*gt_fields, ts.Grid(256))
    series = ts.evolve(gen, ts.steady_plus_mode(gen, 1, 0.01), T=5.0, dt=1e-3, observe_every=10)
    residual = ts.entropy_identity_residual(series)
    assert residual == pytest.approx(np.pi**2 / 256, rel=0.25)


def test_entropy_identity_floor_shrinks_with_h(gt_fields):
    values = {}
    for n in (64, 128):
        gen = ts.assemble(*gt_fields, ts.Grid(n))
        series = ts.evolve(gen, ts.steady_plus_mode(gen, 1, 0.01), T=3.0, dt=1e-3, observe_every=10)
        values[n] = ts.entropy_identity_residual(series)
    assert values[128] < values[64]


def test_entropy_identity_requires_uniform_sampling(gen_gt_64):
    series = ts.evolve(gen_gt_64, ts.steady_plus_mode(gen_gt_64, 1, 0.01), T=0.1, dt=0.01, observe_every=3)
    # 10 steps observed every 3 plus the forced final step -> nonuniform
    with pytest.raises(NonuniformSamplingError):
        ts.entropy_identity_residual(series)


def test_estimate_decay_exact_exponential():
    times = np.linspace(0.0, 5.0, 101)
    series = ts.TimeSeries(
        times=times,
        mass=np.ones_like(times),
        entropy=np.exp(-4.0 * times),
        dissipation=4.0 * np.exp(-4.0 * times),
        deviation=np.exp(-2.0 * times),
    )
    fit = ts.estimate_decay(series)
    assert fit.alpha_hat == pytest.approx(2.0, abs=1e-8)
    assert fit.prefactor == pytest.approx(1.0, abs=1e-8)
    assert fit.fit_residual < 1e-10


def test_estimate_decay_insufficient_data():
    times = np.linspace(0.0, 1.0, 4)
    series = ts.TimeSeries(
        times=times,
        mass=np.ones_like(times),
        entropy=np.ones_like(times),
        dissipation=np.zeros_like(times),
        deviation=np.full_like(times, 1e-300),
    )
    with pytest.raises(InsufficientDataError):
        ts.estimate_decay(series)


def test_degenerate_speeds_decay_only_by_numerical_diffusion():
    # With identical fields the symmetric perturbation rides a pure
    # transport equation; the measured rate is upwind diffusion and
    # halves (roughly) when the grid is refined.
    b = ts.FieldSpec.constant(1.0)
    sigma = ts.FieldSpec.constant(1.0)
    rates = {}
    for n in (64, 128):
        gen = ts.assemble(b, b, sigma, ts.Grid(n))
        x = gen.grid.centers()
        bump = 0.01 * np.cos(2 * np.pi * x)
        p0 = gen.state(gen.steady1 + bump, gen.steady2 + bump)
        series = ts.evolve(gen, p0, T=6.0, dt=2e-3, observe_every=10)
        rates[n] = ts.estimate_decay(series).alpha_hat
    assert rates[128] < rates[64]
    assert rates[64] / rates[128] == pytest.approx(2.0, rel=0.25)
    assert rates[128] == pytest.approx((1 - np.cos(2 * np.pi / 128)) * 128, rel=0.1)
