import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twospeed as ts
from twospeed.errors import (
    ConfigurationError,
    DefectiveGeneratorError,
    DivergenceError,
    InsufficientDataError,
    NonuniformSamplingError,
    NumericalError,
    PositivityError,
)
from twospeed.evolution import _trapezoid_factors, step_count
from twospeed.generator import fold_order, folded
from twospeed.space import deflate_to_mean_zero, norm, total_mass


def test_steady_initial_data_is_a_fixed_point(gen_gt_64):
    steady = gen_gt_64.state(gen_gt_64.steady1, gen_gt_64.steady2)
    series = ts.evolve(gen_gt_64, steady, T=1.0, dt=0.01, observe_every=10)
    assert np.abs(series.mass - 1.0).max() < 1e-12
    assert series.entropy.max() < 1e-22
    assert series.deviation.max() < 1e-11
    assert series.dissipation.max() < 1e-22


def test_mass_conserved_by_the_trapezoid(gen_gt_64):
    p0 = ts.steady_plus_mode(gen_gt_64, 1, 0.05)
    series = ts.evolve(gen_gt_64, p0, T=2.0, dt=1e-3, observe_every=100)
    assert np.abs(series.mass - series.mass[0]).max() < 1e-12


def test_overflowing_observers_raise(variant_fields):
    # The state stays finite, but the squares in its entropy and
    # deviation overflow.
    gen = ts.assemble(*variant_fields, ts.Grid(16))
    p0 = gen.state(1e160 * gen.steady1, -1e160 * gen.steady2)
    with pytest.raises(DivergenceError, match="observer at step 0"):
        ts.evolve(gen, p0, T=0.01, dt=1e-3, observe_every=5)


def test_unknown_scheme_raises(gen_gt_64):
    with pytest.raises(ConfigurationError, match="unknown scheme 'explicit-rk4'"):
        ts.evolve(gen_gt_64, ts.steady_plus_mode(gen_gt_64, 1, 0.01), T=0.1, dt=0.01, scheme="explicit-rk4")


def test_negative_snapshot_every_raises(gen_gt_64):
    with pytest.raises(ConfigurationError):
        ts.evolve(gen_gt_64, ts.steady_plus_mode(gen_gt_64, 1, 0.01), T=0.1, dt=0.01, snapshot_every=-5)


@pytest.mark.parametrize("every", [3, 15])
def test_snapshot_every_must_be_a_multiple_of_observe_every(gen_gt_64, every):
    # Snapshots are taken at observations, so at observe_every = 10 both
    # cadences would silently give steps 0, 30, 60 and 90.
    p0 = ts.steady_plus_mode(gen_gt_64, 1, 0.01)
    with pytest.raises(ConfigurationError, match="snapshot_every"):
        ts.evolve(gen_gt_64, p0, T=0.1, dt=1e-3, observe_every=10, snapshot_every=every)


@pytest.mark.parametrize(
    "T, dt",
    [(0.0, 0.01), (-1.0, 0.01), (np.nan, 0.01), (np.inf, 0.01), (1.0, np.nan), (1.0, np.inf)],
    ids=["T=0", "T=-1", "T=nan", "T=inf", "dt=nan", "dt=inf"],
)
def test_out_of_range_times_raise(gen_gt_64, T, dt):
    with pytest.raises(ConfigurationError):
        ts.evolve(gen_gt_64, ts.steady_plus_mode(gen_gt_64, 1, 0.01), T=T, dt=dt)


def _complex_mode(gen, k, amplitude):
    p0 = ts.steady_plus_mode(gen, k, amplitude)
    bump = 1j * amplitude * np.sin(2.0 * np.pi * k * gen.grid.centers())
    return gen.state(p0.p1 + bump, p0.p2 - bump)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_implicit_step_matches_dense_trapezoid(variant_fields, kind):
    gen = ts.assemble(*variant_fields, ts.Grid(32))
    p0 = ts.steady_plus_mode(gen, 1, 0.05) if kind == "real" else _complex_mode(gen, 1, 0.05)
    dt = 0.05
    series = ts.evolve(gen, p0, T=dt, dt=dt, snapshot_every=1)
    step = series.snapshots[1][1].stacked
    eye = np.eye(gen.size)
    ref = np.linalg.solve(eye - 0.5 * dt * gen.matrix, (eye + 0.5 * dt * gen.matrix) @ p0.stacked)
    assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()


# Speeds a + b sin(2 pi x) + c cos(2 pi x) of one sign, changing sign or
# vanishing; cross-sections constant (zero included) or zero on [0, 0.4].
speed = st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
cross_section = st.one_of(
    st.floats(0.0, 2.0).map(ts.FieldSpec.constant),
    st.floats(0.1, 2.0).map(lambda s: ts.FieldSpec.tabulated((0.0, 0.4, 0.7, 1.0), (0.0, 0.0, s, 0.0))),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(b1=speed, b2=speed, sigma=cross_section, log_dt=st.floats(np.log(1e-5), np.log(10.0)), n=st.integers(8, 48))
def test_trapezoid_band_factor_exchanges_no_rows(b1, b2, sigma, log_dt, n):
    # Upwinding makes M = I - (dt/2) A a Z-matrix whose columns sum to 1
    # for any speeds, sigma >= 0 and dt > 0. Each Schur complement is
    # again one with column sums >= 1, so the band LU in fold order
    # needs no row exchange and every pivot is >= 1: L diag(D) U' is M
    # itself, and one step matches the dense trapezoid.
    try:
        gen = ts.assemble(ts.FieldSpec.trigonometric(*b1), ts.FieldSpec.trigonometric(*b2), sigma, ts.Grid(n))
    except (PositivityError, DefectiveGeneratorError):
        # No simple positive steady state, so there is no generator to test.
        assume(False)
    dt = float(np.exp(log_dt))
    kd, lower, pivots, upper = _trapezoid_factors(folded(gen.operator, n), dt)
    m = gen.size
    unit_lower = np.eye(m) + sum(np.diag(lower[k, : m - k], -k) for k in range(1, kd + 1))
    unit_upper = np.eye(m) + sum(np.diag(upper[kd - k, k:], k) for k in range(1, kd + 1))
    order = fold_order(n)
    eye, a = np.eye(m), gen.matrix
    mminus = eye - 0.5 * dt * a
    scale = np.abs(mminus).max()
    rebuilt = unit_lower @ np.diag(pivots) @ unit_upper
    assert np.abs(rebuilt - mminus[np.ix_(order, order)]).max() <= 1e-14 * scale
    assert pivots.min() >= 1.0 - 1e-14 * scale
    p0 = ts.steady_plus_mode(gen, 1, 0.05)
    step = ts.evolve(gen, p0, T=dt, dt=dt, snapshot_every=1).snapshots[1][1].stacked
    ref = np.linalg.solve(mminus, (eye + 0.5 * dt * a) @ p0.stacked)
    assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("broken", ["row exchange", "singular"])
def test_broken_operator_raises_before_stepping(gen_gt_64, broken):
    # A large negative off-diagonal breaks column dominance, so the band
    # LU must exchange rows; (2/dt) I makes M = 0. Either way evolve
    # refuses to step.
    dt = 0.5
    if broken == "row exchange":
        op = gen_gt_64.operator.copy()
        op[64, 0] = -1e3
    else:
        op = scipy.sparse.csc_array((2.0 / dt) * scipy.sparse.eye_array(gen_gt_64.size))
    gen = dataclasses.replace(gen_gt_64, operator=op)
    with pytest.raises(NumericalError, match="exchanged rows" if broken == "row exchange" else "singular"):
        ts.evolve(gen, ts.steady_plus_mode(gen, 1, 0.01), T=1.0, dt=dt)


@pytest.mark.parametrize("observe_every", [1, 3, 7])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_trapezoid_recurrence_matches_dense_steps(variant_fields, kind, observe_every):
    # Between records each step takes its right-hand side from the last
    # update; each record recomputes it. The states at every record
    # match dense trapezoid steps.
    gen = ts.assemble(*variant_fields, ts.Grid(32))
    p0 = ts.steady_plus_mode(gen, 1, 0.05) if kind == "real" else _complex_mode(gen, 1, 0.05)
    dt, steps = 0.05, 21
    series = ts.evolve(gen, p0, T=steps * dt, dt=dt, observe_every=observe_every, snapshot_every=observe_every)
    eye = np.eye(gen.size)
    step = np.linalg.solve(eye - 0.5 * dt * gen.matrix, eye + 0.5 * dt * gen.matrix)
    ref = [p0.stacked]
    for _ in range(steps):
        ref.append(step @ ref[-1])
    for t, state in series.snapshots:
        k = int(round(t / dt))
        assert np.abs(state.stacked - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max(), (t, kind)
    assert len(series.snapshots) == steps // observe_every + 1


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_trapezoid_recurrence_conserves_mass_on_long_runs(variant_fields, kind):
    gen = ts.assemble(*variant_fields, ts.Grid(1024))
    p0 = ts.steady_plus_mode(gen, 1, 0.01) if kind == "real" else _complex_mode(gen, 1, 0.01)
    series = ts.evolve(gen, p0, T=10.0, dt=1e-3, observe_every=10)
    assert np.abs(series.mass - series.mass[0]).max() <= 1e-12


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_observers_match_weighted_space(gen_variant_64, kind):
    gen = gen_variant_64
    p0 = ts.steady_plus_mode(gen, 2, 0.05) if kind == "real" else _complex_mode(gen, 2, 0.05)
    series = ts.evolve(gen, p0, T=0.05, dt=1e-3, observe_every=10, snapshot_every=10)
    assert len(series.snapshots) == len(series.times)
    for i, (_, state) in enumerate(series.snapshots):
        dev = norm(gen, deflate_to_mean_zero(gen, state))
        ratio_gap = state.p1 / gen.steady1 - state.p2 / gen.steady2
        diss = gen.grid.h * np.sum(gen.sigma_cells * (gen.steady1 + gen.steady2) * np.abs(ratio_gap) ** 2)
        assert series.mass[i] == pytest.approx(total_mass(gen, state).real, rel=1e-14)
        assert series.deviation[i] == pytest.approx(dev, rel=1e-14)
        assert series.entropy[i] == pytest.approx(dev * dev, rel=1e-14)
        assert series.dissipation[i] == pytest.approx(diss, rel=1e-14)


def test_evolve_allocates_no_dense_matrix(variant_fields):
    # A dense 2048 x 2048 array is 33.6 MB; the sparse stepper needs O(n).
    gen = ts.assemble(*variant_fields, ts.Grid(1024))
    p0 = ts.steady_plus_mode(gen, 1, 0.01)
    dt = 1e-3
    tracemalloc.start()
    try:
        ts.evolve(gen, p0, T=10 * dt, dt=dt, observe_every=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("fields", ["gt_fields", "variant_fields"])
def test_trapezoid_converges_at_second_order_to_the_exact_semigroup(fields, request):
    # expm(T A) p0 is the exact propagator of the assembled generator, so
    # the error is the time discretisation alone: it falls fourfold at
    # each halving of dt.
    gen = ts.assemble(*request.getfixturevalue(fields), ts.Grid(64))
    p0 = ts.steady_plus_mode(gen, 1, 0.01)
    T = 0.5
    exact = scipy.linalg.expm(T * gen.matrix) @ p0.stacked
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        steps = step_count(T, dt)
        final = ts.evolve(gen, p0, T=T, dt=dt, observe_every=steps, snapshot_every=steps).snapshots[-1][1]
        errors.append(np.abs(final.stacked - exact).max() / np.abs(exact).max())
    assert errors[0] <= 2e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 <= coarse / fine <= 4.2, errors


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
    # The projection onto the steady state is total_mass * p_inf.
    series = ts.evolve(
        gen_variant_64,
        ts.steady_plus_mode(gen_variant_64, 2, 0.05),
        T=2.0, dt=1e-3, observe_every=200, snapshot_every=200,
    )
    masses = np.array([total_mass(gen_variant_64, snap) for _, snap in series.snapshots])
    assert np.abs(masses[1:] - masses[0]).max() * gen_variant_64.steady1.max() < 1e-12


def test_entropy_identity_stationary_series_is_zero(gen_gt_64):
    steady = gen_gt_64.state(gen_gt_64.steady1, gen_gt_64.steady2)
    series = ts.evolve(gen_gt_64, steady, T=0.5, dt=0.01, observe_every=5)
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
