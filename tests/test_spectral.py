import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twospeed as ts
import twospeed.generator
import twospeed.spectral
from twospeed.cli import ABSCISSA_TRIANGLE_TOL
from twospeed.errors import ConfigurationError, NumericalError
from twospeed.generator import RANK_TOL, bordered_sigma_min, folded, sparse_symmetrized, symmetrized
from twospeed.spectral import (
    SIGMA_MIN_BATCH_UNKNOWNS,
    default_lambda_max,
    mean_zero_direction,
    restricted_operator,
    sparse_sigma_min,
)

from child_processes import assert_no_child_processes
from hamiltonian_oracle import hamiltonian_crossings
from mean_zero_operator import mean_zero_operator
from upwind_spectrum import goldstein_taylor_upwind_eigenvalues, transport_lambda_max


def test_spectrum_zero_mode_and_stability(gen_gt_128):
    rep = ts.spectrum(gen_gt_128)
    scale = gen_gt_128.operator_scale()
    assert (np.abs(rep.eigenvalues) <= 1e-8 * scale).sum() == 1
    assert rep.eigenvalues.real.max() <= 1e-8 * scale
    assert len(rep.nonneg_violations) == 0
    assert rep.x0_abscissa < -0.5


@pytest.mark.parametrize("fixture", ["gen_gt_64", "gen_variant_64"])
def test_spectrum_rejects_a_wrong_eigenvalue(fixture, request, monkeypatch):
    gen = request.getfixturevalue(fixture)
    eigvals = scipy.linalg.eigvals
    shift = 1e-3 * gen.operator_scale()

    def one_shifted(*args, **kwargs):
        vals = eigvals(*args, **kwargs)
        # Moved further left, the leftmost eigenvalue stays first in the
        # sorted spectrum, which the residual check always samples.
        vals[np.argmin(vals.real)] -= shift
        return vals

    monkeypatch.setattr(twospeed.spectral.scipy.linalg, "eigvals", one_shifted)
    with pytest.raises(NumericalError, match="eigenpair residual"):
        ts.spectrum(gen)


def test_spectrum_allocates_no_eigenvectors(variant_fields):
    # A complex eigenvector matrix alone is 16 MB at n = 512; the dense
    # similarity transform is 8 MB, and LAPACK overwrites it in place, so
    # no second dense copy is made.
    gen = ts.assemble(*variant_fields, ts.Grid(512))
    tracemalloc.start()
    try:
        ts.spectrum(gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_eigenvalues_follow_upwind_law(gen_gt_128):
    # Mode k sits at the closed-form upwind value, which carries a
    # real-part shift of (1 - cos(2 pi k h)) / h next to the continuum.
    rep = ts.spectrum(gen_gt_128)
    tol = 1e-10 * gen_gt_128.operator_scale()
    exact = goldstein_taylor_upwind_eigenvalues(gen_gt_128.grid.n, range(1, 6))
    for k, pair in enumerate(exact, start=1):
        for mu in pair:
            assert np.abs(rep.eigenvalues - mu).min() <= tol, f"mode k={k}: {mu}"


def test_eigenvalue_error_is_first_order(gt_fields):
    target = -1.0 + 1j * np.sqrt(4.0 * np.pi**2 - 1.0)
    errs = {}
    for n in (64, 128):
        rep = ts.spectrum(ts.assemble(*gt_fields, ts.Grid(n)))
        errs[n] = np.abs(rep.eigenvalues - target).min()
    assert errs[64] / errs[128] == pytest.approx(2.0, rel=0.15)


@pytest.mark.parametrize("fields", ["gt_fields", "variant_fields"])
def test_abscissa_and_psi_converge_at_first_order_in_h(fields, request):
    # The observed order log2(d1 / d2) of three rungs n = 32, 64, 128 is
    # an estimate of the scheme's order, not a proof of it: the upwind
    # damping shifts both the abscissa and psi_hat by O(h).
    rungs = [ts.assemble(*request.getfixturevalue(fields), ts.Grid(n)) for n in (32, 64, 128)]
    abscissa = [ts.spectrum(gen).x0_abscissa for gen in rungs]
    psi = [ts.psi_sweep(gen, coarse_points=16).psi_hat for gen in rungs]
    for name, v in (("x0_abscissa", abscissa), ("psi_hat", psi)):
        order = np.log2((v[0] - v[1]) / (v[1] - v[2]))
        assert 0.8 <= order <= 1.2, (name, v)


def test_similarity_preserves_spectrum(gen_variant_64):
    direct = np.sort_complex(scipy.linalg.eigvals(gen_variant_64.matrix))
    transformed = np.sort_complex(scipy.linalg.eigvals(symmetrized(gen_variant_64)))
    assert np.abs(direct - transformed).max() < 1e-8 * gen_variant_64.operator_scale()


def test_variant_spectrum_in_left_half_plane(gen_variant_128):
    rep = ts.spectrum(gen_variant_128)
    scale = gen_variant_128.operator_scale()
    assert rep.eigenvalues.real.max() <= 1e-8 * scale
    assert (np.abs(rep.eigenvalues) <= 1e-8 * scale).sum() == 1


def test_dense_cap_enforced(gen_gt_64, monkeypatch):
    monkeypatch.setattr(twospeed.spectral, "DENSE_CAP", 16)
    with pytest.raises(NumericalError, match="dense solver cap 16"):
        ts.spectrum(gen_gt_64)
    # The psi sweep forms no dense matrix at any n, so the cap does not
    # stop it.
    assert ts.psi_sweep(gen_gt_64, coarse_points=16).psi_hat > 0.0
    est = ts.PsiEstimate(np.zeros(16), np.ones(16), np.ones(16), 1.0, 0.0, 20.0, 20.0, 1)
    with pytest.raises(NumericalError, match="dense solver cap 16"):
        ts.semigroup_bound_check(gen_gt_64, est, [0.0, 1.0])


def test_sigma_min_bounded_by_eigenvalues(gen_gt_64):
    # Applying (A - i lambda) to a unit eigenvector bounds the smallest
    # singular value by |Re mu| at lambda = Im mu.
    s0 = mean_zero_operator(gen_gt_64)
    vals = scipy.linalg.eigvals(s0)
    eye = np.eye(s0.shape[0])
    for mu in vals[np.argsort(np.abs(vals))[:6]]:
        smin = scipy.linalg.svdvals(s0 - 1j * mu.imag * eye)[-1]
        assert smin <= abs(mu.real) + 1e-8


def test_psi_sweep_goldstein_taylor(gen_gt_128):
    est = ts.psi_sweep(gen_gt_128, coarse_points=128, refine_depth=30)
    rep = ts.spectrum(gen_gt_128)
    assert 0.0 < est.psi_hat <= abs(rep.x0_abscissa) + 1e-9
    assert est.psi_hat == pytest.approx(1.0, abs=0.25)  # gap 1 + O(h)
    assert est.sigma_min_values.min() > 0.0


def test_psi_sweep_mirror_symmetry(gen_gt_64):
    s0 = mean_zero_operator(gen_gt_64)
    eye = np.eye(s0.shape[0])
    for lam in (0.7, 3.3, 12.0):
        plus = scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1]
        minus = scipy.linalg.svdvals(s0 + 1j * lam * eye)[-1]
        assert plus == pytest.approx(minus, abs=1e-11)


@pytest.mark.parametrize("n", [16, 64, 96])
def test_psi_certificate_ignores_sweep_range(variant_fields, n):
    # The range only places the first samples, so a sweep that stops
    # short of the minimum, or reaches six times as far as ||S0||_2,
    # certifies the same gap up to RANK_TOL.
    gen = ts.assemble(*variant_fields, ts.Grid(n))
    full = ts.psi_sweep(gen)
    wide = ts.psi_sweep(gen, lambda_max=transport_lambda_max(gen))
    assert full.lambda_max == default_lambda_max(gen) < wide.lambda_max
    assert wide.psi_hat == pytest.approx(full.psi_hat, rel=RANK_TOL)
    short = ts.psi_sweep(gen, lambda_max=1.0, coarse_points=16)
    assert short.psi_hat == pytest.approx(full.psi_hat, rel=RANK_TOL)
    assert short.psi_hat <= abs(ts.spectrum(gen).x0_abscissa)


def test_psi_iteration_cap_raises(gen_variant_64):
    # Sixteen first samples do not certify on their own, so a cap of one
    # round raises; the default cap of 40 rounds is enough.
    with pytest.raises(NumericalError, match="in 1 rounds"):
        ts.psi_sweep(gen_variant_64, coarse_points=16, refine_depth=1)
    assert ts.psi_sweep(gen_variant_64, coarse_points=16).refinement_depth > 1


def test_non_concave_sigma_min_raises_numerical_error(variant_fields, monkeypatch):
    # |lambda - 2.3| + 0.5 makes phi = f^2 - lambda^2 convex at 2.3: the
    # chord over the samples 2.0 and 2.5 bounds f by 0.69 at 2.4, where f
    # is 0.6, so the sample splitting that interval lies below its bound.
    def fake(lams):
        return np.abs(np.asarray(lams) - 2.3) + 0.5

    monkeypatch.setattr(twospeed.spectral, "sparse_sigma_min", lambda gen: fake)
    gen = ts.assemble(*variant_fields, ts.Grid(96))
    with pytest.raises(NumericalError, match="not concave"):
        ts.psi_sweep(gen, lambda_max=7.5, coarse_points=16)
    assert_no_child_processes()


def test_psi_margin_below_the_rounding_allowance_raises(gen_variant_64, monkeypatch):
    # With no margin the level is the smallest sample itself, and the
    # chord bound beside it lies below the level by the allowance at that
    # sample: no split can lift it.
    monkeypatch.setattr(twospeed.spectral, "RANK_TOL", 0.0)
    with pytest.raises(NumericalError, match="allowance exceeds the RANK_TOL margin"):
        ts.psi_sweep(gen_variant_64, coarse_points=16)


def test_psi_certificate_is_tight_lower_bound():
    # Draws from the benchmark's admissible field box at n = 32.
    rng = np.random.default_rng(20220126)
    for draw in range(10):
        u = rng.uniform([0.8, -1.2, 0.2, -0.2, 0.5], [1.2, -0.8, 0.5, 0.2, 1.5])
        gen = ts.assemble(
            ts.FieldSpec.constant(u[0]),
            ts.FieldSpec.trigonometric(u[1], u[2], u[3]),
            ts.FieldSpec.constant(u[4]),
            ts.Grid(32),
        )
        est = ts.psi_sweep(gen, coarse_points=16)
        assert est.psi_hat <= abs(ts.spectrum(gen).x0_abscissa) + 1e-9, f"draw {draw}"

        # Beyond ||S0|| + psi_hat, sigma_min exceeds psi_hat; the finest
        # grid cell around the grid minimum is then polished by Brent.
        s0 = mean_zero_operator(gen)
        eye = np.eye(s0.shape[0])

        def sig_min(lam):
            return scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1]

        lams = np.linspace(0.0, np.linalg.norm(s0, 2) + est.psi_hat, 400)
        values = np.array([sig_min(lam) for lam in lams])
        i = int(np.argmin(values))
        bracket = (lams[max(i - 1, 0)], lams[min(i + 1, len(lams) - 1)])
        polished = scipy.optimize.minimize_scalar(
            sig_min, bounds=bracket, method="bounded", options={"xatol": 1e-10}
        ).fun
        assert est.psi_hat <= min(values.min(), polished), f"draw {draw}"
        assert polished <= est.psi_hat * (1.0 + 1e-6), f"draw {draw}"


def benchmark_box(*sizes):
    """Admissible draws from the benchmark's field box on the grid sizes ``sizes``."""
    return given(
        b1=st.floats(0.8, 1.2),
        a=st.floats(-1.2, -0.8),
        b=st.floats(0.2, 0.5),
        c=st.floats(-0.2, 0.2),
        sigma=st.floats(0.5, 1.5),
        n=st.sampled_from(sizes),
    )


def box_generator(b1, a, b, c, sigma, n):
    return ts.assemble(
        ts.FieldSpec.constant(b1),
        ts.FieldSpec.trigonometric(a, b, c),
        ts.FieldSpec.constant(sigma),
        ts.Grid(n),
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@benchmark_box(16, 32)
def test_sparse_sigma_min_matches_dense_svd(b1, a, b, c, sigma, n):
    # The sparse helper is called directly, on both sizes.
    gen = box_generator(b1, a, b, c, sigma, n)
    # One S for the dense and the sparse stages, entry for entry, and one
    # z0: a unit right and left null vector of it.
    s = sparse_symmetrized(gen)
    assert np.array_equal(symmetrized(gen), s.toarray())
    z0 = mean_zero_direction(gen)
    tol = 1e-13 * gen.operator_scale()
    assert abs(np.linalg.norm(z0) - 1.0) <= 1e-13
    assert np.abs(s @ z0).max() <= tol
    assert np.abs(z0 @ s).max() <= tol
    s0 = mean_zero_operator(gen)
    eye = np.eye(s0.shape[0])
    mu = scipy.linalg.eigvals(s0)
    # 1e-15: next to lambda = 0, where S - i lambda alone is nearly singular.
    lams = [0.0, 1e-15, *mu[np.argsort(mu.real)[-8:]].imag, transport_lambda_max(gen)]
    values = sparse_sigma_min(gen)(lams)
    for lam, value in zip(lams, values):
        dense = scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1]
        assert value == pytest.approx(dense, rel=1e-12), f"lambda = {lam}"
    # The kernel verdict: A itself compressed to the complement of the constants.
    u = np.full(gen.size, 1.0 / np.sqrt(gen.size))
    q = scipy.linalg.null_space(u[None, :])
    dense = scipy.linalg.svdvals(q.T @ gen.matrix @ q)[-1]
    assert bordered_sigma_min(folded(gen.operator, n), u)([0.0])[1][0] == pytest.approx(dense, rel=1e-8)

    # The semigroup check's S_c = S + c z0 z0^T has the spectrum of S0
    # and c; the sweep's samples stop at L = beta + sigma_min(0) <= 2 beta
    # and match the oracle's sigma_min.
    s_c, shift = restricted_operator(gen)
    beta = default_lambda_max(gen)
    assert shift == -3.0 * beta
    assert_same_points(scipy.linalg.eigvals(s_c), np.append(mu, shift), 1e-10 * gen.operator_scale())
    est = ts.psi_sweep(gen, lambda_max=transport_lambda_max(gen), coarse_points=16)
    assert beta < est.lambda_grid[-1] <= 2.0 * beta
    for lam, value in zip(est.lambda_grid, est.sigma_min_values):
        dense = scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1]
        assert value == pytest.approx(dense, rel=1e-12), f"lambda = {lam}"


@settings(max_examples=25, deadline=None, derandomize=True)
@benchmark_box(16, 32)
def test_chord_certificate_matches_the_hamiltonian_oracle(b1, a, b, c, sigma, n):
    # H(psi_hat) has no imaginary-axis eigenvalue, so psi_hat lies below
    # sigma_min on all of R; H(psi_hat (1 + 2 RANK_TOL)) has one, so
    # psi_hat lies within 2 RANK_TOL of the infimum.
    gen = box_generator(b1, a, b, c, sigma, n)
    s0 = mean_zero_operator(gen)
    est = ts.psi_sweep(gen, coarse_points=16)
    assert len(hamiltonian_crossings(s0, est.psi_hat, gen.operator_scale())) == 0
    assert len(hamiltonian_crossings(s0, est.psi_hat * (1.0 + 2.0 * RANK_TOL), gen.operator_scale())) > 0


def assert_certified_below_the_dense_minimum(gen):
    # Slow reactions drive psi toward the rounding allowance: the sweep
    # must then either certify a level that the dense sigma_min nowhere
    # undercuts, or refuse with a typed error.
    try:
        est = ts.psi_sweep(gen, coarse_points=16)
    except NumericalError:
        return
    s0 = mean_zero_operator(gen)
    eye = np.eye(s0.shape[0])
    assert est.psi_hat > 0.0
    for lam in (est.argmin_lambda, *est.lambda_grid):
        assert est.psi_hat <= scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1], f"lambda = {lam}"


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    b1=st.floats(0.8, 1.2),
    a=st.floats(-1.2, -0.8),
    b=st.floats(0.2, 0.5),
    c=st.floats(-0.2, 0.2),
    u=st.floats(-4.0, 0.0),
    n=st.sampled_from([32, 64]),
)
@example(b1=1.0, a=-1.0, b=0.4, c=0.0, u=-4.0, n=64)
def test_slow_reactions_certify_below_the_dense_minimum_or_raise(b1, a, b, c, u, n):
    assert_certified_below_the_dense_minimum(box_generator(b1, a, b, c, 10.0**u, n))


@pytest.mark.parametrize("sigma", [3e-4, 1e-4])
def test_slow_reactions_at_n_128_certify_below_the_dense_minimum_or_raise(variant_fields, sigma):
    # At n = 128 the sweep certifies sigma = 3e-4 (psi_hat 6e-4) and
    # refuses sigma = 1e-4, where the absolute LU allowance outgrows the
    # relative RANK_TOL margin.
    b1, b2, _ = variant_fields
    assert_certified_below_the_dense_minimum(ts.assemble(b1, b2, ts.FieldSpec.constant(sigma), ts.Grid(128)))


@settings(max_examples=30, deadline=None, derandomize=True)
@benchmark_box(8, 16, 32)
def test_box_draws_keep_the_triangle_and_monotone_entropy(b1, a, b, c, sigma, n):
    # The rigorous half of the report's consistency triangle: psi_hat
    # bounds the resolvent gap below, which is at most the decay rate of
    # the slowest mode.  And the implicit trapezoid, a contraction in the
    # weighted norm, never lets the relative entropy rise.
    gen = box_generator(b1, a, b, c, sigma, n)
    est = ts.psi_sweep(gen, coarse_points=16)
    assert est.psi_hat <= abs(ts.spectrum(gen).x0_abscissa) + ABSCISSA_TRIANGLE_TOL
    series = ts.evolve(gen, ts.steady_plus_mode(gen, 1, 0.01), T=1.0, dt=1e-2)
    assert np.diff(series.entropy).max() <= 0.0


def assert_same_points(x, y, tol):
    distance = np.abs(x[:, None] - y[None, :])
    assert len(x) == len(y)
    assert distance.min(axis=0).max() <= tol and distance.min(axis=1).max() <= tol


@pytest.mark.parametrize(
    "b1, trig, sigma",
    [
        (
            1.122001169498152,
            (-0.8768236841054025, 0.3545976683126426, -0.08567944796474336),
            0.5539307023816564,
        ),
        (
            1.0047286498801027,
            (-0.819814521469626, 0.24324788381589013, 0.17945977885489756),
            0.8118314520104855,
        ),
    ],
    ids=["draw0", "draw1"],
)
def test_sparse_sigma_min_is_independent_of_earlier_points(b1, trig, sigma):
    # A Lanczos run started from the previous point's vector can settle on
    # an eigenvalue other than the top one and overestimate sigma_min by
    # 1e-2 relative, which would let psi_hat exceed the true resolvent gap.
    # Every run of a batch starts afresh; these draws at n = 96 once
    # showed the fault.
    gen = ts.assemble(
        ts.FieldSpec.constant(b1),
        ts.FieldSpec.trigonometric(*trig),
        ts.FieldSpec.constant(sigma),
        ts.Grid(96),
    )
    s0 = mean_zero_operator(gen)
    eye = np.eye(s0.shape[0])
    lams = np.linspace(0.0, transport_lambda_max(gen), 128)[1:]
    sig_min = sparse_sigma_min(gen)
    values = np.concatenate([sig_min(lams[i : i + 16]) for i in range(0, len(lams), 16)])
    for lam, value in zip(lams, values):
        dense = scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1]
        assert value == pytest.approx(dense, rel=1e-12), f"lambda = {lam}"


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    b1=st.floats(0.8, 1.2),
    a=st.floats(-1.2, -0.8),
    b=st.floats(0.2, 0.5),
    c=st.floats(-0.2, 0.2),
    sigma=st.floats(0.5, 1.5),
    n=st.sampled_from([96, 128]),
    fractions=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=5, unique=True),
)
def test_sparse_sigma_min_is_bit_identical_in_any_batch(b1, a, b, c, sigma, n, fractions):
    # Each lambda's block of the block-diagonal LU and its Lanczos run use
    # no other block's data, so its value is the same bit for bit alone,
    # inside a larger batch and with the batch reversed.
    gen = box_generator(b1, a, b, c, sigma, n)
    beta = default_lambda_max(gen)
    lams = beta * np.array(fractions)
    sig_min = sparse_sigma_min(gen)
    alone = np.concatenate([sig_min([lam]) for lam in lams])
    assert np.array_equal(sig_min(lams[::-1]), alone[::-1])
    outer = beta * np.array([0.05, 0.7, 1.3, 1.95])
    wider = sig_min(np.concatenate([outer[:2], lams, outer[2:]]))
    assert np.array_equal(wider[2:-2], alone)


def test_sparse_route_runs_without_arpack(variant_fields, monkeypatch):
    # The kernel verdict and every sparse sigma_min run their own Lanczos
    # recurrence, not scipy's eigsh.
    def no_arpack(*args, **kwargs):
        raise AssertionError("eigsh was called")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_arpack)
    gen = ts.assemble(*variant_fields, ts.Grid(96))
    assert ts.psi_sweep(gen, coarse_points=16).psi_hat > 0.0


def test_sparse_sigma_min_raises_at_the_step_cap(gen_variant_64, monkeypatch):
    # A tolerance of 0 is never met, so the run must stop at its cap of
    # 10 m steps (m = 128 here) with a typed error.
    monkeypatch.setattr(twospeed.generator, "LANCZOS_TOL", 0.0)
    with pytest.raises(NumericalError, match="no convergence in 1280 steps"):
        sparse_sigma_min(gen_variant_64)([1.0])


@settings(max_examples=25, deadline=None, derandomize=True)
@benchmark_box(16, 32)
def test_default_lambda_max_bounds_the_operator_norm(b1, a, b, c, sigma, n):
    gen = box_generator(b1, a, b, c, sigma, n)
    bound = default_lambda_max(gen)
    assert bound >= np.linalg.norm(mean_zero_operator(gen), 2)
    assert bound >= np.linalg.norm(symmetrized(gen), 2)


@pytest.mark.parametrize("n", [16, 96])
def test_far_sweep_range_keeps_the_certificate(variant_fields, n):
    # Samples stop at L = beta + sigma_min(0) whatever the range, so the
    # solves err by about eps ||S0||, not eps lambda_max: psi_hat stays
    # within RANK_TOL of where the default range puts it and below the
    # oracle's sigma_min at argmin_lambda.
    gen = ts.assemble(*variant_fields, ts.Grid(n))
    auto = ts.psi_sweep(gen, coarse_points=16)
    s0 = mean_zero_operator(gen)
    eye = np.eye(s0.shape[0])
    # At 1e200 and 1e300 B^{-H} B^{-1}, of size
    # 1 / lambda^2, underflows unless the Lanczos run scales its vectors.
    for lambda_max in (1e10, 1e16, 1e200, 1e300):
        est = ts.psi_sweep(gen, lambda_max=lambda_max, coarse_points=16)
        assert est.psi_hat == pytest.approx(auto.psi_hat, rel=RANK_TOL, abs=0.0), lambda_max
        assert est.psi_hat <= scipy.linalg.svdvals(s0 - 1j * est.argmin_lambda * eye)[-1], lambda_max


def test_broken_norm_bound_raises_numerical_error(gen_gt_64, monkeypatch):
    # The automatic range is not a config key, so its failure must not
    # read as a rejected lambda_max.
    monkeypatch.setattr(twospeed.spectral.scipy.sparse.linalg, "norm", lambda *args: np.nan)
    with pytest.raises(NumericalError, match="not positive and finite"):
        default_lambda_max(gen_gt_64)
    with pytest.raises(NumericalError, match="not positive and finite"):
        ts.psi_sweep(gen_gt_64)


def test_sparse_psi_sweep_matches_dense_svd(gen_variant_128):
    est = ts.psi_sweep(gen_variant_128, coarse_points=128, refine_depth=30)
    s0 = mean_zero_operator(gen_variant_128)
    eye = np.eye(s0.shape[0])
    for i in np.linspace(0, len(est.lambda_grid) - 1, 8).astype(int):
        dense = scipy.linalg.svdvals(s0 - 1j * est.lambda_grid[i] * eye)[-1]
        assert est.sigma_min_values[i] == pytest.approx(dense, rel=1e-12), f"point {i}"
    assert est.psi_hat <= abs(ts.spectrum(gen_variant_128).x0_abscissa)


@pytest.mark.parametrize("n", [16, 96, 128])
def test_psi_sweep_split_is_bit_identical(variant_fields, monkeypatch, n):
    # Every point is computed from the same inputs in its own block of a
    # batch's LU, in a forked worker or not: the real CPU count, one CPU
    # (in-process) and three workers give the values of an in-process
    # run in batches of 5 bit for bit.  The coarse grid gives each of
    # three workers a full batch, 93 points at n = 16.
    gen = ts.assemble(*variant_fields, ts.Grid(n))
    coarse_points = max(128, 3 * (SIGMA_MIN_BATCH_UNKNOWNS // (gen.size + 1)) + 1)
    real = ts.psi_sweep(gen, coarse_points=coarse_points)
    sig_min = sparse_sigma_min(gen)
    lams = real.lambda_grid
    serial = np.concatenate([sig_min([0.0]), *(sig_min(lams[i : i + 5]) for i in range(1, len(lams), 5))])
    assert np.array_equal(real.sigma_min_values, serial)
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        est = ts.psi_sweep(gen, coarse_points=coarse_points)
        assert np.array_equal(est.sigma_min_values, serial), cpus
        assert (est.psi_hat, est.argmin_lambda) == (real.psi_hat, real.argmin_lambda), cpus
    assert_no_child_processes()


def raise_numerical_error():
    raise NumericalError("injected in a worker")


@pytest.mark.parametrize(
    "fault, match",
    [
        (raise_numerical_error, "injected in a worker"),
        (lambda: os._exit(1), "exited with status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"exited with status -{int(signal.SIGKILL)}"),
    ],
    ids=["numerical-error", "exit", "killed"],
)
def test_psi_sweep_worker_failure_raises_numerical_error(variant_fields, monkeypatch, fault, match):
    # Every batch of sigma_min points in a forked worker calls fault();
    # the caller's own share runs as usual.
    gen = ts.assemble(*variant_fields, ts.Grid(96))
    parent = os.getpid()

    def patched(operator, u):
        at = bordered_sigma_min(operator, u)

        def faulty(lams, floor=0.0):
            if os.getpid() != parent:
                fault()
            return at(lams, floor)

        return faulty

    monkeypatch.setattr(twospeed.spectral, "bordered_sigma_min", patched)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # 64 first samples give each of the two workers a full batch.
    with pytest.raises(NumericalError, match=match):
        ts.psi_sweep(gen, coarse_points=64)
    assert_no_child_processes()


def test_psi_sweep_failure_in_the_caller_reaps_its_workers(variant_fields):
    # The caller's own share fails while its workers still run: they are
    # killed, not waited for, and reaped before the error reaches the caller.
    gen = ts.assemble(*variant_fields, ts.Grid(96))
    parent = os.getpid()
    sig_min = sparse_sigma_min(gen)

    def stall_or_fail(lams):
        if os.getpid() != parent:
            time.sleep(60.0)
        raise NumericalError("injected in the caller")

    start = time.monotonic()
    with pytest.raises(NumericalError, match="injected in the caller"):
        twospeed.spectral._sigma_min_batch(stall_or_fail, np.linspace(0.0, 1.0, 6), 3, 2)
    assert time.monotonic() - start < 30.0
    assert_no_child_processes()
    lams = np.array([0.5, 1.5])
    values = twospeed.spectral._sigma_min_batch(sig_min, lams, 3, 1)
    assert np.array_equal(values, np.concatenate([sig_min([0.5]), sig_min([1.5])]))
    assert_no_child_processes()


def test_sigma_min_batch_forks_only_for_a_full_batch_per_worker():
    # A worker is forked only when each gets at least one full batch; a
    # smaller call runs in the caller, in batches of at most the size.
    parent = os.getpid()
    calls = []

    def where(lams):
        calls.append(len(lams))
        return np.full(len(lams), float(os.getpid() == parent))

    batch = twospeed.spectral._sigma_min_batch
    assert np.array_equal(batch(where, np.arange(5.0), 2, 3), np.ones(5))
    assert calls == [3, 2]
    assert np.array_equal(batch(where, np.arange(6.0), 2, 3), [1.0, 0.0] * 3)
    assert_no_child_processes()


def test_psi_sweep_workers_leave_the_parent_buffers_alone():
    # A worker leaves by os._exit: the text still buffered in the parent's
    # stdout and its atexit handler each come out once, from the parent.
    source = (
        "import atexit, os, sys\n"
        "import twospeed as ts\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "atexit.register(print, 'atexit')\n"
        "fields = (ts.FieldSpec.constant(1.0), ts.FieldSpec.trigonometric(-1.0, 0.4), ts.FieldSpec.constant(1.0))\n"
        "gen = ts.assemble(*fields, ts.Grid(96))\n"
        "sys.stdout.write('buffered ')\n"
        "ts.psi_sweep(gen, coarse_points=16)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered atexit\n", "")


def test_psi_sweep_validates_arguments(gen_gt_64):
    with pytest.raises(ConfigurationError):
        ts.psi_sweep(gen_gt_64, lambda_max=-1.0)
    # The floor is the two ends of the range. With no point the grid is
    # empty, and L would be paired with the sample f(0) taken at 0.
    for points in (0, 1):
        with pytest.raises(ConfigurationError, match="coarse_points must be at least 2"):
            ts.psi_sweep(gen_gt_64, coarse_points=points)
    with pytest.raises(ConfigurationError):
        ts.psi_sweep(gen_gt_64, refine_depth=0)


@pytest.mark.parametrize("fixture", ["gen_gt_64", "gen_gt_128", "gen_variant_64", "gen_variant_128"])
def test_psi_sweep_from_the_two_ends_certifies_the_512_point_gap(fixture, request):
    # The chords are global from any first grid: the two ends of the
    # range certify the gap of 512 uniform points within RANK_TOL, and
    # the rounds place few samples.
    gen = request.getfixturevalue(fixture)
    ends = ts.psi_sweep(gen)
    dense = ts.psi_sweep(gen, coarse_points=512)
    assert ends.lambda_grid[0] == 0.0 and ends.lambda_grid[-1] == dense.lambda_grid[-1]
    assert ends.psi_hat == pytest.approx(dense.psi_hat, rel=RANK_TOL)
    assert len(ends.lambda_grid) <= 40


@pytest.mark.parametrize("lambda_max", [np.nan, np.inf], ids=["nan", "inf"])
def test_psi_sweep_rejects_non_finite_lambda_max(gen_gt_64, lambda_max):
    with pytest.raises(ConfigurationError):
        ts.psi_sweep(gen_gt_64, lambda_max=lambda_max)


def test_degenerate_gap_closes_under_refinement(gt_fields):
    b1, _, sigma = gt_fields
    psis = {}
    for n in (64, 128):
        gen = ts.assemble(b1, b1, sigma, ts.Grid(n))
        psis[n] = ts.psi_sweep(gen, lambda_max=40.0, coarse_points=64, refine_depth=25).psi_hat
    assert psis[128] < psis[64]
    assert psis[64] / psis[128] == pytest.approx(2.0, rel=0.2)


def test_semigroup_bound_and_contraction(gen_gt_128):
    est = ts.psi_sweep(gen_gt_128, coarse_points=128, refine_depth=30)
    report = ts.semigroup_bound_check(gen_gt_128, est, [0.0, 1.0, 2.0, 4.0])
    assert report.passed
    assert report.norms[0] == pytest.approx(1.0, abs=1e-10)
    assert report.norms[0] <= np.exp(np.pi / 2)
    assert (np.diff(report.norms) <= 1e-12).all()
    assert (report.margins > 0.0).all()


@pytest.mark.parametrize("t_grid, expm_calls", [([0.5, 1.0, 2.0, 4.0], 1), ([0.3, 0.7, 1.1], 3)])
def test_semigroup_norms_match_direct_exponentials(gen_variant_64, monkeypatch, t_grid, expm_calls):
    # Each propagator is the step exponential times the previous one; a
    # step that equals an earlier grid time reuses that time's propagator,
    # so the doubling README grid needs a single exponential.
    s0 = mean_zero_operator(gen_variant_64)
    expm = scipy.linalg.expm
    direct = [scipy.linalg.svdvals(expm(t * s0))[0] for t in t_grid]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return expm(*args, **kwargs)

    monkeypatch.setattr(twospeed.spectral.scipy.linalg, "expm", counted)
    est = ts.PsiEstimate(np.zeros(16), np.ones(16), np.ones(16), 1.0, 0.0, 20.0, 20.0, 1)
    report = ts.semigroup_bound_check(gen_variant_64, est, t_grid)
    assert len(calls) == expm_calls
    np.testing.assert_allclose(report.norms, direct, rtol=1e-12, atol=0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@benchmark_box(16, 32, 48)
def test_dense_semigroup_norms_obey_the_certified_envelope(b1, a, b, c, sigma, n):
    # Wei's theorem with H = -S0: eps bounds the symmetric part of S above,
    # so ||exp(t S0)|| <= exp(-t (psi_hat - 2 eps) + pi/2) at every t. The
    # dense propagator norms are the oracle, at times off any grid.
    gen = box_generator(b1, a, b, c, sigma, n)
    s = symmetrized(gen)
    sym = 0.5 * (s + s.T)
    eps = max(ts.hermitian_abscissa(gen), 0.0)
    # Within LAPACK's own error on its top eigenvalue.
    assert eps >= scipy.linalg.eigvalsh(sym)[-1] - 8 * np.finfo(float).eps * np.abs(sym).sum(axis=1).max()
    rate = ts.psi_sweep(gen, coarse_points=16).psi_hat - 2.0 * eps
    assert rate > 0.0
    times = np.array([0.3, 1.7, 3.7, 8.0])
    # A dummy estimate: only the norms are read here.
    est = ts.PsiEstimate(np.zeros(16), np.ones(16), np.ones(16), 1.0, 0.0, 20.0, 20.0, 1)
    norms = ts.semigroup_bound_check(gen, est, times).norms
    assert (norms <= np.exp(-rate * times + 0.5 * np.pi)).all()


def test_semigroup_t_grid_validation(gen_gt_64):
    est = ts.psi_sweep(gen_gt_64, lambda_max=20.0, coarse_points=16, refine_depth=5)
    with pytest.raises(ConfigurationError):
        ts.semigroup_bound_check(gen_gt_64, est, [2.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_semigroup_rejects_non_finite_times(gen_gt_64, bad):
    est = ts.PsiEstimate(np.zeros(16), np.ones(16), np.ones(16), 1.0, 0.0, 20.0, 20.0, 1)
    with pytest.raises(ConfigurationError):
        ts.semigroup_bound_check(gen_gt_64, est, [0.0, 1.0, bad])


def test_consistency_triangle(gen_variant_128):
    est = ts.psi_sweep(gen_variant_128, coarse_points=128, refine_depth=30)
    rep = ts.spectrum(gen_variant_128)
    series = ts.evolve(
        gen_variant_128,
        ts.steady_plus_mode(gen_variant_128, 1, 0.01),
        T=8.0, dt=1e-3, observe_every=10,
    )
    fit = ts.estimate_decay(series)
    assert fit.alpha_hat >= est.psi_hat - 0.05
    assert abs(rep.x0_abscissa) >= est.psi_hat - 1e-6
    envelope = np.exp(np.pi / 2 - est.psi_hat * series.times) * series.deviation[0]
    assert (series.deviation <= envelope).all()
