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
    DefectiveGeneratorError,
    InvalidCrossSectionError,
    PositivityError,
    ShapeError,
)
from twospeed.generator import bordered_sigma_min, fold_order, folded, rayleigh_real_part, symmetrized


def test_goldstein_taylor_column_sums_vanish_exactly(gen_gt_64):
    assert np.abs(gen_gt_64.matrix.sum(axis=0)).max() == 0.0


def test_variant_column_sums_vanish(gen_variant_128):
    scale = gen_variant_128.operator_scale()
    assert np.abs(gen_variant_128.matrix.sum(axis=0)).max() <= 1e-13 * scale


def _dense_reference(gen):
    """The operator filled entry by entry into a dense array."""
    n, h = gen.grid.n, gen.grid.h
    matrix = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    for off, faces in ((0, gen.face_b1), (n, gen.face_b2)):
        bp, bm = np.maximum(faces, 0.0), np.minimum(faces, 0.0)
        block = matrix[off : off + n, off : off + n]
        block[idx, idx] = (bm[:n] - bp[1:]) / h
        block[idx[1:], idx[:-1]] = bp[1:n] / h
        block[0, n - 1] = bp[n] / h
        block[idx[:-1], idx[1:]] = -bm[1:n] / h
        block[n - 1, 0] = -bm[0] / h
    sg = gen.sigma_cells
    matrix[idx, idx] -= sg
    matrix[n + idx, idx] += sg
    matrix[n + idx, n + idx] -= sg
    matrix[idx, n + idx] += sg
    return matrix


@pytest.mark.parametrize("name", ["gen_gt_64", "gen_variant_128"])
def test_sparse_operator_matches_dense_matrix(request, name):
    gen = request.getfixturevalue(name)
    assert gen.operator.format == "csc"
    assert np.diff(gen.operator.indptr).max() <= 4
    assert gen.operator.toarray().tobytes() == gen.matrix.tobytes()
    assert np.array_equal(gen.matrix, _dense_reference(gen))
    assert gen.operator_scale() == pytest.approx(np.abs(gen.matrix).sum(axis=1).max(), rel=1e-15)


def test_goldstein_taylor_steady_is_constant(gen_gt_64):
    assert np.abs(gen_gt_64.steady - 0.5).max() < 1e-12


def test_discrete_steady_cross_validates_against_ode(variant_fields):
    errors = {}
    for n in (64, 128):
        gen = ts.assemble(*variant_fields, ts.Grid(n))
        ss = ts.solve_steady(*variant_fields, 2 * n)
        cells = np.concatenate([ss.p1[1::2], ss.p2[1::2]])  # odd nodes are cell centers
        errors[n] = np.abs(gen.steady - cells).max() / cells.max()
    assert errors[128] < errors[64]
    assert errors[64] / errors[128] == pytest.approx(2.0, rel=0.3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    b1=st.floats(0.8, 1.2),
    b2=st.tuples(st.floats(-1.2, -0.8), st.floats(0.2, 0.5), st.floats(-0.2, 0.2)),
    log_sigma=st.floats(np.log(0.5), np.log(10.0)),
)
def test_discrete_steady_converges_to_the_ode_oracle(b1, b2, log_sigma):
    # Over admissible fields: the null vector of the upwind generator is
    # within C h of the closed-form steady state at the cell centers, and
    # the error falls at first order. err * n measured at most 4.9 over
    # 60 draws; sigma above 10 is pre-asymptotic on these grids.
    fields = (ts.FieldSpec.constant(b1), ts.FieldSpec.trigonometric(*b2), ts.FieldSpec.constant(np.exp(log_sigma)))
    errors = []
    for n in (32, 64, 128):
        ss = ts.solve_steady(*fields, 2 * n)
        cells = np.concatenate([ss.p1[1::2], ss.p2[1::2]])  # odd nodes are cell centers
        errors.append(np.abs(ts.assemble(*fields, ts.Grid(n)).steady - cells).max() / cells.max())
        assert errors[-1] <= 8.0 / n
    assert errors[0] / errors[1] >= 1.6 and errors[1] / errors[2] >= 1.6, errors


def test_apply_annihilates_steady(gen_variant_128):
    out = gen_variant_128.operator @ gen_variant_128.steady_state_vector().stacked
    bound = 1e-8 * gen_variant_128.operator_scale()
    assert np.abs(out).max() <= bound


def test_apply_stencil_locality(gen_gt_64):
    n = gen_gt_64.grid.n
    j = 17
    p1 = np.zeros(n)
    p1[j] = 1.0
    out = gen_gt_64.operator @ gen_gt_64.state(p1, np.zeros(n)).stacked
    hit1 = set(np.nonzero(np.abs(out[:n]) > 0)[0])
    hit2 = set(np.nonzero(np.abs(out[n:]) > 0)[0])
    assert hit1 == {j, j + 1}  # the cell and its downstream neighbour (b1 > 0)
    assert hit2 == {j}  # the reaction partner


def test_apply_conserves_mass(gen_variant_128):
    rng = np.random.default_rng(2)
    n = gen_variant_128.grid.n
    p = gen_variant_128.state(rng.standard_normal(n), rng.standard_normal(n))
    out = gen_variant_128.operator @ p.stacked
    total = out.sum() * gen_variant_128.grid.h
    assert abs(total) < 1e-12 * gen_variant_128.operator_scale()


def test_apply_shape_error(gen_gt_64):
    with pytest.raises(ShapeError):
        gen_gt_64.state(np.ones(9), np.ones(9))


def test_dissipativity_random_states(gen_gt_64):
    assert ts.dissipativity_check(gen_gt_64, 100, 42) <= 1e-10


def test_dissipativity_steady_rayleigh_is_zero(gen_gt_64):
    val = rayleigh_real_part(gen_gt_64, gen_gt_64.steady.astype(complex))
    assert abs(val) < 1e-10


def test_equal_ratio_states_have_no_reaction_dissipation(gen_variant_64):
    # States proportional to the steady profile componentwise with a
    # common ratio lose nothing to the reaction; only the upwind part
    # dissipates, so the quadratic form stays non-positive.
    rng = np.random.default_rng(9)
    x = gen_variant_64.grid.centers()
    ratio = 1.0 + 0.3 * np.cos(2 * np.pi * x) + 0.1 * rng.standard_normal(len(x))
    stacked = np.concatenate([ratio * gen_variant_64.steady1, ratio * gen_variant_64.steady2])
    val = rayleigh_real_part(gen_variant_64, stacked.astype(complex))
    assert val <= 1e-10
    # and the same state built from a smooth ratio dissipates strictly
    smooth = np.concatenate(
        [(1 + np.sin(2 * np.pi * x)) * gen_variant_64.steady1,
         (1 + np.sin(2 * np.pi * x)) * gen_variant_64.steady2]
    )
    assert rayleigh_real_part(gen_variant_64, smooth.astype(complex)) < 0.0


def test_hermitian_abscissa_nonpositive(gen_variant_128):
    assert ts.hermitian_abscissa(gen_variant_128) <= 1e-10


# Speeds a + b sin(2 pi x) + c cos(2 pi x), b >= 0.2 so that neither
# vanishes identically: of one sign for a^2 > b^2 + c^2, else changing sign.
speed = st.tuples(st.floats(-1.5, 1.5), st.floats(0.2, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(b1=speed, b2=speed, sigma=st.floats(0.1, 2.0), n=st.integers(8, 67))
def test_hermitian_abscissa_bounds_the_dense_top(b1, b2, sigma, n):
    try:
        gen = ts.assemble(
            ts.FieldSpec.trigonometric(*b1),
            ts.FieldSpec.trigonometric(*b2),
            ts.FieldSpec.constant(sigma),
            ts.Grid(n),
        )
    except (PositivityError, DefectiveGeneratorError):
        # Sign-changing speeds that trap mass where they vanish admit no
        # simple positive steady state, so there is no generator to test.
        assume(False)
    order = fold_order(n)
    assert np.array_equal(np.sort(order), np.arange(gen.size))
    banded = folded(gen.operator, n)
    assert np.array_equal(banded.toarray(), gen.operator[order][:, order].toarray())
    assert np.abs(banded.tocoo().row - banded.tocoo().col).max() <= 4
    s = symmetrized(gen)
    sym = 0.5 * (s + s.T)
    bound, eps_mach = ts.hermitian_abscissa(gen), np.finfo(float).eps
    # LAPACK's top eigenvalue is itself off by a few eps ||B||: 3.0 at
    # most over 10^4 random draws, where 40-digit arithmetic put the
    # worst draw's top at 4.3e-17, LAPACK's at 3.9e-14 and the bound at
    # 2.0e-15.
    assert bound >= scipy.linalg.eigvalsh(sym)[-1] - 8 * eps_mach * np.abs(sym).sum(axis=1).max()
    # The slack is the rounding of the stored steady state relative to
    # its smallest entry (at most 2.4 in these units over the same draws).
    assert bound <= 8 * eps_mach * gen.operator_scale() * gen.steady.max() / gen.steady.min()


@pytest.mark.parametrize("broken", ["weights", "column-sums"])
def test_hermitian_abscissa_shows_a_broken_structure(variant_fields, broken):
    # Weights that are not the null vector, or rows scaled so that the
    # columns no longer sum to zero, break the dissipativity of the
    # weighted form: the symmetric part's top eigenvalue turns positive
    # (0.051 and 0.117), and the certificate must not fall below it.
    gen = ts.assemble(*variant_fields, ts.Grid(32))
    wobble = 1.0 + 0.1 * np.cos(2 * np.pi * np.arange(gen.size) / gen.size)
    if broken == "weights":
        gen = dataclasses.replace(gen, steady=gen.steady * wobble)
    else:
        gen = dataclasses.replace(gen, operator=scipy.sparse.csc_array(scipy.sparse.diags_array(wobble) @ gen.operator))
    s = symmetrized(gen)
    top = scipy.linalg.eigvalsh(0.5 * (s + s.T))[-1]
    assert top > 0.05
    assert ts.hermitian_abscissa(gen) >= top


def one_signed(low, high):
    """``a + r sin(2 pi x + phase)``, ``a`` in ``[low, high]``, ``r <= 0.8 |a|``: of one sign."""

    def field(a, ratio, phase):
        r = ratio * abs(a)
        return ts.FieldSpec.trigonometric(a, r * np.cos(phase), r * np.sin(phase))

    return st.builds(field, st.floats(low, high), st.floats(0.0, 0.8), st.floats(0.0, 2.0 * np.pi))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    b1=one_signed(0.3, 2.0),
    b2=st.one_of(one_signed(-2.0, -0.3), one_signed(0.3, 2.0)),
    sigma=one_signed(0.1, 2.0),
    n=st.integers(8, 64),
)
def test_admissible_fields_give_a_conservative_generator(b1, b2, sigma, n):
    # Over random admissible fields: zero column sums, a positive steady
    # state and a mass-conserving implicit-trapezoid run.
    assume(ts.validate_transport_fields(b1, b2).passed)
    assume(ts.validate_cross_section_overlap(b1, b2, sigma).passed)
    gen = ts.assemble(b1, b2, sigma, ts.Grid(n))
    assert np.abs(gen.operator.sum(axis=0)).max() <= 1e-12 * gen.operator_scale()
    assert gen.steady.min() > 0.0
    series = ts.evolve(gen, ts.steady_plus_mode(gen, 1, 0.01), T=0.05, dt=0.01)
    assert np.abs(series.mass - series.mass[0]).max() <= 1e-12


def test_hermitian_abscissa_allocates_no_dense_matrix(variant_fields):
    # A dense symmetric part is 8 MB at n = 512; the bound reads a few
    # vectors of length 1024.
    gen = ts.assemble(*variant_fields, ts.Grid(512))
    tracemalloc.start()
    try:
        ts.hermitian_abscissa(gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_left_mass_functional_annihilates(gen_variant_128):
    ones = np.ones(gen_variant_128.size)
    assert np.abs(ones @ gen_variant_128.matrix).max() <= 1e-13 * gen_variant_128.operator_scale()


def test_zero_fields_raise_a_defective_generator():
    # A = 0: the bordered matrix is exactly singular and the kernel
    # threshold is 0, so only the singular factor shows the defect.
    zero = ts.FieldSpec.constant(0.0)
    with pytest.raises(DefectiveGeneratorError, match="exactly singular"):
        ts.assemble(zero, zero, zero, ts.Grid(8))


def test_negative_cross_section_raises(gt_fields):
    b1, b2, _ = gt_fields
    with pytest.raises(InvalidCrossSectionError):
        ts.assemble(b1, b2, ts.FieldSpec.constant(-1.0), ts.Grid(16))


def test_negative_cross_section_between_cell_centres_raises(gt_fields):
    # sigma dips to -0.5 on (0.49, 0.51), between the cell centres
    # 0.46875 and 0.53125 at n = 16, where it reads 1.
    b1, b2, _ = gt_fields
    sigma = ts.FieldSpec.tabulated([0.0, 0.49, 0.5, 0.51, 1.0], [1.0, 1.0, -0.5, 1.0, 1.0])
    assert np.array_equal(sigma(ts.Grid(16).centers()), np.ones(16))
    with pytest.raises(InvalidCrossSectionError, match="negative: min sigma = -5.000e-01"):
        ts.assemble(b1, b2, sigma, ts.Grid(16))


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize(
    "sigma, defective", [(0.0, True), (1e-9, True), (1e-6, False), (1e-3, False)]
)
@pytest.mark.parametrize(
    "b2",
    [ts.FieldSpec.constant(-1.0), ts.FieldSpec.trigonometric(-1.0, 0.4), ts.FieldSpec.constant(2.0)],
    ids=["gt", "variant", "same-sign"],
)
def test_zero_cross_section_is_defective(b2, sigma, defective, n):
    # Without reaction each component keeps its own mass, so the kernel
    # is two-dimensional; a weak but resolved cross-section makes it
    # simple again, and the verdict must not depend on the grid.
    b1 = ts.FieldSpec.constant(1.0)
    if defective:
        with pytest.raises(DefectiveGeneratorError):
            ts.assemble(b1, b2, ts.FieldSpec.constant(sigma), ts.Grid(n))
    else:
        gen = ts.assemble(b1, b2, ts.FieldSpec.constant(sigma), ts.Grid(n))
        assert gen.steady.min() > 0.0
        assert gen.grid.h * gen.steady.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("c", [0.0, -1e-12, -8.85e-148, -1e-300])
def test_tiny_speeds_are_defective(c, capfd):
    # b1 = 0 and b2 = c cos(2 pi x) leave a kernel that is many-dimensional
    # to working precision; a Lanczos run on it overflowed, and LAPACK
    # printed to stderr, for c = -8.85e-148 and -1e-300.
    b2 = ts.FieldSpec.trigonometric(0.0, 0.0, c)
    with pytest.raises(DefectiveGeneratorError):
        ts.assemble(ts.FieldSpec.constant(0.0), b2, ts.FieldSpec.constant(1.0), ts.Grid(8))
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
@pytest.mark.parametrize("sigma", [1e-3, 1.0])
def test_kernel_sigma_min_is_twice_the_cross_section(gt_fields, sigma, n):
    # On the GT fields the component imbalance (1, -1) decays at exactly
    # 2 sigma, and no other mode orthogonal to the constants is closer to
    # the kernel, on every grid.
    b1, b2, _ = gt_fields
    gen = ts.assemble(b1, b2, ts.FieldSpec.constant(sigma), ts.Grid(n))
    lu, (s,) = bordered_sigma_min(folded(gen.operator, n), np.full(gen.size, 1.0 / np.sqrt(gen.size)))([0.0])
    assert lu is not None
    assert s == pytest.approx(2.0 * sigma, rel=1e-6)


def test_bordered_sigma_min_shifts_an_unstored_diagonal():
    # The centred cyclic difference stores no diagonal entry; every lambda,
    # alone or in a batch, must still shift all of it. Odd m keeps the
    # kernel simple.
    m = 7
    shift = scipy.sparse.csc_array(np.roll(np.eye(m), 1, axis=0))
    operator = (shift - shift.T).tocsc()
    assert not operator.diagonal().any() and operator.nnz == 2 * m
    u = np.full(m, 1.0 / np.sqrt(m))
    q = scipy.linalg.null_space(u[None, :])
    at = bordered_sigma_min(operator, u)
    lams = (0.0, 0.3, 2.0)
    batch = at(lams[1:])[1]
    for lam, batched in zip(lams, (None, *batch)):
        dense = scipy.linalg.svdvals(q.T @ (operator.toarray() - 1j * lam * np.eye(m)) @ q)[-1]
        assert at([lam])[1][0] == pytest.approx(dense, rel=1e-12), lam
        assert batched is None or batched == at([lam])[1][0], lam


@pytest.mark.parametrize("scale", [1e-200, 1e100, 1e300])
def test_kernel_sigma_min_scales_with_the_operator(gen_gt_64, scale):
    # Unscaled, B^{-H} B^{-1} of a huge operator underflows and that of a
    # tiny one overflows; with the run's vectors scaled to size about 1
    # by a power of two, s scales exactly.
    u = np.full(gen_gt_64.size, 1.0 / np.sqrt(gen_gt_64.size))
    operator = folded(gen_gt_64.operator, 64)
    at = bordered_sigma_min(operator, u)
    scaled = bordered_sigma_min(operator * scale, u)
    for lam in (0.0, 3.0):
        assert scaled([lam * scale])[1][0] == pytest.approx(scale * at([lam])[1][0], rel=1e-12), lam


def test_assemble_allocates_no_dense_matrix(variant_fields):
    # A dense 2048 x 2048 array is 33.6 MB; the sparse kernel verdict and
    # steady-state solve need O(n), and the dense copy is built on demand.
    tracemalloc.start()
    try:
        gen = ts.assemble(*variant_fields, ts.Grid(1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert "matrix" not in vars(gen)
    assert np.array_equal(gen.matrix, gen.operator.toarray())


def test_dense_matrix_is_never_kept(gen_gt_64):
    first = gen_gt_64.matrix
    assert "matrix" not in vars(gen_gt_64)
    assert gen_gt_64.matrix is not first


def test_equal_speeds_sum_evolves_by_pure_transport():
    # With b1 = b2 the reaction cancels on equal components, so the
    # action on (u, u) is the plain upwind transport of u in each slot.
    b = ts.FieldSpec.constant(1.0)
    gen = ts.assemble(b, b, ts.FieldSpec.constant(1.0), ts.Grid(32))
    n = gen.grid.n
    rng = np.random.default_rng(4)
    u = rng.standard_normal(n)
    out = gen.operator @ gen.state(u, u).stacked
    transported = (np.roll(u, 1) - u) / gen.grid.h  # upwind for b = +1 with wrap
    assert np.abs(out[:n].real - transported).max() < 1e-10
    assert np.abs(out[n:].real - transported).max() < 1e-10


def test_consistency_on_smooth_states(variant_fields):
    # The operator converges at first order to -d(b p)/dx + reaction.
    b1, b2, sigma = variant_fields
    errors = {}
    for n in (128, 256, 512):
        gen = ts.assemble(b1, b2, sigma, ts.Grid(n))
        x = gen.grid.centers()
        p1 = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        p2 = 1.0 + 0.2 * np.cos(2 * np.pi * x)
        out1, out2 = np.split(gen.operator @ gen.state(p1, p2).stacked, 2)
        b1x = np.asarray(ts.evaluate(b1, x))
        b2x = np.asarray(ts.evaluate(b2, x))
        sgx = np.asarray(ts.evaluate(sigma, x))
        # exact derivative of b_i * p_i for these closed forms
        db1p1 = 0.3 * 2 * np.pi * np.cos(2 * np.pi * x) * b1x
        db2p2 = (-0.2 * 2 * np.pi * np.sin(2 * np.pi * x)) * b2x + (
            0.4 * 2 * np.pi * np.cos(2 * np.pi * x)
        ) * p2
        exact1 = -db1p1 + sgx * (p2 - p1)
        exact2 = -db2p2 + sgx * (p1 - p2)
        errors[n] = max(np.abs(out1.real - exact1).max(), np.abs(out2.real - exact2).max())
    assert errors[256] < errors[128]
    assert errors[128] / errors[256] == pytest.approx(2.0, rel=0.35)
    assert errors[256] / errors[512] == pytest.approx(2.0, rel=0.35)
