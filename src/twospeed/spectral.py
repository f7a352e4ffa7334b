"""Spectrum, resolvent gap and semigroup bound of the discrete generator.

All computations happen on the similarity transform
``S = D^{-1/2} A D^{1/2}`` with ``D = diag(v)``, ``v`` the discrete
steady state: ``S`` shares the spectrum of the generator and the
Euclidean geometry of ``S`` is the weighted geometry of ``A``, so
singular values and operator norms computed below are the
weighted-metric quantities.

:func:`spectrum` asks LAPACK for the eigenvalues of the dense ``S`` only.
It verifies a sample of them by their backward error, with vectors from
one step of inverse iteration on the sparse ``S`` (at most four
non-zeros per column), so no dense eigenvector matrix is formed.

The mean-zero subspace is the orthogonal complement of the unit vector
``z0 = sqrt(h * v)``; it is invariant under ``S`` because the columns of
the generator sum to zero.  Restricting to an orthonormal basis ``Q`` of
that complement deflates the zero mode exactly, and with
``S0 = Q^T S Q``

    sigma_min( S0 - i lambda )

is the distance-to-singularity of the shifted generator on the
mean-zero subspace.  The resolvent gap ``psi`` is its infimum over all
real ``lambda``.  It is certified by the level-set iteration of Byers
(SIAM J. Sci. Stat. Comput. 1988) in the form of Boyd & Balakrishnan
(Syst. Control Lett. 1990): ``g`` is a singular value of
``S0 - i w`` for a real ``w`` exactly when the Hamiltonian matrix

    H(g) = [[S0, -g I], [g I, -S0^T]]

has the eigenvalue ``i w``.  If ``H(g)`` has no eigenvalue on the
imaginary axis, the continuous function ``sigma_min(S0 - i lambda)``,
which grows like ``|lambda|``, never meets ``g``, so ``g`` is a lower
bound on all of R.

``sigma_min`` itself comes from one of two routes, picked by the
matrix side ``2n`` (:data:`SPARSE_SIGMA_MIN_SIDE`).  Small matrices take
the last singular value of the dense ``S0 - i lambda``.  Large ones work
on ``S`` itself, which keeps the generator's at most four non-zeros per
column: since ``z0^T S = 0``, one sparse LU of the bordered matrix

    B(lambda) = [[S - i lambda I, z0], [z0^T, 0]],

nonsingular exactly when ``S0 - i lambda`` is (also at ``lambda = 0``),
and inverse Lanczos give ``sigma_min(S0 - i lambda)`` (the sparse-LU
route of pseudospectra codes: Trefethen, Acta Numerica 1999; Wright &
Trefethen, EigTool, 2002), in :func:`twospeed.generator.bordered_sigma_min`,
which ``assemble`` also runs on ``A`` for its kernel verdict.

A positive gap ``psi`` feeds the semigroup bound

    || exp(t S) restricted to the mean-zero subspace ||
        <= exp(-t * psi + pi/2),

which :func:`semigroup_bound_check` verifies pointwise on a time grid
with the dense matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConfigurationError, NumericalError
from .generator import RANK_TOL, GeneratorMatrix, bordered_sigma_min, symmetrized

#: Hard cap on the dense eigen/SVD problem size (matrix side 2n).
DENSE_CAP = 4096

#: Defaults: coarse sweep resolution and the cap on level-set iterations.
COARSE_POINTS = 512
REFINE_DEPTH = 40

#: Matrix side ``2n`` from which ``psi_sweep`` takes ``sigma_min`` from a
#: sparse LU and inverse Lanczos instead of a dense SVD.  Mean CPU time
#: per point over 32 points of the default coarse grid, variant fields,
#: one BLAS thread on a 2-core x86-64 host, with real Lanczos:
#:
#:     n       16    32    64    80    96    128   256
#:     dense   0.2   0.8   3.6   6.6   10.1  18.1  146   ms
#:     sparse  3.0   4.1   5.2   5.3   6.3   7.5   14    ms
#:
#: The routes cross between n = 64 and 80, as they did with complex
#: Arnoldi; the sparse route starts at n = 96, so small grids keep the
#: cheaper dense SVD.
SPARSE_SIGMA_MIN_SIDE = 192


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum with the zero mode and stability bookkeeping.

    ``eigenvalues`` are sorted by real part (imaginary part breaking
    ties); ``zero_mode_index`` points at the eigenvalue nearest zero,
    ``x0_abscissa`` is the largest real part over all other eigenvalues,
    and ``nonneg_violations`` lists non-zero-mode eigenvalues whose real
    part exceeds the rank tolerance (empty for an admissible model).
    ``zero_mode_vector`` is the zero mode's eigenvector mapped back to
    density coordinates, which is the discrete steady state, normalised
    to unit Euclidean length.
    """

    eigenvalues: np.ndarray
    zero_mode_index: int
    x0_abscissa: float
    nonneg_violations: np.ndarray
    zero_mode_vector: np.ndarray


@dataclass(frozen=True)
class PsiEstimate:
    """Coarse resolvent sweep and the certified resolvent gap.

    ``psi_hat`` bounds ``sigma_min`` below on all of R and lies within
    ``RANK_TOL`` relative of its infimum, attained near ``argmin_lambda``.
    """

    lambda_grid: np.ndarray
    sigma_min_values: np.ndarray
    psi_hat: float
    argmin_lambda: float
    lambda_max: float
    refinement_depth: int


@dataclass(frozen=True)
class SemigroupBoundReport:
    """Pointwise comparison of the semigroup norm with its certificate."""

    times: np.ndarray
    norms: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray
    passed: bool


def _check_cap(gen: GeneratorMatrix, cap: int) -> None:
    if gen.size > cap:
        raise NumericalError(f"matrix side {gen.size} exceeds the dense solver cap {cap}")


def mean_zero_basis(gen: GeneratorMatrix) -> np.ndarray:
    """Orthonormal basis (columns) of the mean-zero subspace."""
    z0 = np.sqrt(gen.grid.h * gen.steady)
    return scipy.linalg.null_space(z0[None, :])


def restricted_operator(gen: GeneratorMatrix) -> np.ndarray:
    """The similarity transform compressed to the mean-zero subspace."""
    q = mean_zero_basis(gen)
    return q.T @ symmetrized(gen) @ q


def _sparse_similarity(gen: GeneratorMatrix) -> scipy.sparse.csc_array:
    """The similarity transform ``S = D^{-1/2} A D^{1/2}`` as a CSC sparse array."""
    d = np.sqrt(gen.steady)
    s = scipy.sparse.diags_array(1.0 / d) @ gen.operator @ scipy.sparse.diags_array(d)
    return scipy.sparse.csc_array(s)


def sparse_sigma_min(gen: GeneratorMatrix):
    """``lambda -> sigma_min(S0 - i lambda)`` from ``bordered_sigma_min`` of ``B(lambda)``."""
    d = np.sqrt(gen.steady)
    at = bordered_sigma_min(_sparse_similarity(gen), d / np.linalg.norm(d))

    def sig_min(lam: float) -> float:
        lu, value = at(lam)
        if lu is None:
            raise NumericalError(f"sparse LU is exactly singular at lambda = {lam}")
        return value

    return sig_min


def spectrum(gen: GeneratorMatrix, dense_cap: int = DENSE_CAP, rank_tol: float = RANK_TOL) -> SpectrumReport:
    """All eigenvalues of the generator in the weighted space.

    The eigenvalues come from a dense eigenvalue-only solve on the
    similarity transform ``S``; no eigenvector matrix is formed.  Sixteen
    of them, spread over the sorted spectrum, and the zero mode are
    verified before the report is returned: each ``mu`` needs a unit
    vector ``x`` with ``||S x - mu x||_inf <= 1e-8 ||A||``, the backward
    error of the pair.  The zero mode's ``x`` is the exact
    ``sqrt(steady)``, since ``A v = 0`` gives ``S sqrt(v) = 0``; every
    other ``x`` is one step of inverse iteration from a seeded start
    with a sparse LU of ``S - mu I``.  An exactly singular factor makes
    ``mu`` an eigenvalue of ``S`` to working precision, so that ``mu``
    passes.
    """
    _check_cap(gen, dense_cap)
    try:
        vals = scipy.linalg.eigvals(symmetrized(gen))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc

    vals = vals[np.lexsort((vals.imag, vals.real))]
    zero_idx = int(np.argmin(np.abs(vals)))
    scale = gen.operator_scale()

    s = _sparse_similarity(gen)
    eye = scipy.sparse.eye_array(len(vals), format="csc")
    start = np.random.default_rng(0).standard_normal(len(vals)).astype(complex)
    sample = np.linspace(0, len(vals) - 1, min(len(vals), 16)).astype(int)
    residuals = []
    for i in np.union1d(sample, [zero_idx]):
        if i == zero_idx:
            x = np.sqrt(gen.steady)
        else:
            try:
                lu = scipy.sparse.linalg.splu(s - vals[i] * eye)
            except RuntimeError:  # "Factor is exactly singular"
                continue
            x = lu.solve(start)
        x = x / np.linalg.norm(x)
        residuals.append(np.abs(s @ x - vals[i] * x).max())
    resid = float(np.max(residuals))  # a NaN residual propagates and fails the check
    if not resid <= 1e-8 * max(scale, 1.0):
        raise NumericalError(f"eigenpair residual {resid:.3e} exceeds 1e-8 * ||A||")

    others = np.ones(len(vals), dtype=bool)
    others[zero_idx] = False
    abscissa = float(vals.real[others].max())
    violations = vals[others & (vals.real > rank_tol * max(scale, 1.0))]
    zero_vec = gen.steady / np.linalg.norm(gen.steady)
    return SpectrumReport(vals, zero_idx, abscissa, violations, zero_vec)


def default_lambda_max(gen: GeneratorMatrix) -> float:
    """Sweep bound covering the discrete transport frequency range."""
    return 4.0 * gen.max_speed() * gen.grid.n * pi


def psi_sweep(
    gen: GeneratorMatrix,
    lambda_max: float = 0.0,
    coarse_points: int = COARSE_POINTS,
    refine_depth: int = REFINE_DEPTH,
    dense_cap: int = DENSE_CAP,
) -> PsiEstimate:
    """Certify the resolvent gap of the restricted operator ``S0``.

    ``sigma_min(S0 - i lambda)`` is sampled on a uniform coarse grid
    over ``[0, lambda_max]`` (``lambda_max = 0`` selects the default
    bound) for the ``psi_sweep.csv`` artifact.  The smallest sample, or
    value at the imaginary part of a rightmost eigenvalue, is the first
    level ``gamma``.  Each level-set iteration (at most ``refine_depth``)
    finds the imaginary-axis eigenvalues ``i w`` of
    ``H(gamma (1 - RANK_TOL))``, keeps the crossings ``w`` whose direct
    ``sigma_min`` lies below ``gamma``, and lowers ``gamma`` to the
    smallest value at those crossings and at the midpoints between
    consecutive ones.  With no crossing left, ``gamma (1 - RANK_TOL)``
    is the certified ``psi_hat``; hitting the cap raises
    :class:`NumericalError`.

    Every ``sigma_min`` - coarse grid, rightmost-eigenvalue points,
    crossings and midpoints - takes the route of the module docstring: a
    dense SVD below :data:`SPARSE_SIGMA_MIN_SIDE` (n < 96), otherwise
    :func:`sparse_sigma_min`.  The two agree to about 1e-14 relative.
    The eigenvalues of ``S0`` and of ``H(gamma)`` are dense solves.
    """
    _check_cap(gen, dense_cap)
    if lambda_max == 0.0:
        lambda_max = default_lambda_max(gen)
    if not (lambda_max > 0.0 and np.isfinite(lambda_max)):
        raise ConfigurationError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    if coarse_points < 16:
        raise ConfigurationError("coarse_points must be at least 16")
    if refine_depth < 1:
        raise ConfigurationError("refine_depth must be at least 1")

    s0 = restricted_operator(gen)
    eye = np.eye(s0.shape[0])

    def dense_sig_min(lam: float) -> float:
        try:
            return float(scipy.linalg.svdvals(s0 - 1j * lam * eye)[-1])
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"SVD failed at lambda = {lam}: {exc}") from exc

    sig_min = sparse_sigma_min(gen) if gen.size >= SPARSE_SIGMA_MIN_SIDE else dense_sig_min

    def eigvals(matrix: np.ndarray) -> np.ndarray:
        try:
            return scipy.linalg.eigvals(matrix)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"dense eigensolver failed: {exc}") from exc

    grid = np.linspace(0.0, lambda_max, coarse_points)
    values = np.array([sig_min(lam) for lam in grid])

    # sigma_min at lambda = Im mu is at most |Re mu|, so the rightmost
    # eigenvalues give a starting level close to the infimum.
    mu = eigvals(s0)
    points = np.concatenate([grid, np.unique(np.abs(mu[np.argsort(mu.real)[-8:]].imag))])
    sigmas = np.concatenate([values, [sig_min(w) for w in points[len(grid):]]])
    axis_tol = RANK_TOL * max(gen.operator_scale(), 1.0)
    for depth in range(1, refine_depth + 1):
        best = int(np.argmin(sigmas))
        gamma, argmin = float(sigmas[best]), float(points[best])
        level = gamma * (1.0 - RANK_TOL)
        ham = np.block([[s0, -level * eye], [level * eye, -s0.T]])
        vals = eigvals(ham)
        crossings = np.unique(np.abs(vals[np.abs(vals.real) <= axis_tol].imag))
        at_crossings = np.array([sig_min(w) for w in crossings])
        genuine = at_crossings < gamma
        if not genuine.any():
            return PsiEstimate(grid, values, level, argmin, float(lambda_max), depth)
        # lambda = 0 is on the coarse grid, so sigma_min(0) >= gamma and the
        # interval between -w and w of the smallest crossing holds no lower value.
        crossings = crossings[genuine]
        mids = 0.5 * (crossings[1:] + crossings[:-1])
        points = np.concatenate([crossings, mids])
        sigmas = np.concatenate([at_crossings[genuine], [sig_min(w) for w in mids]])
    raise NumericalError(
        f"level-set iteration found no certificate for psi in {refine_depth} iterations; "
        f"last level {level:.6g} still meets sigma_min on the imaginary axis"
    )


def semigroup_bound_check(
    gen: GeneratorMatrix,
    psi: PsiEstimate,
    t_grid,
    dense_cap: int = DENSE_CAP,
) -> SemigroupBoundReport:
    """Verify ``||exp(tA)|| <= exp(-t psi + pi/2)`` on the mean-zero subspace.

    The operator norm is the largest singular value of the dense matrix
    exponential of the restricted operator (scaling-and-squaring with a
    Pade rational core).  For a dissipative generator the norm is also
    non-increasing in ``t``; an overflow here signals a broken matrix.
    """
    _check_cap(gen, dense_cap)
    times = np.asarray(t_grid, dtype=float)
    if (
        len(times) == 0
        or not np.all(np.isfinite(times))
        or np.any(times < 0.0)
        or np.any(np.diff(times) <= 0.0)
    ):
        raise ConfigurationError("t_grid must be finite, non-negative and strictly increasing")

    s0 = restricted_operator(gen)
    norms = np.empty(len(times))
    for i, t in enumerate(times):
        propagator = scipy.linalg.expm(t * s0)
        if not np.all(np.isfinite(propagator)):
            raise NumericalError(f"matrix exponential overflowed at t = {t}")
        norms[i] = scipy.linalg.svdvals(propagator)[0]
    bounds = np.exp(-times * psi.psi_hat + 0.5 * pi)
    margins = bounds - norms
    return SemigroupBoundReport(times, norms, bounds, margins, bool(np.all(margins >= 0.0)))
