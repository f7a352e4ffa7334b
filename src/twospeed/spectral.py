"""Spectrum, resolvent gap and semigroup bound of the discrete generator.

All computations happen on the similarity transform
``S = D^{-1/2} A D^{1/2}`` with ``D = diag(v)``, ``v`` the discrete
steady state: ``S`` shares the spectrum of the generator and the
Euclidean geometry of ``S`` is the weighted geometry of ``A``, so
singular values and operator norms computed below are the
weighted-metric quantities.  Every stage takes ``S`` from the one
builder :func:`twospeed.generator.sparse_symmetrized` (at most four
non-zeros per column), or from its dense copy
:func:`twospeed.generator.symmetrized`; the two hold the same entries
bit for bit.

:func:`spectrum` asks LAPACK for the eigenvalues of the dense ``S`` only.
It verifies a sample of them by their backward error, with vectors from
one step of inverse iteration on the sparse ``S``, so no dense
eigenvector matrix is formed.

The mean-zero subspace is the orthogonal complement of the unit vector
``z0 = sqrt(h * v)`` (:func:`mean_zero_direction`, the one ``z0`` of
every stage), a right and left null vector of ``S`` as the columns of
the generator sum to zero.  So Hotelling's rank-one deflation
``S_c = S + c z0 z0^T`` (:func:`restricted_operator`) is block
diagonal: ``S0``, ``S`` on the complement, and ``c`` on ``z0``.  The
shift is ``c = -3 beta`` with ``beta >= ||S0||_2``
(:func:`default_lambda_max`), so every dense solve on ``S_c`` errs by
about ``eps beta``.  The singular values of ``S_c - i lambda`` are those
of ``S0 - i lambda`` and the block's ``|c - i lambda| >= 3 beta``.  The
psi sweep samples only ``0 <= lambda <= 2 beta``, where Weyl gives
``sigma_min(S0 - i lambda) <= beta + lambda <= 3 beta``, so there the
smallest singular value of ``S_c - i lambda`` is

    f(lambda) = sigma_min( S0 - i lambda ),

the distance-to-singularity of the shifted generator on the mean-zero
subspace.  The resolvent gap ``psi`` is its infimum over all real
``lambda``.  ``S0`` is real, so ``f`` is even and

    f(lambda)^2 = lambda^2 + phi(lambda),
    phi(lambda) = lambda_min( S0^T S0 + i lambda (S0 - S0^T) ),

the smallest eigenvalue of an affine Hermitian family: a minimum of
affine functions of ``lambda``, so ``phi`` is concave (Lewis & Overton,
*Eigenvalue optimization*, Acta Numerica 1996).  On any ``[a, b]`` it
lies on or above its chord, so ``f^2`` lies above ``lambda^2`` plus that
chord, a convex quadratic whose minimum on ``[a, b]`` has a closed form.
Past ``L = beta + f(0)`` Weyl gives ``f(lambda) >= lambda - beta >= f(0)``.
:func:`psi_sweep` is a branch and bound on these two bounds; it needs no
curvature bound, no eigensolve and no local search.  The level-set test
of Byers (SIAM J. Sci. Stat. Comput. 1988), a dense Hamiltonian of side
``4n``, stays in the tests as its oracle.

``sigma_min`` itself comes from one of two routes, picked by the
matrix side ``2n`` (:data:`SPARSE_SIGMA_MIN_SIDE`).  Small matrices take
the smallest singular value of the dense ``S_c - i lambda``.  Large
ones work on ``S`` itself, which keeps the generator's at most four
non-zeros per column: since ``z0^T S = 0``, one sparse LU
of the bordered matrix

    B(lambda) = [[S - i lambda I, z0], [z0^T, 0]],

nonsingular exactly when ``S0 - i lambda`` is (also at ``lambda = 0``),
and inverse Lanczos give ``sigma_min(S0 - i lambda)`` (the sparse-LU
route of pseudospectra codes: Trefethen, Acta Numerica 1999; Wright &
Trefethen, EigTool, 2002), in :func:`twospeed.generator.bordered_sigma_min`,
which ``assemble`` also runs on ``A`` for its kernel verdict.  The
Lanczos run is a three-term recurrence on ``B^{-H} B^{-1}`` without
reorthogonalisation, stopped by ARPACK's residual rule; only the top
Ritz value is wanted.  The points go in batches of
:data:`SIGMA_MIN_BATCH_UNKNOWNS` unknowns: the ``B(lambda)`` of a batch,
each in :func:`twospeed.generator.fold_order` with the border last, are
the diagonal blocks of one sparse LU, and their recurrences run side by
side on ``(K, 2n + 1)`` arrays, so one ``splu`` call and one pair of
solves per step serve the whole batch.

On the sparse route the ``sigma_min`` points that do not depend on each
other are split over the CPUs of the affinity mask by ``fork``ed workers
(:func:`_sigma_min_batch`, on :mod:`twospeed.forking`), as
pseudospectra codes split their grids over processors (Trefethen 1999);
SuperLU holds the GIL and the Lanczos recurrence between its solves is
Python code, so threads would not run them side by side.  A worker is
forked only when each gets at least one full batch; a smaller set of
points runs in the calling process, where a fork would cost more than
the points.  A point's value depends on its ``lambda`` alone (its own
block of the LU, kept in a fixed order, and a fixed Lanczos start), so
it is the same bit for bit in any batch and wherever it runs.  The dense
route stays in one process: its SVDs run on the threaded BLAS, and
forked copies would compete for the same cores (with two OpenBLAS
threads on two CPUs a split sweep took twice as long at ``n = 64``).

A positive gap ``psi`` feeds the semigroup bound

    || exp(t S) restricted to the mean-zero subspace ||
        <= exp(-t * psi + pi/2),

which :func:`semigroup_bound_check` verifies pointwise on a time grid
with the dense matrix exponential of ``S_c``, one product per grid time
and one exponential per new time step.  Its norm is that of
``exp(t S0)``, as ``exp(c t) <= exp(-beta t) <= ||exp(t S0)||``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import pi

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConfigurationError, NumericalError
from .forking import _fork_map, _worker_count
from .generator import (
    LANCZOS_TOL,
    RANK_TOL,
    GeneratorMatrix,
    bordered_sigma_min,
    fold_order,
    folded,
    sparse_symmetrized,
    symmetrized,
)

#: Hard cap on the dense eigen/SVD problem size (matrix side 2n).
DENSE_CAP = 4096

#: Defaults: the uniform first samples of the psi sweep and the cap on its rounds.
COARSE_POINTS = 512
REFINE_DEPTH = 40

#: Fewest coarse sweep points :func:`psi_sweep` accepts.
MIN_COARSE_POINTS = 16

#: Matrix side ``2n`` from which ``psi_sweep`` takes ``sigma_min`` from a
#: sparse LU and inverse Lanczos instead of a dense SVD.  Mean CPU time
#: per point over 511 points of the default coarse grid (which ends at
#: :func:`default_lambda_max`), variant fields, one BLAS thread on a
#: 2-core x86-64 host; fastest of two runs of three, in one process.
#: The sparse route feeds the points in batches of
#: :data:`SIGMA_MIN_BATCH_UNKNOWNS` unknowns; "one at a time" is the
#: earlier route, one LU per point:
#:
#:     n                16    32    64    96    128   256
#:     dense            0.16  0.61  2.3   7.4   15.5        ms
#:     sparse, batched  0.19  0.35  0.75  0.83  1.14  2.65  ms
#:     one at a time    0.82  1.22  1.55  1.34  1.79  3.83  ms
#:
#: The routes cross between n = 16 and 32, so the sparse route starts at
#: n = 32, and n = 16, the warm-up of a benchmark op, keeps the dense
#: SVD.
SPARSE_SIGMA_MIN_SIDE = 64

#: Unknowns per block-diagonal LU of the sparse route: ``psi_sweep``
#: passes ``max(1, SIGMA_MIN_BATCH_UNKNOWNS // (2n + 1))`` points at a
#: time to :func:`twospeed.generator.bordered_sigma_min`, 11 at n = 128.
#: There, batches of 7, 11, 15 and 20 points took 1.0-1.3, 1.0-1.1,
#: 1.0-1.2 and 0.9-1.0 ms per point (two runs each), and each point of a
#: batch adds about 0.2 MB to the peak memory of the process that runs
#: it; the size is set by unknowns so that this peak does not grow with
#: ``n``.
SIGMA_MIN_BATCH_UNKNOWNS = 3072

@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum with the zero mode and stability bookkeeping.

    ``eigenvalues`` are sorted by real part (imaginary part breaking
    ties); ``zero_mode_index`` points at the eigenvalue nearest zero,
    ``x0_abscissa`` is the largest real part over all other eigenvalues,
    and ``nonneg_violations`` lists non-zero-mode eigenvalues whose real
    part exceeds the rank tolerance (empty for an admissible model).
    """

    eigenvalues: np.ndarray
    zero_mode_index: int
    x0_abscissa: float
    nonneg_violations: np.ndarray


@dataclass(frozen=True)
class PsiEstimate:
    """Samples of ``sigma_min(S0 - i lambda)``, their chord bounds and the certified resolvent gap.

    ``lambda_grid`` holds every sample, sorted, from 0 to
    ``L = norm_bound + sigma_min(S0)``, and ``sigma_min_values`` the
    values there.  ``lower_bounds[k]`` bounds ``sigma_min`` below on
    ``[lambda_grid[k], lambda_grid[k + 1]]``, and the last one, Weyl's
    ``L - norm_bound``, past ``L``.  ``psi_hat`` is at most each of
    them, so it bounds ``sigma_min`` below on all of R; it lies
    ``RANK_TOL`` relative below the smallest sample, at ``argmin_lambda``.
    """

    lambda_grid: np.ndarray
    sigma_min_values: np.ndarray
    lower_bounds: np.ndarray
    psi_hat: float
    argmin_lambda: float
    lambda_max: float
    norm_bound: float
    refinement_depth: int


@dataclass(frozen=True)
class SemigroupBoundReport:
    """Pointwise comparison of the semigroup norm with its certificate."""

    times: np.ndarray
    norms: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray
    passed: bool


def _check_cap(gen: GeneratorMatrix) -> None:
    if gen.size > DENSE_CAP:
        raise NumericalError(f"matrix side {gen.size} exceeds the dense solver cap {DENSE_CAP}")


def _lapack(what: str, kernel, *args, **kwargs):
    """``kernel(*args, **kwargs)``, a LAPACK failure raised as :class:`NumericalError`.

    Callers pass ``scipy.linalg.<kernel>`` looked up at the call, so a
    patched kernel sees every call.
    """
    try:
        return kernel(*args, **kwargs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"{what} failed: {exc}") from exc


def mean_zero_direction(gen: GeneratorMatrix) -> np.ndarray:
    """The unit right and left null vector ``z0 = sqrt(h * steady)`` of ``S``."""
    return np.sqrt(gen.grid.h * gen.steady)


def restricted_operator(gen: GeneratorMatrix):
    """Dense ``S_c = S + c z0 z0^T`` and its shift ``c = -3 beta``, ``beta`` = :func:`default_lambda_max`.

    ``c <= -beta`` keeps the block ``c`` out of the propagator norm and
    ``|c| = 3 beta`` keeps its singular value out of ``sigma_min`` for
    ``|lambda| <= 2 beta`` (module docstring).  The shift does not grow
    with the sweep range: its size sets the rounding of the dense solves
    on ``S_c``.
    """
    _check_cap(gen)
    c = -3.0 * default_lambda_max(gen)
    z0 = mean_zero_direction(gen)
    return symmetrized(gen) + c * np.outer(z0, z0), c


def sparse_sigma_min(gen: GeneratorMatrix):
    """``lams -> sigma_min(S0 - i lams)``, a batch at a time, from ``bordered_sigma_min`` of the ``B(lambda)``.

    ``S`` and ``z0`` go in :func:`twospeed.generator.fold_order`, where
    ``S`` is banded and each block's LU fills O(n).
    """
    n = gen.grid.n
    at = bordered_sigma_min(folded(sparse_symmetrized(gen), n), mean_zero_direction(gen)[fold_order(n)])

    def sig_min(lams) -> np.ndarray:
        lu, values = at(lams)
        if lu is None:
            raise NumericalError(f"sparse LU of the batch lambda = {', '.join(map(str, lams))} is exactly singular")
        return values

    return sig_min


def spectrum(gen: GeneratorMatrix) -> SpectrumReport:
    """All eigenvalues of the generator in the weighted space.

    The eigenvalues come from a dense eigenvalue-only solve on the
    similarity transform ``S``; no eigenvector matrix is formed.  Sixteen
    of them, spread over the sorted spectrum, and the zero mode are
    verified before the report is returned: each ``mu`` needs a unit
    vector ``x`` with ``||S x - mu x||_inf <= 1e-8 ||A||``, the backward
    error of the pair.  The zero mode's ``x`` is the exact null vector
    ``z0`` of :func:`mean_zero_direction`; every other ``x`` is one step
    of inverse iteration from a seeded start with a sparse LU of
    ``S - mu I``.  An exactly singular factor makes
    ``mu`` an eigenvalue of ``S`` to working precision, so that ``mu``
    passes.
    """
    _check_cap(gen)
    s = sparse_symmetrized(gen)
    vals = _lapack("dense eigensolver", scipy.linalg.eigvals, s.toarray(order="F"), overwrite_a=True)

    vals = vals[np.lexsort((vals.imag, vals.real))]
    zero_idx = int(np.argmin(np.abs(vals)))
    scale = gen.operator_scale()

    eye = scipy.sparse.eye_array(len(vals), format="csc")
    start = np.random.default_rng(0).standard_normal(len(vals)).astype(complex)
    sample = np.linspace(0, len(vals) - 1, min(len(vals), 16)).astype(int)
    residuals = []
    for i in np.union1d(sample, [zero_idx]):
        if i == zero_idx:
            x = mean_zero_direction(gen)
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
    violations = vals[others & (vals.real > RANK_TOL * max(scale, 1.0))]
    return SpectrumReport(vals, zero_idx, abscissa, violations)


def default_lambda_max(gen: GeneratorMatrix) -> float:
    """Certified upper bound ``sqrt(||S||_1 ||S||_inf)`` on ``||S0||_2``, in O(nnz).

    ``S0`` is a compression of ``S``, so ``||S0||_2 <= ||S||_2``, and
    ``||S||_2^2 <= ||S||_1 ||S||_inf`` (Schur's test).  Past the bound
    Weyl gives ``sigma_min(S0 - i lambda) >= |lambda| - lambda_max``, so
    the infimum ``psi`` lies at most ``psi`` beyond ``lambda_max``.  The
    certificate of :func:`psi_sweep` is global and does not depend on
    this range.  A bound that is not positive and finite raises
    :class:`NumericalError`.
    """
    s = sparse_symmetrized(gen)
    bound = float(np.sqrt(scipy.sparse.linalg.norm(s, 1) * scipy.sparse.linalg.norm(s, np.inf)))
    if not (bound > 0.0 and np.isfinite(bound)):
        raise NumericalError(f"norm bound sqrt(||S||_1 ||S||_inf) is {bound!r}, not positive and finite")
    return bound


def _sigma_min_batch(sig_min, lams: np.ndarray, workers: int, batch: int) -> np.ndarray:
    """``sig_min(lams)``, fed ``batch`` points at a time, split over forked worker processes.

    ``workers`` is cut to ``len(lams) // batch``, at least one, so that
    each gets a full batch or more.  With ``k`` of them share
    ``j`` is ``lams[j::k]``, interleaved because the points above
    ``||S0||`` converge slowest and a contiguous block would hold most of
    them; each share goes to ``sig_min`` in contiguous runs of ``batch``.
    :func:`twospeed.forking._fork_map` runs share 0 in the calling
    process and each other share in a ``fork``ed child, so every point
    runs the same code on the same inputs; with one worker that is the
    whole of ``lams``, in-process.
    """
    workers = max(1, min(workers, len(lams) // batch))

    def share(j: int) -> np.ndarray:
        mine = lams[j::workers]
        return np.concatenate([sig_min(mine[i : i + batch]) for i in range(0, len(mine), batch)])

    values = np.empty(len(lams))
    for j, result in enumerate(_fork_map([functools.partial(share, j) for j in range(workers)])):
        values[j::workers] = result
    return values


def _allowance(lams: np.ndarray, sigmas: np.ndarray, beta: float) -> np.ndarray:
    """Rounding allowance of ``phi = sigma_min^2 - lambda^2`` at each sample (:func:`psi_sweep`)."""
    eps = np.finfo(float).eps
    err = LANCZOS_TOL * sigmas + 32.0 * eps * (beta + lams)
    return (2.0 * sigmas + err) * err + 8.0 * eps * (sigmas**2 + lams**2)


def _chord_bounds(lams: np.ndarray, sigmas: np.ndarray, beta: float):
    """Lower bound on ``sigma_min^2`` over each ``[lams[k], lams[k + 1]]`` and where it is attained.

    ``lambda^2`` plus the chord of the lowered ``phi`` is a convex
    quadratic of leading coefficient 1, smallest at minus half the
    chord's slope, clipped to the interval.
    """
    phi = sigmas**2 - lams**2 - _allowance(lams, sigmas, beta)
    left, right = lams[:-1], lams[1:]
    at = np.clip(-0.5 * np.diff(phi) / np.diff(lams), left, right)
    t = (at - left) / (right - left)
    return at**2 + (1.0 - t) * phi[:-1] + t * phi[1:], at


def psi_sweep(
    gen: GeneratorMatrix,
    lambda_max: float = 0.0,
    coarse_points: int = COARSE_POINTS,
    refine_depth: int = REFINE_DEPTH,
) -> PsiEstimate:
    """Certify the resolvent gap ``psi`` of ``S0`` by chords of the concave ``phi``.

    ``f(lambda) = sigma_min(S0 - i lambda)`` is sampled at the points of
    the uniform grid of ``coarse_points`` over ``[0, lambda_max]``
    (``lambda_max = 0`` selects ``beta`` = :func:`default_lambda_max`;
    an explicit range is used as given) that lie below
    ``L = beta + f(0)``, and at ``L``.  Past ``L``, Weyl gives
    ``f >= lambda - beta >= f(0)``; on ``[0, L]`` each pair of
    neighbouring samples bounds ``f^2`` below by ``lambda^2`` plus the
    chord of ``phi = f^2 - lambda^2`` (module docstring).  Each round
    takes the smallest sample ``best`` and the level
    ``best (1 - RANK_TOL)``, and samples ``f`` at the minimiser of every
    interval whose bound lies below the level; when none does, the level
    is the certified ``psi_hat``, a lower bound on all of R, and
    ``refinement_depth`` counts the rounds, this one included.  A round
    at the cap ``refine_depth`` that still finds such an interval raises
    :class:`NumericalError`.  The range only places the first samples,
    so the certificate does not depend on it beyond ``RANK_TOL``.

    Rounding.  Each computed ``phi_k`` is lowered by an allowance before
    it enters a chord.  A sample ``f_k`` errs by at most
    ``e_k = LANCZOS_TOL f_k + 32 eps (beta + lambda_k)``.  The first term
    is the sparse route's stopping rule: the Ritz value lies within
    ``LANCZOS_TOL`` relative of an eigenvalue of ``B^{-H} B^{-1}``.  That
    it is the top one is trusted, not proved; a Ritz value can only
    underestimate the top eigenvalue, so a wrong one overestimates
    ``f``.  The second covers a backward-stable SVD of
    ``S_c - i lambda``, whose norm is at most ``3 beta + lambda``, and
    the sparse LU's solves.  So ``phi_k`` errs
    by at most ``(2 f_k + e_k) e_k`` through the sample.  Forming
    ``f_k^2 - lambda_k^2``, which cancels near ``lambda = beta``, and the
    chord's quadratic at its minimiser add less than
    ``8 eps (f_k^2 + lambda_k^2)``.  The allowance is the sum of the two.

    Each new sample must lie on or above its interval's bound, less its
    own allowance: by concavity it cannot lie below, so a sample that
    does breaches the ``sigma_min`` tolerance and raises
    :class:`NumericalError`, as does an interval whose bound lies below
    the level at one of its ends, where the allowance exceeds the
    ``RANK_TOL`` margin.

    Every ``sigma_min`` takes the route of the module docstring.  On the
    sparse route the grid and each round's new samples are one batch for
    :func:`_sigma_min_batch` each, bit-identical to a serial sweep, and
    no dense matrix is formed.
    """
    beta = default_lambda_max(gen)
    if lambda_max == 0.0:
        lambda_max = beta
    if not (lambda_max > 0.0 and np.isfinite(lambda_max)):
        raise ConfigurationError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    if coarse_points < MIN_COARSE_POINTS:
        raise ConfigurationError(f"coarse_points must be at least {MIN_COARSE_POINTS}")
    if refine_depth < 1:
        raise ConfigurationError("refine_depth must be at least 1")

    if gen.size >= SPARSE_SIGMA_MIN_SIDE:
        sig_min, workers = sparse_sigma_min(gen), _worker_count()
    else:
        s_c, _ = restricted_operator(gen)
        eye = np.eye(s_c.shape[0])

        def sig_min(lams) -> np.ndarray:
            return np.array(
                [_lapack(f"SVD at lambda = {lam}", scipy.linalg.svdvals, s_c - 1j * lam * eye)[-1] for lam in lams]
            )

        workers = 1
    batch = max(1, SIGMA_MIN_BATCH_UNKNOWNS // (gen.size + 1))

    f0 = float(sig_min([0.0])[0])
    top = beta + f0
    grid = np.linspace(0.0, lambda_max, coarse_points)
    lams = np.append(grid[grid < top], top)
    sigmas = np.concatenate([[f0], _sigma_min_batch(sig_min, lams[1:], workers, batch)])
    for depth in range(1, refine_depth + 1):
        best = int(np.argmin(sigmas))
        level = float(sigmas[best]) * (1.0 - RANK_TOL)
        squares, at = _chord_bounds(lams, sigmas, beta)
        below = np.flatnonzero(squares < level**2)
        if len(below) == 0:
            bounds = np.append(np.sqrt(np.maximum(squares, 0.0)), top - beta)
            return PsiEstimate(lams, sigmas, bounds, level, float(lams[best]), float(lambda_max), beta, depth)
        if depth == refine_depth:
            break
        new = at[below]
        stuck = (new <= lams[below]) | (new >= lams[below + 1])
        if stuck.any():
            k = below[np.argmax(stuck)]
            raise NumericalError(
                f"chord bound on [{lams[k]:.17g}, {lams[k + 1]:.17g}] lies below the level {level:.17g} "
                "at its end: the rounding allowance exceeds the RANK_TOL margin"
            )
        values = _sigma_min_batch(sig_min, new, workers, batch)
        low = values**2 + _allowance(new, values, beta) < squares[below]
        if low.any():
            k = int(np.argmax(low))
            raise NumericalError(
                f"sigma_min({new[k]:.17g}) = {values[k]:.17g} lies below the chord bound "
                f"{np.sqrt(max(squares[below][k], 0.0)):.17g}: phi is not concave within the rounding allowance"
            )
        order = np.argsort(np.concatenate([lams, new]), kind="stable")
        lams = np.concatenate([lams, new])[order]
        sigmas = np.concatenate([sigmas, values])[order]
    raise NumericalError(
        f"chord bounds found no certificate for psi in {refine_depth} rounds; "
        f"{len(below)} intervals still bound sigma_min below the level {level:.6g}"
    )


def semigroup_bound_check(gen: GeneratorMatrix, psi: PsiEstimate, t_grid) -> SemigroupBoundReport:
    """Verify ``||exp(tA)|| <= exp(-t psi + pi/2)`` on the mean-zero subspace.

    The norm is the largest singular value of the dense propagator
    ``P(t) = exp(t S_c)`` (:func:`restricted_operator`), that of
    ``exp(t S0)``.  Along the grid
    ``P(t_k) = exp((t_k - t_{k-1}) S_c) P(t_{k-1})`` (``t_{-1} = 0``), and
    a step equal to an earlier grid time ``t_j`` reuses ``P(t_j)``, so
    the doubling grid ``[0.5, 1, 2, 4]`` costs one matrix exponential
    (scaling-and-squaring with a Pade rational core) and three products.
    For a dissipative generator the norm is also non-increasing in
    ``t``; an overflow here signals a broken matrix.
    """
    times = np.asarray(t_grid, dtype=float)
    if (
        len(times) == 0
        or not np.all(np.isfinite(times))
        or np.any(times < 0.0)
        or np.any(np.diff(times) <= 0.0)
    ):
        raise ConfigurationError("t_grid must be finite, non-negative and strictly increasing")

    s_c, _ = restricted_operator(gen)
    norms = np.empty(len(times))
    increments = np.diff(times, prepend=0.0)
    reusable = {}  # P(t_j) for the grid times that a later increment equals
    propagator = None
    for i, (t, dt) in enumerate(zip(times, increments)):
        step = reusable.get(dt)
        if step is None:
            step = scipy.linalg.expm(dt * s_c)
        propagator = step if propagator is None else step @ propagator
        if not np.all(np.isfinite(propagator)):
            raise NumericalError(f"matrix exponential overflowed at t = {t}")
        if t in increments[i + 1 :]:
            reusable[t] = propagator
        norms[i] = scipy.linalg.svdvals(propagator)[0]
    bounds = np.exp(-times * psi.psi_hat + 0.5 * pi)
    margins = bounds - norms
    return SemigroupBoundReport(times, norms, bounds, margins, bool(np.all(margins >= 0.0)))
