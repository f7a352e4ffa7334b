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
(:func:`default_lambda_max`) whatever range a sweep samples, so every
dense solve on ``S_c`` errs by about ``eps beta``, not by ``eps`` times
the range.  The singular values of ``S_c - i lambda`` are those of
``S0 - i lambda`` and the block's ``|c - i lambda| = hypot(c, lambda)``.
Weyl gives ``sigma_min(S0 - i lambda) <= beta + |lambda|``, so the block
can be the smallest only where ``c^2 < beta^2 + 2 beta |lambda|``, that
is for ``|lambda| > 4 beta``; with that one value dropped, the smallest
singular value left,

    sigma_min( S0 - i lambda ),

is the distance-to-singularity of the shifted generator on the
mean-zero subspace.  The resolvent gap ``psi`` is its infimum over all
real ``lambda``.  It is certified by the level-set iteration of Byers
(SIAM J. Sci. Stat. Comput. 1988) in the form of Boyd & Balakrishnan
(Syst. Control Lett. 1990): ``g`` is a singular value of
``S_c - i w`` for a real ``w`` exactly when the Hamiltonian matrix

    H(g) = [[S_c, -g I], [g I, -S_c^T]]

has the eigenvalue ``i w``; the block ``c`` adds the pair
``+-sqrt(c^2 - g^2)``, real as ``g <= beta < |c|``.  If ``H(g)`` has no
eigenvalue on the imaginary axis, the continuous function
``sigma_min(S0 - i lambda)``, which grows like ``|lambda|``, never meets
``g``, so ``g`` is a lower bound on all of R.  The dense eigensolve of
``H``, of side ``4n``, is the certificate's cost, so the level it tests
is first polished to a local minimum of the samples (:func:`psi_sweep`):
set just below that minimum, one Hamiltonian certifies.

``sigma_min`` itself comes from one of two routes, picked by the
matrix side ``2n`` (:data:`SPARSE_SIGMA_MIN_SIDE`).  Small matrices take
the smallest singular value of the dense ``S_c - i lambda`` but the
block's.  Large ones work on ``S`` itself, which keeps the generator's
at most four non-zeros per column: since ``z0^T S = 0``, one sparse LU
of the bordered matrix

    B(lambda) = [[S - i lambda I, z0], [z0^T, 0]],

nonsingular exactly when ``S0 - i lambda`` is (also at ``lambda = 0``),
and inverse Lanczos give ``sigma_min(S0 - i lambda)`` (the sparse-LU
route of pseudospectra codes: Trefethen, Acta Numerica 1999; Wright &
Trefethen, EigTool, 2002), in :func:`twospeed.generator.bordered_sigma_min`,
which ``assemble`` also runs on ``A`` for its kernel verdict.  The
Lanczos run is a three-term recurrence on ``B^{-H} B^{-1}`` without
reorthogonalisation, stopped by ARPACK's residual rule; only the top
Ritz value is wanted.

On the sparse route the ``sigma_min`` points that do not depend on each
other are split over the CPUs of the affinity mask by ``fork``ed workers
(:func:`_sigma_min_batch`, on :mod:`twospeed.forking`), as
pseudospectra codes split their grids over processors (Trefethen 1999);
SuperLU holds the GIL and the Lanczos recurrence between its solves is
Python code, so threads would not run them side by side.  A point's
value depends on its ``lambda`` alone (its own LU and a fixed Lanczos
start), so it is the same bit for bit wherever it runs.  The dense route stays in one
process: its SVDs run on the threaded BLAS, and forked copies would
compete for the same cores (with two OpenBLAS threads on two CPUs a
split sweep took twice as long at ``n = 64``).

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
from .generator import RANK_TOL, GeneratorMatrix, bordered_sigma_min, sparse_symmetrized, symmetrized

#: Hard cap on the dense eigen/SVD problem size (matrix side 2n).
DENSE_CAP = 4096

#: Defaults: coarse sweep resolution and the cap on level-set iterations.
COARSE_POINTS = 512
REFINE_DEPTH = 40

#: Fewest coarse sweep points :func:`psi_sweep` accepts.
MIN_COARSE_POINTS = 16

#: Matrix side ``2n`` from which ``psi_sweep`` takes ``sigma_min`` from a
#: sparse LU and inverse Lanczos instead of a dense SVD.  Mean CPU time
#: per point over 32 points of the default coarse grid (which ends at
#: :func:`default_lambda_max`), variant fields, one BLAS thread on a
#: 2-core x86-64 host, with the three-term Lanczos recurrence; fastest
#: of three (dense) or seven (sparse) runs:
#:
#:     n       16    32    64    80    96    128   256
#:     dense   0.10  0.39  1.8   3.0   5.2   10.5  92    ms
#:     sparse  0.49  0.80  0.92  1.0   1.09  1.19  2.02  ms
#:
#: The routes now cross between n = 32 and 64 (between 64 and 80 with
#: ARPACK); the sparse route still starts at n = 96, so small grids, the
#: n = 16 warm-up of a benchmark op among them, keep the dense SVD and
#: their ``psi_sweep.csv`` bytes.
SPARSE_SIGMA_MIN_SIDE = 192

#: Golden-section fraction and relative abscissa tolerance of the polish
#: in :func:`psi_sweep`.
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))
_POLISH_XTOL = float(np.sqrt(np.finfo(float).eps))


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
    ``|c| > beta >= gamma`` keeps its Hamiltonian pair off the imaginary
    axis (module docstring).  The shift does not grow with the sweep
    range: its size sets the rounding of the dense solves on ``S_c``.
    """
    _check_cap(gen)
    c = -3.0 * default_lambda_max(gen)
    z0 = mean_zero_direction(gen)
    return symmetrized(gen) + c * np.outer(z0, z0), c


def sparse_sigma_min(gen: GeneratorMatrix):
    """``lambda -> sigma_min(S0 - i lambda)`` from ``bordered_sigma_min`` of ``B(lambda)``."""
    at = bordered_sigma_min(sparse_symmetrized(gen), mean_zero_direction(gen))

    def sig_min(lam: float) -> float:
        lu, value = at(lam)
        if lu is None:
            raise NumericalError(f"sparse LU is exactly singular at lambda = {lam}")
        return value

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


def _polish_best(sig_min, points: np.ndarray, sigmas: np.ndarray):
    """Add samples that polish the smallest one to a local minimum of ``sig_min``.

    The bracket is the pair of samples nearest the smallest one further
    than the tolerance ``sqrt(eps) (|lambda| + sigma)`` from it (that
    sample itself at either end), so a twin at rounding distance cannot
    pin it shut.  The search in it is Brent's safeguarded minimiser
    (Algorithms for Minimization without Derivatives, 1973, ch. 5): a
    parabola through the three best points when its step is trusted, a
    golden-section step otherwise, until the minimiser is known to that
    tolerance, where the value is settled to rounding.  Every value it
    computes is returned with the given samples; none is ever dropped.
    """
    best = int(np.argmin(sigmas))
    x, fx = float(points[best]), float(sigmas[best])
    tol = _POLISH_XTOL * (abs(x) + fx)
    lower, upper = points[points < x - tol], points[points > x + tol]
    a = float(lower.max()) if len(lower) else x
    b = float(upper.min()) if len(upper) else x
    new_points, new_sigmas = [], []
    w = v = x
    fw = fv = fx
    step = last = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol = _POLISH_XTOL * (abs(x) + fx)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = 0.0
        prev = last
        width = b - a
        if abs(last) > tol:
            # Abscissa offsets in units of the bracket width, so that no
            # product overflows on a bracket of 1e150 or more.
            r = (x - w) / width * (fx - fv)
            q = (x - v) / width * (fx - fw)
            p = (x - v) / width * q - (x - w) / width * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            last = step
        if abs(p) < abs(0.5 * q * prev / width) and q * (a - x) / width < p < q * (b - x) / width:
            step = p / q * width  # parabolic step
            if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                step = tol if x < mid else -tol
        else:
            last = (b if x < mid else a) - x  # golden-section step
            step = _GOLDEN * last
        u = x + (step if abs(step) >= tol else np.copysign(tol, step))
        fu = sig_min(u)
        new_points.append(u)
        new_sigmas.append(fu)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return np.concatenate([points, new_points]), np.concatenate([sigmas, new_sigmas])


def _sigma_min_batch(sig_min, lams: np.ndarray, workers: int) -> np.ndarray:
    """``[sig_min(lam) for lam in lams]``, split over forked worker processes.

    ``workers`` is cut to one per point; with ``k`` of them share ``j``
    is ``lams[j::k]``, interleaved because the points above ``||S0||``
    converge slowest and a contiguous block would hold most of them.
    :func:`twospeed.forking._fork_map` runs share 0 in the calling
    process and each other share in a ``fork``ed child, so every point
    runs the same code on the same inputs; with one worker that is the
    whole batch, in-process.
    """
    workers = max(1, min(workers, len(lams)))

    def share(j: int) -> np.ndarray:
        return np.array([sig_min(lam) for lam in lams[j::workers]], dtype=float)

    values = np.empty(len(lams))
    for j, result in enumerate(_fork_map([functools.partial(share, j) for j in range(workers)])):
        values[j::workers] = result
    return values


def psi_sweep(
    gen: GeneratorMatrix,
    lambda_max: float = 0.0,
    coarse_points: int = COARSE_POINTS,
    refine_depth: int = REFINE_DEPTH,
) -> PsiEstimate:
    """Certify the resolvent gap ``psi`` of ``S0``.

    ``sigma_min(S0 - i lambda)`` is sampled on a uniform coarse grid over
    ``[0, lambda_max]`` for the ``psi_sweep.csv`` artifact;
    ``lambda_max = 0`` selects :func:`default_lambda_max`.  The range only
    places the samples; an explicit one is used as given.  The grid
    values and the values at the imaginary parts of the eight
    rightmost eigenvalues of ``S_c`` are the first samples.  Each
    level-set iteration (at most ``refine_depth``) polishes the smallest
    sample to a local minimum of ``sigma_min`` (``_polish_best``); the
    smallest value computed so far is the level ``gamma``.  It then finds
    the imaginary-axis eigenvalues ``i w`` of ``H(gamma (1 - RANK_TOL))``,
    keeps the crossings ``w`` whose direct ``sigma_min`` lies below
    ``gamma``, and adds the values there and at the midpoints between
    consecutive ones to the samples.  With no crossing left,
    ``gamma (1 - RANK_TOL)`` is the certified ``psi_hat``, a lower bound
    on all of R; hitting the cap raises :class:`NumericalError`.  The
    polish only chooses which computed ``sigma_min`` becomes ``gamma``;
    it puts the first level below the minimum, so one Hamiltonian
    certifies on every field set measured (the GT and variant fields and
    the benchmark's field box at ``n`` = 32 to 256).

    Every ``sigma_min`` takes the route of the module docstring.  On the
    sparse route the grid with the seeds, the crossings, and the
    midpoints between genuine ones are three batches for
    :func:`_sigma_min_batch`, bit-identical to a serial sweep; the polish
    runs in the calling process.
    """
    if lambda_max == 0.0:
        lambda_max = default_lambda_max(gen)
    if not (lambda_max > 0.0 and np.isfinite(lambda_max)):
        raise ConfigurationError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    if coarse_points < MIN_COARSE_POINTS:
        raise ConfigurationError(f"coarse_points must be at least {MIN_COARSE_POINTS}")
    if refine_depth < 1:
        raise ConfigurationError("refine_depth must be at least 1")

    s_c, c = restricted_operator(gen)
    eye = np.eye(s_c.shape[0])

    def dense_sig_min(lam: float) -> float:
        values = _lapack(f"SVD at lambda = {lam}", scipy.linalg.svdvals, s_c - 1j * lam * eye)
        # Drop the z0 block's singular value; the rest are those of S0 - i lambda.
        return float(np.delete(values, np.argmin(np.abs(values - np.hypot(c, lam))))[-1])

    if gen.size >= SPARSE_SIGMA_MIN_SIDE:
        sig_min, workers = sparse_sigma_min(gen), _worker_count()
    else:
        sig_min, workers = dense_sig_min, 1

    # sigma_min at lambda = Im mu is at most |Re mu|, so the rightmost
    # eigenvalues give a starting level close to the infimum.
    mu = _lapack("dense eigensolver", scipy.linalg.eigvals, s_c)
    seeds = np.unique(np.abs(mu[np.argsort(mu.real)[-8:]].imag))
    grid = np.linspace(0.0, lambda_max, coarse_points)
    points = np.concatenate([grid, seeds])
    sigmas = _sigma_min_batch(sig_min, points, workers)
    values = sigmas[: len(grid)]
    axis_tol = RANK_TOL * max(gen.operator_scale(), 1.0)
    for depth in range(1, refine_depth + 1):
        points, sigmas = _polish_best(sig_min, points, sigmas)
        best = int(np.argmin(sigmas))
        gamma, argmin = float(sigmas[best]), float(points[best])
        level = gamma * (1.0 - RANK_TOL)
        ham = np.block([[s_c, -level * eye], [level * eye, -s_c.T]])
        vals = _lapack("dense eigensolver", scipy.linalg.eigvals, ham)
        crossings = np.unique(np.abs(vals[np.abs(vals.real) <= axis_tol].imag))
        at_crossings = _sigma_min_batch(sig_min, crossings, workers)
        genuine = at_crossings < gamma
        if not genuine.any():
            return PsiEstimate(grid, values, level, argmin, float(lambda_max), depth)
        # lambda = 0 is on the coarse grid, so sigma_min(0) >= gamma and the
        # interval between -w and w of the smallest crossing holds no lower value.
        crossings = crossings[genuine]
        mids = 0.5 * (crossings[1:] + crossings[:-1])
        points = np.concatenate([points, crossings, mids])
        sigmas = np.concatenate([sigmas, at_crossings[genuine], _sigma_min_batch(sig_min, mids, workers)])
    raise NumericalError(
        f"level-set iteration found no certificate for psi in {refine_depth} iterations; "
        f"last level {level:.6g} still meets sigma_min on the imaginary axis"
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
