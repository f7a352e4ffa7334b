"""Mass-conservative upwind finite-volume discretisation of the generator.

The semigroup generator acts on stacked cell averages (the ``p1`` block
followed by the ``p2`` block) of a uniform grid of ``n`` cells.  The
transport part uses first-order upwind fluxes with the face ``x = 1``
identified with the face ``x = 0`` in the flux variable, which is the
discrete form of the flux-periodic boundary coupling; the reaction part
exchanges mass between the two components cellwise at rate
``sigma(x_k)``.  Every column of the matrix sums to zero (telescoping
conservative fluxes plus antisymmetric reaction), so the discrete total
mass is conserved exactly.

First order is a deliberate choice: the resulting matrix has
non-negative off-diagonal entries and a strictly positive null vector,
which makes the discrete quadratic form dissipative in the metric
weighted by that null vector - the structural property every diagnostic
downstream relies on.  Accuracy is recovered through grid-refinement
studies, not scheme order.

The operator is assembled once, column by column, as a CSC sparse array
``operator`` with at most four stored entries per column (the cell, its
two transport neighbours and its reaction partner).  The kernel solve,
the time stepper and every matrix-vector product use it.  The weighted
similarity transform ``S = D^{-1/2} A D^{1/2}`` on which every spectral
stage works has one builder, :func:`sparse_symmetrized`, with the same
sparsity; :func:`symmetrized` is its dense copy.  ``matrix``, the dense
copy of ``A``, is built on every read and never kept; no library
function reads it (``--dump-matrix`` writes the stored entries of
``operator``).  :func:`hermitian_abscissa`
bounds the top eigenvalue of the symmetric part of ``S`` above by
Collatz-Wielandt on the steady state, in O(nnz) work and no eigensolve.

The canonical discrete steady state is the matrix's own null vector, not
the sampled ODE solution.  Because every column of the matrix ``A`` sums
to zero, the bordered matrix ``[[A, u], [u^T, 0]]`` with
``u = 1 / sqrt(2n)`` is nonsingular exactly when the kernel of ``A`` is
one-dimensional (Keller 1977).  One sparse LU of it, in
:func:`fold_order` with the border last, yields the null vector and, by
inverse Lanczos (a three-term recurrence on ``B^{-H} B^{-1}`` between
pairs of solves with that LU), the smallest singular value ``s`` of
``A`` on the complement of ``u`` (:func:`bordered_sigma_min`, a batch
of one ``lambda = 0`` in real arithmetic); the kernel counts as simple
when ``s >= RANK_TOL * (max |b| + max sigma)``.  The psi sweep runs the
same function on ``S`` for batches of shifts ``lambda``, one
block-diagonal LU per batch.
The ODE solution from :mod:`twospeed.steady_state` serves as an O(h)
cross-validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DefectiveGeneratorError,
    NumericalError,
    PositivityError,
    ShapeError,
)
from .fields import FieldSpec, cross_section, evaluate
from .space import StateVector

#: Relative tolerance of the null space: the kernel is simple when the
#: bordered ``sigma_min`` is at least ``RANK_TOL * (max |b| + max sigma)``.
RANK_TOL = 1e-8

#: Relative Lanczos tolerance of :func:`bordered_sigma_min`, far below
#: ``RANK_TOL`` so that no tolerance decision made on its result moves:
#: a run stops when the residual ``beta_j |s_j|`` of its top Ritz pair is
#: at most ``LANCZOS_TOL`` times the Ritz value, ARPACK's rule.
LANCZOS_TOL = 1e-12

#: Lanczos steps between two convergence checks of :func:`bordered_sigma_min`.
#: A check (a LAPACK tridiagonal eigenpair, about 15 us) costs a third of
#: a step at n = 128; per-point times at n = 128 to 1024 were flat for 3
#: to 5.  The kernel verdict converges in 9 or 10 steps, so the first
#: check comes early.
_RITZ_CHECK_EVERY = 4


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n >= 8`` cells on the unit interval; fewer raise ``ShapeError``."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ShapeError("grid needs at least 8 cells")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n

    def faces(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True)
class GeneratorMatrix:
    """Assembled generator with its weighted-metric data.

    ``operator`` is the real ``2n x 2n`` generator on stacked cell
    averages as a CSC sparse array with at most four stored entries per
    column; matrix-vector products and time stepping use it.  ``matrix``
    is the same operator as a dense array (``operator.toarray()``),
    built anew on every read and never kept; no library function reads
    it, the CLI included.
    ``steady`` is the positive null vector normalised to discrete total
    mass one, and the metric weights are the entrywise reciprocals of
    ``steady``.
    """

    grid: Grid
    operator: scipy.sparse.csc_array
    face_b1: np.ndarray
    face_b2: np.ndarray
    sigma_cells: np.ndarray
    steady: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.toarray()

    @property
    def size(self) -> int:
        return 2 * self.grid.n

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / self.steady

    @property
    def steady1(self) -> np.ndarray:
        return self.steady[: self.grid.n]

    @property
    def steady2(self) -> np.ndarray:
        return self.steady[self.grid.n :]

    def state(self, p1, p2) -> StateVector:
        """Convenience constructor for a state on this grid's cells."""
        return StateVector(self.grid.centers(), p1, p2)

    def operator_scale(self) -> float:
        """Infinity norm of the operator, used to scale rank tolerances."""
        return float(scipy.sparse.linalg.norm(self.operator, np.inf))


def _upwind_columns(faces: np.ndarray, h: float):
    """Upwind transport block ``-d(b p)/dx`` with flux-periodic seam.

    ``faces`` holds the speed at the ``n + 1`` face coordinates.  The
    upwind side at each interior face follows the sign of the speed
    there; the seam flux uses ``b(1)`` for rightward and ``b(0)`` for
    leftward transport, so a single-signed field reproduces the
    constant-sign upwinding exactly.

    Returns the three entries of each column ``j``: the outflow of cell
    ``j`` through its own faces (diagonal) and the part of it received by
    the right neighbour through face ``j + 1`` and by the left neighbour
    through face ``j``, cyclically across the seam.
    """
    n = len(faces) - 1
    bp = np.maximum(faces, 0.0)
    bm = np.minimum(faces, 0.0)
    return (bm[:n] - bp[1:]) / h, bp[1:] / h, -bm[:n] / h


def _top_ritz_pair(alphas: list, betas: list):
    """Top eigenvalue of the Lanczos tridiagonal and the last entry of its unit eigenvector.

    ``alphas`` is the diagonal and ``betas`` the off-diagonal.  LAPACK's
    bisection (``dstebz``) finds the eigenvalue alone and inverse
    iteration (``dstein``) its vector.
    """
    d, e = np.array(alphas), np.array(betas)
    k = len(d)
    _, w, block, split, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, k, k, 0.0, "B")
    z, info_vector = scipy.linalg.lapack.dstein(d, e, w[:1], block, split)
    if info or info_vector:
        raise NumericalError(f"tridiagonal eigensolver failed (dstebz {info}, dstein {info_vector})")
    return float(w[0]), float(z[-1, 0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re vdot(a[k], b[k])`` for every row ``k``, each row summed on its own."""
    return (a.conj() * b).real.sum(axis=1)


def bordered_sigma_min(operator: scipy.sparse.sparray, u: np.ndarray):
    """``lams -> (lu, s)``: one sparse LU of every ``B(lam) = [[operator - i lam I, u], [u^T, 0]]`` and their ``s``.

    For a unit ``u`` with ``u^T operator = 0``, ``B [y; t] = [x; 0]``
    gives ``t = u^T x``, ``u^T y = 0`` and ``P (operator - i lam) y = P x``
    with ``P = I - u u^T``, so ``1 / s^2``, ``s`` the smallest singular
    value of ``operator - i lam`` compressed to the complement of ``u``,
    is the top eigenvalue of ``B^{-H} B^{-1}`` on the first ``m``
    coordinates.  A three-term Hermitian Lanczos recurrence finds it from
    a fixed start vector, a seeded draw with ``u`` projected out, with
    the border entry of every vector held at 0.  Only the top Ritz value
    is wanted, so the recurrence keeps no basis and does not
    reorthogonalise: lost orthogonality only adds copies of converged
    Ritz values (Paige, Linear Algebra Appl. 34, 1980).  Every
    :data:`_RITZ_CHECK_EVERY` steps it stops by ARPACK's rule,
    ``beta_j |s_j| <= LANCZOS_TOL * theta_j`` for the top Ritz value
    ``theta_j`` of the ``j x j`` tridiagonal and the last entry ``s_j``
    of its unit eigenvector.

    A batch of ``K`` values ``lams`` shares one factorization: the
    ``B(lam_k)`` are the diagonal blocks of one CSC array of side
    ``K (m + 1)``, factored by one ``splu``, and the recurrences run side
    by side on ``(K, m + 1)`` arrays, one solve by the blocks and one by
    their conjugate transposes per step.  A ``lam`` leaves the batch when
    it converges.  Every block keeps the operator's own order with the
    border last, ``splu`` keeps that order (``permc_spec="NATURAL"``),
    and its panels are one column wide (``panel_size=1``), so none spans
    two blocks and no block's arithmetic depends on the others: a ``lam``
    gives the same ``s`` bit for bit alone, in any batch and at any place
    in it.  One-column panels also shrink SuperLU's panel workspace,
    which grows with the batch: at ``n = 128`` a sweep in batches of 11
    peaked 1.8 MB higher with the default 10-column panels, in the same
    time.  The order is the caller's to choose, and a banded one keeps the LU
    fill O(m): :func:`fold_order`.  ``B(0)`` is bordered once, with the
    diagonal stored even where it is 0, and each block subtracts
    ``i lam`` from that stored diagonal.  A batch whose ``lams`` are all
    0 runs in real arithmetic.

    Each run works on ``rho^2 B^{-H} B^{-1}`` and scales ``s`` back,
    ``rho`` the power of two (at most ``2^1023``) that puts
    ``rho max |y|`` in ``[1/2, 1)`` for the first solve
    ``[y; t] = B^{-1} [q1; 0]``, ``q1`` the unit start vector.  The
    scaling is exact, so the coefficients come out of size about 1
    whatever the size of ``B``: unscaled, ``B^{-H} B^{-1}``, of size
    ``1 / lam^2``, underflows at ``|lam| = 1e200``, and at ``lam = 0`` on
    an operator of size ``1e100``.

    With ``floor > 0`` that first solve bounds ``s <= 1 / ||y||``.  A
    bound below ``floor``, or a non-finite ``y``, is returned in place of
    ``s`` (0 when ``y`` is not finite) without the rest of the run, which
    could overflow on a kernel that is many-dimensional to working
    precision.

    The returned function gives ``(None, zeros)`` if a block is exactly
    singular and raises :class:`NumericalError`, naming the ``lam``, on a
    breakdown (``beta_j = 0``, as when ``y = 0``), on a non-finite
    recurrence coefficient, or after ``10 m`` steps without convergence.
    """
    m = operator.shape[0]
    coo = operator.tocoo()
    diag, border = np.arange(m), np.full(m, m)
    bordered = scipy.sparse.csc_array(
        (
            np.concatenate([coo.data, np.zeros(m), u, u]),
            (np.concatenate([coo.row, diag, diag, border]), np.concatenate([coo.col, diag, border, diag])),
        ),
        shape=(m + 1, m + 1),
    )
    cols = np.repeat(np.arange(m + 1), np.diff(bordered.indptr))
    on_diagonal = np.flatnonzero(bordered.indices == cols)
    start = np.zeros(m + 1)
    start[:m] = np.random.default_rng(0).standard_normal(m)
    start[:m] -= u * (u @ start[:m])
    start /= np.linalg.norm(start)
    side, nnz, cap = m + 1, bordered.nnz, 10 * m

    def at(lams, floor: float = 0.0):
        lams = np.asarray(lams, dtype=float)
        k = len(lams)
        data = np.tile(bordered.data, (k, 1))
        if lams.any():
            data = data.astype(complex)
            data[:, on_diagonal] -= 1j * lams[:, None]
        offsets = np.arange(k)[:, None]
        indices = (bordered.indices + side * offsets).ravel()
        indptr = np.append((bordered.indptr[:-1] + nnz * offsets).ravel(), k * nnz)
        blocks = scipy.sparse.csc_array((data.ravel(), indices, indptr), shape=(k * side, k * side))
        try:
            lu = scipy.sparse.linalg.splu(blocks, permc_spec="NATURAL", panel_size=1)
        except RuntimeError:  # "Factor is exactly singular"
            return None, np.zeros(k)

        def solve(x: np.ndarray, trans: str = "N") -> np.ndarray:
            """The blocks of ``rows`` (or their ``^H``) solved for the rows of ``x``, border entries zeroed."""
            if len(rows) < k:
                scattered = np.zeros((k, side), dtype=data.dtype)
                scattered[rows] = x
                x = scattered
            out = lu.solve(x.ravel(), trans=trans).reshape(k, side)
            if len(rows) < k:
                out = out[rows]
            out[:, m] = 0.0
            return out

        values = np.zeros(k)
        rows = np.arange(k)  # the lams still running, in batch order
        alphas, betas = np.empty((cap, k)), np.empty((cap, k))
        with np.errstate(all="ignore"):
            q, q_prev = np.tile(start, (k, 1)), None
            y = solve(q)
            rho = np.ldexp(1.0, np.minimum(-np.frexp(np.abs(y).max(axis=1))[1], 1023))
            y *= rho[:, None]
            if floor:
                bound = rho / np.sqrt(_row_dots(y, y))
                low = ~(bound >= floor)
                values[low] = np.where(np.isfinite(bound[low]), bound[low], 0.0)
                rows, q, y, rho = rows[~low], q[~low], y[~low], rho[~low]
            step = 0
            while len(rows):
                if step == cap:
                    raise NumericalError(f"inverse Lanczos at lambda = {lams[rows[0]]}: no convergence in {cap} steps")
                step += 1
                w = solve(y, "H") * rho[:, None]
                alpha = _row_dots(q, w)
                w -= alpha[:, None] * q
                if step > 1:
                    w -= beta[:, None] * q_prev
                beta = np.sqrt(_row_dots(w, w))
                # A non-finite alpha leaves beta non-finite too.
                if not (beta.min() > 0.0 and beta.max() < math.inf):
                    finite = np.isfinite(alpha) & np.isfinite(beta)
                    i = int(np.argmax(~finite | (beta == 0.0)))
                    what = "breakdown" if finite[i] else "non-finite coefficient"
                    raise NumericalError(f"inverse Lanczos at lambda = {lams[rows[i]]}: {what} at step {step}")
                alphas[step - 1, rows], betas[step - 1, rows] = alpha, beta
                q_prev, q = q, w / beta[:, None]
                if step % _RITZ_CHECK_EVERY == 0:
                    running = np.ones(len(rows), dtype=bool)
                    for i, row in enumerate(rows):
                        theta, last = _top_ritz_pair(alphas[:step, row], betas[: step - 1, row])
                        if theta > 0.0 and beta[i] * abs(last) <= LANCZOS_TOL * theta:
                            values[row] = rho[i] / math.sqrt(theta)
                            running[i] = False
                    rows, q, q_prev, rho, beta = (x[running] for x in (rows, q, q_prev, rho, beta))
                if len(rows):
                    y = solve(q) * rho[:, None]
        return lu, values

    return at


def assemble(b1: FieldSpec, b2: FieldSpec, sigma: FieldSpec, grid: Grid) -> GeneratorMatrix:
    """Assemble the upwind generator and its discrete steady state.

    Admissibility of the velocity fields is not enforced here (the CLI
    gates on it; the library allows deliberately degenerate studies,
    sign-changing speeds among them), but ``sigma`` must be non-negative
    on ``[0, 1]`` and the null space simple and positive.

    Raises
    ------
    InvalidCrossSectionError
        If ``sigma``'s closed-form range falls below ``-DEGENERACY_FLOOR``.
    DefectiveGeneratorError
        If the bordered matrix ``[[A, u], [u^T, 0]]`` is exactly singular
        or its ``sigma_min`` (see :func:`bordered_sigma_min`), or a
        one-solve upper bound on it, is below
        ``RANK_TOL * (max |b| + max sigma)``, so the kernel is not simple
        to tolerance, or if the null vector's residual exceeds
        ``RANK_TOL`` relative to the operator scale.
    NumericalError
        If the inverse Lanczos run for that ``sigma_min`` fails.
    PositivityError
        If the null vector is not entrywise positive.
    """
    faces = grid.faces()
    centers = grid.centers()
    f1 = np.asarray(evaluate(b1, faces))
    f2 = np.asarray(evaluate(b2, faces))
    sg = np.maximum(cross_section(sigma, centers), 0.0)

    n = grid.n
    m = 2 * n
    idx = np.arange(n)
    right, left = np.roll(idx, -1), np.roll(idx, 1)
    rows, cols, vals = [], [], []
    for offset, faces_b, partner in ((0, f1, n), (n, f2, 0)):
        diag, to_right, to_left = _upwind_columns(faces_b, grid.h)
        rows += [idx + offset, right + offset, left + offset, idx + partner]
        cols += [idx + offset] * 4
        vals += [diag - sg, to_right, to_left, sg]
    operator = scipy.sparse.csc_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )
    # Upwinding leaves one transport neighbour at zero wherever the speed
    # has one sign; storing only true non-zeros keeps the LU fill small.
    operator.eliminate_zeros()

    threshold = RANK_TOL * (max(np.abs(f1).max(), np.abs(f2).max()) + sg.max())
    lu, (s,) = bordered_sigma_min(folded(operator, n), np.full(m, 1.0 / np.sqrt(m)))([0.0], floor=threshold)
    if lu is None:
        raise DefectiveGeneratorError("kernel is not simple: the bordered matrix is exactly singular")
    if not s >= threshold:
        raise DefectiveGeneratorError(
            f"kernel is not simple: bordered sigma_min {s:.3e} < {threshold:.3e}"
        )
    vec = np.empty(m)
    vec[fold_order(n)] = lu.solve(np.append(np.zeros(m), 1.0))[:m]

    scale = scipy.sparse.linalg.norm(operator, np.inf)
    tol_abs = RANK_TOL * max(scale, 1.0) * max(np.abs(vec).max(), 1e-300)
    resid = np.abs(operator @ vec).max()
    if resid > tol_abs:
        raise DefectiveGeneratorError(
            f"candidate null vector has residual {resid:.3e} > {tol_abs:.3e}"
        )
    if vec.min() <= 0.0:
        raise PositivityError(f"discrete steady state is not positive: min = {vec.min():.3e}")
    vec = vec / (grid.h * vec.sum())

    return GeneratorMatrix(grid, operator, f1, f2, sg, vec)


def rayleigh_real_part(gen: GeneratorMatrix, stacked: np.ndarray) -> float:
    """``Re (A p, p) / (p, p)`` in the metric weighted by the null state."""
    w = gen.weights
    ap = gen.operator @ stacked
    num = float(np.real(np.sum(ap * np.conj(stacked) * w)))
    den = float(np.sum(np.abs(stacked) ** 2 * w))
    return num / den


def dissipativity_check(gen: GeneratorMatrix, trials: int, seed: int) -> float:
    """Maximum weighted Rayleigh-quotient real part over random states.

    Draws ``trials`` complex standard-normal states from ``seed`` and
    returns the largest value of ``Re (A p, p) / (p, p)``.  For the
    upwind scheme with its own null-vector weights the exact value is
    non-positive for every state, so the result exceeds rounding noise
    only if the structure is broken.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    m = gen.size
    worst = -np.inf
    for _ in range(trials):
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        worst = max(worst, rayleigh_real_part(gen, z))
    return float(worst)


def sparse_symmetrized(gen: GeneratorMatrix) -> scipy.sparse.csc_array:
    """Similarity transform ``S = D^{-1/2} A D^{1/2}`` with ``D = diag(steady)``.

    Shares the spectrum of the generator and turns the weighted metric
    into the Euclidean one, so symmetric-part eigenvalues and singular
    values computed from it are the weighted-space quantities.  A CSC
    array with the sparsity of ``operator``: each stored ``a_ij``
    becomes ``(a_ij / d_i) * d_j``, ``d = sqrt(steady)``, so the dense
    and the sparse stages see the same entries bit for bit.
    """
    a = gen.operator
    d = np.sqrt(gen.steady)
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    data = (a.data / d[a.indices]) * d[cols]
    return scipy.sparse.csc_array((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)


def symmetrized(gen: GeneratorMatrix) -> np.ndarray:
    """:func:`sparse_symmetrized` as a dense array."""
    return sparse_symmetrized(gen).toarray()


def fold_order(n: int) -> np.ndarray:
    """Stacked indices in the folded cell order ``0, n-1, 1, n-2, ...``.

    The two components of a cell are adjacent.  Each cell couples only
    to its two cyclic neighbours and to its own other component.
    Folding the ring of cells puts every neighbour at most two cells
    away, seam included, so in this order the generator and its
    symmetric part are banded with half-width 4 for any sign of the
    speeds, and a bordered LU kept in this order (:func:`bordered_sigma_min`)
    fills O(n).
    """
    cells = np.empty(n, dtype=np.intp)
    cells[0::2] = np.arange((n + 1) // 2)
    cells[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return np.stack([cells, cells + n], axis=1).ravel()


def folded(matrix: scipy.sparse.sparray, n: int) -> scipy.sparse.csc_array:
    """``matrix`` of side ``2n`` with its rows and columns in :func:`fold_order`, a CSC array."""
    coo = matrix.tocoo()
    pos = np.empty(2 * n, dtype=np.intp)
    pos[fold_order(n)] = np.arange(2 * n)
    return scipy.sparse.csc_array((coo.data, (pos[coo.row], pos[coo.col])), shape=coo.shape)


def hermitian_abscissa(gen: GeneratorMatrix) -> float:
    """Certified upper bound on the top eigenvalue of the symmetric part of the similarity transform.

    Upwinding and ``sigma >= 0`` give ``A`` non-negative off-diagonal
    entries, so ``B = (S + S^T) / 2``, with ``S`` the stored
    :func:`sparse_symmetrized`, has them too.  For any positive ``w``,
    Collatz-Wielandt on the non-negative ``B + c I`` (Horn & Johnson,
    *Matrix Analysis*, 8.1.26) gives
    ``lambda_max(B) <= max_i (B w)_i / w_i``.  With ``w = sqrt(steady)``,
    ``(S w)_i / w_i`` is ``(A v)_i / v_i`` and ``(S^T w)_i / w_i`` the
    ``i``-th column sum of ``A``, both 0 in exact arithmetic.  So the
    bound reads the stored steady state's rounding relative to each of
    its entries (4.0e-5 on a profile that falls to 4e-11 of its peak,
    2.1e-13 on a mild one at ``n = 128``) and grows where the structure
    is broken.

    The bound covers its own rounding.  Each entry of the computed
    ``y = S w``, ``z = S^T w``, ``p = |S| w`` and ``q = |S^T| w`` is a
    sum of at most ``k`` products, ``k`` the most entries in a row or a
    column of ``S``, so it is off by at most ``gamma_k`` times the exact
    entry of ``|S| w`` or ``|S^T| w`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, section 3.1) plus ``k eta`` for
    products that underflow, ``eta`` the least subnormal.  Hence
    ``2 B w <= y + z + (k + 1) u (p + q) + 3 k eta`` entrywise, ``u``
    the unit roundoff, as ``gamma_k / (1 - gamma_k) <= (k + 1) u`` while
    ``2 k (k + 1) u <= 1``.  Each sum and quotient that follows is
    rounded upward (the double after the rounded-to-nearest result is at
    least the exact one), so the value returned is at least
    ``lambda_max(B)``.  O(nnz) work and memory, and no eigensolve.
    """
    s = sparse_symmetrized(gen)
    w = np.sqrt(gen.steady)
    k = max(np.diff(s.indptr).max(), np.bincount(s.indices).max())
    finfo = np.finfo(float)

    def up(x):
        return np.nextafter(x, np.inf)

    mag = abs(s)
    mags = up(mag @ w + mag.T @ w)
    sums = up(up(s @ w + s.T @ w) + up((k + 1) * (finfo.eps / 2) * mags))
    return float(up(up(sums + 3 * k * finfo.smallest_subnormal) / (2.0 * w)).max())
