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
two transport neighbours and its reaction partner).  The time stepper and
every matrix-vector product use it.  ``matrix`` is its dense copy, for
the dense diagnostics (kernel solve, spectrum, resolvent and semigroup
norms) and for tests.

The canonical discrete steady state is the matrix's own null vector, not
the sampled ODE solution.  Because every column of the matrix ``A`` sums
to zero, the bordered matrix ``[[A, 1], [1^T, 0]]`` is nonsingular
exactly when the kernel of ``A`` is one-dimensional (Keller 1977), so one
LU factorisation of it yields both the null vector and, through its
reciprocal condition estimate, the test that the kernel is simple.  The
ODE solution from :mod:`twospeed.steady_state` serves as an O(h)
cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DefectiveGeneratorError,
    InvalidCrossSectionError,
    PositivityError,
    ShapeError,
)
from .fields import DEGENERACY_FLOOR, FieldSpec, evaluate
from .space import StateVector, WeightedSpace

#: Relative tolerance deciding what counts as the null space.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid on the unit interval."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError("grid needs at least 8 cells")

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
    is the same operator as a dense array (``operator.toarray()``) for
    the dense diagnostics.  ``steady`` is the positive null vector
    normalised to discrete total mass one, and the metric weights are
    the entrywise reciprocals of ``steady``.
    """

    grid: Grid
    matrix: np.ndarray
    operator: scipy.sparse.csc_array
    face_b1: np.ndarray
    face_b2: np.ndarray
    sigma_cells: np.ndarray
    steady: np.ndarray

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

    def space(self) -> WeightedSpace:
        """Cell-based weighted space induced by the discrete steady state."""
        return WeightedSpace.from_cells(
            self.grid.centers(), self.grid.h, self.steady1, self.steady2
        )

    def state(self, p1, p2) -> StateVector:
        """Convenience constructor for a state on this grid's cells."""
        return StateVector(self.grid.centers(), p1, p2)

    def steady_state_vector(self) -> StateVector:
        return self.state(self.steady1, self.steady2)

    def max_speed(self) -> float:
        return float(max(np.abs(self.face_b1).max(), np.abs(self.face_b2).max()))

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


def assemble(
    b1: FieldSpec,
    b2: FieldSpec,
    sigma: FieldSpec,
    grid: Grid,
    floor: float = DEGENERACY_FLOOR,
    rank_tol: float = RANK_TOL,
) -> GeneratorMatrix:
    """Assemble the upwind generator and its discrete steady state.

    Admissibility of the velocity fields is not enforced here (the CLI
    gates on it; the library allows deliberately degenerate studies),
    but the cross-section must be non-negative at the cell centers and
    the null space must be simple and positive.

    Raises
    ------
    InvalidCrossSectionError
        If ``sigma`` is negative beyond ``floor`` at a cell center.
    DefectiveGeneratorError
        If the 1-norm reciprocal condition estimate of the bordered
        matrix ``[[A, 1], [1^T, 0]]`` is below ``rank_tol`` (the kernel
        is not simple to tolerance), or if the null vector's residual
        exceeds ``rank_tol`` relative to the operator scale.
    PositivityError
        If the null vector is not entrywise positive.
    """
    faces = grid.faces()
    centers = grid.centers()
    f1 = np.asarray(evaluate(b1, faces))
    f2 = np.asarray(evaluate(b2, faces))
    sg = np.asarray(evaluate(sigma, centers))
    if sg.min() < -floor:
        k = int(np.argmin(sg))
        raise InvalidCrossSectionError(
            f"cross-section is negative at cell center {centers[k]:.6f}: {sg[k]:.3e}"
        )
    sg = np.maximum(sg, 0.0)

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
    matrix = operator.toarray()

    # Fortran order lets LAPACK factor the bordered matrix in place.
    # ``dgetrf`` rather than ``lu_factor``: the latter warns on the exact
    # zero pivot of ``sigma == 0`` before the condition test rejects it,
    # and ``not >=`` rejects a NaN estimate as well.
    bordered = np.zeros((m + 1, m + 1), order="F")
    bordered[:m, :m] = matrix
    bordered[:m, m] = 1.0
    bordered[m, :m] = 1.0
    anorm = scipy.linalg.lapack.dlange("1", bordered)
    lu, piv, _ = scipy.linalg.lapack.dgetrf(bordered, overwrite_a=True)
    rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm)
    if not rcond >= rank_tol:
        raise DefectiveGeneratorError(
            f"kernel is not simple: bordered reciprocal condition {rcond:.3e} < {rank_tol:.1e}"
        )
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    vec = scipy.linalg.lu_solve((lu, piv), rhs)[:m]

    scale = scipy.sparse.linalg.norm(operator, np.inf)
    tol_abs = rank_tol * max(scale, 1.0) * max(np.abs(vec).max(), 1e-300)
    resid = np.abs(operator @ vec).max()
    if resid > tol_abs:
        raise DefectiveGeneratorError(
            f"candidate null vector has residual {resid:.3e} > {tol_abs:.3e}"
        )
    if vec.min() <= 0.0:
        raise PositivityError(f"discrete steady state is not positive: min = {vec.min():.3e}")
    vec = vec / (grid.h * vec.sum())

    return GeneratorMatrix(grid, matrix, operator, f1, f2, sg, vec)


def apply(gen: GeneratorMatrix, p: StateVector) -> StateVector:
    """Matrix action of the generator on a cell state."""
    if len(p.p1) != gen.grid.n:
        raise ShapeError("state does not live on the generator's cell grid")
    out = gen.operator @ p.stacked
    return StateVector.from_stacked(p.x, out)


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


def symmetrized(gen: GeneratorMatrix) -> np.ndarray:
    """Similarity transform ``D^{-1/2} A D^{1/2}`` with ``D = diag(steady)``.

    Shares the spectrum of the generator and turns the weighted metric
    into the Euclidean one, so symmetric-part eigenvalues and singular
    values computed from it are the weighted-space quantities.
    """
    d = np.sqrt(gen.steady)
    return (gen.matrix / d[:, None]) * d[None, :]


def hermitian_abscissa(gen: GeneratorMatrix) -> float:
    """Largest eigenvalue of the symmetric part of the similarity transform."""
    s = symmetrized(gen)
    return float(scipy.linalg.eigvalsh(0.5 * (s + s.T))[-1])
