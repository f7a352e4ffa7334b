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
the time stepper and every matrix-vector product use it.  ``matrix`` is
its dense copy, built on first read for the dense diagnostics
(spectrum, resolvent and semigroup norms) and for tests.

The canonical discrete steady state is the matrix's own null vector, not
the sampled ODE solution.  Because every column of the matrix ``A`` sums
to zero, the bordered matrix ``[[A, u], [u^T, 0]]`` with
``u = 1 / sqrt(2n)`` is nonsingular exactly when the kernel of ``A`` is
one-dimensional (Keller 1977).  One sparse LU of it yields the null
vector and, by inverse Lanczos, the smallest singular value ``s`` of
``A`` on the complement of ``u`` (:func:`bordered_sigma_min`); the
kernel counts as simple when ``s >= rank_tol * (max |b| + max sigma)``.
The ODE solution from :mod:`twospeed.steady_state` serves as an O(h)
cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DefectiveGeneratorError,
    InvalidCrossSectionError,
    NumericalError,
    PositivityError,
    ShapeError,
)
from .fields import DEGENERACY_FLOOR, FieldSpec, evaluate
from .space import StateVector, WeightedSpace

#: Relative tolerance of the null space: the kernel is simple when the
#: bordered ``sigma_min`` is at least ``RANK_TOL * (max |b| + max sigma)``.
RANK_TOL = 1e-8

#: Relative Lanczos tolerance of :func:`bordered_sigma_min`, far below
#: ``RANK_TOL`` so that no tolerance decision made on its result moves.
LANCZOS_TOL = 1e-12


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
    the dense diagnostics, built on first read and kept.  ``steady`` is
    the positive null vector normalised to discrete total mass one, and
    the metric weights are the entrywise reciprocals of ``steady``.
    """

    grid: Grid
    operator: scipy.sparse.csc_array
    face_b1: np.ndarray
    face_b2: np.ndarray
    sigma_cells: np.ndarray
    steady: np.ndarray

    @cached_property
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


def bordered_sigma_min(operator: scipy.sparse.sparray, u: np.ndarray):
    """``lam -> (lu, s)``: sparse LU of ``B = [[operator - i lam I, u], [u^T, 0]]`` and its ``s``.

    For a unit ``u`` with ``u^T operator = 0``, ``B [y; t] = [x; 0]``
    gives ``t = u^T x``, ``u^T y = 0`` and ``P (operator - i lam) y = P x``
    with ``P = I - u u^T``, so ``1 / s^2``, ``s`` the smallest singular
    value of ``operator - i lam`` compressed to the complement of ``u``,
    is the top eigenvalue of ``B^{-H} B^{-1}`` on the first ``m``
    coordinates.  ARPACK's Lanczos (``eigsh``) finds it from a fixed
    start vector, a seeded draw with ``u`` projected out.  For
    ``lam != 0`` that Hermitian operator runs in its real symmetric
    ``2m x 2m`` form on stacked real and imaginary parts, which has the
    same eigenvalues, each twice, and starts from ``[v0, 0]``; so ARPACK
    runs real Lanczos, not the complex Arnoldi it would run on a
    complex operator.  ``B(0)`` is bordered once; each ``lam`` costs one
    shift, one ``splu`` and one run.

    The returned function gives ``(None, 0.0)`` if ``B`` is exactly
    singular and raises :class:`NumericalError` when ARPACK fails.
    """
    m = operator.shape[0]
    bordered = scipy.sparse.block_array([[operator, u[:, None]], [u[None, :], None]], format="csc")
    shift = scipy.sparse.diags_array(np.append(np.ones(m), 0.0), format="csc")
    v0 = np.random.default_rng(0).standard_normal(m)
    v0 -= u * (u @ v0)

    def at(lam: float):
        shifted = bordered - 1j * lam * shift if lam else bordered
        try:
            lu = scipy.sparse.linalg.splu(shifted)
        except RuntimeError:  # "Factor is exactly singular"
            return None, 0.0
        rhs = np.zeros(m + 1, dtype=shifted.dtype)  # the border entry stays 0

        def normal_inverse(x: np.ndarray) -> np.ndarray:
            rhs[:m] = x.ravel()
            rhs[:m] = lu.solve(rhs)[:m]
            return lu.solve(rhs, trans="H")[:m]

        if lam:
            def matvec(x: np.ndarray) -> np.ndarray:
                x = x.ravel()
                y = normal_inverse(x[:m] + 1j * x[m:])
                return np.concatenate([y.real, y.imag])

            op = scipy.sparse.linalg.LinearOperator((2 * m, 2 * m), matvec=matvec, dtype=float)
            start = np.append(v0, np.zeros(m))
        else:
            op = scipy.sparse.linalg.LinearOperator((m, m), matvec=normal_inverse, dtype=float)
            start = v0
        try:
            top = scipy.sparse.linalg.eigsh(
                op, k=1, which="LA", tol=LANCZOS_TOL, v0=start, return_eigenvectors=False
            )[0]
        except scipy.sparse.linalg.ArpackError as exc:
            raise NumericalError(f"inverse Lanczos failed at lambda = {lam}: {exc}") from exc
        return lu, float(1.0 / np.sqrt(top))

    return at


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
        If the bordered matrix ``[[A, u], [u^T, 0]]`` is exactly singular
        or its ``sigma_min`` (see :func:`bordered_sigma_min`) is below
        ``rank_tol * (max |b| + max sigma)``, so the kernel is not simple
        to tolerance, or if the null vector's residual exceeds
        ``rank_tol`` relative to the operator scale.
    NumericalError
        If the inverse Lanczos run for that ``sigma_min`` fails.
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

    lu, s = bordered_sigma_min(operator, np.full(m, 1.0 / np.sqrt(m)))(0.0)
    threshold = rank_tol * (max(np.abs(f1).max(), np.abs(f2).max()) + sg.max())
    if not s >= threshold:
        raise DefectiveGeneratorError(
            f"kernel is not simple: bordered sigma_min {s:.3e} < {threshold:.3e}"
        )
    vec = lu.solve(np.append(np.zeros(m), 1.0))[:m]

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

    return GeneratorMatrix(grid, operator, f1, f2, sg, vec)


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
