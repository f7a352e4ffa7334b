"""Time integration with mass, entropy and decay observers.

The semigroup is advanced by the implicit trapezoid rule applied to the
assembled sparse generator ``gen.operator``: unconditionally stable,
second order, and a contraction in the weighted metric because the
generator is dissipative there.  The run keeps its state in
:func:`twospeed.generator.fold_order`, where ``M = I - (dt/2) A`` is a
band of half-width 4, and factors ``M`` once with LAPACK's band LU
(``dgbtrf``) as ``M = L D U'``: ``L`` and ``U' = D^{-1} U`` are unit
band triangles and ``D`` holds the pivots.  Upwinding leaves every
off-diagonal of ``A`` non-negative and its columns sum to zero, so ``M``
is a Z-matrix whose columns each sum to exactly 1, for any ``dt > 0``,
any sign of the speeds and any ``sigma >= 0``.  It is strictly
diagonally dominant by columns, so partial pivoting exchanges no rows
(Golub & Van Loan, *Matrix Computations*, 3.4), and each Schur
complement is again a Z-matrix with column sums ``>= 1``, so every pivot
is ``>= 1`` and scaling by ``1/D`` is benign (Higham, *Accuracy and
Stability of Numerical Algorithms*, 9); the factorization checks that
it exchanged no row.  Each step is one BLAS band solve (``dtbsv``) with
``L``, one scaling by ``1/D`` and one band solve with ``U'``: O(n) work
and memory, and no dense ``2n x 2n`` array is formed.  With unit
diagonals no column of a band solve waits on a division.  The next
right-hand side follows from the update without a product with ``A``;
one product per recorded step refreshes it, and the state is put back
in the stacked order only there.

Observers recorded along the way, all in the metric induced by the
generator's discrete steady state ``v``:

``mass``
    total mass (conserved to rounding by the zero column sums),
``entropy``
    ``H(t) = || p - Pi p ||^2``, the quadratic relative entropy of the
    mass-matched deviation (for unit-mass data this is
    ``sum_i int (h_i - 1)^2 v_i`` with ``h_i = p_i / v_i``),
``dissipation``
    ``D(t) = int sigma (v_1 + v_2) |h_1 - h_2|^2``,
``deviation``
    ``|| p - Pi p ||`` itself.

Along exact trajectories ``dH/dt = -D`` up to the strictly negative
upwind dissipation, so the centered-difference residual of the identity
is O(dt^2) from the time discretisation plus an O(h) spatial floor that
vanishes for spatially uniform component ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf

from .errors import (
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    NonuniformSamplingError,
    NumericalError,
    ShapeError,
)
from .generator import GeneratorMatrix, fold_order, folded
from .space import StateVector

SCHEMES = ("implicit-trapezoid",)

#: Share of the usable observation times, at the end of the record,
#: that :func:`estimate_decay` fits.
WINDOW_FRACTION = 0.5


@dataclass(frozen=True)
class TimeSeries:
    """Observer record of one evolution run."""

    times: np.ndarray
    mass: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray
    deviation: np.ndarray
    snapshots: tuple = ()


@dataclass(frozen=True)
class DecayEstimate:
    """Least-squares exponential fit of the deviation record."""

    alpha_hat: float
    prefactor: float
    window: tuple
    fit_residual: float


def steady_plus_mode(gen: GeneratorMatrix, k: int, amplitude: float) -> StateVector:
    """Steady state plus an antisymmetric cosine perturbation of mode ``k``.

    The perturbation ``(a cos(2 pi k x), -a cos(2 pi k x))`` carries zero
    total mass, so the initial total mass stays one.
    """
    x = gen.grid.centers()
    bump = amplitude * np.cos(2.0 * np.pi * k * x)
    return gen.state(gen.steady1 + bump, gen.steady2 - bump)


def component_imbalance(gen: GeneratorMatrix, amplitude: float) -> StateVector:
    """Steady state with the two components scaled by ``1 +- a``.

    Component masses are equal, so the total mass stays one while the
    ratios ``h_i`` start spatially uniform - the configuration whose
    entropy decay is free of upwind dissipation.
    """
    return gen.state((1.0 + amplitude) * gen.steady1, (1.0 - amplitude) * gen.steady2)


def _observer(gen: GeneratorMatrix):
    """Mass, entropy, dissipation and deviation of a state, as a function.

    The returned function takes the stacked state as real columns, its
    real part and, for a complex state, its imaginary part, and returns
    ``(mass, entropy, dissipation, deviation)``.  The deviation is
    ``norm(space, deflate_to_mean_zero(space, p))`` in ``gen.space()``,
    whose quadrature weights all equal ``h``, computed without building
    states.  The weights ``1 / v`` and ``h sigma (v_1 + v_2)`` are
    computed once here, and each observation reduces by BLAS dots.
    """
    n, h = gen.grid.n, gen.grid.h
    steady = gen.steady[:, None]
    inverse = 1.0 / steady
    coupling = h * gen.sigma_cells[:, None] * (steady[:n] + steady[n:])

    def observe(p: np.ndarray):
        total = h * p.sum(axis=0)
        excess = p - total * steady
        dev = float(np.sqrt(h * np.vdot(excess, inverse * excess)))
        ratios = inverse * p
        gap = ratios[:n] - ratios[n:]
        return float(total[0]), dev * dev, float(np.vdot(gap, coupling * gap)), dev

    return observe


def _trapezoid_factors(op: scipy.sparse.csc_array, dt: float):
    """Band factors of ``M = I - (dt/2) op = L D U'`` for a banded ``op``.

    Returns ``(kd, lower, pivots, upper)``: the half-width of ``M``, the
    unit lower triangle ``L``, the pivots ``D`` of the band LU and the
    unit upper triangle ``U' = D^{-1} U``, the triangles in BLAS band
    storage with ``kd`` off-diagonals, ready for ``dtbsv`` with
    ``diag=1``.

    Raises
    ------
    NumericalError
        If ``M`` is singular or the band LU exchanged a row, so that ``L``,
        ``D`` and ``U'`` alone do not factor ``M``.
    """
    m = op.shape[0]
    coo = (scipy.sparse.eye_array(m, format="csc") - (0.5 * dt) * op).tocoo()
    kd = int(np.abs(coo.row - coo.col).max(initial=0))
    band = np.zeros((3 * kd + 1, m), order="F")
    band[2 * kd + coo.row - coo.col, coo.col] = coo.data
    lu, ipiv, info = dgbtrf(band, kd, kd, overwrite_ab=1)
    if info > 0:
        raise NumericalError(f"trapezoid matrix I - (dt/2) A is singular at pivot {info}")
    if not np.array_equal(ipiv, np.arange(m)):
        pivot = int(np.flatnonzero(ipiv != np.arange(m))[0])
        raise NumericalError(
            f"band LU of I - (dt/2) A exchanged rows at pivot {pivot}: "
            "the generator is not diagonally dominant by columns"
        )
    # Without exchanges U keeps the kd superdiagonals of M: row 2kd - s
    # of LAPACK's storage holds U[j - s, j] in column j, so row 2kd holds
    # the pivots and the multipliers of L lie below it.  U' = D^{-1} U
    # divides U[j - s, j] by pivot j - s.  The unit-diagonal solves read
    # neither triangle's diagonal row.
    pivots = lu[2 * kd].copy()
    upper = np.asfortranarray(lu[kd : 2 * kd + 1])
    for s in range(1, kd + 1):
        upper[kd - s, s:] /= pivots[: m - s]
    return kd, np.asfortranarray(lu[2 * kd :]), pivots, upper


def step_count(T: float, dt: float) -> int:
    """Number of steps :func:`evolve` takes to reach ``T``: ``round(T / dt)``, at least one."""
    return max(1, int(round(T / dt)))


def evolve(
    gen: GeneratorMatrix,
    p0: StateVector,
    T: float,
    dt: float,
    scheme: str = "implicit-trapezoid",
    observe_every: int = 1,
    snapshot_every: int = 0,
) -> TimeSeries:
    """Advance ``p0`` to time ``T`` and record the observers.

    Observations are taken at ``t = 0``, after every ``observe_every``
    steps, and at the final step.  The number of steps is
    ``round(T / dt)`` but at least one, so recorded times are exact
    multiples of ``dt``.  Each step solves ``M d = dt A p`` for the
    update ``d``, with ``M = I - (dt/2) A = L D U'``, in fold order: a
    unit lower band solve with ``L``, a scaling by the pivots ``1/D``
    and a unit upper band solve with ``U'`` (a complex state solves its
    real and imaginary parts in turn).  Every pivot is at least 1.

    Raises
    ------
    ConfigurationError
        For a non-positive or non-finite ``T`` or ``dt``, a negative
        ``snapshot_every``, or a scheme other than those in ``SCHEMES``.
    DivergenceError
        If the state or one of its observers stops being finite.
    NumericalError
        If ``M`` is singular or its band LU exchanged a row, which no
        upwind generator allows; no step is taken.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ConfigurationError(f"time step must be positive and finite, got {dt!r}")
    if not (T > 0.0 and np.isfinite(T)):
        raise ConfigurationError(f"final time must be positive and finite, got {T!r}")
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if observe_every < 1:
        raise ConfigurationError("observe_every must be a positive integer")
    if snapshot_every < 0:
        raise ConfigurationError("snapshot_every must be a non-negative integer")
    n = gen.grid.n
    if len(p0.p1) != n:
        raise ShapeError("initial state does not live on the generator's cell grid")
    nsteps = step_count(T, dt)

    order = fold_order(n)
    op = folded(gen.operator, n)
    kd, lower, pivots, upper = _trapezoid_factors(op, dt)
    scale = 1.0 / pivots
    observe = _observer(gen)

    # The state in fold order, as real columns: its real part and, for
    # complex data, its imaginary part.  Records put it back in the
    # stacked order.
    stacked = p0.stacked
    complex_run = bool(np.any(stacked.imag))
    parts = (stacked.real, stacked.imag) if complex_run else (stacked.real,)
    q = np.asfortranarray(np.stack(parts, axis=1)[order])
    stacked_at = np.argsort(order)
    rhs, d = np.empty_like(q), np.empty_like(q)
    columns = list(d.T)

    x = gen.grid.centers()
    times, masses, entropies, dissipations, deviations = [], [], [], [], []
    snapshots = []

    def record(step: int) -> None:
        p = q[stacked_at]
        # A finite state can still overflow the quadratic observers, and a
        # non-finite state makes the deviation non-finite.
        with np.errstate(over="ignore", invalid="ignore"):
            observed = observe(p)
        if not np.all(np.isfinite(observed)):
            raise DivergenceError(f"non-finite state or observer at step {step}")
        mass, ent, diss, dev = observed
        times.append(step * dt)
        masses.append(mass)
        entropies.append(ent)
        dissipations.append(diss)
        deviations.append(dev)
        if snapshot_every and step % snapshot_every == 0:
            state = p[:, 0] + 1j * p[:, 1] if complex_run else p[:, 0]
            snapshots.append((step * dt, StateVector(x, state[:n], state[n:])))

    record(0)
    np.multiply(dt, op @ q, out=rhs)
    for step in range(1, nsteps + 1):
        # Increment form of the trapezoid step: solving for the update
        # keeps the conserved mass functional clean of large-state
        # roundoff over long runs.  The update d solves M d = rhs with
        # rhs = dt A q and M = I - (dt/2) A, so dt A = 2 (I - M) gives
        # the next right-hand side dt A (q + d) = 2 d - rhs without a
        # product with A.  Every operation writes in place, and doubling
        # d is exact, so 2 d - rhs rounds once.
        np.copyto(d, rhs)
        for column in columns:
            dtbsv(kd, lower, column, lower=1, diag=1, overwrite_x=1)
            column *= scale
            dtbsv(kd, upper, column, diag=1, overwrite_x=1)
        q += d
        d *= 2.0
        np.subtract(d, rhs, out=rhs)
        if step % observe_every == 0 or step == nsteps:
            record(step)
            # A fresh product at each record bounds the rounding that
            # the recurrence can accumulate.
            np.multiply(dt, op @ q, out=rhs)

    return TimeSeries(
        np.asarray(times),
        np.asarray(masses),
        np.asarray(entropies),
        np.asarray(dissipations),
        np.asarray(deviations),
        tuple(snapshots),
    )


def entropy_identity_residual(series: TimeSeries) -> float:
    """Normalized defect of ``dH/dt + D = 0`` along the record.

    Estimates ``dH/dt`` by centered differences at interior observation
    times and returns the maximum of ``|dH/dt + D|`` divided by the
    larger of the dissipation and entropy scales of the record.

    Raises
    ------
    NonuniformSamplingError
        If the observation times are not uniformly spaced.
    """
    t = series.times
    if len(t) < 3:
        raise NonuniformSamplingError("need at least three observation times")
    spacing = np.diff(t)
    if np.abs(spacing - spacing[0]).max() > 1e-9 * max(spacing[0], 1e-300):
        raise NonuniformSamplingError("observation times are not uniformly spaced")
    delta = spacing[0]
    dh = (series.entropy[2:] - series.entropy[:-2]) / (2.0 * delta)
    defect = np.abs(dh + series.dissipation[1:-1])
    scale = max(series.dissipation.max(), series.entropy.max())
    # A record with no entropy signal at all (stationary data) satisfies
    # the identity trivially; dividing noise by noise would hide that.
    noise_floor = (np.finfo(float).eps * max(1.0, float(np.abs(series.mass).max()))) ** 2
    if scale <= 100.0 * noise_floor:
        return float(defect.max())
    return float(defect.max() / scale)


def estimate_decay(series: TimeSeries) -> DecayEstimate:
    """Fit ``deviation(t) ~ C * dev(0) * exp(-alpha t)`` on a trailing window.

    Times where the deviation has decayed below ``100 * eps`` times its
    initial value are unusable (pure rounding noise); the fit uses the
    trailing ``WINDOW_FRACTION`` of the usable times and needs at least
    four of them.
    """
    dev0 = series.deviation[0]
    if dev0 <= 0.0:
        raise InsufficientDataError("initial deviation is zero; nothing to fit")
    floor = 100.0 * np.finfo(float).eps * dev0
    usable = (series.deviation > floor) & (series.deviation > 0.0)
    t = series.times[usable]
    d = series.deviation[usable]
    count = int(np.ceil(WINDOW_FRACTION * len(t)))
    if count < 4:
        raise InsufficientDataError(
            f"only {count} usable observation times in the fit window (need 4)"
        )
    tw = t[-count:]
    dw = np.log(d[-count:])
    slope, intercept = np.polyfit(tw, dw, 1)
    fit = slope * tw + intercept
    residual = float(np.sqrt(np.mean((fit - dw) ** 2)))
    return DecayEstimate(
        alpha_hat=float(-slope),
        prefactor=float(np.exp(intercept) / dev0),
        window=(float(tw[0]), float(tw[-1])),
        fit_residual=residual,
    )
