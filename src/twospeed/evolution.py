"""Time integration with mass, entropy and decay observers.

The semigroup is advanced by the implicit trapezoid rule applied to the
assembled sparse generator ``gen.operator``: unconditionally stable,
second order, and a contraction in the weighted metric because the
generator is dissipative there.  It factors ``I - (dt/2) A`` once with a
sparse LU (SuperLU through ``scipy.sparse.linalg.splu``), so each step
costs one pair of sparse triangular solves (the next right-hand side
follows from the update without a product with ``A``; one product per
recorded step refreshes it), O(n) work and memory, and no dense
``2n x 2n`` array is formed.

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
import scipy.sparse.linalg

from .errors import (
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    NonuniformSamplingError,
    ShapeError,
)
from .generator import GeneratorMatrix
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


def _observe(gen: GeneratorMatrix, stacked: np.ndarray):
    """Mass, entropy, dissipation and deviation of a stacked state.

    The deviation is ``norm(space, deflate_to_mean_zero(space, p))`` in
    ``gen.space()``, whose quadrature weights all equal ``h``, computed
    on the stacked vector without building states.
    """
    n, h, steady = gen.grid.n, gen.grid.h, gen.steady
    total = h * np.sum(stacked)
    dev = float(np.sqrt(h * np.sum(np.abs(stacked - total * steady) ** 2 / steady)))
    ratios = stacked / steady
    diss = float(
        h * np.sum(gen.sigma_cells * (steady[:n] + steady[n:]) * np.abs(ratios[:n] - ratios[n:]) ** 2)
    )
    mass = float(np.real(np.sum(stacked)) * h)
    return mass, dev * dev, diss, dev


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
    multiples of ``dt``.

    Raises
    ------
    ConfigurationError
        For a non-positive or non-finite ``T`` or ``dt``, a negative
        ``snapshot_every``, or a scheme other than those in ``SCHEMES``.
    DivergenceError
        If the state or one of its observers stops being finite.
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

    op = gen.operator
    mminus = scipy.sparse.eye_array(gen.size, format="csc") - (0.5 * dt) * op
    lu = scipy.sparse.linalg.splu(mminus)

    complex_run = bool(np.any(p0.p1.imag) or np.any(p0.p2.imag))
    p = p0.stacked if complex_run else p0.stacked.real.copy()

    x = gen.grid.centers()
    times, masses, entropies, dissipations, deviations = [], [], [], [], []
    snapshots = []

    def record(step: int) -> None:
        # A finite state can still overflow the quadratic observers, and a
        # non-finite state makes the deviation non-finite.
        with np.errstate(over="ignore", invalid="ignore"):
            observed = _observe(gen, p)
        if not np.all(np.isfinite(observed)):
            raise DivergenceError(f"non-finite state or observer at step {step}")
        mass, ent, diss, dev = observed
        times.append(step * dt)
        masses.append(mass)
        entropies.append(ent)
        dissipations.append(diss)
        deviations.append(dev)
        if snapshot_every and step % snapshot_every == 0:
            snapshots.append((step * dt, StateVector(x, p[:n].copy(), p[n:].copy())))

    record(0)
    rhs = dt * (op @ p)
    for step in range(1, nsteps + 1):
        # Increment form of the trapezoid step: solving for the update
        # keeps the conserved mass functional clean of large-state
        # roundoff over long runs.  The update d solves M d = rhs with
        # rhs = dt A p and M = I - (dt/2) A, so dt A = 2 (I - M) gives
        # the next right-hand side dt A (p + d) = 2 d - rhs without a
        # product with A.
        if complex_run:
            sol = lu.solve(np.column_stack([rhs.real, rhs.imag]))
            d = sol[:, 0] + 1j * sol[:, 1]
        else:
            d = lu.solve(rhs)
        p = p + d
        rhs = 2.0 * d - rhs
        if step % observe_every == 0 or step == nsteps:
            record(step)
            # A fresh product at each record bounds the rounding that
            # the recurrence can accumulate.
            rhs = dt * (op @ p)

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
