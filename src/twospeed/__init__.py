"""Numerical laboratory for a two-speed transport-reaction model.

Two particle populations drift along the unit interval with their own
velocity fields, exchange mass at a reaction rate, and re-enter the
domain through flux-periodic boundary coupling.  The package constructs
the unique positive steady state, assembles a structure-preserving
upwind discretisation of the generator, verifies the relative-entropy
dissipation along trajectories, and certifies exponential convergence
through spectra, a resolvent-gap sweep on the mean-zero subspace, and
the induced semigroup decay bound.
"""

from .errors import (
    ConfigurationError,
    DefectiveGeneratorError,
    DegenerateFieldError,
    DivergenceError,
    DomainError,
    InsufficientDataError,
    InvalidCrossSectionError,
    NonUniqueSteadyStateError,
    NonuniformSamplingError,
    NumericalError,
    PositivityError,
    ShapeError,
    TwoSpeedError,
)
from .fields import (
    DEFAULT_SAMPLES,
    DEGENERACY_FLOOR,
    FieldSpec,
    ValidationReport,
    evaluate,
    validate_cross_section_overlap,
    validate_transport_fields,
)
from .steady_state import SteadyState, fundamental_matrix, solve_steady, steady_residual
from .space import (
    StateVector,
    WeightedSpace,
    deflate_to_mean_zero,
    inner,
    norm,
    project_equilibrium,
    total_mass,
)
from .generator import (
    GeneratorMatrix,
    Grid,
    apply,
    assemble,
    dissipativity_check,
    hermitian_abscissa,
    symmetrized,
)
from .evolution import (
    DecayEstimate,
    TimeSeries,
    component_imbalance,
    entropy_identity_residual,
    estimate_decay,
    evolve,
    steady_plus_mode,
)
from .spectral import (
    PsiEstimate,
    SemigroupBoundReport,
    SpectrumReport,
    psi_sweep,
    semigroup_bound_check,
    spectrum,
)
from .stationary_phase import PhaseSweep, lemma_sweep, phase_integral

__version__ = "0.1.0"
