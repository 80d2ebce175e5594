"""Complexified SUSY quantum mechanics for the 1-D square well and barrier.

Modules:
  susy_core   superpotential families, partner potentials, shape invariance
  states      closed-form ground states, densities, PT and residual checks
  spectral    finite-difference spectra, Richardson refinement, ladders
  scattering  transfer matrices, thin-slice sweeps, barrier oracle
  gates       the physics gates shared by the CLI and the acceptance test
  cli         reproducible figure/spectrum/verify/scatter commands
"""

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateMatch,
    DomainViolation,
    EvanescentOverflow,
    InsufficientEigenvalues,
    SingularPoint,
    SliceTooCoarse,
    StepTooLarge,
    SusywellError,
)
from .susy_core import (
    Family,
    Partner,
    ShapeInvarianceResult,
    SuperpotentialSpec,
    check_shape_invariance,
    constraint_function,
    default_exclusion,
    eval_partner,
    eval_superpotential,
    eval_superpotential_derivative,
    fundamental_cell,
    partner_field,
    partner_from_superpotential,
    remainder,
    singularity_distance,
)
from .states import (
    WaveFunctionSpec,
    eval_wavefunction,
    probability_density,
    pt_asymmetry,
    schrodinger_residual,
)
from .spectral import (
    DiscretizedHamiltonian,
    Grid1D,
    IsospectralResult,
    SpectrumReport,
    discretize,
    eigenvalues,
    isospectral_check,
    remainder_spectrum,
    richardson_extrapolate,
    richardson_spectrum,
)
from .scattering import (
    ConstantSegment,
    FieldSegment,
    PiecewisePotential,
    PlaneBasisSegment,
    ScatteringResult,
    plane_partner_sweep,
    square_barrier_transmission,
    sweep_csv,
    transfer_matrix,
    transmission_reflection,
)

__version__ = "0.1.0"
