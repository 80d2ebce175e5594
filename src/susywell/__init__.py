"""Complexified SUSY quantum mechanics for the 1-D square well and barrier.

Modules:
  susy_core   superpotential families, partner potentials, the ladder step
  states      closed-form ground states and ladder energies, densities,
              PT and residual checks
  spectral    finite-difference spectra, Richardson refinement
  scattering  transfer matrices of the square barrier and the plane
              partners (exact series), barrier oracle
  gates       the physics gates shared by the CLI and the acceptance test,
              and the figure tables
  cli         reproducible figure/spectrum/verify/scatter commands; it
              renders the spectrum and sweep files
"""

from .errors import ConfigError, ConvergenceFailure, SusywellError
from .susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    default_exclusion,
    eval_partner,
    eval_superpotential,
    fundamental_cell,
    partner_field,
    singularity_distance,
)
from .states import (
    eval_wavefunction,
    probability_density,
    pt_asymmetry,
    remainder_spectrum,
    schrodinger_residual,
)
from .spectral import (
    DiscretizedHamiltonian,
    Grid1D,
    SpectrumReport,
    discretize,
    eigenvalues,
    richardson_spectrum,
)
from .scattering import (
    ScatteringResult,
    barrier_sweep,
    plane_partner_sweep,
    square_barrier_transmission,
)

__version__ = "0.1.0"
