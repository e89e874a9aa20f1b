"""Blowup criteria and radial simulation for the parabolic-elliptic
chemotaxis system with classical and fractional diffusion.

The package computes the explicit criterion constants, evaluates smoothed or
singular radial initial data against them, renders global/blowup verdicts,
and cross-checks the criteria by direct simulation of the radial mass
equation.  See README.md for the CLI and the acceptance suite.
"""

__version__ = "0.1.0"

from .criteria import (
    CriterionConstants,
    CriterionReport,
    Verdict,
    blowup_constant_fractional,
    blowup_rate_bound,
    classify,
    criterion_constants,
    criterion_curve,
    shell_mass_threshold,
    shell_semigroup_peak,
    singular_semigroup_value,
)
from .errors import (
    DivergenceError,
    IntegrabilityError,
    KscritError,
    MeasureDataError,
    NumericsError,
    ResolutionError,
    ValidationError,
)
from .kernels import (
    GaussianKernel,
    KernelTable,
    SubordinatedKernel,
    build_kernel_table,
    radial_kernel,
    validate_kernel,
)
from .radial import (
    Chandrasekhar,
    ConcentrationValue,
    ExplicitBlowupDatum,
    Gaussian,
    MassProfile,
    RadialProfile,
    ShellAtom,
    Tabulated,
    TruncatedChandrasekhar,
    density,
    mass_profile,
    parse_profile,
    radial_concentration,
    scale_profile,
    singular_coefficient,
    sphere_area,
)
from .solver import (
    BlowupEvent,
    SimResult,
    SolverControls,
    SolverGrid,
    build_grid,
    comparison_check,
    gaussian_moment,
    run,
    truncation_scaling,
)
from .subordinator import StableSubordinator

__all__ = [name for name in dir() if not name.startswith("_")]
