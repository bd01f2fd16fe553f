"""Numerical laboratory for two-species hybrid reaction-diffusion fronts.

Subpackages by concern: periodic coefficient sets and homogenized means
(coefficients), the conservative-flux stencil shared by the solvers
(stencil), principal eigenvalues of the linearized system (eigen),
spreading speeds and persistence indicators (speeds), the spatially
homogeneous kinetic analysis (ode), the nonlinear front simulator (pde),
and the command-line interface (cli).
"""

from .coefficients import (
    CoefficientSet,
    CoefficientSpec,
    HomogenizedSet,
    constant_set,
    from_sis,
    homogenize,
    rescale_epsilon,
)
from .eigen import (
    DiscreteOperator,
    EigenResult,
    GridSpec,
    build_operator,
    dirichlet_eigenvalue,
    k_of_lambda,
    principal_eigenpair,
)
from .ode import HomParams, OdeAnalysis, equilibrium, integrate, lambda_A
from .pde import DomainSpec, FieldState, FrontTrace, InitialData, measure_speed, simulate
from .speeds import SpeedReport, homogenized_speed, spreading_speeds

__version__ = "0.1.0"
