"""Simulation and analytics for Brownian motion with stochastic resetting.

A diffusing particle is returned to a fixed point at the epochs of a
resetting clock (Poisson, power-law nonhomogeneous Poisson, or a generic
renewal process).  The package provides exact and Euler simulation of the
jump-diffusion dynamics, closed-form distributional results (moment
generating function, characteristic function, density, moments,
stationary law), finite-difference solvers for the governing density
equations, and the estimators needed to cross-validate all of the above.
"""

from .core import (
    DeterministicGaps,
    DomainError,
    Ensemble,
    ExponentialGaps,
    NonhomogeneousPoissonClock,
    ParetoGaps,
    PoissonClock,
    ProcessSpec,
    RenewalClock,
    SpecError,
    Trajectory,
    rescale_to_unit,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from .simulate import (
    EulerScheme,
    ExactScheme,
    SchemeConfig,
    euler_marginal_samples,
    marginal_samples,
    run_ensemble,
    simulate_euler,
    simulate_exact,
)

__version__ = "0.1.0"
