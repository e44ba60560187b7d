"""Robust fixed-lag smoother synthesis and simulation toolkit.

Builds infinite-horizon robust estimators with a fixed-lag smoothing stage
for uncertain systems carrying sector/Lipschitz-bounded nonlinearities,
via scaled Riccati equations, and validates the designs with stationary
covariance analysis and nonlinear Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .delay import DelayModel, delay_response_error, identity_delay, pade_delay
from .errors import (
    ConfigError,
    CouplingError,
    DimensionError,
    InfeasibleError,
    NumericalError,
    StationarityError,
    ToolkitError,
)
from .model import (
    AugmentedPlant,
    CompactPlant,
    UncertainPlant,
    augment_with_delay,
    build_compact,
    validate_plant,
)
from .numkernel import (
    CareSolution,
    RiccatiProblem,
    expm,
    solve_care,
    spectral_radius,
)
from .synthesis import (
    MultiplierPair,
    ScalingPoint,
    SynthesisSolution,
    assemble_multipliers,
    compute_gains,
    feasible,
    minimize_bound,
)
from .covariance import delta_sweep
from .sim import MonteCarloReport, SimConfig, monte_carlo

__all__ = [
    "__version__",
    "DelayModel", "pade_delay", "identity_delay", "delay_response_error",
    "ToolkitError", "ConfigError", "DimensionError", "InfeasibleError",
    "CouplingError", "NumericalError", "StationarityError",
    "UncertainPlant", "AugmentedPlant", "CompactPlant",
    "validate_plant", "augment_with_delay", "build_compact",
    "RiccatiProblem", "CareSolution", "solve_care",
    "expm", "spectral_radius",
    "ScalingPoint", "MultiplierPair", "SynthesisSolution",
    "assemble_multipliers", "feasible", "compute_gains", "minimize_bound",
    "delta_sweep",
    "SimConfig", "MonteCarloReport", "monte_carlo",
]
