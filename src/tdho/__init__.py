"""Exact displaced and squeezed number states of a harmonic oscillator
with time-dependent mass and frequency.

The pipeline: an oscillator profile (m(t), omega^2(t)) feeds a complex mode
function solved in closed form or numerically under the Wronskian
normalization; squeezing mixes the mode with its conjugate; the mode then
generates exact number-state and displaced-squeezed number-state wave
functions, their moments, and a verification layer
(Schroedinger residual, classical centre against an independent solve,
static-oscillator closed forms) that checks the whole chain independently.
"""

from .errors import (
    GridError,
    ModeSolverError,
    PhaseUnwrapError,
    ProfileError,
    ScenarioError,
    TdhoError,
)
from .mode_solver import (
    ModePoint,
    ModeTrajectory,
    SqueezeParams,
    apply_squeeze,
    diagonalization_residual,
    evolve_mode,
    polar_decompose,
    squeezed_phase,
    static_mode,
    wkb_mode,
    wronskian,
)
from .observables import (
    MomentSet,
    analytic_moments,
    inner_product,
    quadrature_moments,
)
from .profiles import OscillatorProfile, evaluate_profile, parse_profile, profile_hash
from .states import (
    PhaseSpacePoint,
    StateSpec,
    WaveFunctionGrid,
    classical_trajectory,
    dsn_wavefunction,
    lower,
    number_wavefunction,
    spatial_grid,
    weighted_hermite,
)
from .verification import (
    NietoCoefficients,
    StaticCoefficients,
    classical_equation_residual,
    crosscheck_static,
    nieto_F,
    nieto_t0_identity_residuals,
    nieto_time_identity_residuals,
    schrodinger_residual,
    static_closed_form_wavefunction,
    static_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "GridError",
    "ModeSolverError",
    "PhaseUnwrapError",
    "ProfileError",
    "ScenarioError",
    "TdhoError",
    "ModePoint",
    "ModeTrajectory",
    "SqueezeParams",
    "apply_squeeze",
    "diagonalization_residual",
    "evolve_mode",
    "polar_decompose",
    "squeezed_phase",
    "static_mode",
    "wkb_mode",
    "wronskian",
    "MomentSet",
    "analytic_moments",
    "inner_product",
    "quadrature_moments",
    "OscillatorProfile",
    "evaluate_profile",
    "parse_profile",
    "profile_hash",
    "PhaseSpacePoint",
    "StateSpec",
    "WaveFunctionGrid",
    "classical_trajectory",
    "dsn_wavefunction",
    "lower",
    "number_wavefunction",
    "spatial_grid",
    "weighted_hermite",
    "NietoCoefficients",
    "StaticCoefficients",
    "classical_equation_residual",
    "crosscheck_static",
    "nieto_F",
    "nieto_t0_identity_residuals",
    "nieto_time_identity_residuals",
    "schrodinger_residual",
    "static_closed_form_wavefunction",
    "static_coefficients",
    "__version__",
]
