"""Pseudo-spectral toolkit for the smoothed 2D stochastic fluid model:
operator algebra on the torus, semi-implicit integrators for the coupled
systems, and the deviation-principle machinery (rate functions, small-noise
Monte Carlo, limit probes)."""

from .config import ConfigError, RunConfig, load_config, parse_config_text, preset
from .deviations import (
    RateProblem,
    RateResult,
    SupNormEvent,
    TailEstimate,
    TerminalField,
    TerminalObservable,
    TerminalObservableEvent,
    convergence_study,
    mc_tail,
    mdp_rescale,
    rate_function,
    skeleton_gradient,
    weak_continuity_probe,
)
from .dynamics import (
    BlowupError,
    EnergyReport,
    ScalingLaw,
    SolverConfig,
    TrajectoryRecord,
    dense_nse,
    energy_report,
    solve_lans,
    solve_nse,
    solve_skeleton,
    solve_unified,
)
from .noise import (
    Control,
    NoiseOperator,
    WienerPath,
    additive_noise,
    control_cost,
    projection_multiplicative_noise,
    sample_wiener,
    sine_control,
    trajectory_wiener,
    weak_distance,
    zero_control,
)
from .spectral import (
    LatticeMismatchError,
    SpectralField,
    TorusLattice,
    calibrate_estimates,
    eigenmode_field,
    identity_report,
    make_lattice,
    random_field,
    single_shear,
    taylor_green,
    verify_operator_bounds,
    zero_field,
)

__version__ = "0.1.0"
