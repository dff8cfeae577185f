"""Monte Carlo simulation and verification engine for regime-switching SDEs
driven by subordinated Brownian motion."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    NumericError,
    SpecError,
    SwitchSdeError,
    UnsupportedConfigError,
)
from .levy_noise import (
    DecompositionSpec,
    H3Result,
    LevyMeasureSpec,
    SubordinatedBMPath,
    SubordinatorPath,
    as_rng,
    check_H3,
    decompose_large_jumps,
    levy_measure_of_L,
    load_tabulated_csv,
    sample_increments,
    sample_subordinated_bm,
    sample_subordinator_path,
    sample_xi,
    small_jump_drift,
    stable_laplace_coefficient,
    standard_positive_stable,
    xi_density,
)
from .switching import (
    PRMEventStream,
    RateMatrixSpec,
    RegimePath,
    constant_rates,
    longest_constant_interval,
    no_switching,
    partition_point,
    sigmoid_two_state,
    simulate_regime_events,
    simulate_regime_path,
    validate_rates,
)
from .models import (
    MODEL_BUILDERS,
    ModelSpec,
    make_kalman,
    make_linear,
    make_model,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    validate_model,
)
from .sde_core import (
    BatchNoise,
    CoupledPath,
    PerturbationSpec,
    build_time_grid,
    constant_direction,
    frozen_regime_path,
    grid_index,
    sample_batch_noise,
    simulate_path,
    simulate_perturbed_path,
)
from .flows import (
    BatchFlowResult,
    CovarianceRecord,
    FlowRecord,
    batch_flows,
    directional_derivative,
    evolve_flows,
    finite_difference_check,
    product_defect_tolerance,
    reduced_covariance,
    representation_residual,
    sample_covariances,
)
from .hormander import (
    BracketSet,
    KappaEstimate,
    ball_points,
    bracket_with_drift,
    build_brackets,
    estimate_kappa1,
)
from .diagnostics import (
    DensityEstimate,
    GradRepResult,
    KSResult,
    MomentEstimate,
    NorrisCurve,
    NorrisParams,
    TailCurve,
    TestField,
    constant_field,
    decomposition_ks_test,
    drift_field_bracket,
    eigen_tail,
    gradient_representation_check,
    kde_density,
    ks_calibration,
    ks_statistic,
    negative_moment,
    norris_joint_probability,
    scaled_cos_field,
    two_sample_ks,
    wilson_interval,
    window_integrals,
)
from .config import RunConfig

__all__ = [name for name in dir() if not name.startswith("_")]
