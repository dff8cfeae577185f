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
    as_rng,
    check_H3,
    decompose_large_jumps,
    load_tabulated_csv,
    sample_increments,
    sample_xi,
    small_jump_drift,
    stable_laplace_coefficient,
    standard_positive_stable,
)
from .switching import (
    RateMatrixSpec,
    constant_rates,
    no_switching,
    partition_point,
    sigmoid_two_state,
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
    BatchFlowResult,
    BatchNoise,
    PerturbationSpec,
    constant_direction,
    batch_flows,
    sample_batch_noise,
)
from .flows import (
    directional_derivative,
    exp_bound_excess,
    finite_difference_check,
    perturbation_shift,
    product_defect,
    product_defect_tolerance,
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
    norris_curve,
    norris_joint_probability,
    scaled_cos_field,
    two_sample_ks,
    wilson_interval,
    window_integrals,
)
from .config import RunConfig

__all__ = [name for name in dir() if not name.startswith("_")]
