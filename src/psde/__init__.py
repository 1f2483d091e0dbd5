"""Numerical laboratory for one-dimensional doubly perturbed diffusions.

X_t = x + int sigma(X) dW + int b(X) ds + alpha * max X + beta * min X
"""

from .artifacts import __version__
from .density import (
    Ensemble,
    LawKind,
    ReferenceLaw,
    atom_scan,
    generate_ensemble,
    kde,
    ks_test,
    reference_gaussian,
    reference_singly_perturbed,
)
from .errors import (
    BoundVacuousWarning,
    CaseInconsistentError,
    EpsTooSmallWarning,
    NoConvergenceError,
    ParameterRejection,
    PathFailure,
    PsdeError,
    SigmaNotPositiveError,
    SimulationAborted,
)
from .lamperti import Transform, build_transform, pathwise_reduction_check
from .malliavin import (
    CameronMartinResult,
    DerivativeField,
    cameron_martin_directional,
    derivative_field,
    directional_from_field,
    h_norm_profile,
    positivity_report,
    scheme_tangent,
    terminal_h_norms,
)
from .models import (
    Coefficient,
    CoefficientModel,
    affine_clipped,
    coefficient_from_spec,
    constant,
    logistic,
    make_model,
    named_model,
    sinusoidal,
    tabulated,
)
from .params import (
    PerturbationParams,
    SmoothnessConstants,
    SMOOTHNESS_THRESHOLD,
    hnorm_lower_bound,
    hnorm_running_max_lower_bound,
    rho_of,
    smooth_density_horizon,
    smoothness_constant,
    validate_params,
)
from .simulate import (
    Path,
    Scheme,
    SimConfig,
    brownian_driver,
    path_drivers,
    path_residual,
    path_seed,
    refine_increments,
    refinement_ladder,
    running_argmax,
    running_argmin,
    simulate,
    simulate_per_step,
    simulate_picard,
)
from .skorokhod import MaxMinSolution, contraction_rate, solve_max_min

__all__ = [name for name in dir() if not name.startswith("_")]
