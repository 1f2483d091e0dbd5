"""Numerical laboratory for one-dimensional doubly perturbed diffusions.

X_t = x + int sigma(X) dW + int b(X) ds + alpha * max X + beta * min X

The core modules (artifacts, errors, models, params, simulate, skorokhod)
load with the package, as every command needs them.  The analysis modules
density, lamperti and malliavin, and the names they export here, load on
first use, so a command loads only the analysis it runs.
"""

from importlib import import_module as _import_module

from .artifacts import __version__
from .errors import (
    BoundVacuousWarning,
    EpsTooSmallWarning,
    NoConvergenceError,
    ParameterRejection,
    PsdeError,
    SigmaNotPositiveError,
    SimulationAborted,
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
    simulate_per_step_levels,
    simulate_picard,
)
from .skorokhod import MaxMinSolution, contraction_rate, solve_max_min

_LAZY = {
    "density": ("Ensemble", "LawKind", "ReferenceLaw", "atom_scan", "generate_ensemble", "kde", "ks_test",
                "reference_gaussian", "reference_singly_perturbed"),
    "lamperti": ("Transform", "build_transform", "pathwise_reduction_check"),
    "malliavin": ("CameronMartinResult", "DerivativeField", "cameron_martin_directional", "derivative_field",
                  "directional_from_field", "h_norm_profile", "malliavin_pass", "positivity_report",
                  "scheme_tangent", "terminal_h_norms"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY) + list(_MODULE_OF))


def __getattr__(name):
    """An analysis module, or a name it exports, imported on first use."""
    module = name if name in _LAZY else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value
