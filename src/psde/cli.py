"""Experiment runner: every capability behind one subcommand.

Subcommands: validate, simulate, picard-compare, malliavin, density,
lamperti-check, constants.  Configuration is a JSON file checked against a
published schema (unknown keys are errors); ``--seed``, ``--paths``,
``--steps`` and ``--out`` override the corresponding config entries.

Exit codes: 0 success, 2 validation rejection, 3 numerical failure,
4 I/O error.  Failures emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

import numpy as np

from . import density as density_mod
from . import lamperti as lamperti_mod
from . import malliavin as malliavin_mod
from .artifacts import (
    __version__,
    fingerprint,
    write_csv,
    write_field_csv,
    write_json_report,
    write_path_csv,
)
from .errors import NoConvergenceError, ParameterRejection, PathFailure, SigmaNotPositiveError
from .models import CoefficientModel, coefficient_from_spec, make_model, named_model, tabulated
from .params import (
    hnorm_lower_bound,
    smooth_density_horizon,
    smoothness_constant,
    validate_params,
)
from .simulate import Scheme, SimConfig, refinement_ladder, simulate, simulate_per_step, simulate_picard

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_COEF_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"type": "string"}},
    "required": ["kind"],
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["params", "sim"],
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"type": "string"},
                "b": _COEF_SCHEMA,
                "sigma": _COEF_SCHEMA,
            },
        },
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alpha", "beta"],
            "properties": {"alpha": {"type": "number"}, "beta": {"type": "number"}},
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "required": ["x0", "horizon", "n_steps", "seed"],
            "properties": {
                "x0": {"type": "number"},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
                "scheme": {"enum": ["per-step", "picard"]},
                "picard_outer_iters": {"type": "integer", "minimum": 1},
                "fixed_point_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_paths": {"type": "integer", "minimum": 0},
                "bin_widths": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "bandwidth": {},
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "n_intervals": {"type": "integer", "minimum": 1},
                "refinements": {"type": "integer", "minimum": 1},
                "t_values": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "export_field": {"type": "boolean"},
                "skorokhod_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output_dir": {"type": "string"},
    },
}


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float), "integer": int}


class _CliFailure(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _check_schema(value, schema: dict, path: str = "") -> None:
    """Reject value (ConfigError, exit 2) unless it matches schema.

    Knows the keywords CONFIG_SCHEMA uses: type, properties, required,
    additionalProperties, minimum, maximum, exclusiveMinimum, enum and
    items.  A bool is neither a number nor an integer, and an integer must
    be an int: 100.0 is not one.  The message names the key path.
    """

    def reject(why: str):
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"config rejected at {path or 'top level'}: {why}")

    kind = schema.get("type")
    if kind is not None and (
        not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind in ("number", "integer"))
    ):
        reject(f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        reject(f"{value!r} is not one of {schema['enum']}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            reject(f"{value!r} is less than the minimum of {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            reject(f"{value!r} is greater than the maximum of {schema['maximum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            reject(f"{value!r} is not greater than {schema['exclusiveMinimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                reject(f"{key!r} is a required property")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                _check_schema(item, properties[key], f"{path}.{key}" if path else key)
            elif schema.get("additionalProperties", True) is False:
                reject(f"unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for k, item in enumerate(value):
            _check_schema(item, schema["items"], f"{path}[{k}]")


def _load_config(args) -> dict:
    """The config file with --seed and --steps applied, checked against the
    schema, and --paths checked against the schema's bound on n_paths."""
    path = args.config
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, "IOError", f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliFailure(EXIT_IO, "JSONDecodeError", f"config {path} is not valid JSON: {exc}") from exc
    sim = raw.get("sim") if isinstance(raw, dict) else None
    if isinstance(sim, dict):
        for key, value in (("seed", args.seed), ("n_steps", args.steps)):
            if value is not None:
                sim[key] = value
    paths_min = CONFIG_SCHEMA["properties"]["analysis"]["properties"]["n_paths"]["minimum"]
    if args.paths is not None and args.paths < paths_min:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"--paths must be >= {paths_min}, got {args.paths}")
    _check_schema(raw, CONFIG_SCHEMA)
    return raw


def _build_model(cfg: dict, base_dir: FsPath) -> CoefficientModel:
    spec = cfg.get("model", {"preset": "unit"})
    if "preset" in spec:
        if "b" in spec or "sigma" in spec:
            raise _CliFailure(EXIT_REJECTED, "ConfigError", "model: give preset or b/sigma, not both")
        return named_model(spec["preset"])
    if "b" not in spec or "sigma" not in spec:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", "model needs both b and sigma specs")
    try:
        return make_model(
            _coef(spec["b"], base_dir), _coef(spec["sigma"], base_dir), name="config"
        )
    except (TypeError, ValueError) as exc:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"bad coefficient spec: {exc}") from exc


def _coef(spec: dict, base_dir: FsPath):
    if spec.get("kind") == "tabulated" and "path" in spec:
        table = np.loadtxt(base_dir / spec["path"], delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1))
        return tabulated(table[:, 0], table[:, 1])
    return coefficient_from_spec(spec)


def _sim_config(cfg: dict) -> SimConfig:
    sim = cfg["sim"]
    return SimConfig(
        x0_seed_value=sim["x0"],
        horizon=sim["horizon"],
        n_steps=sim["n_steps"],
        rng_seed=sim["seed"],
        scheme=Scheme(sim.get("scheme", "per-step")),
        picard_outer_iters=sim.get("picard_outer_iters", 50),
        fixed_point_tol=sim.get("fixed_point_tol", 1e-10),
    )


def _load(args):
    """Config, model, validated parameters and output directory of a run."""
    cfg = _load_config(args)
    model = _build_model(cfg, FsPath(args.config).resolve().parent)
    params = validate_params(cfg["params"]["alpha"], cfg["params"]["beta"])
    out_dir = FsPath(args.out or cfg.get("output_dir", "psde_out"))
    return cfg, model, params, out_dir


def _context(args):
    cfg, model, params, out_dir = _load(args)
    sim_cfg = _sim_config(cfg)
    analysis = cfg.get("analysis", {})
    fp = fingerprint(
        {
            "model": model.describe(),
            "alpha": params.alpha,
            "beta": params.beta,
            "sim": sim_cfg.describe(),
            "analysis": analysis,
        }
    )
    return cfg, model, params, sim_cfg, analysis, out_dir, fp


def _emit(report: dict, quiet: bool) -> None:
    if not quiet:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")


def cmd_validate(args) -> int:
    _, model, params, out_dir = _load(args)
    horizon = smooth_density_horizon(params.alpha, params.beta, model.b_prime_sup)
    fp = fingerprint({"model": model.describe(), "alpha": params.alpha, "beta": params.beta})
    report = write_json_report(
        out_dir / "validate.json",
        {
            "accepted": True,
            "alpha": params.alpha,
            "beta": params.beta,
            "rho": params.rho,
            "t0": horizon.t0,
            "t0_unbounded": horizon.t0_unbounded,
            "threshold_ok": horizon.threshold_ok,
            "b_prime_sup": model.b_prime_sup,
        },
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


def cmd_constants(args) -> int:
    _, model, params, sim_cfg, analysis, out_dir, fp = _context(args)
    horizon = smooth_density_horizon(params.alpha, params.beta, model.b_prime_sup)
    t_values = analysis.get("t_values")
    if not t_values:
        top = horizon.t0 if (horizon.threshold_ok and not horizon.t0_unbounded) else sim_cfg.horizon
        t_values = list(np.linspace(top / 20.0, top, 20))
    rows = []
    for t in t_values:
        c = smoothness_constant(t, params.alpha, params.beta, model.b_prime_sup)
        bound = (
            hnorm_lower_bound(t, t, model.sigma_inf, params.alpha, params.beta, model.b_prime_sup)
            if c < 1.0
            else 0.0
        )
        rows.append((float(t), float(c), float(bound)))
    write_csv(out_dir / "constants.csv", ["t", "c_of_t", "hnorm_lower_bound"], rows)
    report = write_json_report(
        out_dir / "constants.json",
        {
            "t0": horizon.t0,
            "threshold_ok": horizon.threshold_ok,
            "t0_unbounded": horizon.t0_unbounded,
            "c_at_t0": horizon.c_of_t,
            "rho": params.rho,
            "artifacts": ["constants.csv"],
        },
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, model, params, sim_cfg, _, out_dir, fp = _context(args)
    path = simulate(model, params, sim_cfg)
    write_path_csv(out_dir / "path.csv", path)
    report = write_json_report(
        out_dir / "simulate.json",
        {
            "scheme": sim_cfg.scheme.value,
            "n_steps": sim_cfg.n_steps,
            "terminal": float(path.x[-1]),
            "running_max": float(path.m[-1]),
            "running_min": float(path.i[-1]),
            "artifacts": ["path.csv"],
        },
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


def cmd_picard_compare(args) -> int:
    _, model, params, sim_cfg, analysis, out_dir, fp = _context(args)
    rows = []
    for level_cfg, inc in refinement_ladder(sim_cfg, analysis.get("refinements", 3)):
        a = simulate_per_step(model, params, level_cfg, inc)
        b = simulate_picard(model, params, level_cfg, inc)
        rows.append((level_cfg.n_steps, level_cfg.dt, float(np.max(np.abs(a.x - b.x)))))
    write_csv(out_dir / "scheme_discrepancy.csv", ["n_steps", "dt", "sup_discrepancy"], rows)
    report = write_json_report(
        out_dir / "picard_compare.json",
        {
            "levels": [{"n_steps": r[0], "dt": r[1], "sup_discrepancy": r[2]} for r in rows],
            "artifacts": ["scheme_discrepancy.csv"],
        },
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


def cmd_malliavin(args) -> int:
    _, model, params, sim_cfg, analysis, out_dir, fp = _context(args)
    path = simulate_per_step(model, params, sim_cfg)
    field = malliavin_mod.derivative_field(path, model, params)
    profile = malliavin_mod.h_norm_profile(field)
    positivity = None
    n_paths = args.paths if args.paths is not None else analysis.get("n_paths", 0)
    if n_paths:
        h_values = malliavin_mod.terminal_h_norms(model, params, sim_cfg, n_paths)
        positivity = malliavin_mod.positivity_report(
            h_values, t=sim_cfg.horizon, sigma_inf=model.sigma_inf
        ).to_dict()
        write_json_report(out_dir / "positivity.json", dict(positivity), fp)
    write_csv(
        out_dir / "h_norm.csv",
        ["t", "h_norm"],
        ((float(path.grid[k]), float(profile[k])) for k in range(len(profile))),
    )
    artifacts = ["h_norm.csv"]
    if analysis.get("export_field", False):
        write_field_csv(out_dir / "field.csv", field)
        artifacts.append("field.csv")
    eps = analysis.get("eps", 1e-4)
    n_intervals = analysis.get("n_intervals", 10)
    edges = np.linspace(0.0, sim_cfg.horizon, n_intervals + 1).tolist()
    windows = list(zip(edges[:-1], edges[1:]))
    finite_differences = malliavin_mod.cameron_martin_directional(model, params, sim_cfg, windows, eps)
    checks = []
    for (r_lo, r_hi), fd in zip(windows, finite_differences):
        fv = malliavin_mod.directional_from_field(field, r_lo, r_hi)
        denom = max(abs(fd.value), 1e-300)
        checks.append(
            {
                "r_lo": r_lo,
                "r_hi": r_hi,
                "field": fv,
                "finite_difference": fd.value,
                "rel_error": abs(fv - fd.value) / denom,
                "eps_too_small": fd.eps_too_small,
            }
        )
    if positivity is not None:
        artifacts.append("positivity.json")
    report = write_json_report(
        out_dir / "malliavin.json",
        {
            "terminal_h_norm": float(profile[-1]),
            "cameron_martin": checks,
            "max_rel_error": max(c["rel_error"] for c in checks),
            "positivity": positivity,
            "artifacts": artifacts,
        },
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


def cmd_density(args) -> int:
    _, model, params, sim_cfg, analysis, out_dir, fp = _context(args)
    n_paths = args.paths if args.paths is not None else analysis.get("n_paths", 10_000)
    ensemble = density_mod.generate_ensemble(model, params, sim_cfg, n_paths)
    write_csv(
        out_dir / "ensemble.csv",
        ["terminal_value"],
        ((float(v),) for v in ensemble.terminal_values),
    )
    est = density_mod.kde(ensemble, analysis.get("bandwidth", "auto"))
    write_csv(
        out_dir / "kde.csv",
        ["v", "density"],
        ((float(a), float(b)) for a, b in zip(est.grid, est.density)),
    )
    scans = [
        density_mod.atom_scan(ensemble, w).__dict__
        for w in analysis.get("bin_widths", [1e-1, 1e-2, 1e-3])
    ]
    ks_payload = None
    is_unit = model.name == "unit" or (
        model.spec.get("b") == {"kind": "constant", "value": 0.0}
        and model.spec.get("sigma") == {"kind": "constant", "value": 1.0}
    )
    if is_unit and params.beta == 0.0:
        shift = sim_cfg.x0_seed_value / (1.0 - params.alpha)
        if params.alpha == 0.0:
            law = density_mod.reference_gaussian(shift, sim_cfg.horizon)
        else:
            base = density_mod.reference_singly_perturbed(params.alpha, sim_cfg.horizon)
            law = density_mod.ReferenceLaw(
                base.kind,
                lambda v: base.density(np.asarray(v) - shift),
                lambda v: base.cdf(np.asarray(v) - shift),
            )
        ks = density_mod.ks_test(ensemble, law)
        ks_payload = {
            "statistic": ks.statistic,
            "critical_1pct": ks.critical_1pct,
            "passes_1pct": ks.passes_1pct,
            "passes_5pct": ks.passes_5pct,
            "low_power": ks.low_power,
            "reference": law.kind.value,
        }
    report = write_json_report(
        out_dir / "density.json",
        {
            "n_paths": ensemble.n_paths,
            "sample_mean": float(np.mean(ensemble.terminal_values)) if n_paths else None,
            "sample_std": float(np.std(ensemble.terminal_values)) if n_paths else None,
            "kde_bandwidth": est.bandwidth,
            "kde_integral": est.integral(),
            "atom_scan": scans,
            "ks": ks_payload,
            "artifacts": ["ensemble.csv", "kde.csv"],
        },
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


def cmd_lamperti_check(args) -> int:
    _, model, params, sim_cfg, analysis, out_dir, fp = _context(args)
    report_obj = lamperti_mod.pathwise_reduction_check(
        model, params, sim_cfg, n_refinements=analysis.get("refinements", 3)
    )
    transform = report_obj.transform
    write_csv(
        out_dir / "transform.csv",
        ["y", "g"],
        ((float(a), float(b)) for a, b in zip(transform.nodes, transform.g_nodes)),
    )
    report = write_json_report(
        out_dir / "lamperti.json",
        {**report_obj.to_dict(), "artifacts": ["transform.csv"]},
        fp,
    )
    _emit(report, args.quiet)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "constants": cmd_constants,
    "simulate": cmd_simulate,
    "picard-compare": cmd_picard_compare,
    "malliavin": cmd_malliavin,
    "density": cmd_density,
    "lamperti-check": cmd_lamperti_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psde", description=__doc__)
    parser.add_argument("--version", action="version", version=f"psde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--paths", type=int, default=None, help="override analysis.n_paths")
        p.add_argument("--steps", type=int, default=None, help="override sim.n_steps")
        p.add_argument("--quiet", action="store_true", help="suppress stdout report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliFailure as exc:
        _error(exc.kind, str(exc), exc.code)
        return exc.code
    except ParameterRejection as exc:
        _error(exc.code, str(exc), EXIT_REJECTED)
        return EXIT_REJECTED
    except (ValueError,) as exc:
        _error("ValueError", str(exc), EXIT_REJECTED)
        return EXIT_REJECTED
    except (NoConvergenceError, PathFailure, SigmaNotPositiveError, FloatingPointError) as exc:
        diagnostics = {}
        if isinstance(exc, PathFailure):
            diagnostics.update(path=exc.path, step=exc.step)
        if isinstance(exc, NoConvergenceError):
            diagnostics.update(path=exc.path, history=exc.history[-5:])
        _error(type(exc).__name__, str(exc), EXIT_NUMERICAL, **diagnostics)
        return EXIT_NUMERICAL
    except OSError as exc:
        _error("IOError", str(exc), EXIT_IO)
        return EXIT_IO


def _error(kind: str, message: str, code: int, **diagnostics) -> None:
    json.dump({"error": kind, "message": message, "exit_code": code, **diagnostics}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
