"""Experiment runner: every capability behind one subcommand.

Subcommands: validate, simulate, picard-compare, malliavin, density,
lamperti-check, constants.  Configuration is a JSON file checked against a
published schema (unknown keys and non-finite numbers are errors);
``--seed``, ``--paths``, ``--steps`` and ``--out`` override the
corresponding config entries.  Every override but ``--out`` is folded into
the config before it is checked, so it enters the config fingerprint that
each report embeds.  ``density`` needs ``analysis.n_paths`` >= 1,
terminal values with some spread when ``analysis.bandwidth`` is "auto",
and ``analysis.bin_widths`` wide enough that no atom scan needs more than
``MAX_ATOM_BINS`` bins or overflows its bin index; ``picard-compare`` and
``lamperti-check`` need a refinement ladder that ``check_ladder`` accepts.
A config coefficient whose declared bounds (sup|b'|, sup|sigma'|,
inf|sigma|) are not finite is rejected.  Every JSON report, and the stderr
JSON of a failure, writes a float that is not finite as null: an unbounded
t0, a NaN in a history.  ``constants`` exits 3 where C(t) or the H-norm
lower bound of a row overflows.

Each subcommand only computes: it returns its report's name and payload,
and the files it produces, in order, a CSV as its header and equal-length
columns (``write_csv``).  ``main`` alone writes those files, then the
report, whose ``artifacts`` lists them.  Before the first file it checks
every float column of every CSV: a CSV cell has no null, so a value that
is not finite exits 3, naming the file and the column.  A run that exits
2 or 3 has therefore written nothing.

Exit codes: 0 success, 2 validation rejection, 3 numerical failure,
4 I/O error.  Failures emit a machine-readable JSON object on stderr.

The ``psde`` command and ``python -m psde.cli`` run ``run``: ``main``,
then a flush of stdout and stderr after the last write and ``os._exit``,
past the interpreter's teardown; a flush that fails exits 4, not 0.
Library callers use ``main(argv)``, which returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .artifacts import __version__, fingerprint, strict_json, write_csv, write_json_report
from .errors import NoConvergenceError, ParameterRejection, SigmaNotPositiveError, SimulationAborted
from .models import CoefficientModel, coefficient_from_spec, make_model, named_model, tabulated
from .params import (
    PerturbationParams,
    hnorm_lower_bound,
    smooth_density_horizon,
    smoothness_constant,
    validate_params,
)
from .simulate import (
    Scheme, SimConfig, check_ladder, refinement_ladder, simulate, simulate_per_step_levels, simulate_picard
)

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
                "bandwidth": {"anyOf": [{"enum": ["auto"]}, {"type": "number", "exclusiveMinimum": 0}]},
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "n_intervals": {"type": "integer", "minimum": 1},
                "refinements": {"type": "integer", "minimum": 1},
                "t_values": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "export_field": {"type": "boolean"},
            },
        },
        "output_dir": {"type": "string"},
    },
}


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float), "integer": int}


class _CliFailure(Exception):
    def __init__(self, code: int, kind: str, message: str, **diagnostics):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.diagnostics = diagnostics


def _check_schema(value, schema: dict, path: str = "") -> None:
    """Reject value (ConfigError, exit 2) unless it matches schema.

    Knows the keywords CONFIG_SCHEMA uses: type, properties, required,
    additionalProperties, minimum, maximum, exclusiveMinimum, enum, anyOf
    and items.  A bool is neither a number nor an integer, and an integer
    must be an int: 100.0 is not one.  No number anywhere in value may be
    NaN, infinite or beyond the float range.  The message names the key path.
    """

    def reject(why: str):
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"config rejected at {path or 'top level'}: {why}")

    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not abs(value) <= sys.float_info.max:
        reject(f"{value!r} is not a finite number")
    kind = schema.get("type")
    if kind is not None and (
        not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind in ("number", "integer"))
    ):
        reject(f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        reject(f"{value!r} is not one of {schema['enum']}")
    if "anyOf" in schema:
        for option in schema["anyOf"]:
            try:
                _check_schema(value, option, path)
                break
            except _CliFailure:
                pass
        else:
            reject(f"{value!r} matches none of {schema['anyOf']}")
    if number:
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
            if key not in properties and schema.get("additionalProperties", True) is False:
                reject(f"unexpected key {key!r}")
            _check_schema(item, properties.get(key, {}), f"{path}.{key}" if path else key)
    if isinstance(value, list):
        for k, item in enumerate(value):
            _check_schema(item, schema.get("items", {}), f"{path}[{k}]")


def _load_config(args) -> dict:
    """The config file with --seed, --steps and --paths folded in, checked
    against the schema."""
    path = args.config
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, "IOError", f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliFailure(EXIT_IO, "JSONDecodeError", f"config {path} is not valid JSON: {exc}") from exc
    paths_min = CONFIG_SCHEMA["properties"]["analysis"]["properties"]["n_paths"]["minimum"]
    if args.paths is not None and args.paths < paths_min:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"--paths must be >= {paths_min}, got {args.paths}")
    if isinstance(raw, dict):
        if args.paths is not None:
            raw.setdefault("analysis", {})
        for section, key, value in (
            ("sim", "seed", args.seed), ("sim", "n_steps", args.steps), ("analysis", "n_paths", args.paths)
        ):
            if value is not None and isinstance(raw.get(section), dict):
                raw[section][key] = value
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
        model = make_model(
            _coef(spec["b"], base_dir), _coef(spec["sigma"], base_dir), name="config"
        )
    except (TypeError, ValueError) as exc:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"bad coefficient spec: {exc}") from exc
    # a NaN or inf bound (a table with a nan cell, slopes or products that overflow) bounds nothing
    for key, name, value in (
        ("b", "sup|b'|", model.b_prime_sup),
        ("sigma", "sup|sigma'|", model.sigma_prime_sup),
        ("sigma", "inf|sigma|", model.sigma_inf),
    ):
        if not math.isfinite(value):
            raise _CliFailure(EXIT_REJECTED, "ConfigError", f"model.{key}: its declared {name} = {value} is not finite")
    return model


def _coef(spec: dict, base_dir: FsPath):
    if spec.get("kind") == "tabulated" and "path" in spec:
        table = np.loadtxt(base_dir / spec["path"], delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1))
        return tabulated(table[:, 0], table[:, 1])
    return coefficient_from_spec(spec)


@dataclass(frozen=True)
class _Run:
    """What a subcommand reads, built once from the config and overrides."""

    model: CoefficientModel
    params: PerturbationParams
    sim: SimConfig
    analysis: dict
    out_dir: FsPath
    fingerprint: str


# config keys of the sim section that name a SimConfig field differently
_SIM_FIELDS = {"x0": "x0_seed_value", "seed": "rng_seed"}


def _context(args) -> _Run:
    cfg = _load_config(args)
    model = _build_model(cfg, FsPath(args.config).resolve().parent)
    params = validate_params(cfg["params"]["alpha"], cfg["params"]["beta"])
    sim = {_SIM_FIELDS.get(key, key): value for key, value in cfg["sim"].items()}
    if "scheme" in sim:
        sim["scheme"] = Scheme(sim["scheme"])
    sim_cfg = SimConfig(**sim)
    analysis = cfg.get("analysis", {})
    # the domain report depends on the model and (alpha, beta) alone
    identity = {"model": model.describe(), "alpha": params.alpha, "beta": params.beta}
    if args.command != "validate":
        identity.update(sim=sim_cfg.describe(), analysis=analysis)
    out_dir = FsPath(args.out or cfg.get("output_dir", "psde_out"))
    return _Run(model, params, sim_cfg, analysis, out_dir, fingerprint(identity))


def _refinements(run: _Run) -> int:
    """analysis.refinements, rejected (exit 2) before any work when
    ``check_ladder`` refuses its ladder on sim.n_steps."""
    n_levels = run.analysis.get("refinements", 3)
    try:
        check_ladder(run.sim.n_steps, n_levels)
    except ValueError as exc:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"analysis.refinements = {n_levels}: {exc}") from exc
    return n_levels


def cmd_validate(run: _Run):
    model, params = run.model, run.params
    horizon = smooth_density_horizon(params.alpha, params.beta, model.b_prime_sup)
    return "validate.json", {
        "accepted": True,
        "alpha": params.alpha,
        "beta": params.beta,
        "rho": params.rho,
        "t0": horizon.t0,
        "t0_unbounded": horizon.t0_unbounded,
        "threshold_ok": horizon.threshold_ok,
        "b_prime_sup": model.b_prime_sup,
    }, {}


def cmd_constants(run: _Run):
    model, params = run.model, run.params
    horizon = smooth_density_horizon(params.alpha, params.beta, model.b_prime_sup)
    t_values = run.analysis.get("t_values")
    if not t_values:
        top = horizon.t0 if (horizon.threshold_ok and not horizon.t0_unbounded) else run.sim.horizon
        t_values = list(np.linspace(top / 20.0, top, 20))
    rows = []
    for t in map(float, t_values):  # in Python floats an overflow is inf, with no numpy warning
        c = smoothness_constant(t, params.alpha, params.beta, model.b_prime_sup)
        bound = (
            hnorm_lower_bound(t, t, model.sigma_inf, params.alpha, params.beta, model.b_prime_sup)
            if c < 1.0
            else 0.0
        )
        if not (math.isfinite(c) and math.isfinite(bound)):
            raise FloatingPointError(f"C(t) = {c} or its H-norm lower bound {bound} is not a float at t = {t}")
        rows.append((t, float(c), float(bound)))
    return "constants.json", {
        "t0": horizon.t0,
        "threshold_ok": horizon.threshold_ok,
        "t0_unbounded": horizon.t0_unbounded,
        "c_at_t0": horizon.c_of_t,
        "rho": params.rho,
    }, {"constants.csv": (["t", "c_of_t", "hnorm_lower_bound"], list(zip(*rows)))}


def cmd_simulate(run: _Run):
    path = simulate(run.model, run.params, run.sim)
    return "simulate.json", {
        "scheme": run.sim.scheme.value,
        "n_steps": run.sim.n_steps,
        "terminal": float(path.x[-1]),
        "running_max": float(path.m[-1]),
        "running_min": float(path.i[-1]),
    }, {"path.csv": (["t", "x", "m", "i", "w"], [path.grid, path.x, path.m, path.i, path.w])}


def cmd_picard_compare(run: _Run):
    ladder = refinement_ladder(run.sim, _refinements(run))
    rows = []
    # the per-step levels run as one kernel batch, the Picard levels one by one
    for (level_cfg, inc), a in zip(ladder, simulate_per_step_levels(run.model, run.params, ladder)):
        b = simulate_picard(run.model, run.params, level_cfg, inc)
        rows.append((level_cfg.n_steps, level_cfg.dt, float(np.max(np.abs(a.x - b.x)))))
    return "picard_compare.json", {
        "levels": [{"n_steps": r[0], "dt": r[1], "sup_discrepancy": r[2]} for r in rows],
    }, {"scheme_discrepancy.csv": (["n_steps", "dt", "sup_discrepancy"], list(zip(*rows)))}


def cmd_malliavin(run: _Run):
    model, params, sim_cfg, analysis = run.model, run.params, run.sim, run.analysis
    n_intervals = analysis.get("n_intervals", 10)
    if n_intervals > sim_cfg.n_steps:  # a window narrower than a step maps to no grid step
        message = f"analysis.n_intervals = {n_intervals} exceeds n_steps = {sim_cfg.n_steps}"
        raise _CliFailure(EXIT_REJECTED, "ConfigError", message)
    from . import malliavin

    edges = np.linspace(0.0, sim_cfg.horizon, n_intervals + 1).tolist()
    windows = list(zip(edges[:-1], edges[1:]))
    n_paths = analysis.get("n_paths", 0)
    # one kernel run: the base path is path 0 of the positivity ensemble
    path, finite_differences, h_values = malliavin.malliavin_pass(
        model, params, sim_cfg, windows, analysis.get("eps", 1e-4), n_paths
    )
    files = {}
    profile, terminal = malliavin.field_profile(path, model, params)
    files["h_norm.csv"] = (["t", "h_norm"], [path.grid, profile])
    if analysis.get("export_field", False):  # only field.csv needs the (n+1)^2 field, and its cap
        d = malliavin.derivative_field(path, model, params).d
        n = len(d)
        # the occupied triangle j <= k row by row, each row moved to the front
        # of d's own buffer, and indices in the narrowest unsigned type
        values = np.concatenate([row[j:] for j, row in enumerate(d)], out=d.reshape(-1)[: n * (n + 1) // 2])
        index = np.min_scalar_type(n)
        j = np.repeat(np.arange(n, dtype=index), np.arange(n, 0, -1))
        k = np.concatenate([np.arange(i, n, dtype=index) for i in range(n)])
        files["field.csv"] = (["j", "k", "d"], [j, k, values])
    positivity = None
    if n_paths:
        positivity = malliavin.positivity_report(h_values, t=sim_cfg.horizon, sigma_inf=model.sigma_inf).to_dict()
        files["positivity.json"] = positivity
    checks = []
    for (r_lo, r_hi), fd in zip(windows, finite_differences):
        fv = malliavin.directional_from_column(terminal, path.dt, r_lo, r_hi)
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
    return "malliavin.json", {
        "terminal_h_norm": float(profile[-1]),
        "cameron_martin": checks,
        "max_rel_error": max(c["rel_error"] for c in checks),
        "positivity": positivity,
    }, files


def cmd_density(run: _Run):
    model, params, sim_cfg, analysis = run.model, run.params, run.sim, run.analysis
    n_paths = analysis.get("n_paths", 10_000)
    if n_paths < 1:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"density needs analysis.n_paths >= 1, got {n_paths}")
    from . import density

    ensemble = density.generate_ensemble(model, params, sim_cfg, n_paths)
    try:
        est = density.kde(ensemble, analysis.get("bandwidth", "auto"))
    except ValueError as exc:
        # the schema admits only "auto" or a number > 0, and "auto" is 0 only without spread
        message = 'analysis.bandwidth = "auto" is 0 on terminal values that are all equal; give a number > 0'
        raise _CliFailure(EXIT_REJECTED, "ConfigError", message) from exc
    try:
        # the schema admits only widths > 0, so a width is refused only for
        # MAX_ATOM_BINS or a bin index that overflows
        scans = [density.atom_scan(ensemble, w).__dict__ for w in analysis.get("bin_widths", [1e-1, 1e-2, 1e-3])]
    except ValueError as exc:
        raise _CliFailure(EXIT_REJECTED, "ConfigError", f"analysis.bin_widths: {exc}") from exc
    ks_payload = None
    is_unit = model.constant_value("b") == 0.0 and model.constant_value("sigma") == 1.0
    if is_unit and params.beta == 0.0:
        # X_0 = x0/(1 - alpha) shifts the whole path, so X_T - X_0 has the law started at 0
        if params.alpha == 0.0:
            law = density.reference_gaussian(0.0, sim_cfg.horizon)
        else:
            law = density.reference_singly_perturbed(params.alpha, sim_cfg.horizon)
        x_0 = sim_cfg.x0_seed_value / (1.0 - params.alpha)
        ks = density.ks_test(density.Ensemble(ensemble.terminal_values - x_0), law)
        ks_payload = {
            "statistic": ks.statistic,
            "critical_1pct": ks.critical_1pct,
            "passes_1pct": ks.passes_1pct,
            "passes_5pct": ks.passes_5pct,
            "low_power": ks.low_power,
            "reference": law.kind.value,
        }
    return "density.json", {
        "n_paths": ensemble.n_paths,
        "sample_mean": float(np.mean(ensemble.terminal_values)),
        "sample_std": float(np.std(ensemble.terminal_values)),
        "kde_bandwidth": est.bandwidth,
        "kde_integral": est.integral(),
        "atom_scan": scans,
        "ks": ks_payload,
    }, {
        "ensemble.csv": (["terminal_value"], [ensemble.terminal_values]),
        "kde.csv": (["v", "density"], [est.grid, est.density]),
    }


def cmd_lamperti_check(run: _Run):
    from . import lamperti

    report = lamperti.pathwise_reduction_check(
        run.model, run.params, run.sim, n_refinements=_refinements(run)
    )
    transform = report.transform
    return "lamperti.json", report.to_dict(), {"transform.csv": (["y", "g"], [transform.nodes, transform.g_nodes])}


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
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, default=None, help="override sim.seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--paths", type=int, default=None, help="override analysis.n_paths")
    parser.add_argument("--steps", type=int, default=None, help="override sim.n_steps")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _context(args)
        name, payload, files = _COMMANDS[args.command](run)
        _check_finite(files)
        for file_name, content in files.items():
            if isinstance(content, dict):
                write_json_report(run.out_dir / file_name, content, run.fingerprint)
            else:
                write_csv(run.out_dir / file_name, *content)
        if files:
            payload["artifacts"] = list(files)
        report = write_json_report(run.out_dir / name, payload, run.fingerprint)
        if not args.quiet:
            json.dump(report, sys.stdout, sort_keys=True, indent=2)
            sys.stdout.write("\n")
        return EXIT_OK
    except _CliFailure as exc:
        _error(exc.kind, str(exc), exc.code, **exc.diagnostics)
        return exc.code
    except ParameterRejection as exc:
        _error(exc.code, str(exc), EXIT_REJECTED)
        return EXIT_REJECTED
    except (ValueError,) as exc:
        _error("ValueError", str(exc), EXIT_REJECTED)
        return EXIT_REJECTED
    except (NoConvergenceError, SimulationAborted, SigmaNotPositiveError, FloatingPointError) as exc:
        diagnostics = {}
        if isinstance(exc, SimulationAborted):
            diagnostics.update(path=exc.path, step=exc.step)
        if isinstance(exc, NoConvergenceError):
            diagnostics.update(path=exc.path, history=exc.history[-5:])
        _error(type(exc).__name__, str(exc), EXIT_NUMERICAL, **diagnostics)
        return EXIT_NUMERICAL
    except OSError as exc:
        _error("IOError", str(exc), EXIT_IO)
        return EXIT_IO


def _check_finite(files: dict) -> None:
    """Exit 3 (before any file is written) if a float column of a CSV holds
    a value that is not finite: a CSV cell, unlike JSON, has no null."""
    for file_name, content in files.items():
        if isinstance(content, dict):
            continue
        header, columns = content
        for column_name, column in zip(header, columns):
            values = np.asarray(column)
            if values.dtype.kind == "f" and not np.isfinite(values).all():
                message = f"{file_name}: column {column_name} holds a value that is not finite"
                raise _CliFailure(EXIT_NUMERICAL, "FloatingPointError", message, file=file_name, column=column_name)


def run() -> None:
    """The ``psde`` process: ``main``, then flush standard output and error
    and end at once with its exit code, past the interpreter's teardown.

    Every file is closed by then.  An exception or argparse's SystemExit
    leaving ``main`` ends the process the usual way, and a flush that fails
    exits 4 (or ``main``'s nonzero code) with the failure's JSON on stderr.
    """
    code = main()
    try:
        try:
            sys.stdout.flush()
        except (OSError, ValueError) as exc:
            code = code or EXIT_IO
            _error("IOError", f"cannot write standard output: {exc}", code)
        sys.stderr.flush()
    except (OSError, ValueError):
        code = code or EXIT_IO
    os._exit(code)


def _error(kind: str, message: str, code: int, **diagnostics) -> None:
    error = strict_json({"error": kind, "message": message, "exit_code": code, **diagnostics})
    json.dump(error, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


if __name__ == "__main__":
    run()
