"""Outside-in layer trace of the psde package.

The tracer wraps the public functions of each package module at every name a
caller looks them up under (a module that did ``from .simulate import
brownian_driver`` holds its own binding), so nothing inside the package
changes.  Each wrapped call records a span (id, parent id, run id, name,
start, end) in memory; a layer's self time is the duration of its calls
minus the time of the wrapped calls they made.  High-frequency calls
(coefficient evaluations, ``Transform.g``, root finds, ``quad``) are timed
or only counted, without a span record, to keep the overhead bounded.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "artifacts", "simulate", "skorokhod", "models", "malliavin", "lamperti", "density")

SPAN, TIMED, COUNT = "span", "timed", "count"

# (name, layer, kind, places the function is looked up: "module:attribute").
# A place missing from the package under test is skipped and reported.
TARGETS = (
    ("artifacts.write", "artifacts", SPAN, ("psde.cli:write_csv", "psde.cli:write_json_report",
                                            "psde.cli:write_field_csv", "psde.cli:write_path_csv")),
    ("simulate.simulate", "simulate", SPAN, ("psde.simulate:simulate", "psde.cli:simulate", "psde.density:simulate")),
    ("simulate.per_step", "simulate", SPAN, ("psde.simulate:simulate_per_step", "psde.cli:simulate_per_step",
                                             "psde.malliavin:simulate_per_step", "psde.lamperti:simulate_per_step")),
    ("simulate.picard", "simulate", SPAN, ("psde.simulate:simulate_picard", "psde.cli:simulate_picard")),
    ("simulate.driver", "simulate", SPAN, ("psde.simulate:brownian_driver", "psde.cli:brownian_driver",
                                           "psde.density:brownian_driver", "psde.malliavin:brownian_driver",
                                           "psde.lamperti:brownian_driver", "psde.lamperti:refine_increments")),
    ("simulate.kernel", "simulate", SPAN, ("psde.density:per_step_terminal_chunk",)),
    ("skorokhod.solve", "skorokhod", SPAN, ("psde.simulate:solve_max_min",)),
    ("models.check_bounds", "models", SPAN, ("psde.models:CoefficientModel.check_bounds",)),
    ("density.ensemble", "density", SPAN, ("psde.density:generate_ensemble",)),
    ("density.reference_law", "density", SPAN, ("psde.density:reference_singly_perturbed",
                                                "psde.density:reference_gaussian")),
    ("density.quad", "density", COUNT, ("psde.density:quad",)),
    ("density.kde", "density", SPAN, ("psde.density:kde",)),
    ("density.ks", "density", SPAN, ("psde.density:ks_test",)),
    ("density.atom_scan", "density", SPAN, ("psde.density:atom_scan",)),
    ("malliavin.field", "malliavin", SPAN, ("psde.malliavin:derivative_field",)),
    ("malliavin.hnorm", "malliavin", SPAN, ("psde.malliavin:h_norm", "psde.malliavin:h_norm_profile")),
    ("malliavin.cm", "malliavin", SPAN, ("psde.malliavin:cameron_martin_directional",)),
    ("malliavin.other", "malliavin", SPAN, ("psde.malliavin:directional_from_field",
                                            "psde.malliavin:positivity_report")),
    ("lamperti.reduction", "lamperti", SPAN, ("psde.lamperti:pathwise_reduction_check",)),
    ("lamperti.build_transform", "lamperti", SPAN, ("psde.lamperti:build_transform",)),
    ("lamperti.b_tilde", "lamperti", TIMED, ("psde.lamperti:Transform.b_tilde",)),
    ("lamperti.root_find", "lamperti", TIMED, ("psde.lamperti:brentq",)),
    ("lamperti.g", "lamperti", COUNT, ("psde.lamperti:Transform.g",)),
)


def _size(x) -> int:
    return getattr(x, "size", 1)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans, per-layer self time and counters for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent id, run id, name, start, end)
        self.total = defaultdict(float)  # name -> summed call duration
        self.self_time = defaultdict(float)  # name -> summed self time
        self.calls = defaultdict(int)  # name -> call count
        self.layer_of: dict[str, str] = {}
        self.count = defaultdict(float)  # named counters
        self.cm_bases: set = set()
        self.missing: list[str] = []
        # open frames: [child time, span id, name]; the bottom frame is a sentinel
        self._stack = [[0.0, None, None]]
        self._next_id = 1
        self._after = {
            "artifacts.write": self._after_write,
            "simulate.per_step": self._after_per_step,
            "simulate.kernel": self._after_kernel,
            "skorokhod.solve": self._after_solve,
            "density.kde": self._after_kde,
            "malliavin.field": self._after_field,
            "malliavin.cm": self._after_cm,
            "lamperti.b_tilde": self._after_b_tilde,
            "models.coef": self._after_coef,
        }

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, layer: str, fn, record: bool = True):
        stack, after = self._stack, self._after.get(name)
        self.layer_of[name] = layer

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, None, name]
            if record:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_time[name] += duration - frame[0]
                parent[0] += duration
                self.total[name] += duration
                self.calls[name] += 1
                if record:
                    self.spans.append((frame[1], parent[1], self.run_id, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def coefficient(self, fn):
        """Time b or sigma of the CLI's model, except inside check_bounds,
        whose own grid evaluations belong to the bound check."""
        timed = self.timed("models.coef", "models", fn, record=False)
        stack = self._stack

        def wrapper(x):
            if stack[-1][2] == "models.check_bounds":
                return fn(x)
            return timed(x)

        return wrapper

    def wrap_build_model(self, build):
        span = self.timed("models.build", "models", build)

        def wrapper(*args, **kwargs):
            model = span(*args, **kwargs)
            return dataclasses.replace(model, b=self.coefficient(model.b), sigma=self.coefficient(model.sigma))

        return wrapper

    # -- counters taken from arguments and results ---------------------------

    def _after_write(self, args, kwargs, result):
        self.count["bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size

    def _after_per_step(self, args, kwargs, result):
        if any(frame[2] == "malliavin.cm" for frame in self._stack):
            self.count["cm_sims"] += 1

    def _after_kernel(self, args, kwargs, result):
        drivers = _arg(args, kwargs, 4, "drivers")
        self.count["kernel_paths"] += drivers.shape[0]
        self.count["kernel_path_steps"] += drivers.size

    def _after_solve(self, args, kwargs, result):
        self.count["sweeps"] += result.iterations
        if self._stack[-1][2] == "simulate.picard":
            self.count["picard_passes"] += 1

    def _after_kde(self, args, kwargs, result):
        self.count["kde_kernel_evals"] += result.grid.size * _arg(args, kwargs, 0, "e").n_paths

    def _after_field(self, args, kwargs, result):
        self.count["field_entries"] += result.d.size

    def _after_cm(self, args, kwargs, result):
        cfg = _arg(args, kwargs, 2, "cfg")
        self.cm_bases.add((cfg.rng_seed, cfg.n_steps, cfg.x0_seed_value, cfg.horizon))

    def _after_b_tilde(self, args, kwargs, result):
        self.count["b_tilde_points"] += _size(_arg(args, kwargs, 1, "z"))

    def _after_coef(self, args, kwargs, result):
        self.count["coef_points"] += _size(args[0])

    # -- patching -------------------------------------------------------------

    def patch(self):
        """Install every wrapper; returns an undo list for :meth:`unpatch`."""
        undo = []
        wrapped: dict[int, object] = {}
        for name, layer, kind, places in TARGETS:
            for place in places:
                module_name, attr = place.split(":")
                owner = sys.modules.get(module_name)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part, None)
                attr = attr.split(".")[-1]
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(place)
                    continue
                if id(original) not in wrapped:
                    if kind == COUNT:
                        wrapped[id(original)] = self.counted(name, original)
                    else:
                        wrapped[id(original)] = self.timed(name, layer, original, record=kind == SPAN)
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        cli = sys.modules["psde.cli"]
        undo.append((cli, "_build_model", cli._build_model))
        cli._build_model = self.wrap_build_model(cli._build_model)
        return undo

    @staticmethod
    def unpatch(undo) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def invoke(self, main, argv: list[str]) -> int:
        """One CLI invocation as a root span of the cli layer."""
        return self.timed("cli.main", "cli", main)(argv)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        tot, st, n, c = self.total, self.self_time, self.calls, self.count
        paths = n["simulate.per_step"] + n["simulate.picard"] + c["kernel_paths"]
        out = {
            "simulate.kernel_s": tot["simulate.kernel"],
            "simulate.kernel_path_steps": c["kernel_path_steps"],
            "simulate.kernel_ns_per_path_step": _ratio(tot["simulate.kernel"] * 1e9, c["kernel_path_steps"]),
            "simulate.driver_s": tot["simulate.driver"],
            "simulate.per_step_calls": n["simulate.per_step"],
            "simulate.per_step_self_s": st["simulate.per_step"],
            "simulate.picard_calls": n["simulate.picard"],
            "simulate.picard_self_s": st["simulate.picard"],
            "simulate.picard_passes_per_path": _ratio(c["picard_passes"], n["simulate.picard"]),
            "density.ensemble_s": tot["density.ensemble"],
            "density.ensemble_self_s": st["density.ensemble"],
            "density.reference_law_s": tot["density.reference_law"],
            "density.quad_calls": n["density.quad"],
            "density.kde_s": tot["density.kde"],
            "density.kde_kernel_evals": c["kde_kernel_evals"],
            "density.ks_s": tot["density.ks"],
            "density.atom_scan_s": tot["density.atom_scan"],
            "skorokhod.solve_calls": n["skorokhod.solve"],
            "skorokhod.sweeps": c["sweeps"],
            "skorokhod.sweeps_per_solve": _ratio(c["sweeps"], n["skorokhod.solve"]),
            "skorokhod.solve_s": tot["skorokhod.solve"],
            "models.check_bounds_calls": n["models.check_bounds"],
            "models.check_bounds_s": tot["models.check_bounds"],
            "models.check_bounds_per_path": _ratio(n["models.check_bounds"], paths),
            "models.coef_calls": n["models.coef"],
            "models.coef_points": c["coef_points"],
            "models.points_per_coef_call": _ratio(c["coef_points"], n["models.coef"]),
            "models.coef_s": tot["models.coef"],
            "malliavin.field_calls": n["malliavin.field"],
            "malliavin.field_s": tot["malliavin.field"],
            "malliavin.field_entries": c["field_entries"],
            "malliavin.field_bytes": 8 * c["field_entries"],
            "malliavin.cm_calls": n["malliavin.cm"],
            "malliavin.cm_s": tot["malliavin.cm"],
            "malliavin.cm_useful_sim_ratio": _ratio(len(self.cm_bases), c["cm_sims"]),
            "malliavin.hnorm_s": tot["malliavin.hnorm"],
            "lamperti.build_transform_calls": n["lamperti.build_transform"],
            "lamperti.build_transform_s": tot["lamperti.build_transform"],
            "lamperti.reduction_s": tot["lamperti.reduction"],
            "lamperti.b_tilde_points": c["b_tilde_points"],
            "lamperti.root_finds": n["lamperti.root_find"],
            "lamperti.root_find_s": tot["lamperti.root_find"],
            "lamperti.g_calls": n["lamperti.g"],
            "artifacts.write_s": tot["artifacts.write"],
            "artifacts.bytes_written": c["bytes_written"],
        }
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, layer in self.layer_of.items():
            layer_self[layer] += st[name]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["trace.layers_sum_s"] = sum(layer_self.values())
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

