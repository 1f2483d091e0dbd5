"""Measure the benchmark's baseline and its run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per seed (0 .. seeds-1) on every workload, as
the command in BENCHMARK.json, plus one traced run (seed 0) per workload.
For each end-to-end metric it records the median over the seeds, its
quartiles and the spread (quartile distance over the median) next to the
metric's bound, and writes the environment and the layer map alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import THREAD_ENV

ROOT = Path(__file__).resolve().parent.parent

# Which end-to-end metric each layer's metrics should move, on which workload.
LAYER_MAP = {
    "simulate": [
        {"metrics": ["simulate.kernel_s", "simulate.kernel_path_steps", "simulate.kernel_ns_per_path_step",
                     "simulate.driver_s"],
         "moves": {"ensemble-law": ["density_s", "path_steps_per_s"],
                   "ensemble-generic": ["density_s", "path_steps_per_s"], "pathwise": []}},
        {"metrics": ["simulate.per_step_calls", "simulate.per_step_self_s"],
         "moves": {"pathwise": ["malliavin_s"]}},
        {"metrics": ["simulate.picard_calls", "simulate.picard_self_s", "simulate.picard_passes_per_path"],
         "moves": {"picard": ["density_s"]}},
    ],
    "density": [
        {"metrics": ["density.ensemble_s", "density.ensemble_self_s", "density.reference_law_s",
                     "density.quad_calls", "density.ks_s"],
         "moves": {"ensemble-law": ["density_s"]}},
        {"metrics": ["density.kde_s", "density.kde_kernel_evals", "density.atom_scan_s"],
         "moves": {"ensemble-law": ["density_s"], "ensemble-generic": ["density_s"]}},
    ],
    "skorokhod": [
        {"metrics": ["skorokhod.solve_calls", "skorokhod.sweeps", "skorokhod.sweeps_per_solve",
                     "skorokhod.solve_s"],
         "moves": {"picard": ["density_s"]}},
    ],
    "models": [
        {"metrics": ["models.check_bounds_calls", "models.check_bounds_s", "models.check_bounds_per_path",
                     "models.coef_calls", "models.coef_points", "models.points_per_coef_call", "models.coef_s"],
         "moves": {"ensemble-generic": ["density_s"], "pathwise": ["malliavin_s"]}},
    ],
    "malliavin": [
        {"metrics": ["malliavin.field_calls", "malliavin.field_s", "malliavin.field_entries",
                     "malliavin.field_bytes", "malliavin.cm_calls", "malliavin.cm_s",
                     "malliavin.cm_useful_sim_ratio", "malliavin.hnorm_s"],
         "moves": {"pathwise": ["malliavin_s", "peak_rss_mb"]}},
    ],
    "lamperti": [
        {"metrics": ["lamperti.build_transform_calls", "lamperti.build_transform_s", "lamperti.reduction_s",
                     "lamperti.b_tilde_points", "lamperti.root_finds", "lamperti.root_find_s",
                     "lamperti.g_calls"],
         "moves": {"pathwise": ["lamperti_check_s"]}},
    ],
    "cli": [
        {"metrics": ["cli.self_s", "artifacts.write_s", "artifacts.bytes_written"],
         "moves": {"ensemble-law": ["setup_s", "density_s"], "ensemble-generic": ["setup_s"],
                   "picard": ["setup_s"], "pathwise": ["setup_s"]}},
    ],
}

_TIMING = re.compile(r"^  (\w+_s) +(\S+) s  median of (\d+)")
_FAIL = re.compile(r"^  fail_ratio +(\S+)")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    printed = {}
    for line in out[:-1]:
        if m := _TIMING.match(line):
            printed[m.group(1)] = float(m.group(2))
        elif m := _FAIL.match(line):
            printed["fail_ratio"] = float(m.group(1))
    return result, printed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind.lower()}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
        "pinned_threads": THREAD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed, 0) for seed in range(args.seeds)]
        end_to_end = {}
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r, _ in runs])
            end_to_end[name] = {**summary, "bound": bound, "steady": summary["spread"] < bound / 3}
            print(f"{workload:<18} {name:<18} median {summary['median']:.6g}  spread {summary['spread']:.4f}"
                  f"  bound {bound}", file=sys.stderr, flush=True)
        printed = {k: statistics.median(p[k] for _, p in runs) for k in runs[0][1]}
        traced, _ = run_once(spec, workload, 0, 1)
        baseline["workloads"][workload] = {
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "end_to_end": end_to_end,
            "printed_medians": printed,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    baseline["layer_map"] = LAYER_MAP
    text = json.dumps(baseline, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
