"""Benchmark workloads: configs made from a seed, the CLI invocations of one
repetition, and the output checks every repetition must pass.

The checks are invariants that hold for any workload seed, not golden
values, so a change that legitimately moves ensemble values (new random
streams, a new scheme) still passes them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

# Every invocation, in a child process or in the traced replay, runs single-threaded.
THREAD_ENV = {
    "PSDE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
N_STEPS = 1000
REFINEMENTS = 3
N_INTERVALS = 10
KDE_GRID = 512  # psde.density.kde default grid size
KDE_INTEGRAL_TOL = 1e-3
# The two schemes solve one discrete fixed-point system, so their gaps sit at
# the Picard stopping tolerance (1e-10) times a modest amplification.
SCHEME_GAP_TOL = 1e-8
PICARD_VS_PER_STEP_TOL = 1e-9
# Field and finite difference agree to O(eps) + O(dt); at eps = 1e-4 and
# dt = 1e-3 the largest error over 300 pathwise seeds was 0.0135.
CM_REL_ERROR_TOL = 5e-2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    alpha: float
    beta: float
    n_paths: int
    commands: tuple[str, ...]
    # subcommand whose wall time divides n_paths * N_STEPS for path_steps_per_s
    throughput_command: str
    scheme: str = "per-step"

    def sim_seed(self, seed: int) -> int:
        """32-bit simulation seed derived from the workload name and seed."""
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    def config(self, seed: int) -> dict:
        return {
            "model": {"preset": self.preset},
            "params": {"alpha": self.alpha, "beta": self.beta},
            "sim": {
                "x0": 0.0,
                "horizon": 1.0,
                "n_steps": N_STEPS,
                "seed": self.sim_seed(seed),
                "scheme": self.scheme,
                "picard_outer_iters": 50,
                "fixed_point_tol": 1e-10,
            },
            "analysis": {
                "n_paths": self.n_paths,
                "bin_widths": [0.1, 0.01, 0.001],
                "bandwidth": "auto",
                "eps": 1e-4,
                "n_intervals": N_INTERVALS,
                "refinements": REFINEMENTS,
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble-law",
            why="criterion-4 traffic: batched unit-model ensemble with driver building, "
            "reference-law quadrature, KS and a 50k-row CSV",
            preset="unit",
            alpha=0.5,
            beta=0.0,
            n_paths=50_000,
            commands=("density",),
            throughput_command="density",
        ),
        Workload(
            name="ensemble-generic",
            why="same batched kernel dominated by sigma/b evaluation, no reference law: "
            "the bypass case for a constant-coefficient fast path",
            preset="smooth-generic",
            alpha=0.3,
            beta=-0.2,
            n_paths=40_000,
            commands=("density",),
            throughput_command="density",
        ),
        Workload(
            name="picard",
            why="per-path Picard ensemble plus picard-compare: Skorokhod sweeps dominate, "
            "warm starts unused",
            preset="smooth-generic",
            alpha=0.4,
            beta=0.3,
            n_paths=500,
            commands=("density", "picard-compare"),
            throughput_command="density",
            scheme="picard",
        ),
        Workload(
            name="pathwise",
            why="malliavin positivity and Cameron-Martin windows plus lamperti-check: "
            "scalar per-step loop, O(n^2) field, per-scalar root finds",
            preset="smooth-generic",
            alpha=0.4,
            beta=0.3,
            n_paths=100,
            commands=("malliavin", "lamperti-check"),
            throughput_command="malliavin",
        ),
    )
}


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under an output directory, by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _report(out_dir: Path, name: str) -> dict:
    with open(out_dir / name) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def check_outputs(w: Workload, command: str, out_dir: Path, notes: dict) -> list[str]:
    """Invariant checks on one invocation's artifacts; returns failure messages.

    Values worth printing but not gated (KS outcome) go into ``notes``.
    """
    failures: list[str] = []
    try:
        if command == "validate":
            _check(failures, _report(out_dir, "validate.json")["accepted"] is True, "validate: not accepted")
        elif command == "density":
            _check_density(w, out_dir, failures, notes)
        elif command == "picard-compare":
            report = _report(out_dir, "picard_compare.json")
            gaps = [level["sup_discrepancy"] for level in report["levels"]]
            _check(failures, len(gaps) == REFINEMENTS, "picard-compare: level count")
            _check(failures, len(_csv_rows(out_dir / "scheme_discrepancy.csv")) == len(gaps), "picard-compare: CSV rows")
            _check(failures, all(0.0 <= g <= SCHEME_GAP_TOL for g in gaps), f"picard-compare: gaps {gaps}")
            notes["max_scheme_gap"] = max(gaps)
        elif command == "malliavin":
            report = _report(out_dir, "malliavin.json")
            positivity = _report(out_dir, "positivity.json")
            _check(failures, positivity["n_paths"] == w.n_paths, "malliavin: positivity n_paths")
            _check(failures, positivity["minimum"] > 0.0, f"malliavin: H-norm minimum {positivity['minimum']}")
            _check(failures, len(report["cameron_martin"]) == N_INTERVALS, "malliavin: window count")
            _check(failures, report["max_rel_error"] <= CM_REL_ERROR_TOL, f"malliavin: CM error {report['max_rel_error']}")
            _check(failures, len(_csv_rows(out_dir / "h_norm.csv")) == N_STEPS + 1, "malliavin: h_norm.csv rows")
            notes["cm_max_rel_error"] = report["max_rel_error"]
            notes["hnorm_minimum"] = positivity["minimum"]
        elif command == "lamperti-check":
            report = _report(out_dir, "lamperti.json")
            gaps = [level["sup_discrepancy"] for level in report["levels"]]
            _check(failures, report["commutation_exact"] is True, "lamperti: commutation not exact")
            _check(failures, len(gaps) == REFINEMENTS, "lamperti: level count")
            _check(failures, all(math.isfinite(g) for g in gaps), f"lamperti: gaps {gaps}")
            _check(failures, len(_csv_rows(out_dir / "transform.csv")) >= 4096, "lamperti: transform.csv rows")
            notes["lamperti_max_gap"] = max(gaps)
        else:
            failures.append(f"no checks for command {command!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures.append(f"{command}: unreadable output ({type(exc).__name__}: {exc})")
    return failures


def _check_density(w: Workload, out_dir: Path, failures: list[str], notes: dict) -> None:
    report = _report(out_dir, "density.json")
    values = [float(r[0]) for r in _csv_rows(out_dir / "ensemble.csv")]
    _check(failures, report["n_paths"] == w.n_paths, f"density: n_paths {report['n_paths']}")
    _check(failures, len(values) == w.n_paths, f"density: ensemble.csv has {len(values)} rows")
    _check(failures, all(math.isfinite(v) for v in values), "density: non-finite terminal value")
    _check(failures, len(_csv_rows(out_dir / "kde.csv")) == KDE_GRID, "density: kde.csv rows")
    _check(
        failures,
        abs(report["kde_integral"] - 1.0) <= KDE_INTEGRAL_TOL,
        f"density: kde_integral {report['kde_integral']}",
    )
    if w.preset == "unit" and w.beta == 0.0:
        ks = report["ks"]
        _check(failures, ks is not None and math.isfinite(ks["statistic"]), "density: no KS report")
        if ks is not None:
            # recorded, not gated: the grid maximum's bias fails the 1% test at dt = 1e-3
            notes["ks_statistic"] = ks["statistic"]
            notes["ks_passes_1pct"] = ks["passes_1pct"]


def check_picard_matches_per_step(w: Workload, seed: int, out_dir: Path, src: Path) -> list[str]:
    """The Picard ensemble's terminal values equal a per-step ensemble's.

    Both schemes solve one discrete system, so they agree to the fixed-point
    tolerance.  Imports psde from the checkout's ``src``.
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy as np
    import psde

    sim = w.config(seed)["sim"]
    sim_cfg = psde.SimConfig(
        x0_seed_value=sim["x0"],
        horizon=sim["horizon"],
        n_steps=sim["n_steps"],
        rng_seed=sim["seed"],
        scheme=psde.Scheme.PER_STEP,
    )
    params = psde.validate_params(w.alpha, w.beta)
    reference = psde.generate_ensemble(psde.named_model(w.preset), params, sim_cfg, w.n_paths).terminal_values
    picard = np.array([float(r[0]) for r in _csv_rows(out_dir / "ensemble.csv")])
    if picard.shape != reference.shape:
        return [f"picard: {picard.size} terminal values, per-step has {reference.size}"]
    gap = float(np.max(np.abs(picard - reference)))
    return [] if gap <= PICARD_VS_PER_STEP_TOL else [f"picard: terminal values differ from per-step by {gap}"]
