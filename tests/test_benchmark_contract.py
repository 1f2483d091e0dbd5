"""What the benchmark in ``perfbench/`` reads of the package, checked read-only.

The benchmark runs the CLI on its workload configs and wraps package
functions whose arguments its tracer reads by position, so those configs
must pass the CLI's checks and those names and positions must keep existing.
"""

import dataclasses
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import psde
from psde.cli import _context, _refinements, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_configs_pass_the_cli_checks(tmp_path, name):
    w = WORKLOADS.WORKLOADS[name]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(w.config(1)))
    for command in w.commands:
        run = _context(build_parser().parse_args([command, "--config", str(cfgp)]))
        if command in ("picard-compare", "lamperti-check"):
            assert _refinements(run) == WORKLOADS.REFINEMENTS


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_tracer_reads_exist():
    # the tracer's hooks read these arguments by position, at the names it wraps;
    # every CLI output passes through psde.cli's two writers, their path first
    assert _parameters(psde.cli.write_csv)[0] == _parameters(psde.cli.write_json_report)[0] == "path"
    assert _parameters(psde.density.per_step_terminal_chunk)[4] == "drivers"
    assert _parameters(psde.malliavin.cameron_martin_directional)[2] == "cfg"
    assert _parameters(psde.density.kde)[0] == "e"
    assert psde.kde(psde.Ensemble(np.array([0.0, 1.0]))).grid.size == psde.density.KDE_GRID_POINTS
    assert _parameters(psde.lamperti.Transform.b_tilde)[1] == "z"
    assert psde.Ensemble(np.zeros(3)).n_paths == 3
    assert "d" in {f.name for f in dataclasses.fields(psde.DerivativeField)}
    assert "iterations" in {f.name for f in dataclasses.fields(psde.MaxMinSolution)}


def test_picard_check_reads_exist(tmp_path):
    # check_picard_matches_per_step builds a per-step ensemble through the
    # public API and compares it with a Picard density run's ensemble.csv
    w = dataclasses.replace(WORKLOADS.WORKLOADS["picard"], n_paths=4)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(w.config(1)))
    assert main(["density", "--config", str(cfgp), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    src = Path(psde.__file__).resolve().parents[1]
    assert WORKLOADS.check_picard_matches_per_step(w, 1, tmp_path / "out", src) == []


@pytest.mark.parametrize("name, command, batches", [("pathwise", "lamperti-check", 2), ("picard", "picard-compare", 1)])
def test_workload_ladders_run_as_per_step_batches(tmp_path, monkeypatch, name, command, batches):
    # a refinement ladder's per-step levels run as one kernel call: the
    # Lamperti check's X and Y ladders two, picard-compare's one
    simulate = importlib.import_module("psde.simulate")  # psde.simulate is the function
    kernel, rows = simulate.per_step_terminal_chunk, []

    def counting(*args, **kwargs):
        rows.append(len(args[4]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(simulate, "per_step_terminal_chunk", counting)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(WORKLOADS.WORKLOADS[name].config(1)))
    assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert rows == [WORKLOADS.REFINEMENTS] * batches
