import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psde
from psde import artifacts
from psde.cli import CONFIG_SCHEMA, _check_schema, _CliFailure, _context, build_parser, main
from psde.models import _KINDS


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"preset": "unit"},
        "params": {"alpha": 0.5, "beta": 0.0},
        "sim": {"x0": 0.0, "horizon": 1.0, "n_steps": 100, "seed": 7},
        "analysis": {"n_paths": 500, "bin_widths": [0.1, 0.01]},
        "output_dir": str(tmp_path / "out"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg and key != "model":
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_accepts(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert main(["validate", "--config", str(cfgp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] and report["rho"] == 0.0
    assert (tmp_path / "out" / "validate.json").exists()


def test_validate_rejects_rho_one(tmp_path, capsys):
    cfgp = write_config(tmp_path, params={"alpha": 0.5, "beta": 0.5})
    assert main(["validate", "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "REJECT_RHO"
    assert "rho" in err["message"]


def test_unknown_key_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path, bogus={"x": 1})
    assert main(["validate", "--config", str(cfgp), "--quiet"]) == 2
    assert "bogus" in json.loads(capsys.readouterr().err)["message"]


def test_missing_config_io_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "IOError"


def test_unwritable_output_dir_exits_4(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfgp = write_config(tmp_path)
    assert main(["validate", "--config", str(cfgp), "--quiet", "--out", str(tmp_path / "file" / "out")]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "IOError"


def test_malformed_json_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad), "--quiet"]) == 4


def test_constants_report_t0(tmp_path, capsys):
    # alpha = beta = 0 with ||b'|| = 1: t0 = (3 - 2 sqrt 2)/3 ~ 0.057191
    cfgp = write_config(
        tmp_path, model={"preset": "additive-sine"}, params={"alpha": 0.0, "beta": 0.0}
    )
    assert main(["constants", "--config", str(cfgp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t0"] == pytest.approx(0.057191, abs=1e-6)
    assert report["threshold_ok"] is True
    assert (tmp_path / "out" / "constants.csv").exists()


def test_constants_at_time_zero(tmp_path):
    # the schema admits t = 0, where the H-norm lower bound is 0
    cfgp = write_config(tmp_path, params={"alpha": 0.1, "beta": 0.0}, analysis={"t_values": [0.0, 0.5]})
    assert main(["constants", "--config", str(cfgp), "--quiet"]) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "out" / "constants.csv").read_text())))
    assert rows[1][0] == rows[1][2] == "0"
    assert float(rows[2][2]) > 0.0


COMMANDS = ("validate", "constants", "simulate", "picard-compare", "malliavin", "density", "lamperti-check")
ONE = {"kind": "constant", "value": 1.0}
# sigma = b = 0: every path stays at x0
STILL = {"b": {"kind": "constant", "value": 0.0}, "sigma": {"kind": "constant", "value": 0.0}}


def small_config(tmp_path):
    return write_config(
        tmp_path,
        model={"preset": "smooth-generic"},
        params={"alpha": 0.3, "beta": -0.2},
        sim={"n_steps": 40},
        analysis={"n_paths": 300, "export_field": True, "refinements": 2, "n_intervals": 4},
    )


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


@pytest.mark.parametrize("command", COMMANDS)
def test_byte_identical_reruns(tmp_path, capsys, command):
    cfgp = small_config(tmp_path)
    runs = []
    for out, extra in (("first", []), ("second", []), ("reseeded", ["--seed", "8"])):
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / out), *extra]) == 0
        runs.append((capsys.readouterr().out, _outputs(tmp_path / out)))
    assert runs[0] == runs[1]
    if command == "simulate":
        assert runs[0][1]["path.csv"].split(b"\r\n", 1)[0] == b"t,x,m,i,w"
    # validate's report depends on the model and (alpha, beta) alone, so only its fingerprint ignores the seed
    same_print = json.loads(runs[0][0])["config_fingerprint"] == json.loads(runs[2][0])["config_fingerprint"]
    assert same_print == (command == "validate")


def test_simulate_seed_override_changes_output(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 0
    first = (tmp_path / "out" / "path.csv").read_bytes()
    assert main(["simulate", "--config", str(cfgp), "--quiet", "--seed", "8"]) == 0
    assert (tmp_path / "out" / "path.csv").read_bytes() != first


def test_seed_range(tmp_path, capsys):
    top = 2**64 - 1
    assert main(["simulate", "--config", str(write_config(tmp_path, sim={"seed": top})), "--quiet"]) == 0
    cfgp = write_config(tmp_path, sim={"seed": top + 1})
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--quiet", "--seed", str(top + 1)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_picard_compare_levels(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"preset": "smooth-generic"},
                        params={"alpha": 0.3, "beta": 0.2}, sim={"x0": 0.5})
    assert main(["picard-compare", "--config", str(cfgp), "--steps", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [lv["n_steps"] for lv in report["levels"]] == [50, 100, 200]
    assert all(lv["sup_discrepancy"] < 1e-7 for lv in report["levels"])


def test_malliavin_report(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"preset": "smooth-generic"},
                        params={"alpha": 0.3, "beta": -0.2}, sim={"x0": 0.5},
                        analysis={"n_paths": 10, "n_intervals": 4, "export_field": True})
    assert main(["malliavin", "--config", str(cfgp), "--steps", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_rel_error"] <= 0.01
    assert (tmp_path / "out" / "field.csv").exists()
    assert (tmp_path / "out" / "h_norm.csv").exists()


def test_density_report_with_ks(tmp_path, capsys):
    cfgp = write_config(tmp_path, analysis={"n_paths": 4000, "bin_widths": [0.1]},
                        sim={"n_steps": 2000})
    assert main(["density", "--config", str(cfgp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ks"]["reference"] == "singly-perturbed-bm"
    assert report["ks"]["statistic"] < 0.05
    assert abs(report["kde_integral"] - 1.0) <= 1e-3
    assert (tmp_path / "out" / "ensemble.csv").exists()


def test_density_gaussian_reference(tmp_path, capsys):
    cfgp = write_config(tmp_path, params={"alpha": 0.0, "beta": 0.0},
                        analysis={"n_paths": 2000, "bin_widths": [0.1]})
    assert main(["density", "--config", str(cfgp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ks"]["reference"] == "gaussian"


def test_lamperti_check(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"preset": "multiplicative-sine"},
                        params={"alpha": 0.3, "beta": -0.2},
                        sim={"x0": 0.5, "n_steps": 200}, analysis={"refinements": 2})
    assert main(["lamperti-check", "--config", str(cfgp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["commutation_exact"] is True
    assert len(report["levels"]) == 2
    assert (tmp_path / "out" / "transform.csv").exists()


def test_lamperti_check_bits(tmp_path):
    # a multiplicative sigma, where the reduction gaps are quadrature and
    # discretisation error, not 0: pins the transform and the reduced drift
    cfgp = write_config(tmp_path, model={"preset": "multiplicative-sine"},
                        params={"alpha": 0.3, "beta": -0.2},
                        sim={"x0": 0.5, "n_steps": 200, "seed": 9}, analysis={"refinements": 3})
    assert main(["lamperti-check", "--config", str(cfgp), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "lamperti.json").read_text())
    assert [float.hex(level["sup_discrepancy"]) for level in report["levels"]] == [
        "0x1.2c00150a16fe0p-5", "0x1.a1df07d33d600p-6", "0x1.15cf23ff3d740p-6",
    ]
    digest = hashlib.sha256((tmp_path / "out" / "transform.csv").read_bytes()).hexdigest()
    assert digest == "f0fa09f7643862d13107dfb2a3ba505f7700ec9a3d620a96f6ea969d6b1e7405"


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"preset": "smooth-generic"},
                        params={"alpha": 0.4, "beta": 0.3},
                        sim={"x0": 0.5, "scheme": "picard", "picard_outer_iters": 1})
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergenceError"
    assert len(err["history"]) == 1
    assert err["path"] == 0


def test_fresh_extreme_ties_complete(tmp_path):
    # alpha = -1e17 rounds every fresh-max solve back onto its extreme: ties, not failures
    cfgp = write_config(tmp_path, model={"preset": "additive-sine"},
                        params={"alpha": -1e17, "beta": 0.0},
                        sim={"x0": 1e17, "n_steps": 50, "seed": 3}, analysis={"n_paths": 200})
    assert main(["density", "--config", str(cfgp), "--quiet"]) == 0
    assert {"density.json", "kde.csv"} <= {f.name for f in (tmp_path / "out").iterdir()}


def test_non_finite_abort_reports_path_and_step(tmp_path, capsys):
    cfgp = write_config(
        tmp_path,
        model={"b": {"kind": "constant", "value": 1e308}, "sigma": {"kind": "constant", "value": 1.0}},
        params={"alpha": 0.0, "beta": 0.0},
        sim={"x0": 1e308},
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SimulationAborted"
    assert err["path"] == 0 and err["message"].endswith(f"at step {err['step']}")
    # an ensemble keeps only terminal values, yet names the same step
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["density", "--config", str(cfgp), "--paths", "10", "--quiet"]) == 3
    ensemble_err = json.loads(capsys.readouterr().err)
    assert (ensemble_err["path"], ensemble_err["step"]) == (0, err["step"])


def test_reports_embed_fingerprint_and_version(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "simulate.json").read_text())
    assert len(report["config_fingerprint"]) == 16
    assert report["tool_version"]


def test_custom_coefficient_specs(tmp_path, capsys):
    cfgp = write_config(
        tmp_path,
        model={
            "b": {"kind": "sinusoidal", "offset": 0.0, "amplitude": 0.5},
            "sigma": {"kind": "logistic", "lo": 0.5, "hi": 2.0, "rate": 1.0},
        },
    )
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 0


def test_bad_coefficient_kind_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"b": {"kind": "nope"},
                                         "sigma": {"kind": "constant", "value": 1.0}})
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 2


def test_one_row_coefficient_table_rejected(tmp_path, capsys):
    (tmp_path / "sigma.csv").write_text("x,sigma\n0.0,1.0\n")
    cfgp = write_config(tmp_path, model={"b": {"kind": "constant", "value": 0.0},
                                         "sigma": {"kind": "tabulated", "path": "sigma.csv"}})
    assert main(["validate", "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert ">= 2 points" in err["message"]
    (tmp_path / "sigma.csv").write_text("x\n0.0\n1.0\n")
    assert main(["validate", "--config", str(cfgp), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "key,spec",
    [
        ("b", {"kind": "tabulated", "path": "nan.csv"}),
        ("b", {"kind": "tabulated", "xs": [0, 1, 2, 3], "ys": [1, 1e308, -1e308, 1]}),
        ("b", {"kind": "logistic", "lo": -1e308, "hi": 1e308, "rate": 1}),
        ("sigma", {"kind": "sinusoidal", "offset": 1, "amplitude": 1e200, "frequency": 1e200}),
    ],
)
def test_coefficient_bounds_that_are_not_finite_rejected(tmp_path, capsys, key, spec):
    # a nan cell, slopes that overflow, a span or a product that overflows:
    # sup|f'| is NaN or inf, which bounds nothing
    (tmp_path / "nan.csv").write_text("x,y\n0,0\n1,nan\n2,1\n")
    cfgp = write_config(tmp_path, model={"b": {"kind": "constant", "value": 0.0}, "sigma": ONE, key: spec})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["validate", "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith(f"model.{key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["density", "malliavin"])
def test_negative_paths_rejected(tmp_path, capsys, command):
    cfgp = write_config(tmp_path)
    assert main([command, "--config", str(cfgp), "--quiet", "--paths", "-3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "--paths" in err["message"]
    assert not (tmp_path / "out").exists()


def test_paths_override_enters_fingerprint(tmp_path):
    def density_fingerprint(cfgp, *extra):
        assert main(["density", "--config", str(cfgp), "--quiet", *extra]) == 0
        return json.loads((tmp_path / "out" / "density.json").read_text())["config_fingerprint"]

    cfgp = write_config(tmp_path, analysis={"n_paths": 200})
    prints = [density_fingerprint(cfgp, "--paths", "10"), density_fingerprint(cfgp, "--paths", "20"),
              density_fingerprint(cfgp)]
    assert len(set(prints)) == 3
    assert prints[0] == density_fingerprint(write_config(tmp_path, name="ten.json", analysis={"n_paths": 10}))


@pytest.mark.parametrize(
    "command,analysis,extra,error",
    [
        ("density", {"n_paths": 0}, [], "ConfigError"),
        ("density", {}, ["--paths", "0"], "ConfigError"),
        # 150 windows on a 100-step grid do not map to grid steps
        ("malliavin", {"n_paths": 10, "n_intervals": 150}, [], "ConfigError"),
        # one terminal value has no spread, so bandwidth "auto" would be 0
        ("density", {"n_paths": 1}, [], "ConfigError"),
        # an atom scan at this width would need more than MAX_ATOM_BINS bins
        ("density", {"bin_widths": [1e-300]}, [], "ConfigError"),
        # every terminal value is 100, whose bin index at this width overflows
        (
            "density",
            {"model": STILL, "sim": {"x0": 100.0}, "analysis": {"bandwidth": 0.1, "bin_widths": [1e-307]}},
            [],
            "ConfigError",
        ),
        # a preset and a coefficient spec together
        ("simulate", {"model": {"preset": "unit", "b": {"kind": "constant", "value": 0.0}}, "analysis": {}}, [],
         "ConfigError"),
        # a drift without a diffusion
        ("simulate", {"model": {"b": {"kind": "constant", "value": 0.0}}, "analysis": {}}, [], "ConfigError"),
    ],
)
def test_rejection_writes_nothing(tmp_path, capsys, command, analysis, extra, error):
    # a case overrides the analysis section, or names each section it overrides
    cfgp = write_config(tmp_path, **(analysis if "analysis" in analysis else {"analysis": analysis}))
    assert main([command, "--config", str(cfgp), "--quiet", *extra]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,module,name",
    [("density", "psde.density", "ks_test"), ("malliavin", "psde.malliavin", "directional_from_column")],
)
def test_late_failure_writes_nothing(tmp_path, capsys, monkeypatch, command, module, name):
    # a numerical failure in a command's last step leaves no output behind
    def fail(*args, **kwargs):
        raise FloatingPointError("late failure")

    monkeypatch.setattr(importlib.import_module(module), name, fail)
    cfgp = write_config(tmp_path, analysis={"n_paths": 50})
    assert main([command, "--config", str(cfgp), "--quiet"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "FloatingPointError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_compute_and_main_writes(tmp_path, monkeypatch, command):
    # a command writes nothing itself; main writes the files it returns, in
    # order, and the report's artifacts name every other file in the directory
    cfgp = small_config(tmp_path)
    run = _context(build_parser().parse_args([command, "--config", str(cfgp)]))

    def refuse(*args, **kwargs):
        raise AssertionError("a command wrote a file")

    with monkeypatch.context() as patch:
        patch.setattr(psde.cli, "write_csv", refuse)
        patch.setattr(psde.cli, "write_json_report", refuse)
        name, payload, files = psde.cli._COMMANDS[command](run)
    assert "artifacts" not in payload
    assert not (tmp_path / "out").exists()
    assert main([command, "--config", str(cfgp), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / name).read_text())
    assert report.get("artifacts", []) == list(files)
    assert sorted(files) == sorted(set(_outputs(tmp_path / "out")) - {name})
    assert ("artifacts" in report) == (command != "validate")


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_are_strict_json(tmp_path, capsys, command):
    # b' = 0 makes t0 infinite, which RFC 8259 JSON cannot hold: null in its
    # place; so does a b' whose square underflows (1e-200) or whose t0
    # overflows (1e-160).  A b' of 1e-100 has a finite t0 ~ 1.7e198, whose
    # squares would overflow the H-norm bound, and one of 1e200 a square
    # that overflows: t0 is then 0.0
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    params = {"alpha": 0.1, "beta": 0.0}
    configs = [write_config(tmp_path, params=params)]
    if command in ("validate", "constants"):
        for amplitude in (1e-200, 1e-160, 1e-100, 1e200):
            b = {"kind": "sinusoidal", "offset": 0, "amplitude": amplitude}
            model = {"b": b, "sigma": ONE}
            configs.append(write_config(tmp_path, name=f"b{amplitude}.json", model=model, params=params))
    for k, cfgp in enumerate(configs):
        out = tmp_path / f"out{k}"
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 0
        texts = [capsys.readouterr().out] + [p.read_text() for p in sorted(out.glob("*.json"))]
        reports = [json.loads(text, parse_constant=refuse) for text in texts]
        if command in ("validate", "constants") and k < 3:
            assert reports[0]["t0"] is None and reports[0]["t0_unbounded"] is True
        if command == "constants":
            rows = list(csv.reader(io.StringIO((out / "constants.csv").read_text())))[1:]
            assert len(rows) == 20 and all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize(
    "command,overrides",
    [
        # with the threshold violated (alpha = 0.5) the table runs to the
        # horizon, where ||b'||^2 t = 1e400 makes C(t) no float
        ("constants", {"model": {"b": {"kind": "sinusoidal", "offset": 0, "amplitude": 1e200}, "sigma": ONE}}),
        # sigma = 1e200 keeps every path and field entry finite, but
        # ||DX||_H^2 ~ 1e400 is no float
        (
            "malliavin",
            {
                "model": {"b": {"kind": "constant", "value": 0.0}, "sigma": {"kind": "constant", "value": 1e200}},
                "params": {"alpha": 0.0, "beta": 0.0},
                "sim": {"n_steps": 20},
                "analysis": {"n_paths": 3, "n_intervals": 4},
            },
        ),
        # alpha = -1e200 with beta = 0 is accepted (rho = 0), and alpha^2 is
        # inf, not an OverflowError, so C(t) is no float
        ("constants", {"params": {"alpha": -1e200, "beta": 0.0}}),
        # terminal values of ~1e190 are finite, but their std, and so the
        # "auto" KDE bandwidth, overflows
        (
            "density",
            {
                "model": {"b": {"kind": "constant", "value": 0.0}, "sigma": {"kind": "constant", "value": 1e190}},
                "params": {"alpha": 0.1, "beta": 0.0},
                "sim": {"n_steps": 10},
                "analysis": {"n_paths": 50, "bin_widths": [1e189]},
            },
        ),
        # a finite given bandwidth whose five-bandwidth padding of the KDE grid is not
        ("density", {"sim": {"n_steps": 10}, "analysis": {"n_paths": 20, "bandwidth": 1e308}}),
        # b' = 0: at t = 1e200 the H-norm lower bound, sigma^2 t^2 / 2, is no float
        ("constants", {"params": {"alpha": 0.0, "beta": 0.0}, "analysis": {"t_values": [1e200]}}),
    ],
)
def test_overflow_exits_3_and_writes_nothing(tmp_path, capsys, command, overrides):
    cfgp = write_config(tmp_path, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([command, "--config", str(cfgp), "--quiet"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "FloatingPointError"
    assert not (tmp_path / "out").exists()


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def test_huge_alpha_validates_with_the_threshold_violated(tmp_path, capsys):
    # alpha^2 = inf: t0 is 0.0 and the threshold fails, in strict JSON
    cfgp = write_config(tmp_path, params={"alpha": -1e200, "beta": 0.0})
    assert main(["validate", "--config", str(cfgp)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert (report["t0"], report["threshold_ok"], report["alpha"]) == (0.0, False, -1e200)


def test_non_finite_newton_step_fails_at_once(tmp_path, capsys):
    # sigma = 1e200 spreads G's table over ~1e200, where its cubic overflows
    # between nodes: G^-1's first Newton step is not finite, and the check
    # stops there with exit 3 and strict JSON on stderr
    model = {"b": {"kind": "constant", "value": 0.0}, "sigma": {"kind": "constant", "value": 1e200}}
    cfgp = write_config(tmp_path, model=model, params={"alpha": 0.0, "beta": 0.0}, sim={"n_steps": 20})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["lamperti-check", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err, parse_constant=_refuse_constant)
    assert err["error"] == "FloatingPointError"
    assert "G^-1 Newton step" in err["message"] and "the transform G(" in err["message"]
    assert not (tmp_path / "out").exists()


def test_lamperti_check_refuses_a_padded_range_that_overflows(tmp_path, capsys):
    # sigma = 1e308 keeps the pilot path finite, but its padding of
    # 5 max|sigma| sqrt(T) is inf: exit 3 before any tabulation
    model = {"b": {"kind": "constant", "value": 0.0}, "sigma": {"kind": "constant", "value": 1e308}}
    cfgp = write_config(tmp_path, model=model, params={"alpha": 0.0, "beta": 0.0}, sim={"n_steps": 20, "seed": 1})
    assert main(["lamperti-check", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err, parse_constant=_refuse_constant)
    assert err["error"] == "FloatingPointError"
    assert "padded by RANGE_PAD_STDS max|sigma| sqrt(T) = inf is [-inf, inf]" in err["message"]
    assert not (tmp_path / "out").exists()


def test_error_writes_non_finite_diagnostics_as_null(capsys):
    psde.cli._error("NoConvergenceError", "no", 3, path=None, history=[math.nan, math.inf, -math.inf, 1.5])
    err = json.loads(capsys.readouterr().err, parse_constant=_refuse_constant)
    assert (err["path"], err["history"]) == (None, [None, None, None, 1.5])


def test_malliavin_runs_the_kernel_once(tmp_path, monkeypatch):
    # on the benchmark's pathwise config the base path, its 10 shifted rows and
    # the 100 positivity paths share one per-step kernel call
    simulate_mod = sys.modules["psde.simulate"]
    kernel = simulate_mod.per_step_terminal_chunk
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[4].shape)
        return kernel(*args, **kwargs)

    for module in (simulate_mod, importlib.import_module("psde.malliavin")):
        monkeypatch.setattr(module, "per_step_terminal_chunk", counting)
    cfgp = write_config(
        tmp_path,
        model={"preset": "smooth-generic"},
        params={"alpha": 0.4, "beta": 0.3},
        sim={"n_steps": 1000, "seed": 3},
        analysis={"n_paths": 100, "eps": 1e-4, "n_intervals": 10},
    )
    assert main(["malliavin", "--config", str(cfgp), "--quiet"]) == 0
    assert calls == [(110, 1000)]


def test_density_without_spread_asks_for_a_bandwidth(tmp_path, capsys):
    # sigma = b = 0 leaves all 10 terminal values at x0, where "auto" would
    # be 0: nothing is written and the message names the key; a number runs
    cfgp = write_config(tmp_path, model=STILL, analysis={"n_paths": 10})
    assert main(["density", "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "analysis.bandwidth" in err["message"]
    assert not (tmp_path / "out").exists()
    cfgp = write_config(tmp_path, model=STILL, analysis={"n_paths": 10, "bandwidth": 0.1})
    assert main(["density", "--config", str(cfgp), "--quiet"]) == 0


@pytest.mark.parametrize("command", ["picard-compare", "lamperti-check"])
def test_refinement_ladder_cap(tmp_path, capsys, monkeypatch, command):
    # 100 steps halved twice reach a cap of 400; a third halving is refused
    # before any work, naming the key, and writes nothing
    monkeypatch.setattr(importlib.import_module("psde.simulate"), "MAX_LADDER_STEPS", 400)
    generic = {"model": {"preset": "smooth-generic"}, "params": {"alpha": 0.3, "beta": -0.2}}
    cfgp = write_config(tmp_path, **generic, analysis={"refinements": 4})
    assert main([command, "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "analysis.refinements" in err["message"]
    assert not (tmp_path / "out").exists()
    cfgp = write_config(tmp_path, **generic, analysis={"refinements": 3})
    assert main([command, "--config", str(cfgp), "--quiet"]) == 0


def test_field_cap_applies_only_to_export(tmp_path, capsys, monkeypatch):
    # only field.csv needs the stored (n+1)^2 field, so only export_field
    # meets MAX_FIELD_STEPS (exit 2, nothing written); without it malliavin
    # runs past the cap
    monkeypatch.setattr(psde.malliavin, "MAX_FIELD_STEPS", 32)
    analysis = {"n_paths": 10, "n_intervals": 4}
    cfgp = write_config(tmp_path, sim={"n_steps": 40}, analysis={**analysis, "export_field": True})
    assert main(["malliavin", "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "n <= 32" in err["message"]
    assert not (tmp_path / "out").exists()
    cfgp = write_config(tmp_path, sim={"n_steps": 40}, analysis=analysis)
    assert main(["malliavin", "--config", str(cfgp), "--quiet"]) == 0
    assert sorted(_outputs(tmp_path / "out")) == ["h_norm.csv", "malliavin.json", "positivity.json"]
    assert len((tmp_path / "out" / "h_norm.csv").read_bytes().split(b"\r\n")) == 43  # header, 41 rows, ""


@pytest.mark.parametrize(
    "command,section,key,literal,where",
    [
        ("simulate", "sim", "horizon", "Infinity", "sim.horizon"),
        ("simulate", "sim", "fixed_point_tol", "NaN", "sim.fixed_point_tol"),
        ("malliavin", "analysis", "eps", "NaN", "analysis.eps"),
        ("constants", "analysis", "t_values", "[NaN]", "analysis.t_values[0]"),
        ("validate", "params", "alpha", "NaN", "params.alpha"),
        ("simulate", "sim", "x0", "1e400", "sim.x0"),
        pytest.param("simulate", "sim", "x0", "1" + "0" * 400, "sim.x0", id="simulate-sim-x0-10**400"),
        # a bandwidth is "auto" or a number > 0
        ("density", "analysis", "bandwidth", "null", "analysis.bandwidth"),
        ("density", "analysis", "bandwidth", "true", "analysis.bandwidth"),
        ("density", "analysis", "bandwidth", "[1]", "analysis.bandwidth"),
        # skorokhod_tol was never read, and is no longer a config key
        ("malliavin", "analysis", "skorokhod_tol", "1e-12", "analysis"),
    ],
)
def test_bad_config_value_rejected(tmp_path, capsys, command, section, key, literal, where):
    overrides = {"sim": {"scheme": "picard"}}
    overrides.setdefault(section, {})[key] = "__value__"
    cfgp = write_config(tmp_path, **overrides)
    cfgp.write_text(cfgp.read_text().replace('"__value__"', literal))
    assert main([command, "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"at {where}:" in err["message"]
    assert not (tmp_path / "out").exists()


def _fresh_interpreter(script):
    """The last stdout line of script, JSON, run in a fresh single-threaded
    interpreter on this psde."""
    src = Path(psde.__file__).resolve().parent.parent
    env = dict(
        os.environ,
        PSDE_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def _imports_of_a_run(argv):
    """Exit code of main(argv) in a fresh single-threaded interpreter, the
    scipy, jsonschema, concurrent (thread pool) and numpy.ma modules it
    loaded, and the psde modules it loaded."""
    script = (
        "import json, sys; import psde.cli; "
        f"code = psde.cli.main({argv!r}); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in "
        "('scipy', 'jsonschema', 'concurrent') or m.split('.')[:2] == ['numpy', 'ma']), "
        "sorted(m for m in sys.modules if m.startswith('psde.'))]))"
    )
    return tuple(_fresh_interpreter(script))


def test_startup_imports_no_scipy(tmp_path):
    # neither start-up with a tabulated model nor a single-threaded density
    # run with its KS test (unit model, alpha = 0.5, beta = 0) nor a
    # single-threaded malliavin run with two blocks of positivity paths nor
    # a lamperti-check with a tabulated sigma imports scipy, jsonschema, the
    # thread pool or numpy.ma
    (tmp_path / "sigma.csv").write_text("x,sigma\n-2.0,1.0\n0.0,1.5\n1.0,1.2\n3.0,2.0\n")
    cfgp = write_config(tmp_path, model={"b": {"kind": "sinusoidal", "offset": 0.0, "amplitude": 0.5},
                                         "sigma": {"kind": "tabulated", "path": "sigma.csv"}})
    assert _imports_of_a_run(["validate", "--config", str(cfgp), "--quiet"])[:2] == (0, [])
    unit = write_config(tmp_path, name="unit.json")
    assert _imports_of_a_run(["density", "--config", str(unit), "--quiet"])[:2] == (0, [])
    assert json.loads((tmp_path / "out" / "density.json").read_text())["ks"]["reference"] == "singly-perturbed-bm"
    argv = ["malliavin", "--config", str(unit), "--quiet", "--steps", "1000", "--paths", "200"]
    assert _imports_of_a_run(argv)[:2] == (0, [])
    assert json.loads((tmp_path / "out" / "positivity.json").read_text())["n_paths"] == 200
    assert _imports_of_a_run(["lamperti-check", "--config", str(cfgp), "--quiet"])[:2] == (0, [])
    assert json.loads((tmp_path / "out" / "lamperti.json").read_text())["commutation_exact"] is True


ANALYSIS_MODULES = ("psde.density", "psde.lamperti", "psde.malliavin")


def test_a_command_loads_only_the_analysis_it_runs(tmp_path):
    # the analysis modules load on first use: validate loads none of them,
    # and each analysis command only its own
    cfgp = write_config(tmp_path, analysis={"n_paths": 20, "refinements": 2})
    runs = {
        command: _imports_of_a_run([command, "--config", str(cfgp), "--quiet"])
        for command in ("validate", "malliavin", "density", "lamperti-check")
    }
    loaded = {command: [m for m in modules if m in ANALYSIS_MODULES] for command, (_, _, modules) in runs.items()}
    assert [code for code, _, _ in runs.values()] == [0] * 4
    assert loaded == {
        "validate": [],
        "malliavin": ["psde.malliavin"],
        "density": ["psde.density"],
        "lamperti-check": ["psde.lamperti"],
    }


def test_every_exported_name_resolves():
    # in a fresh interpreter every name of psde.__all__ resolves, the lazy
    # ones by importing their module, and psde.simulate stays the function
    script = (
        "import json, psde; "
        "missing = [name for name in psde.__all__ if not hasattr(psde, name)]; "
        "print(json.dumps([missing, psde.simulate.__module__, psde.simulate.__name__]))"
    )
    assert _fresh_interpreter(script) == [[], "psde.simulate", "simulate"]
    assert {"density", "lamperti", "malliavin", "kde", "malliavin_pass"} <= set(psde.__all__)


def test_csv_files_match_csv_writer(tmp_path, monkeypatch):
    # every CSV the CLI writes holds the bytes csv.writer writes for the rows
    # zip(*columns) of its equal-length columns
    real = artifacts.write_csv
    written = []

    def checked(path, header, columns):
        assert len({len(column) for column in columns}) == 1
        real(path, header, columns)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        rows = zip(*(np.asarray(column).tolist() for column in columns))
        writer.writerows([artifacts.format_float(v) if isinstance(v, float) else v for v in row] for row in rows)
        assert Path(path).read_bytes() == buf.getvalue().encode()
        written.append(Path(path).name)

    monkeypatch.setattr(artifacts, "write_csv", checked)
    monkeypatch.setattr(psde.cli, "write_csv", checked)
    cfgp = small_config(tmp_path)
    for command in COMMANDS[1:]:
        assert main([command, "--config", str(cfgp), "--quiet"]) == 0
    assert sorted(written) == sorted(
        ["constants.csv", "path.csv", "scheme_discrepancy.csv", "h_norm.csv", "field.csv", "ensemble.csv",
         "kde.csv", "transform.csv"]
    )


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", "", None])
def test_csv_cell_that_needs_quotes_raises(tmp_path, cell):
    with pytest.raises(ValueError):
        artifacts.write_csv(tmp_path / "x.csv", ["h", "g"], [[1.0], [cell]])
    with pytest.raises(ValueError):
        artifacts.write_csv(tmp_path / "x.csv", ["h", "g"], [[1.0, 2.0], ["a", cell]])
    with pytest.raises(ValueError):
        artifacts.write_csv(tmp_path / "x.csv", ["h", cell], [[1.0], [2.0]])


def test_csv_columns_in_chunks(tmp_path, monkeypatch):
    # columns longer than a chunk, of floats, ints and a list, write the
    # rows csv.writer writes; columns of unequal length raise
    monkeypatch.setattr(artifacts, "CHUNK_ROWS", 3)
    x = np.array([0.1, -0.0, 1e-320, 2.0**60, 1 / 3, 7.0, -2.5])
    k = np.arange(7) - 3
    artifacts.write_csv(tmp_path / "x.csv", ["x", "k", "n"], [x, k, list(range(7))])
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["x", "k", "n"], *zip(map(artifacts.format_float, x), k.tolist(), range(7))])
    assert (tmp_path / "x.csv").read_bytes() == buf.getvalue().encode()
    with pytest.raises(ValueError):
        artifacts.write_csv(tmp_path / "y.csv", ["x", "k"], [x, k[:-1]])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_csv_float_exits_3_writing_nothing(tmp_path, capsys, monkeypatch, value):
    # a CSV cell has no null: a float column that is not finite exits 3
    # before the first file is written, naming the file and the column
    real = psde.cli._COMMANDS["simulate"]

    def poisoned(run):
        name, payload, files = real(run)
        header, columns = files["path.csv"]
        columns[2] = columns[2].copy()
        columns[2][-1] = value
        return name, payload, files

    monkeypatch.setitem(psde.cli._COMMANDS, "simulate", poisoned)
    cfgp = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"], err["file"], err["column"]) == ("FloatingPointError", 3, "path.csv", "m")
    assert not (tmp_path / "out").exists()


def _cli_process(*args, **kwargs):
    """``python -m psde.cli`` on this psde, single-threaded, in a fresh
    process whose standard streams are buffered, as a pipe's are by default."""
    src = Path(psde.__file__).resolve().parent.parent
    env = dict(
        os.environ,
        PSDE_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
    )
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "psde.cli", *args], env=env, **kwargs)


def test_process_entry_point(tmp_path, capsys):
    # the psde process flushes its report before it hard-exits, and writes
    # the bytes an in-process main writes
    cfgp = write_config(tmp_path, analysis={"n_paths": 200})
    proc = _cli_process("density", "--config", str(cfgp), "--out", str(tmp_path / "process"), capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout) == json.loads((tmp_path / "process" / "density.json").read_text())
    assert main(["density", "--config", str(cfgp), "--out", str(tmp_path / "inprocess")]) == 0
    assert proc.stdout.decode() == capsys.readouterr().out
    assert _outputs(tmp_path / "process") == _outputs(tmp_path / "inprocess")
    # a rejected config exits 2 with its stderr JSON, and argparse's usage error exits 2 as before
    bad = write_config(tmp_path, name="bad.json", params={"alpha": 0.5, "beta": 0.5})
    proc = _cli_process("validate", "--config", str(bad), "--out", str(tmp_path / "bad"), capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert json.loads(proc.stderr)["error"] == "REJECT_RHO"
    assert not (tmp_path / "bad").exists()
    proc = _cli_process("validate", capture_output=True)
    assert proc.returncode == 2 and b"--config" in proc.stderr


def test_process_failed_flush_is_not_success(tmp_path):
    # a report that cannot reach standard output (here a file opened for
    # reading) exits 4 with an IOError on stderr, not 0
    cfgp = write_config(tmp_path)
    (tmp_path / "stdout").write_text("")
    with open(tmp_path / "stdout", "rb") as stdout:
        proc = _cli_process("validate", "--config", str(cfgp), stdout=stdout, stderr=subprocess.PIPE)
    assert proc.returncode == 4
    assert json.loads(proc.stderr)["error"] == "IOError"


def test_steep_logistic_runs_without_warnings(tmp_path, capsys):
    # exp(-z) and z itself overflow far from a steep ramp's center, where
    # the ramp is at its end value: the values need no warning
    cfgp = write_config(
        tmp_path,
        model={
            "b": {"kind": "logistic", "lo": -1.0, "hi": 1.0, "rate": -1e10},
            "sigma": {"kind": "sinusoidal", "offset": 2.0, "amplitude": 1.0},
        },
        params={"alpha": 0.2, "beta": 0.1},
        sim={"x0": 0.3, "n_steps": 50, "seed": 1},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["picard-compare", "--config", str(cfgp), "--quiet"]) == 0
        b = psde.logistic(-1.0, 1.0, -1e10)
        sigma = psde.logistic(1.0, 2.0, 1e308)
        x = np.array([-1e10, -1.0, 0.0, 1.0, 1e10])
        assert b.f(x).tolist() == [1.0, 1.0, 0.0, -1.0, -1.0]
        assert b.f_prime(x)[[0, -1]].tolist() == [0.0, 0.0]
        assert sigma.f(x)[[0, -1]].tolist() == [1.0, 2.0]
        assert psde.tabulated([-2e300, -1e300, 0.0, 1e300], [0.0, 1.0, -1.0, 1.0]).f(0.0) == -1.0


def test_tiny_kde_bandwidth_runs_without_warnings(tmp_path, capsys):
    # (g - v) / 1e-300 and its square overflow to inf, whose exp is the 0
    # the kernel needs: the estimate needs no warning
    cfgp = write_config(
        tmp_path,
        sim={"n_steps": 10, "seed": 1},
        analysis={"n_paths": 20, "bin_widths": [0.1], "bandwidth": 1e-300},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--config", str(cfgp), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "density.json").read_text())
    assert report["kde_bandwidth"] == 1e-300 and math.isfinite(report["kde_integral"])


def test_subnormal_kde_bandwidth_exits_3_without_warnings(tmp_path, capsys):
    # 1/(n * 1e-310 * sqrt(2 pi)) overflows: kde refuses the normaliser
    # before it evaluates a kernel value, so no inf * 0 warns
    cfgp = write_config(
        tmp_path,
        sim={"n_steps": 10, "seed": 1},
        analysis={"n_paths": 20, "bin_widths": [0.1], "bandwidth": 1e-310},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FloatingPointError" and "normaliser" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,section,key,value",
    [
        ("simulate", "sim", "n_steps", 100.0),
        ("density", "sim", "n_steps", 100.0),
        ("density", "analysis", "n_paths", 5.0),
        ("simulate", "sim", "seed", 3.0),
        ("density", "sim", "seed", 3.0),
        ("validate", "sim", "n_steps", True),
    ],
)
def test_integer_valued_float_rejected(tmp_path, capsys, command, section, key, value):
    cfgp = write_config(tmp_path, **{section: {key: value}})
    assert main([command, "--config", str(cfgp), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"{section}.{key}" in err["message"]
    assert not (tmp_path / "out").exists()


def test_config_checker_agrees_with_jsonschema():
    import jsonschema

    jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)
    validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    base = {
        "model": {"b": {"kind": "constant", "value": 0.0}, "sigma": {"kind": "sinusoidal", "offset": 2.0}},
        "params": {"alpha": 0.5, "beta": 0},
        "sim": {"x0": 0, "horizon": 1.0, "n_steps": 10, "seed": 2**64 - 1, "scheme": "picard"},
        "analysis": {"n_paths": 0, "bin_widths": [0.1, 1], "bandwidth": "auto", "t_values": [0, 0.5],
                     "export_field": False},
        "output_dir": "out",
    }
    # an edit sets section[key] = value, or drops the key where value is ...
    edits = [
        (), ("params", "beta", ...), ("params", "beta", True), ("params", "beta", "0"),
        ("sim", "seed", -1), ("sim", "seed", 2**64), ("sim", "horizon", 0), ("sim", "horizon", -1.5),
        ("sim", "scheme", "euler"), ("sim", "n_steps", 0), ("sim", "fixed_point_tol", 0.0),
        ("sim", "bogus", 1), ("analysis", "bin_widths", [0.1, 0.0]), ("analysis", "bin_widths", 0.1),
        ("analysis", "t_values", [-1]), ("analysis", "export_field", 1), ("analysis", "bandwidth", [1, "x"]),
        ("analysis", "bandwidth", None), ("analysis", "bandwidth", True), ("analysis", "bandwidth", [1]),
        ("analysis", "bandwidth", "auto"), ("analysis", "bandwidth", 0.2), ("analysis", "bandwidth", 0),
        ("analysis", "bandwidth", "silverman"),
        ("model", "b", {"value": 1.0}), ("model", "sigma", {"kind": 3}), ("model", "preset", ...),
        ("model", "extra", {}), (None, "output_dir", 3), (None, "sim", ...), (None, "extra", 1),
    ]
    for edit in edits:
        cfg = json.loads(json.dumps(base))
        if edit:
            section, key, value = edit
            target = cfg if section is None else cfg[section]
            if value is ...:
                target.pop(key, None)
            else:
                target[key] = value
        try:
            _check_schema(cfg, CONFIG_SCHEMA)
            ours = True
        except _CliFailure:
            ours = False
        assert ours == validator.is_valid(cfg), edit
    # where the two differ: an integer-valued float and a NaN
    for section, key, value in (("sim", "n_steps", 10.0), ("params", "alpha", math.nan)):
        cfg = dict(base, **{section: dict(base[section], **{key: value})})
        assert validator.is_valid(cfg)
        with pytest.raises(_CliFailure):
            _check_schema(cfg, CONFIG_SCHEMA)


def test_tabulated_bound_holds_between_grid_points(tmp_path, capsys):
    # this sigma table's derivative peaks between the points of a 10 000-point
    # grid; a bound sampled on that grid fell below the range check's and
    # rejected the run with exit 2
    rows = [(-6 + 0.37 * k, 1.2 + 0.5 * math.sin(1.3 * (-6 + 0.37 * k)) + 0.1 * (k % 3)) for k in range(33)]
    (tmp_path / "sigma.csv").write_text("x,sigma\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    cfgp = write_config(tmp_path, model={"b": {"kind": "sinusoidal", "offset": 0.1, "amplitude": 0.5},
                                         "sigma": {"kind": "tabulated", "path": "sigma.csv"}},
                        params={"alpha": 0.3, "beta": -0.2}, sim={"n_steps": 400})
    assert main(["simulate", "--config", str(cfgp), "--quiet", "--seed", "3"]) == 0


EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config.example.json"


@pytest.mark.parametrize(
    "command,report,expected",
    [("validate", "validate.json", "e6ae9ef960b82388"), ("density", "density.json", "0c0393096c51342f")],
)
def test_example_config_fingerprint(tmp_path, command, report, expected):
    # the fingerprint hashes SimConfig.describe(): a dropped or renamed
    # field would change every report's fingerprint
    assert main([command, "--config", str(EXAMPLE_CONFIG), "--out", str(tmp_path), "--quiet"]) == 0
    assert json.loads((tmp_path / report).read_text())["config_fingerprint"] == expected


# a record field that is dropped or derived must leave every key of the
# fingerprinted descriptions, and every path.csv byte, as they were
PINNED_FINGERPRINTS = {
    "unit": ({"preset": "unit"}, "1f768b359f541244"),
    "additive-sine": ({"preset": "additive-sine"}, "39b69b27496e8cb1"),
    "smooth-generic": ({"preset": "smooth-generic"}, "aff34b0f50692e25"),
    "multiplicative-sine": ({"preset": "multiplicative-sine"}, "ea8907f39fc0c985"),
    "tabulated": (
        {
            "b": {"kind": "sinusoidal", "offset": 0.0, "amplitude": 0.5},
            "sigma": {"kind": "tabulated", "xs": [-3.0, -1.0, 0.5, 3.0], "ys": [0.5, 1.5, 1.0, 2.0]},
        },
        "6fc957417268e9d3",
    ),
    "config": (
        {
            "b": {"kind": "affine_clipped", "slope": -0.5, "intercept": 0.1, "lo": -1.0, "hi": 1.0},
            "sigma": {"kind": "logistic", "lo": 0.5, "hi": 2.0, "rate": 1.0},
        },
        "47507fd88c89c73b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_config_fingerprints_pinned(tmp_path, name):
    model, expected = PINNED_FINGERPRINTS[name]
    cfgp = write_config(tmp_path, model=model)
    assert _context(build_parser().parse_args(["simulate", "--config", str(cfgp)])).fingerprint == expected


def test_path_csv_pinned(tmp_path):
    cfgp = write_config(tmp_path, model={"preset": "smooth-generic"}, params={"alpha": 0.3, "beta": -0.2}, sim={"n_steps": 200})
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "path.csv").read_bytes()).hexdigest()
    assert digest == "46161d48ef20eb78866e0d8845076deef4869ea2b68818d2f13f5e5454bb3bf4"


# every scale from the subnormal edge to the overflow edge, both signs
SCALES = [0.0] + [sign * v for v in (1e-300, 1e-200, 1e-100, 1e-10, 0.1, 1.0, 10.0, 1e10, 1e100, 1e200, 1e300)
                  for sign in (1.0, -1.0)]
# small grids keep an example to milliseconds; a ladder of 3 refinements on 40 steps is 320 steps
INTEGER_CAPS = {"n_steps": 40, "n_paths": 30, "refinements": 3, "n_intervals": 40, "picard_outer_iters": 40}
PRESETS = ("unit", "additive-sine", "smooth-generic", "multiplicative-sine")


def _admits(value, schema):
    try:
        _check_schema(value, schema)
        return True
    except _CliFailure:
        return False


def _coefficients():
    """Specs of every coefficient kind, each argument drawn from SCALES, tables inline."""
    number = st.sampled_from(SCALES)
    kinds = []
    for kind, build in sorted(_KINDS.items()):
        if kind == "tabulated":
            kinds.append(st.integers(2, 4).flatmap(lambda n: st.fixed_dictionaries({
                "kind": st.just("tabulated"),
                "xs": st.lists(number, min_size=n, max_size=n, unique=True).map(sorted),
                "ys": st.lists(number, min_size=n, max_size=n),
            })))
            continue
        args = inspect.signature(build).parameters.values()
        kinds.append(st.fixed_dictionaries(
            {"kind": st.just(kind), **{a.name: number for a in args if a.default is a.empty}},
            optional={a.name: number for a in args if a.default is not a.empty},
        ))
    return st.one_of(kinds)


def _from_schema(schema, key=None):
    """Values CONFIG_SCHEMA admits at key: numbers from SCALES, integers up to
    INTEGER_CAPS, lists of up to 3 items; analysis.n_paths is always given,
    as density would otherwise run 10 000 paths."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "anyOf" in schema:
        return st.one_of([_from_schema(option, key) for option in schema["anyOf"]])
    kind = schema["type"]
    if kind == "number":
        return st.sampled_from([v for v in SCALES if _admits(v, schema)])
    if kind == "integer":
        return st.integers(schema.get("minimum", 0), schema.get("maximum", INTEGER_CAPS.get(key, 40)))
    if kind == "boolean":
        return st.booleans()
    if kind == "array":
        return st.lists(_from_schema(schema["items"], key), max_size=3)
    properties = schema["properties"]
    required = set(schema.get("required", ())) | ({"n_paths"} & set(properties))
    return st.fixed_dictionaries(
        {k: _from_schema(properties[k], k) for k in properties if k in required},
        optional={k: _from_schema(properties[k], k) for k in properties if k not in required},
    )


CONFIGS = st.fixed_dictionaries(
    {
        "model": st.one_of(
            st.fixed_dictionaries({"preset": st.sampled_from(PRESETS)}),
            st.fixed_dictionaries({"b": _coefficients(), "sigma": _coefficients()}),
        ),
        **{k: _from_schema(CONFIG_SCHEMA["properties"][k], k) for k in ("params", "sim", "analysis")},
    }
)


def _cfg(model=None, params=(0.1, 0.0), analysis=None, **sim):
    """A config for the examples below: unit model, 20 steps, seed 7."""
    sim = {"x0": 0.0, "horizon": 1.0, "n_steps": 20, "seed": 7, **sim}
    return {"model": model or {"preset": "unit"}, "params": dict(zip(("alpha", "beta"), params)), "sim": sim,
            "analysis": analysis or {}}


def _strict(text):
    return json.loads(text, parse_constant=_refuse_constant)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=CONFIGS)
# sigma = 1e10 and eps = 1e-300: the finite difference is 0, so rel_error is inf
@example(config=_cfg({"b": STILL["b"], "sigma": {"kind": "constant", "value": 1e10}},
                     analysis={"n_intervals": 2, "eps": 1e-300, "n_paths": 3}))
# terminal values of ~1e200, whose std overflows
@example(config=_cfg({"b": STILL["b"], "sigma": {"kind": "constant", "value": 1e200}}, (0.0, 0.0),
                     {"n_paths": 20, "bandwidth": 1e199, "bin_widths": [1e199]}, n_steps=10))
# declared bounds that are not finite: slopes, a product and a span that overflow
@example(config=_cfg({"b": {"kind": "tabulated", "xs": [0, 1, 2, 3], "ys": [1, 1e308, -1e308, 1]}, "sigma": ONE}))
@example(config=_cfg({"b": {"kind": "sinusoidal", "offset": 0, "amplitude": 1e200, "frequency": 1e200},
                      "sigma": ONE}))
@example(config=_cfg({"b": {"kind": "logistic", "lo": -1e308, "hi": 1e308, "rate": 1}, "sigma": ONE}))
# b' = 0 at t = 1e200: the H-norm lower bound overflows (exit 3), or is 0 for sigma = 0
@example(config=_cfg(params=(0.0, 0.0), analysis={"t_values": [1e200]}))
@example(config=_cfg(STILL, (0.0, 0.0), {"t_values": [1e200]}))
# an integer bin width at values of 1e100
@example(config=_cfg(params=(0.0, 0.0), analysis={"n_paths": 10, "bandwidth": 1.0, "bin_widths": [1]}, x0=1e100))
def test_every_config_ends_in_a_documented_exit_with_strict_output(config):
    # exit 0 writes strict JSON (stdout too) and finite CSV floats; exit 2 or
    # 3 writes nothing but one strict JSON object on stderr
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "cfg.json"
        cfgp.write_text(json.dumps(config))
        for command in COMMANDS:
            out_dir, stdout, stderr = Path(tmp) / command, io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("ignore")
                code = main([command, "--config", str(cfgp), "--out", str(out_dir)])
            assert code in (0, 2, 3), (command, stderr.getvalue())
            if code:
                assert _strict(stderr.getvalue())["exit_code"] == code
                assert not out_dir.exists(), command
                continue
            _strict(stdout.getvalue())
            for path in out_dir.iterdir():
                if path.suffix == ".json":
                    _strict(path.read_text())
                else:
                    rows = list(csv.reader(io.StringIO(path.read_text())))[1:]
                    assert all(math.isfinite(float(v)) for row in rows for v in row), (command, path.name)
