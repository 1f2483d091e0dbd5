import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import psde
from psde import artifacts
from psde.cli import CONFIG_SCHEMA, _check_schema, _CliFailure, _context, build_parser, main


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


def test_case_inconsistency_reports_step(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"preset": "additive-sine"},
                        params={"alpha": -1e17, "beta": 0.0},
                        sim={"x0": 1e17, "n_steps": 50, "seed": 3}, analysis={"n_paths": 200})
    assert main(["density", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CaseInconsistentError"
    assert err["step"] == 0
    assert f"chunk path {err['path']} " in err["message"]


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
    # every CSV the CLI writes holds the bytes csv.writer writes for its rows
    real = artifacts.write_csv
    written = []

    def checked(path, header, rows):
        rows = list(rows)
        real(path, header, rows)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
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
        artifacts.write_csv(tmp_path / "x.csv", ["h", "g"], [(1.0, cell)])


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
