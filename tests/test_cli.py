import json

import pytest

from psde.cli import main


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


def test_simulate_byte_identical_reruns(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 0
    first = (tmp_path / "out" / "path.csv").read_bytes()
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 0
    assert (tmp_path / "out" / "path.csv").read_bytes() == first
    header = first.split(b"\r\n", 1)[0]
    assert header == b"t,x,m,i,w"


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


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfgp = write_config(tmp_path, model={"preset": "smooth-generic"},
                        params={"alpha": 0.4, "beta": 0.3},
                        sim={"x0": 0.5, "scheme": "picard", "picard_outer_iters": 1})
    assert main(["simulate", "--config", str(cfgp), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergenceError"
    assert len(err["history"]) == 1


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
