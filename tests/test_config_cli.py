import copy
import csv
import json
import os
import subprocess
import sys

import pytest

import gexplab
from gexplab.cli import main
from gexplab.config import config_hash, default_config, validate_config
from gexplab.errors import ConfigError


def tiny_config():
    """Small, fast variant of the shipped defaults for CLI tests."""
    cfg = default_config()
    cfg["time_grid"]["n_steps"] = 8
    cfg["space_grid"]["points_per_axis"] = 81
    cfg["gspde"]["n_noise_paths"] = 2
    cfg["bdsde"]["n_diffusion_paths"] = 400
    cfg["bdsde"]["basis"]["degree"] = 3
    cfg["gbm_check"].update({"n_paths": 500, "n_steps": 32})
    cfg["hunt_check"].update({"n_paths": 800, "n_steps": 64, "bracket_tolerance": 0.15,
                              "init": {"kind": "gaussian", "box": [[-2.0], [2.0]]}})
    cfg["representation"].update({"n_noise_paths": 2, "n_diffusion_paths": 400,
                                  "tolerance": 0.2})
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_default_config_validates():
    exp = validate_config(default_config())
    report = exp.constants_report()
    assert report["margin_spde"] > 0.0
    assert report["margin_bdsde"] > 0.0
    assert report["spde"]["kappa"] == pytest.approx(0.3)
    assert report["sigma_bar"] == pytest.approx(1.0)


def test_unknown_key_rejected():
    cfg = default_config()
    cfg["no_such_key"] = 1
    with pytest.raises(ConfigError, match="no_such_key"):
        validate_config(cfg)
    cfg = default_config()
    cfg["gspde"]["bogus"] = 2
    with pytest.raises(ConfigError, match="gspde.bogus"):
        validate_config(cfg)


def test_missing_preset_field_level_error():
    cfg = default_config()
    del cfg["terminal"]["preset"]
    cfg["terminal"]["preset"] = "no-such"
    with pytest.raises(ConfigError, match="terminal.preset"):
        validate_config(cfg)
    cfg = default_config()
    del cfg["coefficient_field"]["value"]
    with pytest.raises(ConfigError, match="coefficient_field.value"):
        validate_config(cfg)


def test_contraction_violation_named():
    cfg = default_config()
    # Doubling sigma_bar via the scenario loadings pushes alpha sigma^2 past 2 lambda.
    cfg["scenario_set"]["matrices"] = [[[2.0]], [[0.6]]]
    with pytest.raises(ConfigError, match="contraction"):
        validate_config(cfg)


def test_margins_shrink_by_formula_when_sigma_doubles():
    cfg = default_config()
    cfg["noise"]["z_scale"] = 0.1  # keep both problems contractive
    base = validate_config(cfg).constants_report()
    cfg2 = copy.deepcopy(cfg)
    cfg2["scenario_set"]["matrices"] = [[[2.0]], [[0.6]]]
    doubled = validate_config(cfg2).constants_report()
    assert doubled["sigma_bar"] == pytest.approx(2.0)
    # Closed form: margin = 2 lambda - alpha_bar sigma_bar^2.
    a_bar = base["alpha_bar"]
    assert doubled["margin_spde"] == pytest.approx(base["margin_spde"] - a_bar * 3.0)
    k_alpha = base["alpha"]
    assert doubled["margin_bdsde"] == pytest.approx(
        base["margin_bdsde"] - k_alpha * base["lambda_max"] * 3.0)


def test_config_hash_ignores_execution_keys():
    cfg = default_config()
    h0 = config_hash(cfg)
    cfg["output_dir"] = "/somewhere/else"
    cfg["threads"] = 7
    assert config_hash(cfg) == h0
    cfg["seed"] = 1
    assert config_hash(cfg) != h0


def test_validate_command(tmp_path, capsys):
    assert main(["validate", "--config", "default"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert "margin_spde" in payload and "margin_bdsde" in payload
    bad = default_config()
    bad["scenario_set"]["matrices"] = [[[2.0]]]
    code = main(["validate", "--config", write_config(tmp_path, bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "contraction" in err


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    assert main(["run-suite", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run-suite", "--config", str(bad)]) == 2


@pytest.mark.parametrize("section,key,value,field", [
    ("comparison", "cases", 5, "comparison.cases"),
    ("gbm_check", "n_steps", "x", "gbm_check.n_steps"),
    ("scenario_set", "matrices", [[["a"]]], "scenario_set.matrices"),
    ("gspde", "max_iter", 0, "gspde.max_iter"),
    ("bdsde", "max_iter", 0, "bdsde.max_iter"),
])
def test_cli_malformed_field_exit_2(tmp_path, capsys, section, key, value, field):
    cfg = tiny_config()
    cfg[section][key] = value
    code = main(["run-suite", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bad")])
    assert code == 2
    assert field in capsys.readouterr().err


def test_cli_gspde_on_dirichlet_grid(tmp_path):
    cfg = default_config()
    cfg["space_grid"].update({"half_width": 10.0, "points_per_axis": 201,
                              "boundary": "dirichlet0"})
    cfg["suite"]["checks"] = ["gspde"]
    out = str(tmp_path / "run")
    assert main(["run-suite", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    with open(os.path.join(out, "suite_summary.csv")) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 10
    assert all(row["pass"] == "true" for row in rows)


def test_import_does_not_load_scipy_stats():
    code = "import sys, gexplab.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gexplab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_cli_gbm_and_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "run")
    code = main(["simulate-gbm", "--config", cfg_path, "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "gbm_paths.csv"))
    assert os.path.exists(os.path.join(out, "gbm_report.json"))
    assert os.path.exists(os.path.join(out, "suite_summary.csv"))
    with open(os.path.join(out, "gbm_paths.csv")) as handle:
        header = handle.readline().strip().split(",")
    assert header == ["path_id", "scenario_id", "step", "coord", "dB_backward",
                      "config_hash"]
    report = json.load(open(os.path.join(out, "gbm_report.json")))
    assert "config_hash" in report


def test_cli_determinism_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run-suite", "--config", cfg_path, "--out", out1]) == 0
    assert main(["run-suite", "--config", cfg_path, "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_cli_seed_override_changes_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["simulate-gbm", "--config", cfg_path, "--out", out1])
    main(["simulate-gbm", "--config", cfg_path, "--seed", "777", "--out", out2])
    a = open(os.path.join(out1, "gbm_paths.csv")).read()
    b = open(os.path.join(out2, "gbm_paths.csv")).read()
    assert a != b


def test_report_merge(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    main(["simulate-gbm", "--config", cfg_path, "--out", out1])
    main(["simulate-gbm", "--config", cfg_path, "--out", out2])
    merged = str(tmp_path / "merged.csv")
    assert main(["report-merge", out1, out2, "--out", merged]) == 0
    lines = open(merged).read().strip().splitlines()
    single = open(os.path.join(out1, "suite_summary.csv")).read().strip().splitlines()
    assert len(lines) == 2 * (len(single) - 1) + 1
    # identical inputs produce duplicated identical rows
    n = len(single) - 1
    assert lines[1:n + 1] == lines[n + 1:]
    # inputs never mutated
    assert open(os.path.join(out1, "suite_summary.csv")).read().strip().splitlines() == single
    # malformed report is a named error
    badly = tmp_path / "broken"
    badly.mkdir()
    (badly / "suite_summary.csv").write_text("not,a,summary\n")
    assert main(["report-merge", str(badly), "--out", merged]) == 2
    assert "malformed" in capsys.readouterr().err


def test_cli_threads_flag_keeps_artifacts_identical(tmp_path):
    cfg = tiny_config()
    cfg["suite"]["checks"] = ["gspde"]
    cfg_path = write_config(tmp_path, cfg)
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    assert main(["run-suite", "--config", cfg_path, "--out", out1]) == 0
    assert main(["run-suite", "--config", cfg_path, "--threads", "3", "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    cfg = tiny_config()
    cfg["bdsde"]["max_iter"] = 1
    cfg["bdsde"]["tol_rel"] = 1e-14
    cfg["suite"]["checks"] = ["gbdsde"]
    cfg_path = write_config(tmp_path, cfg)
    code = main(["run-suite", "--config", cfg_path, "--out", str(tmp_path / "n")])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


def test_mixed_pass_fail_rows_reflect_status(tmp_path):
    cfg = tiny_config()
    cfg["representation"]["tolerance"] = 1e-9  # force a failing check
    cfg["suite"]["checks"] = ["representation"]
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "mixed")
    code = main(["run-suite", "--config", cfg_path, "--out", out])
    assert code == 1
    rows = open(os.path.join(out, "suite_summary.csv")).read().splitlines()[1:]
    statuses = {r.split(",")[5] for r in rows}
    assert "false" in statuses
