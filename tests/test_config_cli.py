import copy
import csv
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gexplab
from gexplab import experiments
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


def test_gaussian_bump_width_past_float_square_range_validates():
    # 2**512 squared is past the largest float: the bump goes flat, no OverflowError.
    cfg = default_config()
    assert cfg["terminal"]["preset"] == "gaussian-bump"
    cfg["terminal"]["width"] = 2.0**512
    validate_config(cfg)


def test_unknown_key_rejected():
    cfg = default_config()
    cfg["no_such_key"] = 1
    with pytest.raises(ConfigError, match="no_such_key"):
        validate_config(cfg)
    cfg = default_config()
    cfg["gspde"]["bogus"] = 2
    with pytest.raises(ConfigError, match="gspde.bogus"):
        validate_config(cfg)
    # Keys the schema no longer has, each with a value it once accepted.
    for field, value in [("z_mode", "gradient-sigma"), ("bdsde.implicit_y", False),
                         ("bdsde.basis.kind", "polynomial"), ("bdsde.basis.n_bins", 16),
                         ("gspde.max_iter", 15), ("bdsde.max_iter", 20),
                         ("gspde.tol_rel", 1e-6), ("bdsde.tol_rel", 1e-6)]:
        cfg = default_config()
        *parents, key = field.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == field


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


def test_validate_stderr_names_the_field_first(tmp_path):
    # An overflowing constant squares to inf without a NumPy warning ahead
    # of the error line.
    cfg = default_config()
    cfg["noise"]["y_scale"] = 1e200
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gexplab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "gexplab.cli", "validate", "--config",
                           write_config(tmp_path, cfg)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: gspde.eps"), proc.stderr


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    assert main(["run-suite", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run-suite", "--config", str(bad)]) == 2
    bad.write_text("[]")
    assert main(["run-suite", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: config: the top level")


@pytest.fixture
def runners_fail(monkeypatch):
    """Replace every runner with one that fails if called."""
    def fail(exp):
        raise AssertionError("a runner started on a config that exits 2")

    for name in experiments.RUNNERS:
        monkeypatch.setitem(experiments.RUNNERS, name, fail)


def set_path(cfg, section, key, value):
    """Set ``cfg[section]`` (``cfg`` for section None) at the dotted ``key``;
    integer parts index lists."""
    node = cfg if section is None else cfg[section]
    *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]
    for k in parents:
        node = node[k]
    node[last] = value


@pytest.mark.parametrize("section,key,value,field", [
    ("comparison", "cases", 5, "comparison.cases"),
    # A check over an empty list would pass with no rows.
    ("comparison", "cases", [], "comparison.cases"),
    ("representation", "checkpoint_fractions", [], "representation.checkpoint_fractions"),
    ("gbm_check", "integrands", [], "gbm_check.integrands"),
    ("suite", "checks", [], "suite.checks"),
    ("gbm_check", "n_steps", "x", "gbm_check.n_steps"),
    ("scenario_set", "matrices", [[["a"]]], "scenario_set.matrices"),
    ("gspde", "n_noise_paths", "x", "gspde.n_noise_paths"),
    ("gspde", "dump_paths", "x", "gspde.dump_paths"),
    ("gspde", "weak_tolerance", None, "gspde.weak_tolerance"),
    ("hunt_check", "n_paths", "x", "hunt_check.n_paths"),
    ("representation", "halvings", "x", "representation.halvings"),
    ("representation", "tolerance", "x", "representation.tolerance"),
    ("comparison", "collar_frac", "x", "comparison.collar_frac"),
    ("representation", "n_diffusion_paths", "x", "representation.n_diffusion_paths"),
    ("comparison", "cases.0.terminal_shift", "x", "comparison.cases[0].terminal_shift"),
    ("gbm_check", "horizon", "x", "gbm_check.horizon"),
    ("coefficient_field", "value", "x", "coefficient_field.value"),
    ("terminal", "width", "x", "terminal.width"),
    ("reaction", "scale", "x", "reaction.scale"),
    ("noise", "z_scale", "x", "noise.z_scale"),
    ("hunt_check", "field.base", "x", "hunt_check.field.base"),
    ("hunt_check", "horizon", "x", "hunt_check.horizon"),
    ("bdsde", "init.x0", "x", "bdsde.init.x0"),
    ("gspde", "eps", "x", "gspde.eps"),
    ("bdsde", "eps", "x", "bdsde.eps"),
    # A JSON boolean is no integer.
    ("gspde", "n_noise_paths", True, "gspde.n_noise_paths"),
    ("gbm_check", "dump_paths", -1, "gbm_check.dump_paths"),
    ("bdsde", "n_diffusion_paths", 0, "bdsde.n_diffusion_paths"),
    ("gspde", "n_noise_paths", 0, "gspde.n_noise_paths"),
    ("hunt_check", "n_steps", 0, "hunt_check.n_steps"),
    ("bdsde", "basis.degree", "x", "bdsde.basis.degree"),
    ("representation", "checkpoint_fractions", [2.0], "representation.checkpoint_fractions"),
    ("bdsde", "init.x0", [0.0, 0.0], "bdsde.init.x0"),
    ("bdsde", "basis.degree", 40, "bdsde.n_diffusion_paths"),
    # Keys the schema no longer has.
    (None, "z_mode", "gradient", "z_mode"),
    ("bdsde", "implicit_y", True, "bdsde.implicit_y"),
    ("bdsde", "basis.kind", "indicator-bins", "bdsde.basis.kind"),
    ("bdsde", "basis.n_bins", 16, "bdsde.basis.n_bins"),
    ("gspde", "max_iter", 0, "gspde.max_iter"),
    ("bdsde", "max_iter", 0, "bdsde.max_iter"),
    ("space_grid", "half_width", 1e200, "space_grid.half_width"),
    ("space_grid", "half_width", 1e156, "space_grid.half_width"),  # R/4 squared overflows
    ("noise", "y_scale", 1e200, "gspde.eps"),  # an infinite constant: kappa >= 1
    ("noise", "z_scale", 5, "noise"),  # g_z Lambda sigma_bar^2 = 50 >= 2 lambda
    # On a Dirichlet grid the data must vanish at the edge.
    (None, ("space_grid.boundary", "terminal.width"), ("dirichlet0", 5), "terminal"),
    (None, ("space_grid.boundary", "reaction"),
     ("dirichlet0", {"preset": "sin-in-x", "amplitude": 0.5}), "reaction"),
    (None, ("space_grid.boundary", "noise"),
     ("dirichlet0", {"preset": "constant", "values": 0.3}), "noise"),
    # --out names a file that exists, so no output directory can be made.
    (None, "output_dir", None, "output_dir"),
    # The squared grid spacing underflows to 0: the operator would divide by it.
    ("space_grid", "half_width", 1e-160, "space_grid.half_width"),
    ("space_grid", "half_width", 1e-300, "space_grid.half_width"),
])
def test_cli_malformed_field_exit_2(tmp_path, capsys, runners_fail, section, key, value,
                                    field):
    cfg = tiny_config()
    # A tuple of keys sets each to its value in the tuple of values.
    keys, values = (key, value) if isinstance(key, tuple) else ((key,), (value,))
    for k, v in zip(keys, values):
        set_path(cfg, section, k, v)
    out = tmp_path / "bad"
    if field == "output_dir":
        out.write_text("")
    code = main(["run-suite", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    # The message starts with the field (or an element of it), named once.
    assert capsys.readouterr().err.startswith(f"error: {field}")


def grid_2d_config():
    """The shipped config on a 41x41 periodic grid with a diagonal field."""
    cfg = default_config()
    cfg["space_grid"].update({"dim": 2, "points_per_axis": 41})
    cfg["coefficient_field"] = {"preset": "diagonal-2d", "base": 1.0, "amplitude": 0.3}
    cfg["noise"]["z_scale"] = 0.3
    cfg["bdsde"]["init"]["x0"] = [0.0, 0.0]
    cfg["suite"]["checks"] = ["gspde", "gbdsde", "comparison"]
    return cfg


def test_grid_2d_config_validates():
    exp = validate_config(grid_2d_config())
    assert exp.space_grid.n_nodes == 41 * 41 and exp.hunt_field is None


@pytest.mark.parametrize("field", [
    {"preset": "constant", "value": 1.0},
    {"preset": "constant", "value": 4.0},
    {"preset": "sinusoidal-1d", "base": 1.0, "amplitude": 0.5},
], ids=lambda f: f"{f['preset']}-{f.get('value', f.get('base'))}")
@pytest.mark.parametrize("reaction", [
    {"preset": "zero"},
    {"preset": "affine-y", "slope": 0.3},
    {"preset": "tanh-y", "scale": 0.4},
    {"preset": "sin-y", "scale": 0.5},
    {"preset": "tanh-y-sin-z", "y_scale": 0.1, "z_scale": 0.4},
], ids=lambda r: r["preset"])
def test_both_equations_share_the_contraction_inputs(field, reaction):
    cfg = default_config()
    cfg["coefficient_field"], cfg["reaction"] = field, reaction
    exp = validate_config(cfg)
    assert exp.gspde_problem.contraction_inputs() == exp.bdsde_problem.contraction_inputs()
    report = exp.constants_report()
    assert report["K"] == report["c_bar"] and report["margin_bdsde"] == report["margin_spde"]


def test_tanh_y_sin_z_reaction_declares_each_slot_constant():
    # f_y = 2 * 0.4^2 = 0.32 is the largest: f_z Lambda = 2 * 0.1^2 * 1.5 = 0.03
    # and the shipped noise's g_y is 0.25.
    cfg = default_config()
    cfg["coefficient_field"] = {"preset": "sinusoidal-1d", "base": 1.0, "amplitude": 0.5}
    cfg["reaction"] = {"preset": "tanh-y-sin-z", "y_scale": 0.4, "z_scale": 0.1}
    assert validate_config(cfg).constants_report()["K"] == pytest.approx(0.32)


def test_both_equations_share_the_contraction_inputs_in_2d():
    cfg = grid_2d_config()
    cfg["reaction"] = {"preset": "tanh-y-sin-z", "y_scale": 0.1, "z_scale": 0.3}
    exp = validate_config(cfg)
    assert exp.field.lam_max == 1.3
    # The reaction's v constant times Lambda is the largest: 0.36 * 1.3.
    assert exp.bdsde_problem.contraction_inputs()[0] == pytest.approx(0.468)
    assert exp.gspde_problem.contraction_inputs() == exp.bdsde_problem.contraction_inputs()


@pytest.mark.parametrize("command,check,field", [
    ("run-suite", "representation", "space_grid.dim"),
    ("verify-representation", None, "space_grid.dim"),
    ("run-suite", "hunt-bracket", "hunt_check.field"),
    ("simulate-hunt", None, "hunt_check.field"),
])
def test_cross_section_rules_checked_for_the_checks_that_run(tmp_path, capsys, runners_fail,
                                                             command, check, field):
    cfg = grid_2d_config()
    if check is not None:
        cfg["suite"]["checks"].append(check)
    code = main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bad")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


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


def loaded_by_cli_import(module):
    """Whether importing ``gexplab.cli`` in a fresh interpreter loads ``module``."""
    code = f"import sys, gexplab.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gexplab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip() == "True"


def test_import_does_not_load_scipy_stats():
    assert not loaded_by_cli_import("scipy.stats")


def test_import_does_not_load_scipy_special():
    # Only the Gaussian-box initial law reads scipy.special (for ndtr), so the
    # import every process pays stays out of the CLI's load.
    assert not loaded_by_cli_import("scipy.special")


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    # A terminal of 1e305 validates, but the squared norms of the grid check
    # overflow: exit 3 naming the Picard check sweep, not a traceback.
    cfg = tiny_config()
    cfg["terminal"]["amplitude"] = 1e305
    cfg["suite"]["checks"] = ["gspde"]
    cfg_path = write_config(tmp_path, cfg)
    code = main(["run-suite", "--config", cfg_path, "--out", str(tmp_path / "n")])
    assert code == 3
    assert "numerical failure: Picard check sweep 1" in capsys.readouterr().err


def test_half_width_whose_spacing_squares_to_a_finite_inverse_validates():
    cfg = tiny_config()
    cfg["space_grid"]["half_width"] = 1e-150
    validate_config(cfg)


def test_picard_checks_of_a_stiff_field_without_v_dependence_exit_0(tmp_path):
    # A constant field of 256 with noise.z_scale 0 gives gamma = 1794, and
    # e^{gamma T} overflows; the norm weights, relative to it, do not, so both
    # checks pass with finite rows.
    cfg = default_config()
    cfg["coefficient_field"] = {"preset": "constant", "value": 256.0}
    cfg["noise"]["z_scale"] = 0.0
    cfg["suite"]["checks"] = ["gspde", "gbdsde"]
    exp = validate_config(cfg)
    assert exp.gspde_cfg.rate * exp.time_grid.horizon > 709.0  # e^709 is near the float max
    out = tmp_path / "stiff"
    assert main(["run-suite", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "checks_report.json").read_text())["checks"]
    assert len(rows) == 16 and all(math.isfinite(r["value"]) for r in rows)


@pytest.mark.parametrize("x0", [9.0, -8.5])
def test_representation_from_a_point_off_the_grid_exits_2(tmp_path, capsys, runners_fail, x0):
    # The representation check interpolates u at X_0; from x0 = 9 on [-8, 8]
    # every checkpoint would fail at a relative error of about 1.
    cfg = default_config()
    cfg["bdsde"]["init"] = {"kind": "point", "x0": [x0]}
    cfg["suite"]["checks"] = ["representation"]
    code = main(["run-suite", "--config", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "x0")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bdsde.init.x0: [{x0}] lies off the grid")
    cfg["suite"]["checks"] = ["gbdsde"]  # the backward solve alone reads no grid
    validate_config(cfg)
    cfg["suite"]["checks"] = ["representation"]
    cfg["bdsde"]["init"]["x0"] = [8.0 if x0 > 0 else -8.0]  # the edge node is on the grid
    validate_config(cfg)


def test_cli_nonfinite_backward_solve_exit_3(tmp_path, capsys):
    # A terminal of 1e305 keeps the grid finite, but the backward regression
    # overflows; the explicit backward solve stops at the first non-finite
    # slot (Z at slot N copies the regression at slot N - 1) instead of
    # writing NaN rows.
    cfg = default_config()
    cfg["terminal"]["amplitude"] = 1e305
    cfg["suite"]["checks"] = ["representation"]
    out = tmp_path / "n"
    code = main(["run-suite", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"non-finite Z at slot {cfg['time_grid']['n_steps']}" in captured.err
    assert "value=nan" not in captured.out and not (out / "suite_summary.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_nonfinite_representation_errors_exit_3(tmp_path, capsys):
    # At 400 diffusion paths the backward solve of a terminal of 1e305 stays
    # finite, but the sums of squares of the representation errors overflow:
    # exit 3 naming the first checkpoint, not rows of NaN.
    cfg = default_config()
    cfg["terminal"]["amplitude"] = 1e305
    cfg["representation"].update({"n_noise_paths": 2, "n_diffusion_paths": 400})
    cfg["suite"]["checks"] = ["representation"]
    out = tmp_path / "n"
    code = main(["run-suite", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure: representation errors at t = 0 are not finite" in captured.err
    assert "value=nan" not in captured.out and not (out / "suite_summary.csv").exists()


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


def test_collar_wider_than_a_dirichlet_domain_exits_2(tmp_path, capsys, runners_fail):
    cfg = tiny_config()
    cfg["space_grid"].update({"half_width": 10.0, "boundary": "dirichlet0"})
    cfg["comparison"]["collar_frac"] = 1.5
    assert main(["verify-comparison", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err.startswith("error: comparison.collar_frac: ")


# -- fuzzing validate_config ------------------------------------------------------

def _leaves(node, path=()):
    """Key paths of every value that is neither an object nor an array of objects."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for idx, value in enumerate(node):
            yield from _leaves(value, path + (idx,))
    else:
        yield path


def _path_name(path) -> str:
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def _json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


SHIPPED_LEAVES = list(_leaves(default_config()))
# Fields named by rules that tie one field to others, which a well-typed value
# can break wherever it sits.
RULE_FIELDS = {
    "terminal", "reaction",                  # data vanish at a Dirichlet grid's edge
    "noise",                                 # that, and the contraction margin
    "gspde.eps", "bdsde.eps",                # kappa < 1 at the configured epsilon
    "terminal.preset",                       # non-decaying data on a Dirichlet grid
    "representation.checkpoint_fractions",   # checkpoints on the time grid
    "space_grid.dim",                        # representation on 1-D grids only
    "coefficient_field", "hunt_check.field",  # field presets against the grid dimension
    "coefficient_field.amplitude",           # ellipticity: amplitude < base
    "hunt_check.field.amplitude",
    "bdsde.init.x0", "hunt_check.init.x0",   # initial point against the dimension
    "noise.y_scale", "noise.z_scale",        # one scale per driver coordinate
    "comparison.collar_frac",                # an interior left on Dirichlet grids
    "bdsde.n_diffusion_paths",               # samples per basis function
    "representation.n_diffusion_paths",
}
json_values = st.recursive(
    # Integers stay small so that no mutated grid size allocates much memory.
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(leaf=st.sampled_from(SHIPPED_LEAVES), value=json_values)
def test_validate_config_fuzz_one_leaf(leaf, value):
    cfg = default_config()
    node = cfg
    for part in leaf[:-1]:
        node = node[part]
    original, node[leaf[-1]] = node[leaf[-1]], value
    try:
        validate_config(cfg)
    except ConfigError as exc:
        path = _path_name(leaf)
        # An array may stand for a number: some numbers are per-component.
        ill_typed = (original is not None and _json_kind(value) != _json_kind(original)
                     and (_json_kind(original), _json_kind(value)) != ("number", "list"))
        if ill_typed:
            assert exc.field == path
        else:
            assert (exc.field == path or exc.field.startswith(path + "[")
                    or exc.field in RULE_FIELDS), (exc.field, path)


def _float_leaves(node, path=()):
    """Key paths of every float in ``node``, array elements included."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _float_leaves(value, path + (key,))
    elif type(node) is float:
        yield path


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [1e200, -1e200])
@pytest.mark.parametrize("leaf", list(_float_leaves(default_config())), ids=_path_name)
def test_huge_float_leaf_validates_or_names_a_field(leaf, value):
    # A float power of a huge constant raises OverflowError; validation must
    # either accept the value or reject it as a config error, and an array
    # square that overflows must not warn.
    cfg = default_config()
    node = cfg
    for part in leaf[:-1]:
        node = node[part]
    node[leaf[-1]] = value
    try:
        validate_config(cfg)
    except ConfigError as exc:
        path = _path_name(leaf)
        assert (exc.field == path or exc.field.startswith(path + "[")
                or exc.field in RULE_FIELDS), (exc.field, path)
