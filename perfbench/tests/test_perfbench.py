"""Tests of the benchmark itself: its configs, its span arithmetic and its
correctness checks.  Run from the repository root with ``src`` on the
import path, like the package's own tests."""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, total_times  # noqa: E402

from gexplab.cli import main as cli_main  # noqa: E402
from gexplab.config import validate_config  # noqa: E402


@pytest.fixture(scope="module")
def base():
    return workloads.load_default(ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 0, 7])
def test_generated_configs_validate(base, name, seed):
    cfg = workloads.make_config(name, seed, base)
    exp = validate_config(cfg)
    assert exp.seed == seed and exp.threads == 1
    assert checks.expected_rows(cfg) > 0


def test_make_config_leaves_base_untouched(base):
    before = json.dumps(base, sort_keys=True)
    for name in workloads.WORKLOADS:
        workloads.make_config(name, 1, base)
    assert json.dumps(base, sort_keys=True) == before


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_process_does_not_load_the_package():
    # wall_rel divides by the reference's time, which must not move with gexplab.
    code = ("import runpy, sys; runpy.run_path(sys.argv[1]); "
            "sys.exit(' '.join(m for m in sys.modules if m.startswith('gexplab')) or 0)")
    done = subprocess.run([sys.executable, "-c", code, os.path.join(BENCH, "reference.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- span arithmetic --------------------------------------------------------------

def test_self_times_on_a_synthetic_tree():
    spans = [
        ["run", 0.0, 10.0, -1],      # children cover [1, 4] and [5, 9]
        ["a", 1.0, 4.0, 0],          # child covers [2, 3]
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],          # children overlap: union [5.5, 8]
        ["leaf", 5.5, 7.0, 3],
        ["leaf", 6.0, 8.0, 3],
        ["late", 9.5, 12.0, 0],      # runs past its parent: clipped to 9.5..10
    ]
    own = self_times(spans)
    assert own["run"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(1.5)
    assert own["leaf"] == pytest.approx(1.0 + 1.5 + 2.0)
    assert own["late"] == pytest.approx(2.5)


def test_total_times_sum_durations_per_name():
    spans = [["run", 0.0, 5.0, -1], ["runner.a", 1.0, 2.0, 0], ["runner.a", 2.5, 4.0, 0]]
    assert total_times(spans) == {"run": pytest.approx(5.0), "runner.a": pytest.approx(2.5)}


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner, lambda counts, args, result:
                               counts.__setitem__("calls", counts["calls"] + result))
    outer = tracer.wrap("outer", lambda: traced_inner(1) + traced_inner(2))
    assert outer() == 5
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["calls"] == 5
    # outer: ticks 0..5, inner spans 1..2 and 3..4
    assert self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}


# -- correctness checks ------------------------------------------------------------

def _small_config(base):
    """The default problem shrunk so a full run takes about a second."""
    cfg = workloads.make_config("default-core", workloads.DEFAULT_SEED, base)
    cfg["time_grid"]["n_steps"] = 8
    cfg["space_grid"]["points_per_axis"] = 81
    cfg["gspde"]["n_noise_paths"] = 2
    cfg["bdsde"]["n_diffusion_paths"] = 400
    cfg["gbm_check"].update(n_paths=200, n_steps=16)
    cfg["suite"]["checks"] = ["gbm-integral", "gspde", "gbdsde", "comparison"]
    return cfg


@pytest.fixture(scope="module")
def good_run(base, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    cfg = _small_config(base)
    cfg_path = str(tmp / "config.json")
    workloads.write_config(cfg_path, cfg)
    out = str(tmp / "out")
    assert cli_main(["run-suite", "--config", cfg_path, "--out", out]) == 0
    return cfg, out


@pytest.fixture
def run_copy(good_run, tmp_path):
    cfg, out = good_run
    copy = str(tmp_path / "copy")
    shutil.copytree(out, copy)
    return cfg, copy


def test_a_good_run_passes_every_check(good_run):
    cfg, out = good_run
    assert checks.check_output(cfg, out) == []


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def test_terminal_value_nudged_by_1e_9_is_rejected(run_copy):
    cfg, out = run_copy
    horizon = float(cfg["time_grid"]["horizon"])

    def nudge(rows):
        header = rows[0]
        t_col, u_col = header.index("t"), header.index("u")
        row = next(r for r in rows[1:] if float(r[t_col]) == horizon)
        row[u_col] = repr(float(row[u_col]) + 1e-9)
        return rows

    _rewrite_csv(os.path.join(out, "gspde_solution.csv"), nudge)
    problems = checks.check_output(cfg, out)
    assert len(problems) == 1 and problems[0].startswith("terminal value")


def _edit_json(out, name, edit):
    path = os.path.join(out, name)
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    edit(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def test_ratio_above_kappa_plus_slack_is_rejected(run_copy):
    cfg, out = run_copy
    kappa = checks.kappas(cfg)["gspde"]
    _edit_json(out, "gspde_report.json",
               lambda r: r["per_scenario"][0]["ratios"].__setitem__(0, kappa + 0.051))
    problems = checks.check_output(cfg, out)
    assert len(problems) == 1 and "Picard ratio" in problems[0]


def test_missing_summary_row_is_rejected(run_copy):
    cfg, out = run_copy
    _rewrite_csv(os.path.join(out, "suite_summary.csv"), lambda rows: rows[:-1])
    problems = checks.check_output(cfg, out)
    assert problems == [f"summary has {checks.expected_rows(cfg) - 1} rows, "
                        f"the config implies {checks.expected_rows(cfg)}"]


def test_differing_artifacts_change_the_digest(good_run, run_copy):
    _, out = good_run
    _, copy = run_copy
    assert checks.digest(copy) == checks.digest(out)
    with open(os.path.join(copy, "gbdsde_report.json"), "a", encoding="utf-8") as handle:
        handle.write(" ")
    assert checks.digest(copy) != checks.digest(out)


def test_wrong_kappa_comparison_bound_and_isometry_are_rejected(run_copy):
    cfg, out = run_copy

    def scale_kappa(r):
        r["kappa"] *= 1.0 + 1e-9

    def shift_bound(r):
        r["cases"][0]["expected_lower_bound"] -= 1e-6

    def scale_isometry(r):
        r["checks"]["step"]["isometry_bound"] *= 1.001

    _edit_json(out, "gbdsde_report.json", scale_kappa)
    _edit_json(out, "comparison_report.json", shift_bound)
    _edit_json(out, "gbm_report.json", scale_isometry)
    problems = checks.check_output(cfg, out)
    assert len(problems) == 3
    assert problems[0].startswith("gbdsde kappa")
    assert problems[1].startswith("comparison case 0 bound")
    assert problems[2].startswith("isometry bound [step]")


def test_kappas_match_the_program(base):
    for name in workloads.WORKLOADS:
        cfg = workloads.make_config(name, 1, base)
        exp = validate_config(cfg)
        ks = checks.kappas(cfg)
        assert ks["gspde"] == pytest.approx(exp.gspde_cfg.kappa, rel=1e-12)
        assert ks["gbdsde"] == pytest.approx(exp.bdsde_cfg.kappa, rel=1e-12)
