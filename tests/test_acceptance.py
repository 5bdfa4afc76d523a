"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criteria that are statistical run under fixed seeds, so they are exact
regression tests of a verified configuration.
"""

import json
import os
import time

import numpy as np
import pytest

from gexplab.bdsde import LsmcEnsemble, RegressionBasis, solve_linear_bdsde
from gexplab.cli import main as cli_main
from gexplab.config import default_config, validate_config
from gexplab.experiments import run_comparison, run_gspde, run_representation
from gexplab.gbm import (
    TimeGrid,
    build_gbm,
    coarsen_driver,
    integral_diagnostics,
    sample_driver,
)
from gexplab.hunt import InitialLaw, empirical_bracket, simulate_hunt
from gexplab.pde import (
    GspdeProblem,
    NoiseTerm,
    PicardConfig,
    ReactionTerm,
    SpatialGrid,
    apply_semigroup,
    discretize_operator,
    energy_identity_residual,
    residual_slots,
    solve_gspde_picard,
    zero_noise,
)
from gexplab.presets import FieldPreset
from gexplab.scenario import ScenarioSet, constant_schedule
from oracles import homogeneous_term, preset, solution_stacks


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description} {detail}")
    assert passed, f"criterion {num}: {description} {detail}"


def two_scenario_family(n_paths, n_steps, horizon=1.0, seed=42):
    scen = ScenarioSet.from_list([np.eye(2), [[1.2, 0.0], [0.3, 0.8]]])
    grid = TimeGrid(horizon, n_steps)
    driver = sample_driver(grid, n_paths, 2, seed)
    family = [build_gbm(driver, constant_schedule(k, n_steps), scen)
              for k in range(scen.n_scenarios)]
    return grid, family


def integrand(name, times):
    out = np.ones((times.shape[0], 2))
    if name == "step":
        out[times > 0.5 * times[-1]] = 2.0
    elif name == "sin-t":
        out *= (1.0 + 0.5 * np.sin(2 * np.pi * times / times[-1]))[:, None]
    return out


def test_criterion_01_backward_integral_mean_zero():
    start = time.perf_counter()
    grid, family = two_scenario_family(10_000, 256)
    ok, details = True, []
    for name in ("constant", "step", "sin-t"):
        rep = integral_diagnostics(integrand(name, grid.times), family)
        ok &= rep.mean_zero_ok
        details.append(f"{name}: |mean|={rep.mean_abs_max:.4f} band={rep.mean_band:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, "backward-integral mean within 3 SE of zero", ok,
           f"({'; '.join(details)}; {elapsed:.2f}s)")


def test_criterion_02_isometry_bound_and_classical_equality():
    start = time.perf_counter()
    grid, family = two_scenario_family(10_000, 256)
    rep = integral_diagnostics(np.ones((257, 2)), family)
    singleton = ScenarioSet.from_list([[[1.0]]])
    sgrid = TimeGrid(0.8, 64)
    sdriver = sample_driver(sgrid, 40_000, 1, seed=21)
    spaths = build_gbm(sdriver, constant_schedule(0, 64), singleton)
    srep = integral_diagnostics(np.ones((65, 1)), [spaths])
    eq_gap = abs(srep.second_moment - 0.8) / 0.8
    elapsed = time.perf_counter() - start
    ok = rep.isometry_ok and srep.isometry_ok and eq_gap <= 0.02 and elapsed < 5.0
    report(2, "isometry bound holds, classical equality within 2%", ok,
           f"(E|I0|^2={rep.second_moment:.4f} bound={rep.isometry_bound:.4f}; "
           f"singleton gap={eq_gap:.4f}; {elapsed:.2f}s)")


def test_criterion_03_doob_bound():
    start = time.perf_counter()
    grid, family = two_scenario_family(10_000, 256)
    ok, worst = True, 0.0
    for name in ("constant", "step", "sin-t"):
        rep = integral_diagnostics(integrand(name, grid.times), family)
        ok &= rep.doob_ok
        worst = max(worst, rep.sup_moment / rep.doob_bound)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(3, "maximal-inequality bound 4 sigma_bar^2 E int |Xi|^2", ok,
           f"(worst sup/bound={worst:.3f}; {elapsed:.2f}s)")


def test_criterion_04_bracket_identity_sinusoidal():
    start = time.perf_counter()
    field = preset(FieldPreset, {"preset": "sinusoidal-1d", "base": 0.75,
                                 "amplitude": 0.375}, 1)
    paths = simulate_hunt(field, InitialLaw("point", [0.0]), TimeGrid(1.0, 512),
                          10_000, seed=33)
    rep = empirical_bracket(paths, field)
    elapsed = time.perf_counter() - start
    ok = rep.max_rel_dev_diag <= 0.05 and elapsed < 20.0
    report(4, "bracket identity max relative deviation <= 5%", ok,
           f"(dev={rep.max_rel_dev_diag:.4f}; {elapsed:.2f}s)")


def test_criterion_05_semigroup_heat_kernel():
    start = time.perf_counter()
    sg = SpatialGrid(1, 10.0, 2001, "dirichlet0")
    field = preset(FieldPreset, {"preset": "constant", "value": 0.5}, 1)
    op = discretize_operator(field, sg)
    x = sg.points()[:, 0]
    v = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    out = apply_semigroup(op, v, 0.5)
    exact = np.exp(-0.5 * x**2 / 1.5) / np.sqrt(2 * np.pi * 1.5)
    err = float(np.max(np.abs(out - exact)))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-3 and elapsed < 2.0
    report(5, "semigroup Gaussian-in/Gaussian-out L-inf <= 1e-3", ok,
           f"(err={err:.2e}; {elapsed:.2f}s)")


def test_criterion_06_gspde_picard_contraction():
    exp = validate_config(default_config())
    cfg = exp.gspde_cfg
    assert cfg.eps == pytest.approx(0.4) and cfg.kappa == pytest.approx(0.3)
    rows, _ = run_gspde(exp)
    ratios = [r for r in rows if r.metric == "contraction_ratio"]
    converged = [r for r in rows if r.metric == "converged"]
    exp_rep = validate_config(default_config())
    # iteration counts come from the report artifacts
    _, artifacts = run_gspde(exp_rep)
    iters = [s["iterations"] for s in artifacts["gspde_report.json"]["per_scenario"]]
    ok = (all(r.passed for r in ratios) and all(r.passed for r in converged)
          and max(iters) <= 15)
    worst = max(r.value for r in ratios)
    report(6, "fixed-point ratios <= kappa + 0.05 with kappa = 0.3", ok,
           f"(worst ratio={worst:.3f}, iterations={max(iters)})")


def test_criterion_07_linear_gspde_exactness():
    # Source-free fixed point equals the composed one-step semigroup bitwise.
    sg = SpatialGrid(1, 8.0, 161, "periodic")
    tg = TimeGrid(0.5, 256)
    scen = ScenarioSet.from_list([[[1.0]]])
    field = preset(FieldPreset, {"preset": "constant", "value": 1.0}, 1)
    pts = sg.points()
    psi = np.exp(-0.5 * pts[:, 0] ** 2)
    hom_problem = GspdeProblem(psi, ReactionTerm(lambda t, p, y, z: np.zeros_like(y), 0.0, 0.0),
                               zero_noise(1), field, scen, tg, sg)
    gbm = build_gbm(sample_driver(tg, 2, 1, seed=5), constant_schedule(0, 256), scen)
    op = hom_problem.operator
    cfg = PicardConfig.from_problem(hom_problem, eps=1.0)
    fld, rep = solve_gspde_picard(hom_problem, cfg, gbm)
    hom = homogeneous_term(op, psi, tg)
    bitwise = all(np.array_equal(fld.values[p], hom) for p in range(fld.n_paths))

    # Deterministic source against an independently assembled theta scheme.
    def f_fn(t, p, y, z):
        return 0.5 * (1.0 + np.cos(t)) * np.exp(-0.5 * p[:, 0] ** 2) * np.ones_like(y)

    det_problem = GspdeProblem(psi, ReactionTerm(f_fn, 0.0, 0.0), zero_noise(1),
                               field, scen, tg, sg)
    fld2, _ = solve_gspde_picard(det_problem, cfg, gbm)
    dense = op.matrix.toarray()
    refine = 4
    n_f = tg.n_steps * refine
    dt_f = tg.horizon / n_f
    eye = np.eye(sg.n_nodes)
    back = np.linalg.inv(eye - 0.5 * dt_f * dense)
    fwd = eye + 0.5 * dt_f * dense
    u = psi.copy()
    times = np.linspace(0.0, tg.horizon, n_f + 1)
    zeros, zz = np.zeros(sg.n_nodes), np.zeros((sg.n_nodes, 1))
    worst = 0.0
    for j in range(n_f - 1, -1, -1):
        src = 0.5 * (f_fn(times[j], pts, zeros, zz) + f_fn(times[j + 1], pts, zeros, zz))
        u = back @ (fwd @ u + dt_f * src)
        if j % refine == 0:
            worst = max(worst, float(np.max(np.abs(fld2.values[0, j // refine] - u))))
    # Without sources every check sweep gives u*: each rho and the residual are 0.
    ok = bitwise and rep.ratios == (0.0, 0.0) and rep.increments[2] == 0.0 and worst <= 1e-3
    report(7, "source-free bitwise exact; theta-scheme oracle within 1e-3", ok,
           f"(theta Linf={worst:.2e})")


def test_criterion_08_linear_gbdsde_oracles():
    start = time.perf_counter()
    scen = ScenarioSet.from_list([[[1.0]]])
    tg = TimeGrid(0.75, 12)
    field = preset(FieldPreset, {"preset": "constant", "value": 0.5}, 1)
    hunt = simulate_hunt(field, InitialLaw("point", [0.0]), tg, 1500, seed=51)
    gbm = build_gbm(sample_driver(tg, 3, 1, seed=52), constant_schedule(0, 12), scen)
    ens = LsmcEnsemble(hunt, RegressionBasis(4), field)
    n, n_w = tg.n_steps, hunt.n_paths
    shape = (gbm.n_paths, n + 1, n_w)

    def solve(xi, f=0.0, g=0.0):
        f, g = np.broadcast_to(f, shape), np.broadcast_to(g, shape + (1,))
        return solution_stacks(solve_linear_bdsde(
            xi, ens, gbm, lambda i, *slot: (f[:, i], g[:, i]),
            np.empty(shape[:2] + (2, ens.n_features))))[0]

    y_c = solve(np.full(n_w, 2.5))
    err_c = float(np.max(np.abs(y_c - 2.5)))

    y_f = solve(np.zeros(n_w), f=np.ones((n + 1, n_w)))
    expect = (tg.horizon - tg.times)[None, :, None]
    err_f = float(np.max(np.abs(y_f - expect)))

    y_g = solve(np.zeros(n_w), g=np.ones((n + 1, n_w, 1)))
    levels = gbm.levels()[:, :, 0]
    err_g = float(np.max(np.abs(y_g - levels[:, :, None])))
    elapsed = time.perf_counter() - start
    ok = max(err_c, err_f, err_g) <= 1e-10 and elapsed < 10.0
    report(8, "linear backward oracles (constant, unit reaction, unit noise)", ok,
           f"(errors {err_c:.1e}/{err_f:.1e}/{err_g:.1e}; {elapsed:.2f}s)")


def test_criterion_09_gbdsde_picard_contraction():
    exp = validate_config(default_config())
    cfg = exp.bdsde_cfg
    bound = (0.25 * cfg.eps + 0.5 * 1.0 * 1.0) / 2.0 + 0.05
    assert cfg.kappa + 0.05 == pytest.approx(bound)
    from gexplab.experiments import run_gbdsde

    rows, artifacts = run_gbdsde(exp)
    ratios = [r for r in rows if r.metric == "contraction_ratio"]
    ok = all(r.passed for r in ratios) and all(
        r.passed for r in rows if r.metric == "converged")
    worst = max(r.value for r in ratios)
    report(9, "backward Picard ratios <= (K eps + alpha Lam sb^2)/(2 lam) + 0.05",
           ok, f"(worst ratio={worst:.3f} vs bound={bound:.3f})")


def representation_config():
    cfg = default_config()
    cfg["time_grid"] = {"horizon": 1.0, "n_steps": 8}
    cfg["space_grid"]["points_per_axis"] = 481
    cfg["coefficient_field"] = {"preset": "sinusoidal-1d", "base": 0.75,
                                "amplitude": 0.35, "frequency": 2.0}
    cfg["terminal"]["width"] = 2.0
    cfg["bdsde"]["basis"]["degree"] = 6
    cfg["representation"] = {"checkpoint_fractions": [0.0, 0.25, 0.5, 0.75],
                             "halvings": 1, "tolerance": 0.05,
                             "n_noise_paths": 16, "n_diffusion_paths": 2000}
    return cfg


def test_criterion_10_doubly_stochastic_representation():
    start = time.perf_counter()
    exp = validate_config(representation_config())
    rows, artifacts = run_representation(exp)
    rep = artifacts["representation_report.json"]
    worst = max(c["rel_rms_y"] for c in rep["checkpoints"])
    elapsed = time.perf_counter() - start
    ok = (all(r.passed for r in rows) and rep["non_increasing"] is True
          and worst <= 0.05 and elapsed < 300.0)
    refinement = {r["n_steps"]: max(r["rel_rms_y"].values()) for r in rep["refinement"]}
    report(10, "pathwise representation rel RMS <= 5%, non-increasing under halving",
           ok, f"(worst={worst:.4f}; per-level worst={refinement}; {elapsed:.1f}s)")


def comparison_config():
    cfg = default_config()
    # y-independent data so the +1 terminal shift transports exactly.
    cfg["reaction"] = {"preset": "sin-in-x", "amplitude": 0.2}
    cfg["noise"] = {"preset": "deterministic-x", "amplitude": 0.5, "width": 1.5}
    cfg["gspde"]["eps"] = 1.0
    return cfg


def test_criterion_11_ordered_solutions_stay_ordered():
    exp = validate_config(comparison_config())
    rows, artifacts = run_comparison(exp)
    cases = artifacts["comparison_report.json"]["cases"]
    shift_case = next(c for c in cases if c["terminal_shift"] == 1.0)
    drift_case = next(c for c in cases if c["reaction_shift"] == 0.1)
    ok_shift = shift_case["min_gap"] >= 1.0 - shift_case["eps_grid"]
    ok_drift = drift_case["min_gap"] >= -drift_case["eps_grid"]
    ok = ok_shift and ok_drift and all(r.passed for r in rows)
    report(11, "ordered data keeps solutions ordered within measured eps_grid", ok,
           f"(gaps {shift_case['min_gap']:.6f} / {drift_case['min_gap']:.2e}; "
           f"eps_grid {shift_case['eps_grid']:.2e})")


def test_criterion_12_energy_identity_refinement_order():
    sg = SpatialGrid(1, 8.0, 161, "periodic")
    scen = ScenarioSet.from_list([[[1.0]]])
    field = preset(FieldPreset, {"preset": "constant", "value": 1.0}, 1)
    psi = np.exp(-0.5 * np.sum(sg.points() ** 2, axis=1))
    reaction = ReactionTerm(lambda t, p, y, z: 0.3 * np.sin(y), 0.09, 0.0)

    def g_fn(t, p, y, z):
        prof = np.exp(-0.125 * p[:, 0] ** 2)
        return ((0.25 * np.tanh(y) + 0.3 * np.sin(z[..., 0])) * prof)[..., None]

    noise = NoiseTerm(g_fn, 1, 0.125, 0.18)
    levels = (16, 32, 64, 128)
    top = levels[-1]
    driver_top = sample_driver(TimeGrid(0.5, top), 128, 1, seed=41)
    res = {}
    for n in levels:
        tg = TimeGrid(0.5, n)
        problem = GspdeProblem(psi, reaction, noise, field, scen, tg, sg)
        gbm = build_gbm(coarsen_driver(driver_top, top // n),
                        constant_schedule(0, n), scen)
        cfg = PicardConfig.from_problem(problem)
        fld, _ = solve_gspde_picard(problem, cfg, gbm)
        r = energy_identity_residual(residual_slots(fld, problem, gbm), problem, gbm)
        res[n] = float(np.sqrt(np.mean(r**2)))
    lv = np.log2(np.array(levels, float))
    vals = np.log2([res[k] for k in levels])
    order = float(-np.polyfit(lv, vals, 1)[0])
    ok = order >= 0.4
    report(12, "energy identity residual decays with measured order >= 0.4", ok,
           f"(order={order:.3f}; residuals={[round(res[k], 5) for k in levels]})")


def test_criterion_13_run_suite_determinism(tmp_path):
    cfg = default_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    code1 = cli_main(["run-suite", "--config", str(path), "--out", out1])
    code2 = cli_main(["run-suite", "--config", str(path), "--out", out2])
    identical = True
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            identical &= f1.read() == f2.read()
    ok = code1 == 0 and code2 == 0 and identical
    report(13, "run-suite on shipped defaults passes and is byte-identical", ok,
           f"(exit codes {code1}/{code2}, identical={identical})")
