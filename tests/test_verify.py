import weakref

import numpy as np
import pytest

from gexplab import experiments, pde, verify
from gexplab.config import default_config, validate_config
from gexplab.bdsde import BdsdeProblem, LsmcEnsemble, RegressionBasis, solve_gbdsde_picard
from gexplab.errors import UsageError
from gexplab.gbm import TimeGrid, build_gbm, sample_driver
from gexplab.hunt import CoefficientField, InitialLaw, simulate_hunt
from gexplab.pde import (
    GspdeProblem,
    NoiseTerm,
    PicardConfig,
    ReactionTerm,
    SpatialGrid,
    ZERO_REACTION,
    apply_semigroup,
    derive_contraction_inputs,
    discretize_operator,
    solve_gspde_picard,
    zero_noise,
)
from gexplab.scenario import ScenarioSet, constant_schedule
from gexplab.verify import (
    check_comparison,
    check_linear_transport,
    check_representation,
    representation_errors,
)


def const_field(value):
    def a(pts):
        return value * np.ones((pts.shape[0], 1, 1))

    return CoefficientField(1, a, value, value, drift=lambda p: np.zeros_like(p))


def setup_pipeline(terminal_fn, n_steps=8, horizon=0.5, n_b=4, n_w=1500,
                   a_value=0.5, seed=11, reaction=None, b_f=None,
                   noise=None, b_g=None, lip_k=0.0, lip_alpha=0.0, deg=5):
    sg = SpatialGrid(1, 8.0, 241, "periodic")
    tg = TimeGrid(horizon, n_steps)
    scen = ScenarioSet.from_list([[[1.0]], [[0.6]]])
    field = const_field(a_value)
    psi = terminal_fn(sg.points())
    problem = GspdeProblem(psi, reaction or ZERO_REACTION, noise or zero_noise(1),
                           field, scen, tg, sg)
    b_f = ReactionTerm(b_f or (lambda t, x, y, v: np.zeros_like(y)), lip_k, 0.0)
    b_g = NoiseTerm(b_g or (lambda t, x, y, v: np.zeros(np.shape(y) + (1,))), 1, 0.0, lip_alpha)
    bprob = BdsdeProblem(terminal_fn, b_f.fn, b_g.fn, tg,
                         derive_contraction_inputs(b_f, b_g, field, scen))
    driver = sample_driver(tg, n_b, 1, seed)
    gbms = [build_gbm(driver, constant_schedule(k, n_steps), scen) for k in range(2)]
    hunt = simulate_hunt(field, InitialLaw("point", [0.0]), tg, n_w, seed + 1)
    ensemble = LsmcEnsemble(hunt, RegressionBasis(deg), field)
    cfg = PicardConfig.from_problem(problem, eps=1.0, max_iter=20, tol_rel=1e-8)
    b_cfg = PicardConfig.from_problem(bprob, max_iter=20)
    u_fields, sols = [], []
    for gbm in gbms:
        fld, _ = solve_gspde_picard(problem, cfg, gbm)
        sol = solve_gbdsde_picard(bprob, ensemble, gbm, b_cfg)
        u_fields.append(fld)
        sols.append(sol)
    return problem, u_fields, sols, hunt, gbms, field


def test_representation_constant_terminal_is_exact():
    problem, u_fields, sols, hunt, gbms, field = setup_pipeline(
        lambda pts: np.full(pts.shape[0], 2.0))
    worst = check_representation(zip(u_fields, sols, gbms), hunt, [0.0, 0.25, 0.375], field)
    assert max(c.rel_rms_y for c in worst) <= 1e-9


def test_representation_source_free_semigroup_case():
    problem, u_fields, sols, hunt, gbms, field = setup_pipeline(
        lambda pts: np.exp(-0.25 * pts[:, 0] ** 2), n_w=2500)
    t_hor = problem.time_grid.horizon
    worst = check_representation(zip(u_fields, sols, gbms), hunt,
                                 [0.0, 0.25 * t_hor, 0.5 * t_hor], field)
    assert max(c.rel_rms_y for c in worst) <= 0.05
    for c in worst:
        assert np.isfinite(c.rel_rms_z) and np.isfinite(c.rel_rms_z_sigma)


def test_representation_provenance_and_checkpoints():
    problem, u_fields, sols, hunt, gbms, field = setup_pipeline(
        lambda pts: np.exp(-0.25 * pts[:, 0] ** 2), n_w=600)
    with pytest.raises(UsageError, match="grid time"):
        representation_errors(u_fields[0], sols[0], hunt, gbms[0], [0.1234], field)
    other_hunt = simulate_hunt(const_field(0.5), InitialLaw("point", [0.0]),
                               problem.time_grid, hunt.n_paths, seed=999)
    with pytest.raises(UsageError, match="diffusion"):
        representation_errors(u_fields[0], sols[0], other_hunt, gbms[0], [0.0], field)
    with pytest.raises(UsageError, match="noise"):
        representation_errors(u_fields[0], sols[0], hunt, gbms[1], [0.0], field)


def test_fingerprint_covers_supplied_increments():
    problem, u_fields, sols, hunt, gbms, field = setup_pipeline(
        lambda pts: np.exp(-0.25 * pts[:, 0] ** 2), n_w=600, seed=6)
    assert hunt.seed == 7
    tg = problem.time_grid
    rng = np.random.default_rng(5)
    ensembles = [simulate_hunt(field, InitialLaw("point", [0.0]), tg, hunt.n_paths, seed=7,
                               dw=rng.standard_normal((hunt.n_paths, tg.n_steps, 1))
                               * np.sqrt(tg.dt)) for _ in range(2)]
    assert ensembles[0].fingerprint() != ensembles[1].fingerprint()
    assert ensembles[0].fingerprint()[:5] == ensembles[1].fingerprint()[:5]
    with pytest.raises(UsageError, match="diffusion"):
        representation_errors(u_fields[0], sols[0], ensembles[0], gbms[0], [0.0], field)


def test_representation_worst_case_matches_per_scenario_errors():
    problem, u_fields, sols, hunt, gbms, field = setup_pipeline(
        lambda pts: np.exp(-0.25 * pts[:, 0] ** 2), n_w=600)
    checkpoints = [0.0, 0.25]
    per_scenario = [representation_errors(u, s, hunt, g, checkpoints, field)
                    for u, s, g in zip(u_fields, sols, gbms)]
    worst = check_representation(zip(u_fields, sols, gbms), hunt, checkpoints, field)
    assert [c.t for c in worst] == checkpoints
    for j, c in enumerate(worst):
        rows = [metrics[j] for metrics in per_scenario]
        assert c.rel_rms_y == max(r.rel_rms_y for r in rows)
        assert c.rel_rms_z == max(r.rel_rms_z for r in rows)
        assert c.rel_rms_z_sigma == max(r.rel_rms_z_sigma for r in rows)
        assert c.ref_rms == min(r.ref_rms for r in rows)
    with pytest.raises(UsageError, match="at least one scenario"):
        check_representation(iter(()), hunt, checkpoints, field)


def small_representation_exp(halvings):
    cfg = default_config()
    cfg["time_grid"]["n_steps"] = 8
    cfg["representation"].update(halvings=halvings, n_noise_paths=2, n_diffusion_paths=300)
    cfg["suite"]["checks"] = ["representation"]
    return validate_config(cfg)


def test_runner_builds_the_refinement_table(monkeypatch):
    built = []
    monkeypatch.setattr(pde, "discretize_operator",
                        lambda *a: built.append(a) or discretize_operator(*a))
    rows, artifacts = experiments.run_representation(small_representation_exp(1))
    rep = artifacts["representation_report.json"]
    assert len(built) == 1
    assert [r["n_steps"] for r in rep["refinement"]] == [8, 16]
    coarse, fine = rep["refinement"]
    assert list(coarse["rel_rms_y"]) == [c["t"] for c in rep["checkpoints"]]
    assert list(coarse["rel_rms_y"].values()) == [c["rel_rms_y"] for c in rep["checkpoints"]]
    expected = all(fine["rel_rms_y"][t] <= coarse["rel_rms_y"][t] + 1e-12
                   for t in fine["rel_rms_y"])
    assert rep["non_increasing"] is expected
    [summary] = [r for r in rows if r.metric == "non_increasing"]
    assert summary.passed is expected and summary.value == float(expected)

    built.clear()
    rows, artifacts = experiments.run_representation(small_representation_exp(0))
    rep = artifacts["representation_report.json"]
    assert len(built) == 1
    assert rep["non_increasing"] is None
    assert [r["n_steps"] for r in rep["refinement"]] == [8]
    assert not [r for r in rows if r.metric == "non_increasing"]


def test_suite_builds_one_grid_operator(monkeypatch):
    # The grid problem owns its operator; the runners and the problems they
    # derive by ``replace`` share it.
    built = []
    monkeypatch.setattr(pde, "discretize_operator",
                        lambda *a: built.append(a) or discretize_operator(*a))
    cfg = default_config()
    cfg["time_grid"]["n_steps"] = 8
    cfg["gspde"]["n_noise_paths"] = 2
    cfg["representation"].update(n_noise_paths=2, n_diffusion_paths=300)
    cfg["suite"]["checks"] = ["gspde", "comparison", "representation"]
    experiments.run_suite(validate_config(cfg))
    assert len(built) == 1


def test_runner_drops_each_scenarios_solves_before_the_next(monkeypatch):
    refs, alive_at_start = [], []

    def gspde(*args, **kwargs):
        alive_at_start.append(sum(r() is not None for r in refs))
        fld, rep = solve_gspde_picard(*args, **kwargs)
        refs.append(weakref.ref(fld))
        return fld, rep

    def gbdsde(*args, **kwargs):
        sol = solve_gbdsde_picard(*args, **kwargs)
        refs.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(experiments, "solve_gspde_picard", gspde)
    monkeypatch.setattr(experiments, "solve_gbdsde_picard", gbdsde)
    experiments.run_representation(small_representation_exp(1))
    assert alive_at_start == [0, 0, 0, 0]  # two scenarios on each of two levels
    assert all(r() is None for r in refs)


# -- comparison ------------------------------------------------------------------

def comparison_setup(reaction=None, noise=None, n_steps=16):
    sg = SpatialGrid(1, 8.0, 161, "periodic")
    tg = TimeGrid(0.5, n_steps)
    scen = ScenarioSet.from_list([[[1.0]], [[0.6]]])
    field = const_field(1.0)
    psi = np.exp(-0.5 * np.sum(sg.points() ** 2, axis=1))
    reaction = reaction or ReactionTerm(
        lambda t, p, y, z: 0.2 * np.sin(p[:, 0]) * np.ones_like(y), 0.0, 0.0, "sin-x")
    noise = noise or NoiseTerm(
        lambda t, p, y, z: np.exp(-0.125 * p[:, 0] ** 2)[..., None] * np.ones(np.shape(y) + (1,)),
        1, 0.0, 0.0, "det-x")
    problem = GspdeProblem(psi, reaction, noise, field, scen, tg, sg)
    driver = sample_driver(tg, 4, 1, seed=3)
    gbms = [build_gbm(driver, constant_schedule(k, n_steps), scen) for k in range(2)]
    cfg = PicardConfig.from_problem(problem, eps=1.0, max_iter=20, tol_rel=1e-9)
    return problem, cfg, gbms


def shifted(problem, terminal_shift=0.0, reaction_shift=0.0):
    reaction = problem.reaction
    if reaction_shift:
        base = reaction

        def fn(t, p, y, z):
            return np.asarray(base.fn(t, p, y, z)) + reaction_shift

        reaction = ReactionTerm(fn, base.lip_y_sq, base.lip_z_sq, base.name + "+shift")
    return GspdeProblem(problem.terminal + terminal_shift, reaction, problem.noise,
                        problem.field, problem.scenarios, problem.time_grid,
                        problem.space_grid, check_boundary_decay=False)


def test_comparison_identical_problems():
    problem, cfg, gbms = comparison_setup()
    [report] = check_comparison(problem, [shifted(problem)], cfg, gbms)
    assert report.min_gap >= -1e-12


def test_comparison_terminal_shift_gap_one():
    problem, cfg, gbms = comparison_setup()
    [report] = check_comparison(problem, [shifted(problem, terminal_shift=1.0)], cfg, gbms)
    assert report.min_gap >= 1.0 - report.eps_grid
    assert report.min_gap == pytest.approx(1.0, abs=1e-6)
    assert report.c_constant >= 0.0


def test_comparison_reaction_shift_nonnegative():
    problem, cfg, gbms = comparison_setup()
    [report] = check_comparison(problem, [shifted(problem, reaction_shift=0.1)], cfg, gbms)
    assert report.min_gap >= -report.eps_grid
    assert report.min_gap >= -1e-9  # deterministic shift stays signed


def test_comparison_rejects_unordered_and_different_noise():
    problem, cfg, gbms = comparison_setup()
    with pytest.raises(UsageError, match="not ordered"):
        check_comparison(problem, [shifted(problem, terminal_shift=-1.0)], cfg, gbms)
    with pytest.raises(UsageError, match="not ordered"):
        check_comparison(problem, [shifted(problem, reaction_shift=-0.5)], cfg, gbms)
    other = GspdeProblem(problem.terminal, problem.reaction, zero_noise(1),
                         problem.field, problem.scenarios, problem.time_grid,
                         problem.space_grid)
    with pytest.raises(UsageError, match="noise"):
        check_comparison(problem, [other], cfg, gbms)


def count_solves(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "solve_gspde_picard",
                        lambda *a, **k: calls.append(a) or solve_gspde_picard(*a, **k))
    return calls


def test_comparison_validates_every_case_before_solving(monkeypatch):
    problem, cfg, gbms = comparison_setup()
    calls = count_solves(monkeypatch)
    with pytest.raises(UsageError, match="not ordered"):
        check_comparison(problem, [shifted(problem, terminal_shift=1.0),
                                   shifted(problem, terminal_shift=-1.0)], cfg, gbms)
    assert calls == []


def test_comparison_cases_share_the_unshifted_solves(monkeypatch):
    problem, cfg, gbms = comparison_setup()
    cases = [shifted(problem, terminal_shift=1.0), shifted(problem, reaction_shift=0.1)]
    single = [check_comparison(problem, [case], cfg, gbms)[0] for case in cases]
    calls = count_solves(monkeypatch)
    joint = check_comparison(problem, cases, cfg, gbms)
    assert len(joint) == len(cases)
    for one, both in zip(single, joint):
        assert both.min_gap == one.min_gap
        assert both.eps_grid == one.eps_grid
        assert both.per_scenario == one.per_scenario
    assert gbms[0].grid.n_steps % 2 == 0
    assert len(calls) == len(gbms) * (2 + 2 * len(cases))


# -- transport --------------------------------------------------------------------

def transport_setup(n_steps, n_w=3000, seed=21, dw=None):
    sg = SpatialGrid(1, 8.0, 321, "periodic")
    tg = TimeGrid(0.5, n_steps)
    scen = ScenarioSet.from_list([[[1.0]]])
    field = const_field(0.5)
    noise = NoiseTerm(
        lambda t, p, y, z: (np.exp(-0.125 * p[:, 0] ** 2))[..., None] * np.ones(np.shape(y) + (1,)),
        1, 0.0, 0.0, "det-x")
    driver = sample_driver(tg, 6, 1, seed)
    gbms = [build_gbm(driver, constant_schedule(0, n_steps), scen)]
    hunt = simulate_hunt(field, InitialLaw("point", [0.0]), tg, n_w, seed + 5, dw=dw)
    return noise, field, tg, sg, hunt, gbms, scen


def test_transport_zero_noise_is_exact():
    noise, field, tg, sg, hunt, gbms, scen = transport_setup(8, n_w=400)
    zero = NoiseTerm(lambda t, p, y, z: np.zeros(np.shape(y) + (1,)), 1, 0.0, 0.0)
    report = check_linear_transport(zero, field, tg, sg, hunt, gbms, scen)
    # Both sides vanish identically; relative RMS is 0 by the floor convention.
    assert report.worst_rel_rms == 0.0


def test_transport_requires_deterministic_noise():
    noise, field, tg, sg, hunt, gbms, scen = transport_setup(4, n_w=400)
    bad = NoiseTerm(lambda t, p, y, z: y[..., None], 1, 1.0, 0.0)
    with pytest.raises(UsageError, match="independent"):
        check_linear_transport(bad, field, tg, sg, hunt, gbms, scen)


def test_transport_time_constant_profile_small_and_decaying():
    noise, field, tg, sg, hunt, gbms, scen = transport_setup(256, n_w=2000)
    report = check_linear_transport(noise, field, tg, sg, hunt, gbms, scen)
    assert report.worst_rel_rms <= 0.05
    # refinement: same underlying Wiener path, halved step count
    rng = np.random.default_rng(77)
    dw_fine = rng.standard_normal((2000, 256, 1)) * np.sqrt(TimeGrid(0.5, 256).dt)
    reports = []
    for n in (64, 256):
        dw = dw_fine.reshape(2000, n, 256 // n, 1).sum(axis=2)
        noise_n, field_n, tg_n, sg_n, hunt_n, gbms_n, scen_n = transport_setup(n, n_w=2000, dw=dw)
        reports.append(check_linear_transport(noise_n, field_n, tg_n, sg_n,
                                              hunt_n, gbms_n, scen_n))
    assert reports[1].worst_rel_rms <= reports[0].worst_rel_rms


def test_transport_single_step_matches_direct_evaluation():
    noise, field, tg, sg, hunt, gbms, scen = transport_setup(1, n_w=500)
    report = check_linear_transport(noise, field, tg, sg, hunt, gbms, scen)
    # Direct one-step evaluation of both sides.
    op = discretize_operator(field, sg)
    pts = sg.points()
    g_vals = noise(0.0, pts, np.zeros(sg.n_nodes), np.zeros((sg.n_nodes, 1)))[:, 0]
    pg = op.cn_step(g_vals, tg.dt)
    gbm = gbms[0]
    res_sq, ref_sq = 0.0, 0.0
    x0 = hunt.x[:, 0, 0]
    g_at_x0 = noise(tg.dt, hunt.x[:, 0, :], np.zeros(hunt.n_paths),
                    np.zeros((hunt.n_paths, 1)))[:, 0]
    grad_u0 = sg.gradient(pg)[:, 0]
    for b in range(gbm.n_paths):
        u0 = np.interp(x0, sg.axis(), pg) * gbm.db[b, 0, 0]
        rhs = g_at_x0 * gbm.db[b, 0, 0] - np.interp(x0, sg.axis(), grad_u0) \
            * gbm.db[b, 0, 0] * hunt.dm[:, 0, 0]
        res_sq += float(np.mean((u0 - rhs) ** 2))
        ref_sq += float(np.mean(u0**2))
    manual = np.sqrt(res_sq / ref_sq)
    assert report.worst_rel_rms == pytest.approx(manual, rel=1e-10)
