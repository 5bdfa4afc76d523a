import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexplab import bdsde, picard
from gexplab.bdsde import (
    BdsdeProblem,
    LsmcEnsemble,
    RegressionBasis,
    RegressionContext,
    delta_norm,
    extract_z,
    solve_gbdsde_picard,
    solve_linear_bdsde,
)
from gexplab.bdsde import BdsdeSolution, _delta_density
from gexplab.errors import NumericalError, UsageError
from gexplab.gbm import TimeGrid, build_gbm, sample_driver
from gexplab.hunt import CoefficientField, InitialLaw, simulate_hunt
from gexplab.pde import (
    NoiseTerm,
    ReactionTerm,
    SpatialGrid,
    apply_semigroup,
    derive_contraction_inputs,
    discretize_operator,
)
from gexplab.picard import (
    PicardConfig,
    increment_and_iterate_norms,
    iterate,
    weighted_quadrature,
)
from gexplab.scenario import ScenarioSet, constant_schedule


def const_field(value, dim=1):
    def a(pts):
        return np.broadcast_to(value * np.eye(dim), (pts.shape[0], dim, dim)).copy()

    return CoefficientField(dim, a, value, value, drift=lambda p: np.zeros_like(p))


def make_ensembles(n_steps=16, horizon=0.5, n_w=1500, n_b=3, a_value=0.5,
                   seed=51, scen=None, init=None):
    scen = scen or ScenarioSet.from_list([[[1.0]]])
    grid = TimeGrid(horizon, n_steps)
    field = const_field(a_value)
    hunt = simulate_hunt(field, init or InitialLaw("point", [0.0]), grid, n_w, seed=seed)
    driver = sample_driver(grid, n_b, scen.dim, seed + 1)
    gbm = build_gbm(driver, constant_schedule(0, n_steps), scen)
    return field, hunt, gbm


BASIS = RegressionBasis(degree=4, ridge=0.0)


def slot_lookup(hunt, gbm, f=0.0, g=0.0):
    """Driver arrays as the slot callable of solve_linear_bdsde: ``f`` and
    ``g`` are broadcast to (n_b, N+1, n_W) and (n_b, N+1, n_W, l)."""
    shape = (gbm.n_paths, hunt.grid.n_steps + 1, hunt.n_paths)
    f, g = np.broadcast_to(f, shape), np.broadcast_to(g, shape + (gbm.dim,))
    return lambda i: (f[:, i], g[:, i])


# -- regression ----------------------------------------------------------------

def fitted(targets, x, basis):
    ctx = RegressionContext(x, basis)
    return ctx.predict_in_sample(ctx.fit(targets))


def test_regress_constant_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(400)
    assert np.allclose(fitted(np.full(400, 3.25), x, BASIS), 3.25, atol=1e-12)


def test_regress_linear_in_span():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    assert np.allclose(fitted(x, x, RegressionBasis(1)), x, atol=1e-10)


def test_regress_quadratic_coefficient_consistency():
    # OLS consistency oracle: y = x^2 + noise recovers the x^2 coefficient.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10_000)
    y = x**2 + 0.3 * rng.standard_normal(10_000)
    # Features are powers of (x - c)/s, so the fit at the sample points is a
    # quadratic in x; its leading coefficient must be 1 within 3 SE.
    coef = np.polyfit(x, fitted(y, x, RegressionBasis(2)), 2)[0]
    assert abs(coef - 1.0) <= 3.0 * 0.3 / np.sqrt(10_000) * 10


def test_regress_too_few_samples_rejected():
    x = np.random.default_rng(4).standard_normal(800)
    with pytest.raises(UsageError, match="samples per basis"):
        RegressionContext(x[:20], RegressionBasis(6))


def test_degenerate_positions_fall_back_to_constant():
    ctx = RegressionContext(np.zeros((200, 1)), BASIS)
    assert ctx.n_features == 1
    coefs = ctx.fit(np.full(200, 1.5))
    assert np.allclose(ctx.predict_in_sample(coefs), 1.5, atol=1e-12)


# -- extract_z -------------------------------------------------------------------

def slot_z(next_values, hunt, field, i, dt):
    return extract_z(next_values, hunt.dm[:, i], RegressionContext(hunt.x[:, i], BASIS),
                     np.linalg.inv(field.a_at(hunt.x[:, i])), dt)


def test_extract_z_constant_next_value_is_noise_level():
    field, hunt, _ = make_ensembles(n_w=4000)
    i, c = 3, 2.0
    dt = hunt.grid.dt
    z = slot_z(np.full(hunt.n_paths, c), hunt, field, i, dt)
    # The Z estimator divides the regressed moment by 2 a dt, so its mean
    # carries standard error ~ c std(dM) / (2 a dt sqrt(n)).
    se = c * np.std(hunt.dm[:, i, 0]) / (2.0 * 0.5 * dt) / np.sqrt(hunt.n_paths)
    assert abs(float(np.mean(z))) <= 3.0 * se


def test_extract_z_martingale_level_recovers_unity():
    # next = M_{t_{i+1}}: E[next dM | X] = 2 a dt, so Z == 1 for any a.
    field, hunt, _ = make_ensembles(n_w=20_000, n_steps=8)
    i = 5
    m_next = hunt.dm[:, : i + 1, 0].sum(axis=1)
    z = slot_z(m_next, hunt, field, i, hunt.grid.dt)
    assert abs(float(np.mean(z)) - 1.0) <= 0.05


def test_extract_z_rejects_bad_dt():
    field, hunt, _ = make_ensembles(n_w=200)
    with pytest.raises(UsageError):
        slot_z(np.zeros(200), hunt, field, 0, 0.0)


# -- linear solver ---------------------------------------------------------------

def test_linear_constant_terminal():
    field, hunt, gbm = make_ensembles()
    c = 2.5
    sol = solve_linear_bdsde(np.full(hunt.n_paths, c), LsmcEnsemble(hunt, BASIS, field),
                             gbm, slot_lookup(hunt, gbm))
    assert np.allclose(sol.y, c, atol=1e-10)
    assert np.array_equal(sol.y[:, -1], np.full((gbm.n_paths, hunt.n_paths), c))
    # Z is pure regression noise on centered targets, scale c/(2 a dt) noise.
    dt = hunt.grid.dt
    se = c * np.sqrt(2 * 0.5 * dt) / (2.0 * 0.5 * dt) / np.sqrt(hunt.n_paths)
    assert float(np.max(np.abs(np.mean(sol.z, axis=2)))) <= 4.0 * se
    assert np.array_equal(sol.z[:, -1], sol.z[:, -2])  # copied, not extrapolated


def test_linear_unit_reaction_gives_time_to_horizon():
    field, hunt, gbm = make_ensembles(n_steps=12, horizon=0.75)
    n, n_w = hunt.grid.n_steps, hunt.n_paths
    f_vals = np.ones((n + 1, n_w))
    sol = solve_linear_bdsde(np.zeros(n_w), LsmcEnsemble(hunt, BASIS, field), gbm,
                             slot_lookup(hunt, gbm, f=f_vals))
    times = hunt.grid.times
    for i in range(n + 1):
        assert np.allclose(sol.y[:, i], 0.75 - times[i], atol=1e-10)


def test_linear_unit_noise_telescopes_to_b_level():
    field, hunt, gbm = make_ensembles(n_steps=10)
    n, n_w = hunt.grid.n_steps, hunt.n_paths
    g_vals = np.ones((n + 1, n_w, 1))
    sol = solve_linear_bdsde(np.zeros(n_w), LsmcEnsemble(hunt, BASIS, field), gbm,
                             slot_lookup(hunt, gbm, g=g_vals))
    levels = gbm.levels()  # B anchored at horizon
    for b in range(gbm.n_paths):
        for i in range(n + 1):
            assert np.allclose(sol.y[b, i], levels[b, i, 0], atol=1e-10)


def test_linear_martingale_property_in_sample():
    # OLS residuals are orthogonal to constants, so the one-step residual
    # mean over the ensemble vanishes.
    field, hunt, gbm = make_ensembles(n_w=2000)

    def phi(pts):
        return np.cos(pts[:, 0])

    xi = phi(hunt.x[:, -1, :])
    n = hunt.grid.n_steps
    f_vals = 0.3 * np.ones((n + 1, hunt.n_paths))
    sol = solve_linear_bdsde(xi, LsmcEnsemble(hunt, BASIS, field), gbm,
                             slot_lookup(hunt, gbm, f=f_vals))
    dt = hunt.grid.dt
    for i in range(n):
        resid = sol.y[:, i] - sol.y[:, i + 1] - 0.3 * dt
        mean = np.mean(resid, axis=1)
        se = np.std(resid, axis=1, ddof=1) / np.sqrt(hunt.n_paths)
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)


def test_linear_grid_mismatch_rejected():
    field, hunt, gbm = make_ensembles()
    other = sample_driver(TimeGrid(0.5, 8), 3, 1, seed=0)
    bad_gbm = build_gbm(other, constant_schedule(0, 8), gbm.scenarios)
    with pytest.raises(UsageError):
        solve_linear_bdsde(np.zeros(hunt.n_paths), LsmcEnsemble(hunt, BASIS, field),
                           bad_gbm, slot_lookup(hunt, gbm))


# -- delta norm -------------------------------------------------------------------

def test_delta_norm_examples():
    tg = TimeGrid(1.0, 16)
    shape_y = (2, 17, 50)
    zeros = BdsdeSolution(np.zeros(shape_y), np.zeros(shape_y + (1,)), tg, 0,
                          np.ones(50))
    assert delta_norm(zeros, 1.0, 1.0) == 0.0
    ones_y = BdsdeSolution(np.ones(shape_y), np.zeros(shape_y + (1,)), tg, 0,
                           np.ones(50))
    assert delta_norm(ones_y, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    ones_z = BdsdeSolution(np.zeros(shape_y), np.ones(shape_y + (1,)), tg, 0,
                           np.ones(50))
    assert delta_norm(ones_z, 1.0, 0.0) == pytest.approx(np.sqrt(np.e - 1.0), rel=1e-12)


def test_delta_norm_uses_importance_weights_unnormalized():
    tg = TimeGrid(1.0, 4)
    n_w = 10
    weights = np.linspace(0.5, 2.0, n_w)
    y = np.ones((1, 5, n_w))
    sol = BdsdeSolution(y, np.zeros((1, 5, n_w, 1)), tg, 0, weights)
    # delta E int e^{0 s} |Y|^2 ds with weighted mean over diffusion paths.
    expected = np.sqrt(np.mean(weights) * tg.horizon)
    assert delta_norm(sol, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)


def whole_stack_delta_norm(y, z, beta, delta, weights, times):
    """Reference: the (beta, delta)-norm from a density built over whole stacks."""
    dens = delta * y[:, :-1]**2 + np.sum(z[:, :-1]**2, axis=-1)
    return float(np.sqrt(weighted_quadrature(np.mean(dens * weights, axis=-1), beta, times)))


@settings(max_examples=60, deadline=None)
@given(n_b=st.integers(1, 4), n_steps=st.integers(1, 6), n_w=st.integers(1, 40),
       d=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       beta=st.floats(0.0, 8.0), delta=st.floats(0.0, 20.0),
       horizon=st.floats(0.05, 3.0),
       block_bytes=st.sampled_from([1, 600, 2000, picard.NORM_BLOCK_BYTES]))
def test_fused_norms_match_whole_stack_reference_bitwise(n_b, n_steps, n_w, d, seed,
                                                         beta, delta, horizon, block_bytes):
    # The backward Picard loop builds both (Y, Z) densities in one pass over
    # blocks of time slots (one slot, a few, all); the solver iterates on the
    # square root of the quadrature, which must give the whole-stack norms.
    rng = np.random.default_rng(seed)
    tg = TimeGrid(horizon, n_steps)
    weights = rng.uniform(0.1, 3.0, n_w)
    old = (rng.standard_normal((n_b, n_steps + 1, n_w)),
           rng.standard_normal((n_b, n_steps + 1, n_w, d)))
    new = (rng.standard_normal((n_b, n_steps + 1, n_w)),
           rng.standard_normal((n_b, n_steps + 1, n_w, d)))

    def density(y, z):
        return _delta_density(y, z, delta, weights)

    with mock.patch.object(picard, "NORM_BLOCK_BYTES", block_bytes):
        inc, cur = increment_and_iterate_norms(density, new, old, beta, tg.times)
        same, same_cur = increment_and_iterate_norms(density, new, new, beta, tg.times)
    inc, cur = np.sqrt(inc), np.sqrt(cur)
    assert inc == whole_stack_delta_norm(new[0] - old[0], new[1] - old[1], beta, delta,
                                         weights, tg.times)
    assert cur == whole_stack_delta_norm(*new, beta, delta, weights, tg.times)
    assert cur == delta_norm(BdsdeSolution(*new, tg, 0, weights), beta, delta)
    assert same == 0.0
    assert np.sqrt(same_cur) == cur


# -- outer Picard loop --------------------------------------------------------------

def backward_problem(terminal_fn, f, g, k, alpha, field, scen, tg):
    """Drivers f and g whose y constant is ``k`` and whose v constant
    (that of g) is ``alpha``, with the contraction inputs both equations
    derive from them."""
    inputs = derive_contraction_inputs(ReactionTerm(f, k, 0.0),
                                       NoiseTerm(g, scen.dim, 0.0, alpha), field, scen)
    return BdsdeProblem(terminal_fn, f, g, tg, inputs)


def representation_free_problem(field, scen, tg, k=0.25, alpha=0.5):
    def f(t, x, y, v):
        return 0.5 * np.sin(y)

    def g(t, x, y, v):
        return (np.sqrt(k / 2.0) * np.tanh(y) + np.sqrt(alpha / 2.0) * np.sin(v[..., 0]))[..., None]

    return backward_problem(lambda pts: np.cos(pts[:, 0]), f, g, k, alpha, field, scen, tg)


def test_picard_zero_data_zero_solution():
    field, hunt, gbm = make_ensembles(a_value=1.0)
    prob = backward_problem(lambda pts: np.zeros(pts.shape[0]),
                        lambda t, x, y, v: -y,
                        lambda t, x, y, v: np.zeros(np.shape(y) + (1,)),
                        1.0, 0.0, field, gbm.scenarios, hunt.grid)
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                              PicardConfig.from_problem(prob, max_iter=20))
    assert np.allclose(sol.y, 0.0, atol=1e-12)
    assert np.allclose(sol.z, 0.0, atol=1e-12)


def test_picard_source_free_matches_semigroup_oracle():
    # Y(t, x) for f = g = 0 is the heat flow of the payoff; oracle from the
    # grid semigroup of module pde, interpolated to the paths.
    field, hunt, gbm = make_ensembles(n_steps=16, horizon=0.5, n_w=4000,
                                      a_value=0.5, seed=77)
    prob = backward_problem(lambda pts: np.cos(pts[:, 0]),
                        lambda t, x, y, v: np.zeros_like(y),
                        lambda t, x, y, v: np.zeros(np.shape(y) + (1,)),
                        0.0, 0.0, field, gbm.scenarios, hunt.grid)
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, RegressionBasis(5), field),
                              gbm, PicardConfig.from_problem(prob, max_iter=20))
    sg = SpatialGrid(1, 8.0, 801, "periodic")
    op = discretize_operator(field, sg)
    psi = np.cos(sg.points()[:, 0])
    x_axis = sg.axis()
    times = hunt.grid.times
    for i in (0, 4, 8, 12):
        u_slice = apply_semigroup(op, psi, times[-1] - times[i], dt_max=1 / 64)
        oracle = np.interp(hunt.x[:, i, 0], x_axis, u_slice)
        err = np.sqrt(np.mean((sol.y[0, i] - oracle) ** 2))
        ref = np.sqrt(np.mean(oracle**2))
        assert err <= 0.05 * max(ref, 1e-12)


def test_picard_contraction_ratios_under_proof_bound():
    scen = ScenarioSet.from_list([[[1.0]]])
    field, hunt, gbm = make_ensembles(n_steps=16, horizon=1.0, n_w=2000,
                                      a_value=1.0, scen=scen, seed=91)
    prob = representation_free_problem(field, scen, hunt.grid)
    cfg = PicardConfig.from_problem(prob, max_iter=20, tol_rel=1e-7)
    # Recipe: eps = (2 lam (1 - 0.1) - alpha Lam sb^2) / K, kappa = 0.9.
    assert cfg.kappa == pytest.approx(0.9)
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm, cfg)
    rep = sol.picard_report
    assert rep.converged
    assert all(r <= cfg.kappa + 0.05 for r in rep.ratios)
    # Terminal slice is the payoff bitwise.
    xi = prob.terminal_fn(hunt.x[:, -1, :])
    for b in range(gbm.n_paths):
        assert np.array_equal(sol.y[b, -1], xi)


def test_picard_basis_stability():
    scen = ScenarioSet.from_list([[[1.0]]])
    field, hunt, gbm = make_ensembles(n_steps=12, horizon=0.5, n_w=4000,
                                      a_value=1.0, scen=scen, seed=101)
    prob = representation_free_problem(field, scen, hunt.grid)
    cfg = PicardConfig.from_problem(prob, max_iter=20)
    sols = [solve_gbdsde_picard(prob, LsmcEnsemble(hunt, RegressionBasis(deg),
                                                   field), gbm, cfg)
            for deg in (3, 6)]
    y0 = [float(np.mean(s.y[:, 0])) for s in sols]
    spread = [float(np.std(s.y[:, 0]) / np.sqrt(s.y[:, 0].size)) for s in sols]
    assert abs(y0[0] - y0[1]) <= 3.0 * (max(spread) + 1e-6)


def test_contraction_violation_rejected():
    field, hunt, gbm = make_ensembles(a_value=1.0)
    with pytest.raises(UsageError, match="contraction"):
        backward_problem(lambda pts: np.zeros(pts.shape[0]),
                     lambda t, x, y, v: np.zeros_like(y),
                     lambda t, x, y, v: 2.0 * v[..., :1],
                     0.0, 4.0, field, gbm.scenarios, hunt.grid)


def test_config_with_kappa_at_least_one_rejected():
    # eps = 4 keeps kappa at 0.75 for K = 0.25 but gives 1.25 for K = 0.5.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400, a_value=1.0)
    cfg = PicardConfig.from_problem(
        representation_free_problem(field, gbm.scenarios, hunt.grid, k=0.25), eps=4.0)
    assert cfg.kappa == pytest.approx(0.75)
    stiffer = representation_free_problem(field, gbm.scenarios, hunt.grid, k=0.5)
    with pytest.raises(UsageError, match="kappa"):
        solve_gbdsde_picard(stiffer, LsmcEnsemble(hunt, BASIS, field), gbm, cfg)


def test_config_for_another_problem_rejected():
    # eps = 1 gives kappa 0.375 and rate 2.33 for K = 0.25, but kappa 0.5 and
    # rate 3.0 for K = 0.5: both are contractions, only the constants differ.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400, a_value=1.0)
    cfg = PicardConfig.from_problem(
        representation_free_problem(field, gbm.scenarios, hunt.grid, k=0.25), eps=1.0)
    assert cfg.kappa == pytest.approx(0.375)
    stiffer = representation_free_problem(field, gbm.scenarios, hunt.grid, k=0.5)
    with pytest.raises(UsageError, match="kappa is 0.375, the problem's is 0.5"):
        solve_gbdsde_picard(stiffer, LsmcEnsemble(hunt, BASIS, field), gbm, cfg)


def test_each_picard_iteration_is_one_linear_solve(monkeypatch):
    # Each sweep runs the one backward recursion, through the module global.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    calls = []
    monkeypatch.setattr(bdsde, "solve_linear_bdsde",
                        lambda *a: calls.append(a) or solve_linear_bdsde(*a))
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                              PicardConfig.from_problem(prob))
    assert sol.picard_report.iterations >= 2
    assert len(calls) == sol.picard_report.iterations


def test_nonconvergence_carries_report():
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    cfg = PicardConfig.from_problem(prob, max_iter=1, tol_rel=1e-14)
    with pytest.raises(NumericalError) as err:
        solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm, cfg)
    assert err.value.report is not None
    assert err.value.report.iterations == 1


def test_nonfinite_driver_stops_at_first_iteration():
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = backward_problem(lambda pts: np.cos(pts[:, 0]),
                        lambda t, x, y, v: np.full_like(y, np.nan),
                        lambda t, x, y, v: np.zeros(np.shape(y) + (1,)),
                        0.25, 0.0, field, gbm.scenarios, hunt.grid)
    with pytest.raises(NumericalError, match="non-finite") as err:
        solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                            PicardConfig.from_problem(prob, max_iter=20))
    assert err.value.report.iterations == 1
    assert not err.value.report.converged


def poison_slot_0(f_vals, g_vals):
    f_vals, g_vals = f_vals.copy(), g_vals.copy()
    f_vals[:, 0] = np.nan
    g_vals[:, 0] = np.nan
    return f_vals, g_vals


def test_linear_recursion_never_reads_driver_slot_0():
    # NaN at slot 0 of the driver arrays must not reach Y or Z.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    n, n_w, n_b = hunt.grid.n_steps, hunt.n_paths, gbm.n_paths
    rng = np.random.default_rng(5)
    f_vals = rng.standard_normal((n_b, n + 1, n_w))
    g_vals = rng.standard_normal((n_b, n + 1, n_w, 1))
    xi = np.cos(hunt.x[:, -1, 0])
    ens = LsmcEnsemble(hunt, BASIS, field)
    clean = solve_linear_bdsde(xi, ens, gbm, slot_lookup(hunt, gbm, f_vals, g_vals))
    poisoned = solve_linear_bdsde(xi, ens, gbm,
                                  slot_lookup(hunt, gbm, *poison_slot_0(f_vals, g_vals)))
    assert np.array_equal(poisoned.y, clean.y) and np.array_equal(poisoned.z, clean.z)
    assert np.all(np.isfinite(poisoned.y)) and np.all(np.isfinite(poisoned.z))


def test_recursion_never_reads_driver_slot_0(monkeypatch):
    # The Picard sweep evaluates drivers slot by slot inside the recursion,
    # for slots N..1 only; a slot-0 evaluation would poison Y and Z.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    ens = LsmcEnsemble(hunt, BASIS, field)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    slot_drivers = bdsde._slot_drivers
    slots = []

    def poisoned_at_0(problem, ensemble, y, z, i, t):
        slots.append(i)
        f_i, g_i = slot_drivers(problem, ensemble, y, z, i, t)
        return (f_i + np.nan, g_i + np.nan) if i == 0 else (f_i, g_i)

    cfg = PicardConfig.from_problem(prob, tol_rel=1e-8)
    clean = solve_gbdsde_picard(prob, ens, gbm, cfg)
    monkeypatch.setattr(bdsde, "_slot_drivers", poisoned_at_0)
    poisoned = solve_gbdsde_picard(prob, ens, gbm, cfg)
    sweeps = clean.picard_report.iterations
    assert slots == list(range(hunt.grid.n_steps, 0, -1)) * sweeps
    assert np.array_equal(poisoned.y, clean.y) and np.array_equal(poisoned.z, clean.z)
    assert np.all(np.isfinite(poisoned.y)) and np.all(np.isfinite(poisoned.z))
    assert poisoned.picard_report == clean.picard_report


def stacked_drivers(problem, y, z, ens):
    """Reference: f and g over whole (n_b, N+1, n_W[, l]) stacks, slot 0 zero."""
    times = problem.time_grid.times
    n_b, n_slots, n_w = y.shape
    f_out = np.zeros((n_b, n_slots, n_w))
    g_out = None
    for i in range(1, n_slots):
        x_here = ens.hunt.x[:, i, :]
        v = np.einsum("bwd,wdk->bwk", z[:, i], ens.sigma[i])
        f_out[:, i] = np.asarray(problem.f(times[i], x_here, y[:, i], v))
        g_i = np.asarray(problem.g(times[i], x_here, y[:, i], v))
        if g_out is None:
            g_out = np.zeros((n_b, n_slots, n_w, g_i.shape[-1]))
        g_out[:, i] = g_i
    return f_out, g_out


def stacked_picard(problem, ens, gbm, cfg):
    """Reference Picard loop: each sweep builds the driver stacks first and
    hands them to solve_linear_bdsde as a slot lookup."""
    hunt = ens.hunt
    n, n_w, d = hunt.grid.n_steps, hunt.n_paths, hunt.dim
    xi = np.asarray(problem.terminal_fn(hunt.x[:, n, :]), dtype=float).reshape(n_w)

    def sweep(y, z):
        f_arr, g_arr = stacked_drivers(problem, y, z, ens)
        sol = solve_linear_bdsde(xi, ens, gbm, lambda i: (f_arr[:, i], g_arr[:, i]))
        return sol.y, sol.z

    def density(y, z):
        return _delta_density(y, z, cfg.delta, hunt.weights)

    def norms(new, old):
        inc, cur = increment_and_iterate_norms(density, new, old, cfg.rate, hunt.grid.times)
        return float(np.sqrt(inc)), float(np.sqrt(cur))

    start = (np.zeros((gbm.n_paths, n + 1, n_w)), np.zeros((gbm.n_paths, n + 1, n_w, d)))
    (y, z), report = iterate(sweep, norms, start, cfg)
    return y, z, report


def mixed_problem(field, scen, tg, k=0.2, alpha=0.3):
    """Drivers that read t, x, y and every coordinate of v, with l components."""
    l = scen.dim

    def f(t, x, y, v):
        return 0.4 * np.sin(y) + 0.1 * np.cos(x[:, 0] + t) + 0.2 * np.tanh(np.sum(v, axis=-1))

    def g(t, x, y, v):
        comps = [np.sqrt(k / (2.0 * l)) * np.tanh(y + j)
                 + np.sqrt(alpha / (2.0 * l)) * np.sin(v[..., j % v.shape[-1]])
                 for j in range(l)]
        return np.stack(comps, axis=-1)

    return backward_problem(lambda pts: np.cos(pts[:, 0]) + 0.1 * np.sum(pts, axis=1), f, g,
                        k, alpha, field, scen, tg)


SCENARIOS = {1: ScenarioSet.from_list([[[1.0]], [[0.6]]]),
             2: ScenarioSet.from_list([[[1.0, 0.0], [0.0, 1.0]], [[0.8, 0.1], [0.0, 0.6]]])}


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]), l=st.sampled_from([1, 2]), n_b=st.integers(1, 3),
       n_steps=st.integers(1, 5), n_w=st.integers(80, 200), scenario=st.integers(0, 1),
       seed=st.integers(0, 2**31 - 1))
def test_slot_recursion_matches_stacked_drivers_bitwise(d, l, n_b, n_steps, n_w,
                                                        scenario, seed):
    # The Picard sweep evaluates the drivers slot by slot inside the
    # recursion; it must give the floats of the whole-stack form.
    scen = SCENARIOS[l]
    tg = TimeGrid(0.5, n_steps)
    field = const_field(0.5, d)
    hunt = simulate_hunt(field, InitialLaw("gaussian"), tg, n_w, seed=seed)
    gbm = build_gbm(sample_driver(tg, n_b, l, seed + 1), constant_schedule(scenario, n_steps),
                    scen)
    ens = LsmcEnsemble(hunt, RegressionBasis(degree=2), field)
    prob = mixed_problem(field, scen, tg)
    cfg = PicardConfig.from_problem(prob, max_iter=12)
    y_ref, z_ref, rep_ref = stacked_picard(prob, ens, gbm, cfg)
    sol = solve_gbdsde_picard(prob, ens, gbm, cfg)
    assert sol.picard_report == rep_ref
    assert np.array_equal(sol.y, y_ref) and np.array_equal(sol.z, z_ref)


def test_picard_peak_memory_is_slot_sized():
    # One explicit solve holds the previous and the new (Y, Z) plus slot-sized
    # temporaries; whole (n_b, N+1, n_W) driver stacks would add two more.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=20000)
    ens = LsmcEnsemble(hunt, BASIS, field)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    cfg = PicardConfig.from_problem(prob)
    stack_bytes = gbm.n_paths * (hunt.grid.n_steps + 1) * hunt.n_paths * 8
    tracemalloc.start()
    try:
        solve_gbdsde_picard(prob, ens, gbm, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * stack_bytes, peak / stack_bytes


def test_ito_product_rule_refinement():
    # Two source-free linear solutions: d(Y Ytilde) picks up the bracket
    # correction 2 Z a Ztilde dt; the discrete defect shrinks with dt.
    def run(n_steps, n_w, seed):
        field, hunt, gbm = make_ensembles(n_steps=n_steps, horizon=0.5, n_w=n_w,
                                          a_value=0.5, seed=seed)
        xi1 = np.cos(hunt.x[:, -1, 0])
        xi2 = np.sin(hunt.x[:, -1, 0])
        ens = LsmcEnsemble(hunt, BASIS, field)
        s1 = solve_linear_bdsde(xi1, ens, gbm, slot_lookup(hunt, gbm))
        s2 = solve_linear_bdsde(xi2, ens, gbm, slot_lookup(hunt, gbm))
        a_vals = np.stack([field.a_at(hunt.x[:, i, :])[:, 0, 0]
                           for i in range(n_steps)])
        prod = s1.y[0] * s2.y[0]
        total = prod[0] - prod[-1]
        dt = hunt.grid.dt
        model = 0.0
        for i in range(n_steps):
            dy1 = s1.y[0, i] - s1.y[0, i + 1]
            dy2 = s2.y[0, i] - s2.y[0, i + 1]
            cross = 2.0 * s1.z[0, i, :, 0] * a_vals[i] * s2.z[0, i, :, 0] * dt
            model += s1.y[0, i + 1] * dy2 + s2.y[0, i + 1] * dy1 + cross
        # Normalize by the terminal product scale (the t=0 product vanishes
        # for the odd payoff started at the origin).
        scale = np.sqrt(np.mean(prod[-1] ** 2)) + 1e-12
        return float(np.sqrt(np.mean((total - model) ** 2))) / scale

    coarse = run(8, 4000, seed=111)
    fine = run(32, 4000, seed=111)
    assert fine <= 0.75 * coarse
