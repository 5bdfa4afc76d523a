import math
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexplab import bdsde, experiments
from gexplab.bdsde import (
    BdsdeProblem,
    LsmcEnsemble,
    RegressionBasis,
    RegressionContext,
    StandardizedBasis,
    extract_z,
    solve_gbdsde,
    solve_gbdsde_picard,
    solve_linear_bdsde,
)
from gexplab.config import default_config, validate_config
from gexplab.errors import NumericalError, UsageError
from gexplab.gbm import TimeGrid, backward_integral, build_gbm, sample_driver
from gexplab.hunt import CoefficientField, InitialLaw, simulate_hunt
from gexplab.pde import (
    NoiseTerm,
    ReactionTerm,
    SpatialGrid,
    derive_contraction_inputs,
    discretize_operator,
)
from gexplab.picard import RESIDUAL_TOL, PicardConfig, check_fixed_point, weighted_quadrature
from gexplab.presets import FieldPreset
from gexplab.scenario import ScenarioSet, constant_schedule
from oracles import (
    apply_semigroup,
    delta_density,
    fd_drift,
    power_design,
    preset,
    solution_stacks,
    stacked_linear_bdsde,
    whole_stack_delta_norm,
    zero_stacks,
)


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
    return lambda i, *slot: (f[:, i], g[:, i])


def fresh_coefficients(ens, gbm, fill=np.nan):
    """A coefficient stack for solve_linear_bdsde, filled with ``fill``."""
    return np.full((gbm.n_paths, ens.hunt.grid.n_steps + 1, 1 + ens.hunt.dim, ens.n_features),
                   fill)


def linear(xi, ens, gbm, drivers):
    """solve_linear_bdsde into a fresh coefficient stack."""
    return solve_linear_bdsde(xi, ens, gbm, drivers, fresh_coefficients(ens, gbm))


def linear_stacks(xi, ens, gbm, drivers):
    """The (Y, Z) stacks of ``linear``."""
    return solution_stacks(linear(xi, ens, gbm, drivers))


# -- regression ----------------------------------------------------------------

def context(x, basis):
    """The RegressionContext of an (n,) or (n, d) sample, on the
    StandardizedBasis of ``basis`` made from it."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    return RegressionContext(x, StandardizedBasis(x, basis))


def fitted(targets, x, basis):
    ctx = context(x, basis)
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
        StandardizedBasis(x[:20, None], RegressionBasis(6))


def test_degenerate_positions_fall_back_to_constant():
    ctx = context(np.zeros((200, 1)), BASIS)
    assert ctx.n_features == 1
    coefs = ctx.fit(np.full(200, 1.5))
    assert np.allclose(ctx.predict_in_sample(coefs), 1.5, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), degenerate=st.booleans(), degree=st.integers(0, 4),
       spread=st.floats(0.1, 10.0), seed=st.integers(0, 2**31 - 1))
def test_product_design_matches_the_power_reference(d, degenerate, degree, spread, seed):
    # The design matrix is built by products, each monomial an earlier one
    # times one axis.  The intercept is 1.0 and the columns of degree <= 2
    # are the powers' bitwise; the higher ones differ by rounding.  A
    # degenerate axis drops out of the basis, and at ridge 0 a constant
    # target still fits to rounding.
    rng = np.random.default_rng(seed)
    x = 0.3 + spread * rng.standard_normal((300, d))
    if degenerate:
        x[:, -1] = 0.7
    ctx = context(x, RegressionBasis(degree, 0.0))
    ref = power_design(x, ctx.basis)
    assert ctx.phi.shape == ref.shape
    assert np.all(ctx.phi[:, 0] == 1.0)
    for k, pw in enumerate(ctx.basis.powers):
        if sum(pw) <= 2:
            assert np.array_equal(ctx.phi[:, k], ref[:, k]), pw
    np.testing.assert_array_max_ulp(ctx.phi, ref, maxulp=4)
    c = rng.uniform(-5.0, 5.0)
    np.testing.assert_allclose(ctx.predict_in_sample(ctx.fit(np.full(300, c))), c,
                               rtol=1e-12, atol=0.0)


# -- extract_z -------------------------------------------------------------------

def slot_z(next_values, hunt, field, i):
    """The Z samples of slot i from the moment coefficients extract_z fits."""
    ens = LsmcEnsemble(hunt, BASIS, field)
    moments = extract_z(next_values, hunt.dm[:, i], ens.regression(i)[0])
    return ens.z_values(i, moments)


def test_extract_z_constant_next_value_is_noise_level():
    field, hunt, _ = make_ensembles(n_w=4000)
    i, c = 3, 2.0
    dt = hunt.grid.dt
    z = slot_z(np.full(hunt.n_paths, c), hunt, field, i)
    # The Z estimator divides the regressed moment by 2 a dt, so its mean
    # carries standard error ~ c std(dM) / (2 a dt sqrt(n)).
    se = c * np.std(hunt.dm[:, i, 0]) / (2.0 * 0.5 * dt) / np.sqrt(hunt.n_paths)
    assert abs(float(np.mean(z))) <= 3.0 * se


def test_extract_z_martingale_level_recovers_unity():
    # next = M_{t_{i+1}}: E[next dM | X] = 2 a dt, so Z == 1 for any a.
    field, hunt, _ = make_ensembles(n_w=20_000, n_steps=8)
    i = 5
    m_next = hunt.dm[:, : i + 1, 0].sum(axis=1)
    z = slot_z(m_next, hunt, field, i)
    assert abs(float(np.mean(z)) - 1.0) <= 0.05


# -- linear solver ---------------------------------------------------------------

def test_linear_constant_terminal():
    field, hunt, gbm = make_ensembles()
    c = 2.5
    y, z = linear_stacks(np.full(hunt.n_paths, c), LsmcEnsemble(hunt, BASIS, field),
                         gbm, slot_lookup(hunt, gbm))
    assert np.allclose(y, c, atol=1e-10)
    assert np.array_equal(y[:, -1], np.full((gbm.n_paths, hunt.n_paths), c))
    # Z is pure regression noise on centered targets, scale c/(2 a dt) noise.
    dt = hunt.grid.dt
    se = c * np.sqrt(2 * 0.5 * dt) / (2.0 * 0.5 * dt) / np.sqrt(hunt.n_paths)
    assert float(np.max(np.abs(np.mean(z, axis=2)))) <= 4.0 * se
    assert np.array_equal(z[:, -1], z[:, -2])  # copied, not extrapolated


def test_linear_unit_reaction_gives_time_to_horizon():
    field, hunt, gbm = make_ensembles(n_steps=12, horizon=0.75)
    n, n_w = hunt.grid.n_steps, hunt.n_paths
    f_vals = np.ones((n + 1, n_w))
    y, _ = linear_stacks(np.zeros(n_w), LsmcEnsemble(hunt, BASIS, field), gbm,
                         slot_lookup(hunt, gbm, f=f_vals))
    times = hunt.grid.times
    for i in range(n + 1):
        assert np.allclose(y[:, i], 0.75 - times[i], atol=1e-10)


def test_linear_unit_noise_telescopes_to_b_level():
    field, hunt, gbm = make_ensembles(n_steps=10)
    n, n_w = hunt.grid.n_steps, hunt.n_paths
    g_vals = np.ones((n + 1, n_w, 1))
    y, _ = linear_stacks(np.zeros(n_w), LsmcEnsemble(hunt, BASIS, field), gbm,
                         slot_lookup(hunt, gbm, g=g_vals))
    levels = backward_integral(np.ones((n + 1, 1)), gbm)  # B anchored at horizon
    for b in range(gbm.n_paths):
        for i in range(n + 1):
            assert np.allclose(y[b, i], levels[b, i], atol=1e-10)


def test_linear_martingale_property_in_sample():
    # OLS residuals are orthogonal to constants, so the one-step residual
    # mean over the ensemble vanishes.
    field, hunt, gbm = make_ensembles(n_w=2000)

    def phi(pts):
        return np.cos(pts[:, 0])

    xi = phi(hunt.x[:, -1, :])
    n = hunt.grid.n_steps
    f_vals = 0.3 * np.ones((n + 1, hunt.n_paths))
    y, _ = linear_stacks(xi, LsmcEnsemble(hunt, BASIS, field), gbm,
                         slot_lookup(hunt, gbm, f=f_vals))
    dt = hunt.grid.dt
    for i in range(n):
        resid = y[:, i] - y[:, i + 1] - 0.3 * dt
        mean = np.mean(resid, axis=1)
        se = np.std(resid, axis=1, ddof=1) / np.sqrt(hunt.n_paths)
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)


def test_linear_grid_mismatch_rejected():
    field, hunt, gbm = make_ensembles()
    other = sample_driver(TimeGrid(0.5, 8), 3, 1, seed=0)
    bad_gbm = build_gbm(other, constant_schedule(0, 8), gbm.scenarios)
    with pytest.raises(UsageError):
        linear(np.zeros(hunt.n_paths), LsmcEnsemble(hunt, BASIS, field),
               bad_gbm, slot_lookup(hunt, gbm))


# -- delta norm -------------------------------------------------------------------

def slot_delta_norm(y, z, beta, delta, weights, times):
    """The (beta, delta)-norm as the Picard sweep takes it: the density of
    each left-endpoint slot on its own, then the weighted quadrature."""
    dens = np.stack([delta_density(y[:, i], z[:, i], delta, weights)
                     for i in range(y.shape[1] - 1)], axis=1)
    return float(np.sqrt(weighted_quadrature(dens, beta, times)))


def test_delta_norm_examples():
    tg = TimeGrid(1.0, 16)
    shape_y = (2, 17, 50)
    zeros, ones, weights = np.zeros(shape_y), np.ones(shape_y), np.ones(50)
    assert slot_delta_norm(zeros, zeros[..., None], 1.0, 1.0, weights, tg.times) == 0.0
    assert slot_delta_norm(ones, zeros[..., None], 0.0, 1.0, weights,
                           tg.times) == pytest.approx(1.0, rel=1e-12)
    assert slot_delta_norm(zeros, ones[..., None], 1.0, 0.0, weights,
                           tg.times) == pytest.approx(np.sqrt(1.0 - np.exp(-1.0)), rel=1e-12)


def test_delta_norm_uses_importance_weights_unnormalized():
    tg = TimeGrid(1.0, 4)
    n_w = 10
    weights = np.linspace(0.5, 2.0, n_w)
    y = np.ones((1, 5, n_w))
    # delta E int e^{0 s} |Y|^2 ds with weighted mean over diffusion paths.
    expected = np.sqrt(np.mean(weights) * tg.horizon)
    assert slot_delta_norm(y, np.zeros((1, 5, n_w, 1)), 0.0, 1.0, weights,
                           tg.times) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_b=st.integers(1, 4), n_steps=st.integers(1, 6), n_w=st.integers(1, 40),
       d=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       beta=st.floats(0.0, 8.0), delta=st.floats(0.0, 20.0),
       horizon=st.floats(0.05, 3.0))
def test_slot_norms_match_whole_stack_reference_bitwise(n_b, n_steps, n_w, d, seed,
                                                        beta, delta, horizon):
    # The Picard sweep builds the (Y, Z) densities one slot at a time; it
    # iterates on the square root of the quadrature, which must give the
    # whole-stack norms.
    rng = np.random.default_rng(seed)
    tg = TimeGrid(horizon, n_steps)
    weights = rng.uniform(0.1, 3.0, n_w)
    old = (rng.standard_normal((n_b, n_steps + 1, n_w)),
           rng.standard_normal((n_b, n_steps + 1, n_w, d)))
    new = (rng.standard_normal((n_b, n_steps + 1, n_w)),
           rng.standard_normal((n_b, n_steps + 1, n_w, d)))
    inc = slot_delta_norm(new[0] - old[0], new[1] - old[1], beta, delta, weights, tg.times)
    cur = slot_delta_norm(*new, beta, delta, weights, tg.times)
    assert inc == whole_stack_delta_norm(new[0] - old[0], new[1] - old[1], beta, delta,
                                         weights, tg.times)
    assert cur == whole_stack_delta_norm(*new, beta, delta, weights, tg.times)
    assert slot_delta_norm(new[0] - new[0], new[1] - new[1], beta, delta, weights,
                           tg.times) == 0.0


def tilted_field():
    """A 2-D field with off-diagonal entries, so that every block of
    (a^{-1})^T a^{-1} varies along the paths."""
    def a(pts):
        out = np.empty((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + 0.3 * np.sin(pts[:, 0])
        out[:, 1, 1] = 0.8 + 0.2 * np.sin(pts[:, 1])
        out[:, 0, 1] = out[:, 1, 0] = 0.2 * np.cos(pts[:, 0] + pts[:, 1])
        return out

    return CoefficientField(2, a, 0.3, 1.5, fd_drift(a, 2), name="tilted")


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), init=st.sampled_from(["point", "gaussian-box"]),
       ridge=st.sampled_from([0.0, 1e-3]), degree=st.sampled_from([2, 4]),
       n_b=st.integers(1, 3), n_steps=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
       delta=st.floats(0.0, 20.0))
def test_coefficient_densities_match_value_space_oracle(d, init, ridge, degree, n_b, n_steps,
                                                        seed, delta):
    # The Picard check takes delta |Y|^2 + |Z|^2, averaged over the paths
    # with their weights, of a difference of two slots and of one slot as
    # quadratic forms in the slot's coefficients; they must give the
    # value-space densities of the (Y, Z) the recursion writes, to rounding.
    # Under point init slot 0 has one active feature, fewer than the others.
    tg = TimeGrid(0.5, n_steps)
    field = (preset(FieldPreset, {"preset": "sinusoidal-1d", "base": 1.0, "amplitude": 0.3}, 1)
             if d == 1 else tilted_field())
    law = (InitialLaw("point", [0.2] * d) if init == "point"
           else InitialLaw("gaussian", box=(-1.5, 1.5)))
    hunt = simulate_hunt(field, law, tg, 300, seed=seed)
    gbm = build_gbm(sample_driver(tg, n_b, 1, seed + 1), constant_schedule(0, n_steps),
                    SCENARIOS[1])
    ens = LsmcEnsemble(hunt, RegressionBasis(degree, ridge), field)
    n, n_w = tg.n_steps, hunt.n_paths
    rng = np.random.default_rng(seed)
    new, old = [], []
    for stacks in (new, old):
        lookup = slot_lookup(hunt, gbm, rng.standard_normal((n_b, n + 1, n_w)),
                             rng.standard_normal((n_b, n + 1, n_w, 1)))
        sol = linear(np.cos(hunt.x[:, -1, 0]) + rng.standard_normal(n_w), ens, gbm, lookup)
        stacks.extend(solution_stacks(sol) + (sol.c,))
    assert (ens.bases[0].n_features == 1) == (init == "point")
    density = bdsde._coefficient_density(ens, delta)
    for i in range(n):
        inc, cur = density(i, new[2][:, i] - old[2][:, i]), density(i, new[2][:, i])
        dy, dz = new[0][:, i] - old[0][:, i], new[1][:, i] - old[1][:, i]
        np.testing.assert_allclose(inc, delta_density(dy, dz, delta, hunt.weights),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cur, delta_density(new[0][:, i], new[1][:, i], delta,
                                                      hunt.weights), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spec", [{"preset": "constant", "value": 0.3},
                                  {"preset": "sinusoidal-1d", "base": 1.0, "amplitude": 0.3}],
                         ids=["constant", "sinusoidal-1d"])
def test_one_dimensional_a_inverse_is_lapacks_bitwise(spec):
    # In 1-D the ensemble takes the reciprocal of a(X) in place of one LAPACK
    # inverse per 1 x 1 matrix; at every slot the floats must be LAPACK's.
    field = preset(FieldPreset, spec, 1)
    tg = TimeGrid(0.5, 8)
    hunt = simulate_hunt(field, InitialLaw("gaussian"), tg, 500, seed=12)
    ens = LsmcEnsemble(hunt, BASIS, field)
    for i in range(tg.n_steps):
        a = field.a_at(hunt.x[:, i, :])
        assert np.array_equal(ens.regression(i)[1], np.linalg.inv(a))


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
    y, z = solution_stacks(solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                                               PicardConfig.from_problem(prob)))
    assert np.allclose(y, 0.0, atol=1e-12)
    assert np.allclose(z, 0.0, atol=1e-12)


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
                              gbm, PicardConfig.from_problem(prob))
    sg = SpatialGrid(1, 8.0, 801, "periodic")
    op = discretize_operator(field, sg)
    psi = np.cos(sg.points()[:, 0])
    x_axis = sg.axis()
    times = hunt.grid.times
    for i in (0, 4, 8, 12):
        u_slice = apply_semigroup(op, psi, times[-1] - times[i], dt_max=1 / 64)
        oracle = np.interp(hunt.x[:, i, 0], x_axis, u_slice)
        err = np.sqrt(np.mean((sol.slot(i)[0][0] - oracle) ** 2))
        ref = np.sqrt(np.mean(oracle**2))
        assert err <= 0.05 * max(ref, 1e-12)


def test_picard_contraction_ratios_under_proof_bound():
    scen = ScenarioSet.from_list([[[1.0]]])
    field, hunt, gbm = make_ensembles(n_steps=16, horizon=1.0, n_w=2000,
                                      a_value=1.0, scen=scen, seed=91)
    prob = representation_free_problem(field, scen, hunt.grid)
    cfg = PicardConfig.from_problem(prob)
    # Recipe: eps = (2 lam (1 - 0.1) - alpha Lam sb^2) / K, kappa = 0.9.
    assert cfg.kappa == pytest.approx(0.9)
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm, cfg)
    rep = sol.picard_report
    assert rep.converged and rep.increments[2] == 0.0
    assert all(r <= cfg.kappa + 0.05 for r in rep.ratios)
    # Terminal slice is the payoff bitwise.
    xi = prob.terminal_fn(hunt.x[:, -1, :])
    y_n = sol.slot(hunt.grid.n_steps)[0]
    for b in range(gbm.n_paths):
        assert np.array_equal(y_n[b], xi)


def test_picard_basis_stability():
    scen = ScenarioSet.from_list([[[1.0]]])
    field, hunt, gbm = make_ensembles(n_steps=12, horizon=0.5, n_w=4000,
                                      a_value=1.0, scen=scen, seed=101)
    prob = representation_free_problem(field, scen, hunt.grid)
    cfg = PicardConfig.from_problem(prob)
    sols = [solve_gbdsde_picard(prob, LsmcEnsemble(hunt, RegressionBasis(deg),
                                                   field), gbm, cfg)
            for deg in (3, 6)]
    y0 = [float(np.mean(s.slot(0)[0])) for s in sols]
    spread = [float(np.std(s.slot(0)[0]) / np.sqrt(s.slot(0)[0].size)) for s in sols]
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


def test_each_check_sweep_is_one_linear_solve(monkeypatch):
    # The solve and each of the three check sweeps run the one backward
    # recursion, through the module global; only the solve keeps a stack.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    calls = []
    monkeypatch.setattr(bdsde, "solve_linear_bdsde",
                        lambda *a, **kw: calls.append(a) or solve_linear_bdsde(*a, **kw))
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                              PicardConfig.from_problem(prob))
    assert sol.picard_report.iterations == 3
    assert [a[-1] is sol.c for a in calls] == [True, False, False, False]
    assert all(a[-1] is None for a in calls[1:])


def test_backward_solve_reads_each_slot_contiguously(monkeypatch):
    # extract_z and the drivers get each slot's dM and X as a contiguous
    # (n_W, d) view into the ensemble's own arrays, which hold them slot by
    # slot: no copy and no strided gather.
    field, hunt, gbm = make_ensembles(n_steps=6, n_w=400)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    extract, f, g = bdsde.extract_z, prob.f, prob.g
    seen = []

    def slot_view(arr, stack):
        seen.append(arr.shape)
        assert arr.flags.c_contiguous and arr.shape == (hunt.n_paths, 1)
        assert np.shares_memory(arr, stack)
        return arr

    monkeypatch.setattr(bdsde, "extract_z", lambda nxt, dm, *a: extract(
        nxt, slot_view(dm, hunt.dm), *a))
    prob.f = lambda t, x, y, v: f(t, slot_view(x, hunt.x), y, v)
    prob.g = lambda t, x, y, v: g(t, slot_view(x, hunt.x), y, v)
    solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                        PicardConfig.from_problem(prob))
    assert len(seen) > 3 * hunt.grid.n_steps


def regression_calls(monkeypatch):
    """Counts of RegressionContext.fit and predict_in_sample calls."""
    counts = {"fit": 0, "predict_in_sample": 0}
    for name in counts:
        method = getattr(RegressionContext, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(RegressionContext, name, counted)
    return counts


@pytest.mark.parametrize("d", [1, 2])
def test_picard_check_adds_no_regression_calls(monkeypatch, d):
    # The check takes its norms from the coefficients the recursion fits
    # anyway: per slot i < N one Y fit and, below N - 1, the 1 + d fits of
    # extract_z, plus 1 + d at the horizon, in the solve and in each of the
    # three check sweeps.  Each Y fit and each extract_z fit of the mean is
    # predicted once; the d moment fits of the n extract_z calls are not:
    # only the solve's drivers make Z samples, d predictions at each slot
    # N .. 0.  Evaluating the frozen iterate at a slot predicts 1 + d times
    # (d at the horizon, whose Y is the payoff) and fits nothing, at slots
    # N .. 1 of each check sweep: the drivers of slot 0 are not read.
    scen = SCENARIOS[1]
    tg = TimeGrid(0.5, 6)
    field = const_field(0.5, d)
    hunt = simulate_hunt(field, InitialLaw("gaussian"), tg, 400, seed=8)
    gbm = build_gbm(sample_driver(tg, 2, 1, seed=9), constant_schedule(0, 6), scen)
    ens = LsmcEnsemble(hunt, RegressionBasis(degree=2), field)
    prob = mixed_problem(field, scen, tg)
    counts = regression_calls(monkeypatch)
    sol = solve_gbdsde_picard(prob, ens, gbm, PicardConfig.from_problem(prob))
    n = tg.n_steps
    assert sol.picard_report.iterations == 3
    fits = (1 + d) + sum(1 + (1 + d) * (i < n - 1) for i in range(n))  # per recursion
    z_made = d * (n + 1)
    evaluated = 3 * sum(d + (i < n) for i in range(n, 0, -1))
    assert counts == {"fit": 4 * fits,
                      "predict_in_sample": 4 * (fits - d * n) + z_made + evaluated}


def test_a_residual_is_reported_not_raised(monkeypatch):
    # A frozen u* that is not the solve's leaves a residual: the report says
    # so, and the run goes on to its rows.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    slot_values = LsmcEnsemble.slot_values
    monkeypatch.setattr(LsmcEnsemble, "slot_values",
                        lambda self, *a: tuple(v + 1e-3 for v in slot_values(self, *a)))
    sol = solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                              PicardConfig.from_problem(prob))
    rep = sol.picard_report
    assert not rep.converged and rep.iterations == 3
    assert rep.increments[2] > RESIDUAL_TOL * rep.final_norm


def test_nonfinite_driver_stops_the_solve():
    # NaN drivers stop the explicit solve at the first slot they reach,
    # before any check sweep.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = backward_problem(lambda pts: np.cos(pts[:, 0]),
                        lambda t, x, y, v: np.full_like(y, np.nan),
                        lambda t, x, y, v: np.zeros(np.shape(y) + (1,)),
                        0.25, 0.0, field, gbm.scenarios, hunt.grid)
    with pytest.raises(NumericalError, match="non-finite Y at slot 7") as err:
        solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                            PicardConfig.from_problem(prob))
    assert err.value.report is None


def test_nonfinite_check_norm_stops_at_first_sweep():
    # Drivers that are finite along the solve but not at the zero iterate
    # stop the check at its first sweep, with the report so far.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    prob = backward_problem(lambda pts: np.cos(pts[:, 0]),
                        lambda t, x, y, v: np.where(y == 0.0, np.nan, 0.5 * np.sin(y)),
                        lambda t, x, y, v: np.zeros(np.shape(y) + (1,)),
                        0.25, 0.0, field, gbm.scenarios, hunt.grid)
    with pytest.raises(NumericalError, match="sweep 1 produced a non-finite") as err:
        solve_gbdsde_picard(prob, LsmcEnsemble(hunt, BASIS, field), gbm,
                            PicardConfig.from_problem(prob))
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
    clean = linear_stacks(xi, ens, gbm, slot_lookup(hunt, gbm, f_vals, g_vals))
    poisoned = linear_stacks(xi, ens, gbm,
                             slot_lookup(hunt, gbm, *poison_slot_0(f_vals, g_vals)))
    assert all(np.array_equal(p, c) for p, c in zip(poisoned, clean))
    assert all(np.all(np.isfinite(p)) for p in poisoned)


def assert_reference_slot(ens, i, y_i, c_i, ref):
    """The slot i that the recursion hands its drivers, (Y, coefficients),
    and the Z its moment coefficients give are bitwise the reference
    recursion's (Y, Z, coefficient) stacks ``ref`` at slot i."""
    y, z, c = ref
    assert np.array_equal(y_i, y[:, i]) and np.array_equal(c_i, c[:, i])
    assert np.array_equal(ens.z_values(i, c_i[:, 1:]), z[:, i])


def test_linear_recursion_hands_each_new_slot_to_drivers_before_writing_it():
    # The recursion writes the coefficient stack the drivers may read:
    # drivers sees each new slot i, N down to 0, while slot i of the stack
    # still holds its old values, and the floats are those of the reference
    # recursion that keeps (Y, Z) stacks.
    field, hunt, gbm = make_ensembles(n_steps=6, n_w=400)
    n, n_w, n_b = hunt.grid.n_steps, hunt.n_paths, gbm.n_paths
    rng = np.random.default_rng(3)
    lookup = slot_lookup(hunt, gbm, rng.standard_normal((n_b, n + 1, n_w)),
                         rng.standard_normal((n_b, n + 1, n_w, 1)))
    xi = np.cos(hunt.x[:, -1, 0])
    ens = LsmcEnsemble(hunt, BASIS, field)
    ref = stacked_linear_bdsde(xi, ens, gbm, lookup, *zero_stacks(ens, gbm))
    c = fresh_coefficients(ens, gbm, -7.0)
    events = []

    def drivers(i, y_i, c_i):
        events.append((i, bool(np.all(c[:, i] == -7.0))))
        assert_reference_slot(ens, i, y_i, c_i, ref)
        return lookup(i, y_i, c_i)

    sol = solve_linear_bdsde(xi, ens, gbm, drivers, c)
    assert sol.c is c and np.array_equal(c, ref[2])
    assert all(np.array_equal(a, b) for a, b in zip(solution_stacks(sol), ref))
    assert events == [(i, True) for i in range(n, -1, -1)]


def test_linear_recursion_without_a_stack_hands_drivers_the_same_slots():
    # With no coefficient stack the recursion writes nothing and hands the
    # drivers the floats of the recursion that keeps one.
    field, hunt, gbm = make_ensembles(n_steps=6, n_w=400)
    n, n_w, n_b = hunt.grid.n_steps, hunt.n_paths, gbm.n_paths
    rng = np.random.default_rng(4)
    lookup = slot_lookup(hunt, gbm, rng.standard_normal((n_b, n + 1, n_w)),
                         rng.standard_normal((n_b, n + 1, n_w, 1)))
    xi = np.cos(hunt.x[:, -1, 0])
    ens = LsmcEnsemble(hunt, BASIS, field)
    ref = stacked_linear_bdsde(xi, ens, gbm, lookup, *zero_stacks(ens, gbm))
    seen = []

    def drivers(i, y_i, c_i):
        seen.append(i)
        assert_reference_slot(ens, i, y_i, c_i, ref)
        return lookup(i, y_i, c_i)

    assert solve_linear_bdsde(xi, ens, gbm, drivers, None).c is None
    assert seen == list(range(n, -1, -1))


def test_recursion_never_reads_driver_slot_0(monkeypatch):
    # The solve asks _slot_drivers for slots N .. 0 and each check sweep for
    # N .. 1, as it does not evaluate its frozen iterate at slot 0; whatever
    # they return at slot 0 must not reach Y, Z or the report.
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=400)
    ens = LsmcEnsemble(hunt, BASIS, field)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    slot_drivers = bdsde._slot_drivers
    slots = []

    def poisoned_at_0(problem, ensemble, i, y_i, *slot):
        slots.append(i)
        if i == 0:
            return np.full_like(y_i, np.nan), np.full(y_i.shape + (1,), np.nan)
        return slot_drivers(problem, ensemble, i, y_i, *slot)

    cfg = PicardConfig.from_problem(prob)
    clean = solve_gbdsde_picard(prob, ens, gbm, cfg)
    monkeypatch.setattr(bdsde, "_slot_drivers", poisoned_at_0)
    poisoned = solve_gbdsde_picard(prob, ens, gbm, cfg)
    n = hunt.grid.n_steps
    assert slots == list(range(n, -1, -1)) + 3 * list(range(n, 0, -1))
    clean_yz, poisoned_yz = solution_stacks(clean), solution_stacks(poisoned)
    assert all(np.array_equal(p, c) for p, c in zip(poisoned_yz, clean_yz))
    assert all(np.all(np.isfinite(p)) for p in poisoned_yz)
    assert poisoned.picard_report == clean.picard_report


def stacked_drivers(problem, y, z, ens):
    """Reference: f and g over whole (n_b, N+1, n_W[, l]) stacks, slot 0 zero."""
    times = problem.time_grid.times
    n_b, n_slots, n_w = y.shape
    f_out = np.zeros((n_b, n_slots, n_w))
    g_out = None
    for i in range(1, n_slots):
        x_here = ens.hunt.x[:, i, :]
        v = np.einsum("bwd,wdk->bwk", z[:, i], ens.sigma(i))
        f_out[:, i] = np.asarray(problem.f(times[i], x_here, y[:, i], v))
        g_i = np.asarray(problem.g(times[i], x_here, y[:, i], v))
        if g_out is None:
            g_out = np.zeros((n_b, n_slots, n_w, g_i.shape[-1]))
        g_out[:, i] = g_i
    return f_out, g_out


def stacked_check(problem, ens, gbm, cfg):
    """Reference check on whole stacks: the solve writes (Y, Z) stacks; each
    check sweep evaluates its frozen iterate at every slot, builds the driver
    stacks, hands them to the stack-writing recursion as a slot lookup into
    fresh stacks, and then takes the densities of the new coefficients
    against u*'s, and of the iterate's, slot by slot with the solver's
    density.  Returns u*'s (Y, Z, coefficient) stacks and the report."""
    hunt = ens.hunt
    n, times = hunt.grid.n_steps, hunt.grid.times
    xi = bdsde._payoff(problem, ens, gbm)
    y, z, c = stacked_linear_bdsde(xi, ens, gbm, partial(bdsde._explicit_drivers, problem, ens),
                                   *zero_stacks(ens, gbm))
    density = bdsde._coefficient_density(ens, cfg.delta)

    def norm(dens):
        return math.sqrt(weighted_quadrature(np.stack(dens, axis=1), cfg.rate, times))

    def sweep(scale):
        w = np.stack([c[:, i] * scale(i) for i in range(n + 1)], axis=1)
        y_w, z_w = zip(*(ens.slot_values(i, w[:, i], scale(n) * xi) for i in range(n + 1)))
        f_arr, g_arr = stacked_drivers(problem, np.stack(y_w, axis=1), np.stack(z_w, axis=1), ens)
        new = stacked_linear_bdsde(xi, ens, gbm, lambda i, *slot: (f_arr[:, i], g_arr[:, i]),
                                   *zero_stacks(ens, gbm))[2]
        return (norm([density(i, new[:, i] - c[:, i]) for i in range(n)]),
                norm([density(i, w[:, i] - c[:, i]) for i in range(n)]))

    perturbation = np.random.default_rng(cfg.seed).standard_normal(c.shape[2:])
    return (y, z, c), check_fixed_point(sweep, perturbation, times)


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
    # Each check sweep evaluates its frozen iterate and the drivers slot by
    # slot inside the one recursion, and keeps no stack; its report must be
    # the floats of the whole-stack form taking the same densities, and the
    # solution it returns (the coefficients and the (Y, Z) evaluated from
    # them) is the stacked explicit solve's.
    scen = SCENARIOS[l]
    tg = TimeGrid(0.5, n_steps)
    field = const_field(0.5, d)
    hunt = simulate_hunt(field, InitialLaw("gaussian"), tg, n_w, seed=seed)
    gbm = build_gbm(sample_driver(tg, n_b, l, seed + 1), constant_schedule(scenario, n_steps),
                    scen)
    ens = LsmcEnsemble(hunt, RegressionBasis(degree=2), field)
    prob = mixed_problem(field, scen, tg)
    cfg = PicardConfig.from_problem(prob, seed=seed)
    stacks_ref, rep_ref = stacked_check(prob, ens, gbm, cfg)
    sol = solve_gbdsde_picard(prob, ens, gbm, cfg)
    assert sol.picard_report == rep_ref and rep_ref.increments[2] == 0.0
    assert all(np.array_equal(a, b)
               for a, b in zip(solution_stacks(sol) + (sol.c,), stacks_ref, strict=True))


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), init=st.sampled_from(["point", "gaussian-box"]),
       n_b=st.integers(1, 3), n_steps=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
def test_slot_values_and_picard_report_match_stacked_oracle_bitwise(d, init, n_b, n_steps, seed):
    # The solution keeps only coefficients: the (Y, Z) it evaluates at every
    # slot, N and N - 1 (whose Z copies slot N's) included, and its Picard
    # report are the floats of the reference that keeps (Y, Z) stacks.  The
    # sweep from 0 hands the drivers the zero iterate at slot N too; the
    # solve and the sweeps from u* + h and u* hand them the payoff there.
    tg = TimeGrid(0.5, n_steps)
    field = (preset(FieldPreset, {"preset": "sinusoidal-1d", "base": 1.0, "amplitude": 0.3}, 1)
             if d == 1 else tilted_field())
    law = (InitialLaw("point", [0.2] * d) if init == "point"
           else InitialLaw("gaussian", box=(-1.5, 1.5)))
    hunt = simulate_hunt(field, law, tg, 300, seed=seed)
    scen = SCENARIOS[1]
    gbm = build_gbm(sample_driver(tg, n_b, 1, seed + 1), constant_schedule(0, n_steps), scen)
    ens = LsmcEnsemble(hunt, RegressionBasis(2), field)
    prob = mixed_problem(field, scen, tg)
    cfg = PicardConfig.from_problem(prob, seed=seed)
    n, slot_drivers, at_horizon = tg.n_steps, bdsde._slot_drivers, []

    def record(problem, ensemble, i, y_i, *rest):
        if i == n:
            at_horizon.append(y_i.copy())
        return slot_drivers(problem, ensemble, i, y_i, *rest)

    with mock.patch.object(bdsde, "_slot_drivers", record):
        sol = solve_gbdsde_picard(prob, ens, gbm, cfg)
    (y, z, c), report = stacked_check(prob, ens, gbm, cfg)
    assert sol.picard_report == report
    assert np.array_equal(sol.c, c)
    for i in range(n + 1):
        y_i, z_i = sol.slot(i)
        assert np.array_equal(y_i, y[:, i]) and np.array_equal(z_i, z[:, i])
    assert len(at_horizon) == 4 and np.all(at_horizon[1] == 0.0)
    assert all(np.array_equal(at_horizon[k], y[:, n]) for k in (0, 2, 3))


@pytest.mark.parametrize("d", [1, 2])
def test_sweeps_derive_each_slot_once(monkeypatch, d):
    # Each slot's design matrix, a(X)^{-1} and sigma(X) are derived from one
    # a(X) when a sweep reaches the slot and kept while it stays there, so
    # below the horizon a(X) is called once and only slot N calls sigma_at.
    # That is once per slot in the explicit solve, and once in each of the
    # four sweeps of the Picard check (the solve and three check sweeps),
    # whose norms and frozen iterate read the slot the sweep is at.
    scen = SCENARIOS[1]
    tg = TimeGrid(0.5, 6)
    field = const_field(0.5, d)
    hunt = simulate_hunt(field, InitialLaw("gaussian"), tg, 400, seed=8)
    gbm = build_gbm(sample_driver(tg, 2, 1, seed=9), constant_schedule(0, 6), scen)
    ens = LsmcEnsemble(hunt, RegressionBasis(degree=2), field)
    prob = mixed_problem(field, scen, tg)
    base, stride = hunt.x.__array_interface__["data"][0], hunt.x.strides[1]
    derived, inside = Counter(), []

    def counted(cls, name, kind):
        method = getattr(cls, name)

        def wrapped(self, points):
            if not inside:  # sigma(X) takes a(X) on its way
                offset = points.__array_interface__["data"][0] - base
                assert np.shares_memory(points, hunt.x) and offset % stride == 0
                derived[kind, offset // stride] += 1
            inside.append(kind)
            try:
                return method(self, points)
            finally:
                inside.pop()

        monkeypatch.setattr(cls, name, wrapped)

    counted(bdsde.StandardizedBasis, "design", "phi")
    counted(CoefficientField, "a_at", "a")
    counted(CoefficientField, "sigma_at", "sigma")
    n = tg.n_steps
    once = Counter({("phi", i): 1 for i in range(n)} | {("a", i): 1 for i in range(n)}
                   | {("sigma", n): 1})
    solve_gbdsde(prob, ens, gbm)
    assert derived == once
    derived.clear()
    assert solve_gbdsde_picard(prob, ens, gbm, PicardConfig.from_problem(prob)
                               ).picard_report.iterations == 3
    assert derived == Counter({key: 4 for key in once})


def test_ensemble_keeps_no_design_stack():
    # Built, the ensemble keeps per slot the standardization and the F x F
    # Gram beside the paths it was given: less than one (N, n_W, F) stack of
    # design matrices, which a slot's design matrix, a(X)^{-1} and sigma(X)
    # kept for every slot would exceed.
    tg = TimeGrid(0.5, 32)
    field = const_field(0.5)
    hunt = simulate_hunt(field, InitialLaw("gaussian"), tg, 2000, seed=3)
    tracemalloc.start()
    try:
        ens = LsmcEnsemble(hunt, BASIS, field)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ens.n_features == 5
    assert kept < tg.n_steps * hunt.n_paths * ens.n_features * 8, kept


def test_only_slots_below_the_horizon_have_a_regression():
    # Slots 0 .. N - 1 are regressed.  Slot -1 would pair the paths of slot
    # N with the basis of slot N - 1, so it is refused, as is slot N.
    field, hunt, _ = make_ensembles(n_steps=4, n_w=400)
    ens = LsmcEnsemble(hunt, BASIS, field)
    for i in (-1, 4):
        with pytest.raises(UsageError, match="no regression"):
            ens.regression(i)


def traced_peak(fn, *args):
    """The peak traced memory of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def backward_peak_slots(solve):
    """The peak traced memory of ``solve(problem, ensemble, gbm)`` on 3 noise
    paths, 20,000 diffusion paths and 8 steps, in (n_b, n_W) float slots.
    One (n_b, N+1, n_W) stack is 9 slots there."""
    field, hunt, gbm = make_ensembles(n_steps=8, n_w=20000)
    ens = LsmcEnsemble(hunt, BASIS, field)
    prob = representation_free_problem(field, gbm.scenarios, hunt.grid)
    return traced_peak(solve, prob, ens, gbm) / (gbm.n_paths * hunt.n_paths * 8)


def test_picard_peak_memory_is_slot_sized():
    # The check keeps the coefficient stack and slot-sized temporaries, 12.7
    # slots as measured; the bound adds a margin of 3.3.  A (Y, Z) value
    # stack, a second iterate or whole driver stacks would each add at least
    # one stack of 9 slots.
    peak = backward_peak_slots(lambda prob, ens, gbm: solve_gbdsde_picard(
        prob, ens, gbm, PicardConfig.from_problem(prob)))
    assert peak <= 16.0, peak


def test_explicit_peak_memory_is_slot_sized():
    # As for the Picard check: 10.3 slots as measured, a margin of 1.7.
    peak = backward_peak_slots(solve_gbdsde)
    assert peak <= 12.0, peak


@pytest.mark.parametrize("runner", ["gbdsde", "representation"])
def test_backward_runners_allocate_no_value_stack(runner):
    # With 48 noise paths a (n_b, N+1, n_W) array outweighs everything else
    # the runner holds at once (measured peak 0.69 of one), so a peak below
    # one such array shows that none was allocated: not by the solve and not
    # by the gbdsde dump, which evaluates one slot at a time.
    cfg = default_config()
    n_b, n_w = 48, 2000
    cfg["gspde"]["n_noise_paths"] = n_b
    cfg["bdsde"]["n_diffusion_paths"] = n_w
    cfg["representation"].update(n_noise_paths=n_b, n_diffusion_paths=n_w, halvings=0)
    exp = validate_config(cfg)
    stack_bytes = n_b * (exp.time_grid.n_steps + 1) * n_w * 8
    peak = traced_peak(experiments.RUNNERS[runner], exp)
    assert peak < stack_bytes, peak / stack_bytes


def test_ito_product_rule_refinement():
    # Two source-free linear solutions: d(Y Ytilde) picks up the bracket
    # correction 2 Z a Ztilde dt; the discrete defect shrinks with dt.
    def run(n_steps, n_w, seed):
        field, hunt, gbm = make_ensembles(n_steps=n_steps, horizon=0.5, n_w=n_w,
                                          a_value=0.5, seed=seed)
        xi1 = np.cos(hunt.x[:, -1, 0])
        xi2 = np.sin(hunt.x[:, -1, 0])
        ens = LsmcEnsemble(hunt, BASIS, field)
        y1, z1 = linear_stacks(xi1, ens, gbm, slot_lookup(hunt, gbm))
        y2, z2 = linear_stacks(xi2, ens, gbm, slot_lookup(hunt, gbm))
        a_vals = np.stack([field.a_at(hunt.x[:, i, :])[:, 0, 0]
                           for i in range(n_steps)])
        prod = y1[0] * y2[0]
        total = prod[0] - prod[-1]
        dt = hunt.grid.dt
        model = 0.0
        for i in range(n_steps):
            dy1 = y1[0, i] - y1[0, i + 1]
            dy2 = y2[0, i] - y2[0, i + 1]
            cross = 2.0 * z1[0, i, :, 0] * a_vals[i] * z2[0, i, :, 0] * dt
            model += y1[0, i + 1] * dy2 + y2[0, i + 1] * dy1 + cross
        # Normalize by the terminal product scale (the t=0 product vanishes
        # for the odd payoff started at the origin).
        scale = np.sqrt(np.mean(prod[-1] ** 2)) + 1e-12
        return float(np.sqrt(np.mean((total - model) ** 2))) / scale

    coarse = run(8, 4000, seed=111)
    fine = run(32, 4000, seed=111)
    assert fine <= 0.75 * coarse
