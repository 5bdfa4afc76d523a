import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexplab import experiments, pde
from gexplab.config import default_config, validate_config
from gexplab.errors import ConfigError, NumericalError, UsageError
from gexplab.gbm import TimeGrid, build_gbm, coarsen_driver, sample_driver
from gexplab.hunt import CoefficientField
from gexplab.pde import (
    PHI_SQUARE,
    GspdeProblem,
    PicardConfig,
    ReactionTerm,
    NoiseTerm,
    SpaceTimeTestFunction,
    SpatialGrid,
    ZERO_REACTION,
    discretize_operator,
    energy_identity_residual,
    solve_gspde_picard,
    residual_slots,
    solve_gspde,
    weak_residual,
    zero_noise,
)
from gexplab.pde import _hnorm_density
from gexplab.picard import check_fixed_point, weighted_quadrature
from gexplab.scenario import ScenarioSet, constant_schedule
from oracles import (
    PHI_IDENTITY,
    apply_semigroup,
    densify,
    fd_drift,
    homogeneous_term,
    stacked_residuals,
    whole_stack_hnorm,
)


def const_field(value, dim=1):
    def a(pts):
        return np.broadcast_to(value * np.eye(dim), (pts.shape[0], dim, dim)).copy()

    return CoefficientField(dim, a, value, value, drift=lambda p: np.zeros_like(p))


def bump(pts, width=1.0, amp=1.0):
    return amp * np.exp(-0.5 * np.sum(pts**2, axis=1) / width**2)


def make_problem(grid_kw=None, n_steps=16, horizon=0.5, reaction=None, noise=None,
                 scen=None, field=None, terminal=None):
    sg = SpatialGrid(**{"dim": 1, "half_width": 8.0, "points_per_axis": 161,
                        "boundary": "periodic", **(grid_kw or {})})
    tg = TimeGrid(horizon, n_steps)
    scen = scen or ScenarioSet.from_list([[[1.0]]])
    field = field or const_field(1.0)
    psi = bump(sg.points()) if terminal is None else terminal
    return GspdeProblem(
        terminal=psi,
        reaction=reaction or ZERO_REACTION,
        noise=noise or zero_noise(scen.dim),
        field=field,
        scenarios=scen,
        time_grid=tg,
        space_grid=sg,
    )


def make_gbm(problem, n_paths=4, seed=7, scenario=0):
    drv = sample_driver(problem.time_grid, n_paths, problem.scenarios.dim, seed)
    return build_gbm(drv, constant_schedule(scenario, problem.time_grid.n_steps), problem.scenarios)


# -- operator ---------------------------------------------------------------

def test_operator_kills_constants_periodic():
    sg = SpatialGrid(1, 5.0, 64, "periodic")
    op = discretize_operator(const_field(0.8), sg)
    u = np.full(sg.n_nodes, 3.3)
    assert np.allclose(op.apply(u), 0.0, atol=1e-12)


def test_operator_sine_eigenfunction():
    # Fourier oracle: on a circle of circumference m dx, sin(k x) is an
    # eigenfunction of the discrete Laplacian with value -(2/dx^2)(1-cos(k dx)).
    m = 128
    sg = SpatialGrid(1, np.pi * (m - 1) / m, m, "periodic")
    circumference = m * sg.dx
    assert circumference == pytest.approx(2.0 * np.pi)
    x = sg.points()[:, 0]
    u = np.sin(x)
    op = discretize_operator(const_field(1.0), sg)
    lu = op.apply(u)
    assert np.max(np.abs(lu + u)) < sg.dx**2
    discrete_eig = -(2.0 / sg.dx**2) * (1.0 - np.cos(sg.dx))
    assert np.allclose(lu, discrete_eig * u, atol=1e-10)


def test_operator_symmetry_and_nsd():
    rng = np.random.default_rng(5)
    for bc in ("dirichlet0", "periodic"):
        sg = SpatialGrid(1, 4.0, 41, bc)

        def a(pts):
            return (1.0 + 0.5 * np.sin(pts[:, 0]))[:, None, None]

        op = discretize_operator(CoefficientField(1, a, 0.5, 1.5, fd_drift(a, 1)), sg)
        for _ in range(5):
            u = rng.standard_normal(sg.n_nodes)
            v = rng.standard_normal(sg.n_nodes)
            assert np.dot(op.apply(u), v) == pytest.approx(np.dot(u, op.apply(v)), abs=1e-12)
            assert np.dot(op.apply(u), u) <= 1e-12


def test_operator_energy_matches_face_sum():
    sg = SpatialGrid(1, 3.0, 31, "dirichlet0")

    def a(pts):
        return (1.0 + 0.25 * np.cos(pts[:, 0]))[:, None, None]

    field = CoefficientField(1, a, 0.75, 1.25, fd_drift(a, 1))
    op = discretize_operator(field, sg)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(sg.n_nodes)
    v = rng.standard_normal(sg.n_nodes)
    x = sg.axis()
    # Independent face-sum oracle with ghost zeros outside the domain.
    ue = np.concatenate([[0.0], u, [0.0]])
    ve = np.concatenate([[0.0], v, [0.0]])
    xe = np.concatenate([[x[0] - sg.dx], x, [x[-1] + sg.dx]])
    mids = 0.5 * (xe[:-1] + xe[1:])
    coefs = a(mids[:, None])[:, 0, 0]
    face = np.sum(coefs * np.diff(ue) * np.diff(ve)) / sg.dx**2 * sg.dx
    assert op.energy(u, v) == pytest.approx(face, rel=1e-12)


def test_operator_2d_diagonal_and_symmetry():
    sg = SpatialGrid(2, 3.0, 17, "periodic")

    def a(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + 0.3 * np.sin(pts[:, 0])
        out[:, 1, 1] = 0.8
        return out

    op = discretize_operator(CoefficientField(2, a, 0.5, 1.3, fd_drift(a, 2)), sg)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(sg.n_nodes)
    v = rng.standard_normal(sg.n_nodes)
    assert np.dot(op.apply(u), v) == pytest.approx(np.dot(u, op.apply(v)), abs=1e-10)
    assert np.allclose(op.apply(np.ones(sg.n_nodes)), 0.0, atol=1e-12)


def test_operator_2d_rejects_offdiagonal():
    sg = SpatialGrid(2, 2.0, 9, "periodic")

    def a(pts):
        return np.broadcast_to(np.array([[1.0, 0.2], [0.2, 1.0]]),
                               (pts.shape[0], 2, 2)).copy()

    with pytest.raises(UsageError):
        discretize_operator(CoefficientField(2, a, 0.8, 1.2, fd_drift(a, 2)), sg)


def face_loop_assembly(op):
    """Reference assembly: one Python add per face, in axis order, interior
    faces before the boundary ones, summed into a dense matrix in that order."""
    g = op.grid
    m, dx = g.points_per_axis, g.dx
    pts = g.points()
    rows, cols, vals = [], [], []
    idx = np.arange(g.n_nodes).reshape((m,) * g.dim)
    for axis_id in range(g.dim):
        lines = np.moveaxis(idx, axis_id, 0)
        faces = [(lines[:-1].ravel(), lines[1:].ravel(), None)]
        if g.boundary == "periodic":
            faces.append((lines[-1].ravel(), lines[0].ravel(), 0.5 * dx))
        for p_nodes, q_nodes, shift in faces:
            if shift is None:
                mids = 0.5 * (pts[p_nodes] + pts[q_nodes])
            else:
                mids = pts[p_nodes].copy()
                mids[:, axis_id] += shift
            for p, q, c in zip(p_nodes, q_nodes, op._face_coefficient(mids, axis_id) / dx**2):
                rows.extend([p, q, p, q])
                cols.extend([p, q, q, p])
                vals.extend([-c, -c, c, c])
        if g.boundary != "periodic":
            for nodes, sign in ((lines[0].ravel(), -1.0), (lines[-1].ravel(), 1.0)):
                mids = pts[nodes].copy()
                mids[:, axis_id] += sign * 0.5 * dx
                for p, c in zip(nodes, op._face_coefficient(mids, axis_id) / dx**2):
                    rows.append(p)
                    cols.append(p)
                    vals.append(-c)
    dense = np.zeros((g.n_nodes, g.n_nodes))
    for p, q, c in zip(rows, cols, vals):
        dense[p, q] += c
    return dense


@pytest.mark.parametrize("dim,boundary", [(1, "dirichlet0"), (1, "periodic"),
                                          (2, "dirichlet0"), (2, "periodic")])
def test_operator_assembly_matches_face_loop_bitwise(dim, boundary):
    def a(pts):
        out = np.zeros((pts.shape[0], dim, dim))
        out[:, 0, 0] = 1.0 + 0.3 * np.sin(pts[:, 0])
        if dim == 2:
            out[:, 1, 1] = 0.8 + 0.1 * np.cos(pts[:, 0] * pts[:, 1])
        return out

    sg = SpatialGrid(dim, 3.0, 13, boundary)
    op = discretize_operator(CoefficientField(dim, a, 0.5, 1.3, fd_drift(a, dim)), sg)
    assert np.array_equal(densify(op.matrix), face_loop_assembly(op))


# -- semigroup ---------------------------------------------------------------

def test_semigroup_tau_zero_identity():
    sg = SpatialGrid(1, 4.0, 33, "dirichlet0")
    op = discretize_operator(const_field(0.5), sg)
    v = bump(sg.points())
    assert np.array_equal(apply_semigroup(op, v, 0.0), v)


def test_semigroup_gaussian_heat_kernel_oracle():
    # a = 1/2: variance of a Gaussian density grows by tau.
    sg = SpatialGrid(1, 10.0, 2001, "dirichlet0")
    op = discretize_operator(const_field(0.5), sg)
    x = sg.points()[:, 0]
    s0, tau = 1.0, 0.5
    v = np.exp(-0.5 * x**2 / s0) / np.sqrt(2 * np.pi * s0)
    out = apply_semigroup(op, v, tau)
    exact = np.exp(-0.5 * x**2 / (s0 + tau)) / np.sqrt(2 * np.pi * (s0 + tau))
    assert np.max(np.abs(out - exact)) <= 1e-3


def test_semigroup_mass_conservation_periodic():
    sg = SpatialGrid(1, 5.0, 101, "periodic")

    def a(pts):
        return (0.7 + 0.2 * np.sin(pts[:, 0]))[:, None, None]

    op = discretize_operator(CoefficientField(1, a, 0.5, 0.9, fd_drift(a, 1)), sg)
    v = bump(sg.points())
    out = apply_semigroup(op, v, 0.75)
    assert np.sum(out) * sg.dx == pytest.approx(np.sum(v) * sg.dx, rel=1e-12)


def test_semigroup_rejects_negative_tau():
    sg = SpatialGrid(1, 2.0, 11, "periodic")
    op = discretize_operator(const_field(1.0), sg)
    with pytest.raises(UsageError):
        apply_semigroup(op, np.zeros(sg.n_nodes), -0.1)


# -- norms -----------------------------------------------------------------------

def test_l2_norm_sq_weights_by_cell_volume():
    sg = SpatialGrid(1, 1.0, 5, "periodic")
    assert sg.l2_norm_sq(np.full(sg.n_nodes, 2.0)) == pytest.approx(4.0 * 5 * sg.dx)
    sg2 = SpatialGrid(2, 1.0, 5, "periodic")
    stack = np.stack([np.full(sg2.n_nodes, 1.0), np.full(sg2.n_nodes, 3.0)])
    assert np.allclose(sg2.l2_norm_sq(stack), [25 * sg2.dx**2, 9.0 * 25 * sg2.dx**2])


def hnorm(u, gamma, delta, sg, tg):
    """The (gamma, delta) functional of a stack u shaped (paths, N+1, n)."""
    return weighted_quadrature(_hnorm_density(u[:, :-1], sg, delta), gamma, tg.times)


def test_hnorm_zero_and_constant():
    problem = make_problem()
    tg, sg = problem.time_grid, problem.space_grid
    assert hnorm(np.zeros((2, tg.n_steps + 1, sg.n_nodes)), 1.0, 1.0, sg, tg) == 0.0
    # gamma=0, delta=1, u == c: integral is c^2 * |domain| * T.
    c = 1.7
    const = np.full((3, tg.n_steps + 1, sg.n_nodes), c)
    measure = sg.n_nodes * sg.cell_volume
    assert hnorm(const, 0.0, 1.0, sg, tg) == pytest.approx(c**2 * measure * tg.horizon,
                                                           rel=1e-12)


def test_hnorm_exponential_weight_exact():
    # gamma=1, delta=0, |grad u|^2 == 1 via u = x on a periodic..., use
    # dirichlet grid where the one-sided edges still give slope 1 everywhere.
    sg = SpatialGrid(1, 2.0, 41, "dirichlet0")
    tg = TimeGrid(1.0, 8)
    slope = sg.points()[:, 0].copy()
    vals = np.tile(slope, (1, tg.n_steps + 1, 1))
    measure = sg.n_nodes * sg.cell_volume
    # integral of e^{s - T} over [0, T = 1] times |grad|^2 = 1 * measure
    assert hnorm(vals, 1.0, 0.0, sg, tg) == pytest.approx((1.0 - np.exp(-1.0)) * measure,
                                                          rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2]), boundary=st.sampled_from(["dirichlet0", "periodic"]),
       m=st.integers(3, 14), p=st.integers(1, 4), n_steps=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 8.0),
       delta=st.one_of(st.just(0.0), st.floats(0.0, 20.0)), horizon=st.floats(0.05, 3.0))
def test_slot_grid_norms_match_whole_stack_bitwise(dim, boundary, m, p, n_steps, seed,
                                                   gamma, delta, horizon):
    # The grid Picard sweep takes both densities one slot at a time, the new
    # slot against the slot of the stack it is about to overwrite; they must
    # give the floats of the whole-stack reference.
    rng = np.random.default_rng(seed)
    sg = SpatialGrid(dim, 3.0, m, boundary)
    tg = TimeGrid(horizon, n_steps)
    old = rng.standard_normal((p, n_steps + 1, sg.n_nodes))
    new = rng.standard_normal((p, n_steps + 1, sg.n_nodes))

    def slot_norm(density):
        dens = np.stack([density(np.ascontiguousarray(new[:, i]), old[:, i])
                         for i in range(n_steps)], axis=1)
        return weighted_quadrature(dens, gamma, tg.times)

    inc = slot_norm(lambda new_i, old_i: _hnorm_density(new_i - old_i, sg, delta))
    cur = slot_norm(lambda new_i, old_i: _hnorm_density(new_i, sg, delta))
    assert inc == whole_stack_hnorm(new - old, gamma, delta, sg, tg.times)
    assert cur == whole_stack_hnorm(new, gamma, delta, sg, tg.times)
    assert cur == hnorm(new, gamma, delta, sg, tg)
    assert slot_norm(lambda new_i, old_i: _hnorm_density(new_i - new_i, sg, delta)) == 0.0


# -- problem validation --------------------------------------------------------

def test_contraction_rejected_at_construction():
    noisy = NoiseTerm(lambda t, p, y, z: 3.0 * z[..., 0:1], 1, 0.0, 9.0)
    with pytest.raises(UsageError, match="contraction"):
        make_problem(noise=noisy)


def test_boundary_decay_check_dirichlet():
    cfg = default_config()
    cfg["space_grid"].update(boundary="dirichlet0", half_width=2.0)
    with pytest.raises(ConfigError, match="^terminal: not negligible at the truncation boundary"):
        validate_config(cfg)
    # Periodic grids accept non-decaying data.
    cfg["space_grid"]["boundary"] = "periodic"
    validate_config(cfg)


def test_picard_config_recipe():
    problem = make_problem(
        reaction=ReactionTerm(lambda t, p, y, z: 0.5 * np.tanh(y), 0.25, 0.0),
        noise=NoiseTerm(lambda t, p, y, z: np.stack([0.1 * y], axis=-1), 0.01, 0.0, n_components=1) if False else
        NoiseTerm(lambda t, p, y, z: 0.1 * y[..., None], 1, 0.01, 0.5),
    )
    cfg = PicardConfig.from_problem(problem, eps=0.4)
    # kappa = (0.25*0.4 + 0.5)/2 = 0.3 for sigma_bar = lam = 1.
    assert cfg.kappa == pytest.approx(0.3)
    assert cfg.delta == pytest.approx(0.25 * 1.4 / 0.6)
    assert cfg.rate == pytest.approx(1 / 0.4 + 2 * cfg.delta)
    cfg.validate_against(problem)
    auto = PicardConfig.from_problem(problem)
    assert auto.kappa <= 0.9 + 1e-12


def test_config_for_another_problem_rejected():
    # eps = 1 is a contraction for both reaction constants; only the
    # constants (kappa 0.3 against 0.4) tell the configs apart.
    def problem(lip_sq):
        return make_problem(reaction=ReactionTerm(lambda t, p, y, z: 0.0 * y, lip_sq, 0.0),
                            noise=NoiseTerm(lambda t, p, y, z: 0.1 * y[..., None], 1, 0.01, 0.5))

    cfg = PicardConfig.from_problem(problem(0.1), eps=1.0)
    with pytest.raises(UsageError, match="kappa is 0.3, the problem's is 0.4"):
        solve_gspde_picard(problem(0.3), cfg, make_gbm(problem(0.3)))


# -- solver ---------------------------------------------------------------------

def test_source_free_fixed_point_is_homogeneous_term_bitwise():
    problem = make_problem()
    gbm = make_gbm(problem)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, report = solve_gspde_picard(problem, cfg, gbm)
    hom = homogeneous_term(problem.operator, problem.terminal, problem.time_grid,
                           gbm.n_paths)
    assert np.array_equal(field.values, hom)
    # Without sources every sweep gives u*: each rho and the residual are 0.
    assert report.converged and report.ratios == (0.0, 0.0) and report.increments[2] == 0.0
    assert np.array_equal(field.values[0, -1], problem.terminal)


def test_deterministic_reaction_matches_theta_scheme_oracle():
    # Independent oracle: textbook theta-scheme (dense matrices, trapezoid
    # source) on the same spatial grid with a finer time step.
    sg = SpatialGrid(1, 8.0, 161, "periodic")
    tg = TimeGrid(0.5, 256)

    def f_fn(t, pts, y, z):
        prof = np.exp(-0.5 * pts[:, 0] ** 2)
        return 0.5 * (1.0 + np.cos(t)) * prof * np.ones_like(y)

    problem = make_problem(n_steps=tg.n_steps, horizon=tg.horizon,
                           reaction=ReactionTerm(f_fn, 0.0, 0.0))
    gbm = make_gbm(problem, n_paths=1)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)

    # Oracle: dense theta = 1/2 stepping of du/dt = -(L u + f), backward.
    op = discretize_operator(problem.field, sg)
    dense = densify(op.matrix)
    refine = 4
    n_f = tg.n_steps * refine
    dt_f = tg.horizon / n_f
    eye = np.eye(sg.n_nodes)
    back = np.linalg.inv(eye - 0.5 * dt_f * dense)
    fwd = eye + 0.5 * dt_f * dense
    pts = sg.points()
    u = problem.terminal.copy()
    times = np.linspace(0, tg.horizon, n_f + 1)
    snapshots = {n_f: u.copy()}
    zeros = np.zeros(sg.n_nodes)
    zz = np.zeros((sg.n_nodes, 1))
    for j in range(n_f - 1, -1, -1):
        src = 0.5 * (f_fn(times[j], pts, zeros, zz) + f_fn(times[j + 1], pts, zeros, zz))
        u = back @ (fwd @ u + dt_f * src)
        snapshots[j] = u.copy()
    for i in range(tg.n_steps + 1):
        oracle = snapshots[i * refine]
        assert np.max(np.abs(field.values[0, i] - oracle)) <= 1e-3


def test_picard_contraction_ratios_under_kappa():
    reaction = ReactionTerm(lambda t, p, y, z: 0.5 * np.sin(y), 0.25, 0.0)

    def g_fn(t, p, y, z):
        return (np.sqrt(0.125) * np.tanh(y) + 0.5 * np.sin(z[..., 0]))[..., None]

    noise = NoiseTerm(g_fn, 1, 0.25, 0.5)
    problem = make_problem(reaction=reaction, noise=noise, horizon=1.0, n_steps=32)
    gbm = make_gbm(problem, n_paths=8, seed=29)
    cfg = PicardConfig.from_problem(problem, eps=0.4)
    assert cfg.kappa == pytest.approx(0.3)
    field, report = solve_gspde_picard(problem, cfg, gbm)
    assert report.converged and report.iterations == 3
    assert all(r <= cfg.kappa + 0.05 for r in report.ratios)
    assert np.array_equal(field.values[3, -1], problem.terminal)


def test_solver_two_dimensional_smoke():
    sg = SpatialGrid(2, 5.0, 33, "periodic")
    tg = TimeGrid(0.25, 8)
    scen = ScenarioSet.from_list([[[1.0]]])

    def a(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + 0.3 * np.sin(pts[:, 0])
        out[:, 1, 1] = 0.8
        return out

    field = CoefficientField(2, a, 0.7, 1.3, fd_drift(a, 2))
    psi = np.exp(-0.5 * np.sum(sg.points() ** 2, axis=1))
    reaction = ReactionTerm(lambda t, p, y, z: 0.2 * np.tanh(y), 0.04, 0.0)

    def g_fn(t, p, y, z):
        return (0.1 * np.tanh(y) + 0.1 * np.sin(np.sum(z, axis=-1)))[..., None]

    noise = NoiseTerm(g_fn, 1, 0.02, 0.04)
    problem = GspdeProblem(psi, reaction, noise, field, scen, tg, sg)
    gbm = make_gbm(problem, n_paths=2, seed=61)
    cfg = PicardConfig.from_problem(problem)
    fld, rep = solve_gspde_picard(problem, cfg, gbm)
    assert rep.converged
    assert np.array_equal(fld.values[0, -1], psi)
    assert np.all(np.isfinite(fld.values))
    res = energy_identity_residual(residual_slots(fld, problem, gbm, bump_test_fn()), problem)
    assert np.all(np.isfinite(res))


def stacked_grid_check(problem, gbm, cfg):
    """Reference check on whole field stacks: each sweep builds its frozen
    iterate and the sources over the whole stack, runs the Crank-Nicolson
    recursion into a fresh stack and takes both norms whole."""
    tg, sg, dt = problem.time_grid, problem.space_grid, problem.time_grid.dt
    pts = sg.points()
    u = solve_gspde(problem, gbm).values

    def sources(w):
        grad = sg.gradient(w[:, 1:])
        f_vals = np.empty((tg.n_steps,) + w[:, 0].shape)
        g_vals = np.empty(f_vals.shape + (problem.noise.n_components,))
        for j in range(1, tg.n_steps + 1):
            v = np.einsum("...nd,ndk->...nk", grad[:, j - 1], problem.operator.node_sigma)
            f_vals[j - 1] = problem.reaction(tg.times[j], pts, w[:, j], v)
            g_vals[j - 1] = problem.noise(tg.times[j], pts, w[:, j], v)
        return f_vals, g_vals

    def sweep(scale):
        w = np.stack([u[:, i] * scale(i) for i in range(tg.n_steps + 1)], axis=1)
        f_vals, g_vals = sources(w)
        new = np.empty_like(u)
        new[:, -1] = problem.terminal
        v = np.ascontiguousarray(new[:, -1].T)
        for i in range(tg.n_steps - 1, -1, -1):
            src = v + dt * f_vals[i].T
            src = src + np.einsum("pnl,pl->np", g_vals[i], gbm.db[:, i, :])
            v = problem.operator.cn_step(src, dt)
            new[:, i] = v.T
        return (whole_stack_hnorm(new - u, cfg.rate, cfg.delta, sg, tg.times),
                whole_stack_hnorm(w - u, cfg.rate, cfg.delta, sg, tg.times))

    return u, check_fixed_point(sweep, pde._smooth_field(sg, cfg.seed), tg.times)


def mixed_grid_problem(dim, l, boundary, m, n_steps, k=0.2, alpha=0.3):
    """Sources that read t, x, y and every coordinate of v, with l noise
    components, on a field whose sigma(x) is not constant."""
    def a(pts):
        out = np.zeros((pts.shape[0], dim, dim))
        out[:, 0, 0] = 1.0 + 0.3 * np.sin(pts[:, 0])
        if dim == 2:
            out[:, 1, 1] = 0.8
        return out

    def f(t, p, y, z):
        return 0.3 * np.sin(y) + 0.1 * np.cos(p[:, 0] + t) + 0.2 * np.tanh(np.sum(z, axis=-1))

    def g(t, p, y, z):
        return np.stack([np.sqrt(k / (2.0 * l)) * np.tanh(y + j)
                         + np.sqrt(alpha / (2.0 * l)) * np.sin(z[..., j % dim])
                         for j in range(l)], axis=-1)

    scen = ScenarioSet.from_list([[[1.0]], [[0.6]]] if l == 1 else
                                 [[[1.0, 0.0], [0.0, 1.0]], [[0.8, 0.1], [0.0, 0.6]]])
    sg = SpatialGrid(dim, 3.0, m, boundary)
    return GspdeProblem(bump(sg.points()), ReactionTerm(f, 0.18, 0.08 * dim),
                        NoiseTerm(g, l, k, alpha),
                        CoefficientField(dim, a, 0.7, 1.3, fd_drift(a, dim)), scen,
                        TimeGrid(0.5, n_steps), sg)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), l=st.sampled_from([1, 2]),
       boundary=st.sampled_from(["dirichlet0", "periodic"]), m=st.integers(5, 12),
       p=st.integers(1, 3), n_steps=st.integers(1, 5), scenario=st.integers(0, 1),
       seed=st.integers(0, 2**31 - 1))
def test_slot_recursion_matches_stacked_sources_bitwise(dim, l, boundary, m, p, n_steps,
                                                        scenario, seed):
    # The grid check evaluates the sources slot by slot inside the one
    # recursion and streams each slot into its densities; its report must be
    # the floats of the whole-stack form, and the field it returns is
    # solve_gspde's.
    problem = mixed_grid_problem(dim, l, boundary, m, n_steps)
    gbm = make_gbm(problem, n_paths=p, seed=seed, scenario=scenario)
    cfg = PicardConfig.from_problem(problem, seed=seed)
    u_ref, rep_ref = stacked_grid_check(problem, gbm, cfg)
    fld, rep = solve_gspde_picard(problem, cfg, gbm)
    assert rep == rep_ref and rep.increments[2] == 0.0
    assert np.array_equal(fld.values, u_ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_perturbation_field_is_seeded_smooth_and_periodic(dim):
    # The grid check's perturbation is the same field for the same seed, of
    # mean square about 1, and a trigonometric polynomial of degree 2 in
    # pi x / R per axis: smooth, and periodic on [-R, R]^d.
    sg = SpatialGrid(dim, 3.0, 61 if dim == 1 else 31, "periodic")
    g = pde._smooth_field(sg, 5)
    assert np.array_equal(g, pde._smooth_field(sg, 5))
    assert not np.array_equal(g, pde._smooth_field(sg, 6))
    assert 0.05 < np.mean(g**2) < 20.0
    phase = sg.points() * (np.pi / sg.half_width)
    per_axis = [np.stack([np.ones(len(phase))] + [f(j * phase[:, k]) for j in (1, 2)
                                                  for f in (np.cos, np.sin)], axis=1)
                for k in range(dim)]
    basis = per_axis[0] if dim == 1 else np.einsum("na,nb->nab", *per_axis).reshape(len(g), -1)
    fit = np.linalg.lstsq(basis, g, rcond=None)[0]
    assert np.max(np.abs(basis @ fit - g)) <= 1e-10


def test_grid_check_keeps_no_second_field():
    # The check sweeps stream each slot into its densities: beside the field
    # the solve returns, the check adds slot-sized temporaries only (1.42
    # against 1.37 fields at the peak as measured; a second field is 1 more).
    cfg = default_config()
    cfg["gspde"]["n_noise_paths"] = 48
    exp = validate_config(cfg)
    problem, gbm = exp.gspde_problem, experiments._problem_bundles(exp)[0]
    field_bytes = gbm.n_paths * (problem.time_grid.n_steps + 1) * problem.space_grid.n_nodes * 8

    def peak(solve, *args):
        tracemalloc.start()
        try:
            solve(*args)
            return tracemalloc.get_traced_memory()[1] / field_bytes
        finally:
            tracemalloc.stop()

    explicit = peak(solve_gspde, problem, gbm)
    assert peak(solve_gspde_picard, problem, exp.gspde_cfg, gbm) < explicit + 0.25


def test_residual_pass_drops_each_interval_before_the_next():
    # At the shape of one gspde-family scenario (48 paths, 32 steps, 161
    # nodes, l = 1) an interval's terms are six (p, n) slot arrays.  Dropped
    # at the interval's end, the pass peaks at 10.1 slots beyond its two
    # output arrays as measured; held while the next interval's sources are
    # made, at 14.2.
    cfg = default_config()
    cfg["gspde"]["n_noise_paths"] = 48
    exp = validate_config(cfg)
    problem, gbm = exp.gspde_problem, experiments._problem_bundles(exp)[0]
    fld = solve_gspde(problem, gbm)
    assert fld.values.shape == (48, 33, 161) and gbm.dim == 1
    tracemalloc.start()
    try:
        slots = residual_slots(fld, problem, gbm, experiments._default_test_fn(exp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slot_bytes = gbm.n_paths * problem.space_grid.n_nodes * 8
    assert peak - slots.weak.nbytes - slots.energy.nbytes < 12 * slot_bytes


def test_singular_factorization_is_a_numerical_error():
    # At a half width of 1e-300 the spacing squares to 0 and the CN matrix
    # holds infinities that have no LU factors.
    sg = SpatialGrid(1, 1e-300, 11, "periodic")
    with np.errstate(divide="ignore", invalid="ignore"):
        op = discretize_operator(const_field(1.0), sg)
    with pytest.raises(NumericalError, match="semigroup factorization at step 0.125 failed"):
        op.cn_step(np.ones(sg.n_nodes), 0.125)


# -- residuals -------------------------------------------------------------------

def bump_test_fn(width=2.0):
    return SpaceTimeTestFunction(
        psi=lambda t: 1.0 - 0.5 * t,
        chi=lambda pts: np.exp(-0.5 * np.sum(pts**2, axis=1) / width**2),
    )


def test_weak_residual_zero_testfn_and_homogeneous_exactness():
    problem = make_problem(n_steps=24)
    gbm = make_gbm(problem, n_paths=2)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    zero_fn = SpaceTimeTestFunction(lambda t: 0.0, lambda pts: np.zeros(pts.shape[0]))
    assert np.all(weak_residual(residual_slots(field, problem, gbm, zero_fn), problem) == 0.0)
    res = weak_residual(residual_slots(field, problem, gbm, bump_test_fn()), problem)
    assert np.max(res) <= 1e-10


def test_weak_residual_support_violation():
    sgkw = {"boundary": "dirichlet0"}
    problem = make_problem(grid_kw=sgkw)
    gbm = make_gbm(problem, n_paths=1)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    wide = SpaceTimeTestFunction(lambda t: 1.0, lambda pts: np.ones(pts.shape[0]))
    with pytest.raises(UsageError, match="vanish"):
        residual_slots(field, problem, gbm, wide)


def nonlinear_problem(n_steps, seed_terminal_width=1.0, horizon=0.5):
    reaction = ReactionTerm(lambda t, p, y, z: 0.3 * np.sin(y), 0.09, 0.0)

    def g_fn(t, p, y, z):
        prof = np.exp(-0.125 * p[:, 0] ** 2)
        return ((0.25 * np.tanh(y) + 0.3 * np.sin(z[..., 0])) * prof)[..., None]

    noise = NoiseTerm(g_fn, 1, 0.125, 0.18)
    return make_problem(n_steps=n_steps, horizon=horizon,
                        reaction=reaction, noise=noise)


def test_weak_residual_halving_decay():
    fine_problem = nonlinear_problem(n_steps=64)
    coarse_problem = nonlinear_problem(n_steps=32)
    drv_fine = sample_driver(fine_problem.time_grid, 8, 1, seed=31)
    drv_coarse = coarsen_driver(drv_fine, 2)
    scen = fine_problem.scenarios
    gbm_fine = build_gbm(drv_fine, constant_schedule(0, 64), scen)
    gbm_coarse = build_gbm(drv_coarse, constant_schedule(0, 32), scen)
    cfg_f = PicardConfig.from_problem(fine_problem)
    cfg_c = PicardConfig.from_problem(coarse_problem)
    field_f, _ = solve_gspde_picard(fine_problem, cfg_f, gbm_fine)
    field_c, _ = solve_gspde_picard(coarse_problem, cfg_c, gbm_coarse)
    tf = bump_test_fn()
    slots_f = residual_slots(field_f, fine_problem, gbm_fine, tf)
    slots_c = residual_slots(field_c, coarse_problem, gbm_coarse, tf)
    res_f = float(np.sqrt(np.mean(weak_residual(slots_f, fine_problem) ** 2)))
    res_c = float(np.sqrt(np.mean(weak_residual(slots_c, coarse_problem) ** 2)))
    assert res_c > 1e-10
    assert res_f <= 0.8 * res_c


def test_energy_identity_zero_data():
    problem = make_problem(terminal=np.zeros(161))
    gbm = make_gbm(problem, n_paths=2)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    slots = residual_slots(field, problem, gbm, bump_test_fn())
    assert np.all(energy_identity_residual(slots, problem) == 0.0)


def test_energy_identity_source_free_exact():
    problem = make_problem(n_steps=24)
    gbm = make_gbm(problem, n_paths=2)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    slots = residual_slots(field, problem, gbm, bump_test_fn(), PHI_SQUARE)
    assert np.max(energy_identity_residual(slots, problem)) <= 1e-10


def test_energy_identity_phi_linear_reduces_to_weak_form():
    problem = nonlinear_problem(n_steps=24)
    gbm = make_gbm(problem, n_paths=3, seed=37)
    cfg = PicardConfig.from_problem(problem)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    unit_fn = SpaceTimeTestFunction(lambda t: 1.0, lambda pts: np.ones(pts.shape[0]))
    slots = residual_slots(field, problem, gbm, unit_fn, PHI_IDENTITY)
    weak = weak_residual(slots, problem)
    energy = energy_identity_residual(slots, problem)
    assert np.allclose(weak, energy, atol=1e-10)


def test_energy_identity_halving_decay():
    # The per-path residual is a random O(sqrt(dt)) quantity, so the order
    # is measured over a two-octave span with a decent path count.
    levels = (16, 64)
    top = levels[-1]
    drv_top = sample_driver(TimeGrid(0.5, top), 96, 1, seed=41)
    res = {}
    for n in levels:
        problem = nonlinear_problem(n_steps=n)
        drv = coarsen_driver(drv_top, top // n)
        gbm = build_gbm(drv, constant_schedule(0, n), problem.scenarios)
        cfg = PicardConfig.from_problem(problem)
        fld, _ = solve_gspde_picard(problem, cfg, gbm)
        slots = residual_slots(fld, problem, gbm, bump_test_fn())
        res[n] = float(np.sqrt(np.mean(energy_identity_residual(slots, problem) ** 2)))
    order = np.log2(res[16] / res[64]) / 2.0
    assert order >= 0.4


def shipped_grid_exp(n_paths=None):
    """The shipped config; with ``n_paths`` noise paths, gspde-family's shape."""
    cfg = default_config()
    if n_paths is not None:
        cfg["gspde"]["n_noise_paths"] = n_paths
    return validate_config(cfg)


@pytest.mark.parametrize("n_paths", [None, 48])
def test_residual_pass_matches_the_stacked_oracle(n_paths):
    # The pass forms each slot interval's terms on its own; the oracle forms
    # them over whole (p, N, n) stacks.  Only the operator products are split
    # differently, which moves a residual by rounding: the rms that the gspde
    # rows report by at most 2.1e-13 relative, a path's residual by about
    # 1e-16, the rounding of the terms it is the difference of, so a path
    # is held to the scenario's largest residual.
    exp = shipped_grid_exp(n_paths)
    problem, test_fn = exp.gspde_problem, experiments._default_test_fn(exp)
    for gbm in experiments._problem_bundles(exp):
        fld = solve_gspde(problem, gbm)
        for phi in (PHI_SQUARE, PHI_IDENTITY):
            slots = residual_slots(fld, problem, gbm, test_fn, phi)
            refs = stacked_residuals(fld, problem, gbm, test_fn, phi)
            for res, ref in zip((weak_residual(slots, problem),
                                 energy_identity_residual(slots, problem)), refs):
                assert np.sqrt(np.mean(res**2)) == pytest.approx(np.sqrt(np.mean(ref**2)),
                                                                 rel=1e-12, abs=0)
                np.testing.assert_allclose(res, ref, rtol=0, atol=1e-12 * np.max(ref))


def test_residual_pass_keeps_no_stack():
    # At gspde-family's shape (48 paths, 32 steps, 161 nodes) the pass holds,
    # beside its field, slot-sized temporaries and its (p, N) terms.  A whole
    # (p, N, n) stack of midpoint slices, sources or g . dB is more than all
    # of those together.
    exp = shipped_grid_exp(48)
    problem, gbm = exp.gspde_problem, experiments._problem_bundles(exp)[0]
    fld = solve_gspde(problem, gbm)
    p, n_slots, n = fld.values.shape
    assert (p, n_slots, n) == (48, 33, 161)
    tracemalloc.start()
    try:
        slots = residual_slots(fld, problem, gbm, experiments._default_test_fn(exp))
        weak_residual(slots, problem)
        energy_identity_residual(slots, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * (n_slots - 1) * n * 8
