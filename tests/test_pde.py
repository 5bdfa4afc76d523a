from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gexplab import picard

from gexplab.errors import UsageError
from gexplab.gbm import TimeGrid, build_gbm, coarsen_driver, sample_driver
from gexplab.hunt import CoefficientField
from gexplab.pde import (
    PHI_IDENTITY,
    PHI_SQUARE,
    GspdeProblem,
    PicardConfig,
    ReactionTerm,
    NoiseTerm,
    SpaceTimeTestFunction,
    SpatialGrid,
    ZERO_REACTION,
    apply_semigroup,
    discretize_operator,
    energy_identity_residual,
    hnorm_gamma_delta,
    homogeneous_term,
    solve_gspde_picard,
    weak_residual,
    zero_noise,
)
from gexplab.pde import RandomField, _hnorm_density
from gexplab.picard import increment_and_iterate_norms, weighted_quadrature
from gexplab.scenario import ScenarioSet, constant_schedule


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

        op = discretize_operator(CoefficientField(1, a, 0.5, 1.5), sg)
        for _ in range(5):
            u = rng.standard_normal(sg.n_nodes)
            v = rng.standard_normal(sg.n_nodes)
            assert np.dot(op.apply(u), v) == pytest.approx(np.dot(u, op.apply(v)), abs=1e-12)
            assert np.dot(op.apply(u), u) <= 1e-12


def test_operator_energy_matches_face_sum():
    sg = SpatialGrid(1, 3.0, 31, "dirichlet0")

    def a(pts):
        return (1.0 + 0.25 * np.cos(pts[:, 0]))[:, None, None]

    field = CoefficientField(1, a, 0.75, 1.25)
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

    op = discretize_operator(CoefficientField(2, a, 0.5, 1.3), sg)
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
        discretize_operator(CoefficientField(2, a, 0.8, 1.2), sg)


def face_loop_assembly(op):
    """Reference assembly: one Python add per face, in axis order, interior
    faces before the boundary ones."""
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
    return sp.coo_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes)).tocsr()


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
    op = discretize_operator(CoefficientField(dim, a, 0.5, 1.3), sg)
    assert (op.matrix != face_loop_assembly(op)).nnz == 0


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

    op = discretize_operator(CoefficientField(1, a, 0.5, 0.9), sg)
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


def test_hnorm_zero_and_constant():
    problem = make_problem()
    tg, sg = problem.time_grid, problem.space_grid
    zeros = RandomField(np.zeros((2, tg.n_steps + 1, sg.n_nodes)), tg, sg, 0)
    assert hnorm_gamma_delta(zeros, 1.0, 1.0) == 0.0
    # gamma=0, delta=1, u == c: integral is c^2 * |domain| * T.
    c = 1.7
    const = RandomField(np.full((3, tg.n_steps + 1, sg.n_nodes), c), tg, sg, 0)
    measure = sg.n_nodes * sg.cell_volume
    assert hnorm_gamma_delta(const, 0.0, 1.0) == pytest.approx(c**2 * measure * tg.horizon, rel=1e-12)


def test_hnorm_takes_worst_scenario_of_a_family():
    problem = make_problem()
    tg, sg = problem.time_grid, problem.space_grid
    small = RandomField(np.full((2, tg.n_steps + 1, sg.n_nodes), 0.5), tg, sg, 0)
    big = RandomField(np.full((2, tg.n_steps + 1, sg.n_nodes), 2.0), tg, sg, 1)
    both = hnorm_gamma_delta([small, big], 0.0, 1.0)
    assert both == pytest.approx(hnorm_gamma_delta(big, 0.0, 1.0), rel=1e-12)


def test_hnorm_exponential_weight_exact():
    # gamma=1, delta=0, |grad u|^2 == 1 via u = x on a periodic..., use
    # dirichlet grid where the one-sided edges still give slope 1 everywhere.
    sg = SpatialGrid(1, 2.0, 41, "dirichlet0")
    tg = TimeGrid(1.0, 8)
    slope = sg.points()[:, 0].copy()
    vals = np.tile(slope, (1, tg.n_steps + 1, 1))
    f = RandomField(vals, tg, sg, 0)
    measure = sg.n_nodes * sg.cell_volume
    # integral of e^s over [0, 1] times |grad|^2 = 1 * measure
    assert hnorm_gamma_delta(f, 1.0, 0.0) == pytest.approx((np.e - 1.0) * measure, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2]), boundary=st.sampled_from(["dirichlet0", "periodic"]),
       m=st.integers(3, 14), p=st.integers(1, 4), n_steps=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 8.0),
       delta=st.one_of(st.just(0.0), st.floats(0.0, 20.0)), horizon=st.floats(0.05, 3.0),
       block_bytes=st.sampled_from([1, 600, 2000, picard.NORM_BLOCK_BYTES]))
def test_fused_grid_norms_match_whole_stack_bitwise(dim, boundary, m, p, n_steps, seed,
                                                    gamma, delta, horizon, block_bytes):
    # The grid Picard loop builds both densities in one pass over blocks of
    # time slots (one slot, a few, all); it must give the floats of the two
    # whole-stack norm calls.
    rng = np.random.default_rng(seed)
    sg = SpatialGrid(dim, 3.0, m, boundary)
    tg = TimeGrid(horizon, n_steps)
    old = rng.standard_normal((p, n_steps + 1, sg.n_nodes))
    new = rng.standard_normal((p, n_steps + 1, sg.n_nodes))

    def density(u):
        return _hnorm_density(u, sg, delta)

    def norm(u):
        return weighted_quadrature(density(u[:, :-1]), gamma, tg.times)

    with mock.patch.object(picard, "NORM_BLOCK_BYTES", block_bytes):
        inc, cur = increment_and_iterate_norms(density, (new,), (old,), gamma, tg.times)
        same, same_cur = increment_and_iterate_norms(density, (new,), (new,), gamma, tg.times)
    assert inc == norm(new - old)
    assert cur == norm(new)
    assert cur == hnorm_gamma_delta(RandomField(new, tg, sg, 0), gamma, delta)
    assert same == 0.0
    assert same_cur == cur


# -- problem validation --------------------------------------------------------

def test_contraction_rejected_at_construction():
    noisy = NoiseTerm(lambda t, p, y, z: 3.0 * z[..., 0:1], 1, 0.0, 9.0)
    with pytest.raises(UsageError, match="contraction"):
        make_problem(noise=noisy)


def test_boundary_decay_check_dirichlet():
    sg_kw = {"boundary": "dirichlet0", "half_width": 2.0}
    with pytest.raises(UsageError, match="boundary"):
        make_problem(grid_kw=sg_kw, terminal=np.ones(161))
    # Periodic grids accept non-decaying data.
    make_problem(terminal=np.ones(161))


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
    cfg = PicardConfig.from_problem(problem, eps=1.0, max_iter=5)
    field, report = solve_gspde_picard(problem, cfg, gbm)
    hom = homogeneous_term(problem.operator, problem.terminal, problem.time_grid)
    for p in range(field.n_paths):
        assert np.array_equal(field.values[p], hom)
    assert report.converged and report.iterations == 2
    assert np.array_equal(field.terminal_slice()[0], problem.terminal)


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
    cfg = PicardConfig.from_problem(problem, eps=1.0, max_iter=5)
    field, _ = solve_gspde_picard(problem, cfg, gbm)

    # Oracle: dense theta = 1/2 stepping of du/dt = -(L u + f), backward.
    op = discretize_operator(problem.field, sg)
    dense = op.matrix.toarray()
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
    cfg = PicardConfig.from_problem(problem, eps=0.4, max_iter=15, tol_rel=1e-6)
    assert cfg.kappa == pytest.approx(0.3)
    field, report = solve_gspde_picard(problem, cfg, gbm)
    assert report.converged
    assert report.iterations <= 15
    assert all(r <= cfg.kappa + 0.05 for r in report.ratios)
    assert np.array_equal(field.terminal_slice()[3], problem.terminal)


def test_solver_two_dimensional_smoke():
    sg = SpatialGrid(2, 5.0, 33, "periodic")
    tg = TimeGrid(0.25, 8)
    scen = ScenarioSet.from_list([[[1.0]]])

    def a(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + 0.3 * np.sin(pts[:, 0])
        out[:, 1, 1] = 0.8
        return out

    field = CoefficientField(2, a, 0.7, 1.3)
    psi = np.exp(-0.5 * np.sum(sg.points() ** 2, axis=1))
    reaction = ReactionTerm(lambda t, p, y, z: 0.2 * np.tanh(y), 0.04, 0.0)

    def g_fn(t, p, y, z):
        return (0.1 * np.tanh(y) + 0.1 * np.sin(np.sum(z, axis=-1)))[..., None]

    noise = NoiseTerm(g_fn, 1, 0.02, 0.04)
    problem = GspdeProblem(psi, reaction, noise, field, scen, tg, sg)
    gbm = make_gbm(problem, n_paths=2, seed=61)
    cfg = PicardConfig.from_problem(problem, max_iter=20)
    fld, rep = solve_gspde_picard(problem, cfg, gbm)
    assert rep.converged
    assert np.array_equal(fld.terminal_slice()[0], psi)
    assert np.all(np.isfinite(fld.values))
    res = energy_identity_residual(fld, problem, gbm)
    assert np.all(np.isfinite(res))


def test_uniqueness_surrogate_two_initial_guesses():
    reaction = ReactionTerm(lambda t, p, y, z: 0.4 * np.cos(y), 0.16, 0.0)
    problem = make_problem(reaction=reaction, horizon=0.5, n_steps=16)
    gbm = make_gbm(problem, n_paths=3, seed=13)
    cfg = PicardConfig.from_problem(problem, tol_rel=1e-10, max_iter=30)
    f0, _ = solve_gspde_picard(problem, cfg, gbm, initial="zero")
    f1, _ = solve_gspde_picard(problem, cfg, gbm, initial="homogeneous")
    diff = RandomField(f0.values - f1.values, problem.time_grid, problem.space_grid, 0)
    rel = hnorm_gamma_delta(diff, cfg.rate, cfg.delta) / max(
        hnorm_gamma_delta(f0, cfg.rate, cfg.delta), 1e-300)
    assert rel <= cfg.tol_rel * 10


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
    assert np.all(weak_residual(field, zero_fn, problem, gbm) == 0.0)
    res = weak_residual(field, bump_test_fn(), problem, gbm)
    assert np.max(res) <= 1e-10


def test_weak_residual_support_violation():
    sgkw = {"boundary": "dirichlet0"}
    problem = make_problem(grid_kw=sgkw)
    gbm = make_gbm(problem, n_paths=1)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    wide = SpaceTimeTestFunction(lambda t: 1.0, lambda pts: np.ones(pts.shape[0]))
    with pytest.raises(UsageError, match="vanish"):
        weak_residual(field, wide, problem, gbm)


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
    cfg_f = PicardConfig.from_problem(fine_problem, tol_rel=1e-9, max_iter=30)
    cfg_c = PicardConfig.from_problem(coarse_problem, tol_rel=1e-9, max_iter=30)
    field_f, _ = solve_gspde_picard(fine_problem, cfg_f, gbm_fine)
    field_c, _ = solve_gspde_picard(coarse_problem, cfg_c, gbm_coarse)
    tf = bump_test_fn()
    res_f = float(np.sqrt(np.mean(weak_residual(field_f, tf, fine_problem, gbm_fine) ** 2)))
    res_c = float(np.sqrt(np.mean(weak_residual(field_c, tf, coarse_problem, gbm_coarse) ** 2)))
    assert res_c > 1e-10
    assert res_f <= 0.8 * res_c


def test_energy_identity_zero_data():
    problem = make_problem(terminal=np.zeros(161))
    gbm = make_gbm(problem, n_paths=2)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    assert np.all(energy_identity_residual(field, problem, gbm) == 0.0)


def test_energy_identity_source_free_exact():
    problem = make_problem(n_steps=24)
    gbm = make_gbm(problem, n_paths=2)
    cfg = PicardConfig.from_problem(problem, eps=1.0)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    assert np.max(energy_identity_residual(field, problem, gbm, PHI_SQUARE)) <= 1e-10


def test_energy_identity_phi_linear_reduces_to_weak_form():
    problem = nonlinear_problem(n_steps=24)
    gbm = make_gbm(problem, n_paths=3, seed=37)
    cfg = PicardConfig.from_problem(problem, tol_rel=1e-10, max_iter=30)
    field, _ = solve_gspde_picard(problem, cfg, gbm)
    unit_fn = SpaceTimeTestFunction(lambda t: 1.0, lambda pts: np.ones(pts.shape[0]))
    weak = weak_residual(field, unit_fn, problem, gbm)
    energy = energy_identity_residual(field, problem, gbm, PHI_IDENTITY)
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
        cfg = PicardConfig.from_problem(problem, tol_rel=1e-9, max_iter=30)
        fld, _ = solve_gspde_picard(problem, cfg, gbm)
        res[n] = float(np.sqrt(np.mean(energy_identity_residual(fld, problem, gbm) ** 2)))
    order = np.log2(res[16] / res[64]) / 2.0
    assert order >= 0.4
