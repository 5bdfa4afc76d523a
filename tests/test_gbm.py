import numpy as np
import pytest

from gexplab.config import default_config, validate_config
from gexplab.errors import UsageError
from gexplab.experiments import run_gbm_check
from gexplab.gbm import (
    TimeGrid,
    backward_integral,
    build_gbm,
    coarsen_driver,
    integral_diagnostics,
    sample_driver,
    slot_integrand,
    stochastic_sums,
)
from gexplab.scenario import (
    ControlSchedule,
    ScenarioSet,
    constant_schedule,
    upper_expectation,
)


def make_paths(matrices, n_paths=2000, n_steps=64, horizon=1.0, seed=101, k=0):
    s = ScenarioSet.from_list(matrices)
    grid = TimeGrid(horizon, n_steps)
    driver = sample_driver(grid, n_paths, s.dim, seed)
    return build_gbm(driver, constant_schedule(k, n_steps), s)


def test_driver_determinism_and_stats():
    grid = TimeGrid(1.0, 1)
    a = sample_driver(grid, 10_000, 2, seed=42)
    b = sample_driver(grid, 10_000, 2, seed=42)
    assert np.array_equal(a.increments, b.increments)
    var = np.var(a.increments, axis=0, ddof=1)
    assert np.all(np.abs(var - grid.dt) < 0.05 * grid.dt)
    assert np.all(np.abs(np.mean(a.increments, axis=0)) < 5e-2)


def test_driver_rejects_zero_paths():
    with pytest.raises(UsageError):
        sample_driver(TimeGrid(1.0, 4), 0, 1, seed=0)


def test_zero_scenario_gives_zero_paths():
    paths = make_paths([[[0.0]]], n_paths=16, n_steps=8)
    assert np.all(paths.db == 0.0)


def test_identity_loading_is_negated_reversed_driver():
    s = ScenarioSet.from_list([[[1.0]]])
    grid = TimeGrid(1.0, 16)
    driver = sample_driver(grid, 8, 1, seed=5)
    paths = build_gbm(driver, constant_schedule(0, 16), s)
    assert np.array_equal(paths.db, -driver.increments[:, ::-1, :])


def test_constructional_identity_mixed_schedule():
    rng = np.random.default_rng(9)
    s = ScenarioSet.from_list([rng.standard_normal((2, 2)) for _ in range(3)])
    grid = TimeGrid(2.0, 12)
    driver = sample_driver(grid, 5, 2, seed=7)
    sched = ControlSchedule(rng.integers(0, 3, size=12))
    paths = build_gbm(driver, sched, s)
    n = grid.n_steps
    for i in range(n):
        beta = s.matrices[sched.indices[i]]
        expected = -driver.increments[:, n - 1 - i, :] @ beta.T
        assert np.array_equal(paths.db[:, i, :], expected)


def test_gbm_variance_scaling():
    # Var(B_0 - B_T) = 4 T for the single scenario beta = [2].
    paths = make_paths([[[2.0]]], n_paths=10_000, n_steps=1, horizon=0.7, seed=3)
    var = float(np.var(backward_integral(np.ones((2, 1)), paths)[:, 0], ddof=1))
    assert abs(var - 4.0 * 0.7) < 0.05 * 4.0 * 0.7


def test_schedule_length_mismatch():
    s = ScenarioSet.from_list([[[1.0]]])
    driver = sample_driver(TimeGrid(1.0, 8), 4, 1, seed=0)
    with pytest.raises(UsageError):
        build_gbm(driver, constant_schedule(0, 9), s)


def test_backward_integral_zero_and_constant():
    paths = make_paths([[[1.0]]], n_paths=32, n_steps=16)
    n = paths.grid.n_steps
    zero = backward_integral(np.zeros((n + 1, 1)), paths)
    assert np.all(zero == 0.0)
    const = backward_integral(np.full((n + 1, 1), 2.5), paths)
    levels = backward_integral(np.ones((n + 1, 1)), paths)
    # Telescoping: I_t = c (B_t - B_T).
    assert np.allclose(const, 2.5 * levels, atol=1e-12)
    assert np.all(const[:, -1] == 0.0)


@pytest.mark.parametrize("matrices", [[[[2.0]], [[0.5]]],
                                      [[[1.0, 0.3], [-0.2, 0.8]], [[0.5, 0.0], [0.4, 1.2]]]])
def test_unit_integrand_integral_is_the_level_from_the_horizon_bitwise(matrices):
    # Of the unit integrand e_k, the backward integral is B^k anchored at
    # B(horizon) = 0: the tail sums of dB^k, taken from the horizon.
    for k in range(len(matrices)):
        paths = make_paths(matrices, n_paths=50, n_steps=64, k=k)
        n, l = paths.grid.n_steps, paths.dim
        for c in range(l):
            unit = np.zeros((n + 1, l))
            unit[:, c] = 1.0
            level = np.zeros((paths.n_paths, n + 1))
            level[:, :n] = np.flip(np.cumsum(np.flip(paths.db[:, :, c], axis=1), axis=1), axis=1)
            assert np.array_equal(backward_integral(unit, paths), level)


def test_backward_integral_two_step_defining_sum():
    # Oracle: direct evaluation of the defining double sum for N = 2.
    paths = make_paths([[[1.3]]], n_paths=6, n_steps=2)
    xi = np.array([[0.0], [0.7], [-1.2]])
    out = backward_integral(xi, paths)
    expected0 = 0.7 * paths.db[:, 0, 0] + (-1.2) * paths.db[:, 1, 0]
    expected1 = (-1.2) * paths.db[:, 1, 0]
    assert np.allclose(out[:, 0], expected0, atol=1e-14)
    assert np.allclose(out[:, 1], expected1, atol=1e-14)
    assert np.all(out[:, 2] == 0.0)


def test_backward_integral_linearity_per_path():
    paths = make_paths([[[1.0]], [[0.5]]], n_paths=11, n_steps=10, k=1)
    rng = np.random.default_rng(0)
    xi1 = rng.standard_normal((11, 11, 1))
    xi2 = rng.standard_normal((11, 1))
    alpha = 1.7
    lhs = backward_integral(alpha * xi1 + xi2, paths)
    rhs = alpha * backward_integral(xi1, paths) + backward_integral(xi2, paths)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("shape", [(8, 2), (1, 8, 2), (5, 8, 2), (9, 3), (5, 9, 1)],
                         ids=["deterministic", "one-path", "per-path", "n+1-l3", "n+1-l1"])
def test_stochastic_sums_are_the_defining_loops_bitwise(shape):
    # Backward: I_N = 0 and I_m = I_{m+1} + xi_{m+1} . dB_m; forward: I_0 = 0
    # and I_{m+1} = I_m + phi_m . dM_m; each product summed over the
    # components in order.
    rng = np.random.default_rng(sum(shape))
    p, n, l = 5, 8, shape[-1]
    increments = rng.standard_normal((p, n, l))
    paths = make_paths([np.eye(l)], n_paths=p, n_steps=n)
    for backward, first in ((True, 1), (False, 0)):
        phi = rng.standard_normal(shape)
        steps = np.broadcast_to(slot_integrand(phi, paths, first), (p, n, l))
        out = np.zeros((p, n + 1))
        order = range(n - 1, -1, -1) if backward else range(n)
        acc = None
        for m in order:
            term = steps[:, m, 0] * increments[:, m, 0]
            for k in range(1, l):
                term = term + steps[:, m, k] * increments[:, m, k]
            acc = term if acc is None else acc + term
            out[:, m if backward else m + 1] = acc
        sums = stochastic_sums(slot_integrand(phi, paths, first), increments, backward)
        assert np.array_equal(sums, out), backward


def test_slot_integrand_takes_the_slots_from_first():
    paths = make_paths([[[1.0]]], n_paths=3, n_steps=4)
    phi = np.arange(5.0)[:, None]
    assert np.array_equal(slot_integrand(phi, paths, 1)[:, 0], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(slot_integrand(phi, paths, 0)[:, 0], [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(slot_integrand(phi[1:], paths, 0), phi[1:])
    with pytest.raises(UsageError, match="4 or 5 time slots"):
        slot_integrand(np.ones((3, 1)), paths, 0)
    with pytest.raises(UsageError, match="path count"):
        slot_integrand(np.ones((2, 4, 1)), paths, 1)


def test_backward_integral_column_mismatch():
    paths = make_paths([np.eye(2)], n_paths=4, n_steps=8)
    with pytest.raises(UsageError):
        backward_integral(np.ones((9, 1)), paths)


def test_diagnostics_zero_integrand():
    paths = make_paths([[[1.0]]], n_paths=64, n_steps=8)
    rep = integral_diagnostics(np.zeros((9, 1)), [paths])
    assert rep.mean_abs_max == 0.0
    assert rep.second_moment == 0.0
    assert rep.isometry_bound == 0.0
    assert rep.mean_zero_ok and rep.isometry_ok and rep.doob_ok


def test_diagnostics_classical_isometry():
    # Singleton family, constant integrand: E[I_0^2] = T exactly.
    t_hor = 0.8
    paths = make_paths([[[1.0]]], n_paths=40_000, n_steps=32, horizon=t_hor, seed=21)
    n = paths.grid.n_steps
    rep = integral_diagnostics(np.ones((n + 1, 1)), [paths])
    assert rep.mean_zero_ok
    assert abs(rep.second_moment - t_hor) < 0.02 * t_hor
    assert rep.isometry_ok and rep.doob_ok


def test_diagnostics_two_scenarios_bound_saturates():
    s = ScenarioSet.from_list([[[1.0]], [[2.0]]])
    grid = TimeGrid(0.5, 16)
    driver = sample_driver(grid, 40_000, 1, seed=33)
    fam = [build_gbm(driver, constant_schedule(k, 16), s) for k in range(2)]
    rep = integral_diagnostics(np.ones((17, 1)), fam)
    # Extremal scenario attains sigma_bar^2 T = 4 T.
    assert rep.sigma_bar == pytest.approx(2.0)
    assert abs(rep.second_moment - 4.0 * 0.5) < 0.03 * 4.0 * 0.5
    assert rep.isometry_bound == pytest.approx(4.0 * 0.5)
    assert rep.isometry_ok and rep.doob_ok and rep.mean_zero_ok


def test_diagnostics_are_upper_expectation_on_the_same_samples():
    # Loading 2 scales every increment, and so every I(t), by exactly 2: the
    # second schedule has four times the moments and the same |mean| to band
    # ratio, a tie the first schedule wins.
    s = ScenarioSet.from_list([[[1.0]], [[2.0]]])
    grid = TimeGrid(0.5, 16)
    driver = sample_driver(grid, 500, 1, seed=5)
    fam = [build_gbm(driver, constant_schedule(k, 16), s) for k in range(2)]
    xi = np.cos(3.0 * grid.times)[:, None]
    rep = integral_diagnostics(xi, fam)
    ints = [backward_integral(xi, paths) for paths in fam]
    first = upper_expectation([i[:, 0] for i in ints])
    second = upper_expectation([i[:, 0] * i[:, 0] for i in ints])
    sup = upper_expectation([np.max(i * i, axis=1) for i in ints])
    assert second.argmax == sup.argmax == 1
    assert rep.second_moment == second.value and rep.sup_moment == sup.value
    for k, record in enumerate(rep.per_scenario):
        assert record["mean_i0"] == first.means[k] and record["se_i0"] == first.std_errors[k]
    assert first.means[1] == 2.0 * first.means[0] != 0.0
    assert rep.mean_abs_max == abs(first.means[0])
    assert rep.mean_band == 3.0 * first.std_errors[0]


@pytest.mark.parametrize("seed,n_paths", [(7, 4000), (11, 4)])
def test_gbm_integral_rows_pass_exactly_when_within_their_tolerance(seed, n_paths):
    # Seed 7 puts isometry[constant] above its bare bound 2.0 but inside the
    # bound widened by 3 standard errors that the check applies; seed 11 with
    # 4 paths fails isometry rows.  Each row prints the tolerance it applies.
    cfg = default_config()
    cfg["seed"] = seed
    cfg["gbm_check"].update(scenario_set={"l": 1, "matrices": [[[1.0]], [[2.0]]]},
                            horizon=0.5, n_steps=16, n_paths=n_paths)
    rows, artifacts = run_gbm_check(validate_config(cfg, ["gbm-integral"]))
    bounds = {f"isometry[{name}]": rep["isometry_bound"]
              for name, rep in artifacts["gbm_report.json"]["checks"].items()}
    iso = [r for r in rows if r.metric in bounds]
    if seed == 7:
        assert any(r.passed and r.value > bounds[r.metric] for r in iso)
    else:
        assert any(not r.passed for r in iso)
    for r in rows:
        assert r.passed == (r.value <= r.tolerance), r


def test_diagnostics_tolerances_decide_both_bounds():
    # sigma_bar is read from the first bundle's scenario set, so a loading-2
    # bundle after a loading-1 one exceeds both bounds.
    fam = [make_paths([[[1.0]]], n_paths=4000, n_steps=16),
           make_paths([[[2.0]]], n_paths=4000, n_steps=16)]
    rep = integral_diagnostics(np.ones((17, 1)), fam)
    assert not rep.isometry_ok and not rep.doob_ok
    for r in (rep, integral_diagnostics(np.ones((17, 1)), fam[:1])):
        assert r.isometry_ok == (r.second_moment <= r.isometry_tolerance)
        assert r.doob_ok == (r.sup_moment <= r.doob_tolerance)
        assert r.isometry_tolerance > r.isometry_bound
        assert r.doob_tolerance > r.doob_bound


def test_time_grid_times_are_computed_once_and_read_only():
    grid = TimeGrid(0.7, 24)
    assert grid.times is grid.times
    assert np.array_equal(grid.times, np.linspace(0.0, 0.7, 25))
    with pytest.raises(ValueError):
        grid.times[0] = 1.0
    assert grid == TimeGrid(0.7, 24)


def test_time_grid_rejects_a_step_that_is_not_positive():
    # Every dt the solvers divide by, the Z scaling (2 dt)^-1 among them,
    # is a grid's horizon / n_steps, so no grid may have dt <= 0.
    for horizon, n_steps in ((0.0, 8), (-0.5, 8), (float("nan"), 8), (0.5, 0)):
        with pytest.raises(UsageError):
            TimeGrid(horizon, n_steps)


def test_quadratic_variation_bounded_by_sigma_bar():
    rng = np.random.default_rng(14)
    s = ScenarioSet.from_list([rng.standard_normal((2, 2)) for _ in range(3)])
    grid = TimeGrid(1.0, 64)
    driver = sample_driver(grid, 4000, 2, seed=15)
    from gexplab.scenario import sigma_bar

    bound = sigma_bar(s) ** 2 * grid.horizon
    sched = ControlSchedule(rng.integers(0, 3, size=64))
    paths = build_gbm(driver, sched, s)
    qv = np.sum(paths.db**2, axis=1)  # per path, per coordinate
    mean = qv.mean(axis=0)
    se = qv.std(axis=0, ddof=1) / np.sqrt(qv.shape[0])
    assert np.all(mean <= bound + 3.0 * se)


def test_refine_and_coarsen_roundtrip():
    # A fine driver coarsened by 4 carries the blockwise sums of its increments.
    fine = sample_driver(TimeGrid(1.0, 32), 5, 2, seed=1)
    back = coarsen_driver(fine, 4)
    assert back.grid == TimeGrid(1.0, 8)
    blocks = sum(fine.increments[:, k::4] for k in range(4))
    assert np.allclose(back.increments, blocks, rtol=0.0, atol=1e-15)
    with pytest.raises(UsageError):
        coarsen_driver(back, 3)
