import numpy as np
import pytest

from gexplab.errors import UsageError
from gexplab.scenario import (
    ControlSchedule,
    ScenarioSet,
    constant_schedule,
    enumerate_schedules,
    sigma_bar,
    standard_error,
    upper_expectation,
)
from oracles import capacity_estimate, g_function


def test_g_zero_matrix_is_zero():
    s = ScenarioSet.from_list([np.eye(2), 2.0 * np.eye(2)])
    assert g_function(np.zeros((2, 2)), s) == 0.0


def test_g_singleton_identity():
    s = ScenarioSet.from_list([[[1.0]]])
    assert g_function(np.array([[1.0]]), s) == pytest.approx(0.5)


def test_g_two_scenarios_enumeration():
    # Oracle: enumerate 0.5 * tr(beta beta^T A) by hand over the family.
    s = ScenarioSet.from_list([[[1.0]], [[2.0]]])
    expected = max(0.5 * 1.0 * 1.0, 0.5 * 4.0 * 1.0)
    assert expected == 2.0
    assert g_function(np.array([[1.0]]), s) == pytest.approx(2.0)


def test_g_dimension_mismatch():
    s = ScenarioSet.from_list([np.eye(2)])
    with pytest.raises(UsageError):
        g_function(np.array([[1.0]]), s)


def test_g_rejects_asymmetric():
    s = ScenarioSet.from_list([np.eye(2)])
    with pytest.raises(UsageError):
        g_function(np.array([[0.0, 1.0], [0.0, 0.0]]), s)


def test_g_positive_homogeneity_and_sublinearity():
    rng = np.random.default_rng(7)
    s = ScenarioSet.from_list([rng.standard_normal((3, 3)) for _ in range(4)])
    for _ in range(25):
        a = rng.standard_normal((3, 3))
        a = a + a.T
        b = rng.standard_normal((3, 3))
        b = b + b.T
        t = rng.uniform(0.0, 5.0)
        assert g_function(t * a, s) == pytest.approx(t * g_function(a, s), abs=1e-10)
        assert g_function(a + b, s) <= g_function(a, s) + g_function(b, s) + 1e-10


def test_sigma_bar_identity_and_zero():
    assert sigma_bar(ScenarioSet.from_list([np.eye(2)])) == pytest.approx(1.0)
    assert sigma_bar(ScenarioSet.from_list([[[0.0]]])) == pytest.approx(0.0)


def test_sigma_bar_diagonal_eigensolve_oracle():
    # Oracle: eigenvalues of beta beta^T = diag(1, 4) computed independently.
    beta = np.diag([1.0, 2.0])
    top = float(np.max(np.linalg.eigvalsh(beta @ beta.T)))
    assert np.sqrt(top) == pytest.approx(2.0)
    assert sigma_bar(ScenarioSet.from_list([beta])) == pytest.approx(2.0)


def test_sigma_bar_dominates_sampled_directions():
    rng = np.random.default_rng(11)
    s = ScenarioSet.from_list([rng.standard_normal((3, 3)) for _ in range(3)])
    bound = sigma_bar(s) ** 2
    covs = s.covariances()
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert np.max(np.einsum("a,kab,b->k", v, covs, v)) <= bound + 1e-10


def test_upper_expectation_examples():
    assert upper_expectation([[1, 1], [0, 0]]).value == pytest.approx(1.0)
    assert upper_expectation([[2]]).value == pytest.approx(2.0)
    # Hand computation: means are 2 and 2, max = 2.
    r = upper_expectation([[1, 3], [4, 0]])
    assert r.value == pytest.approx(2.0)
    assert r.means == pytest.approx([2.0, 2.0])


def test_upper_expectation_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        base = [rng.standard_normal(30), rng.standard_normal(17)]
        bumped = [b + rng.uniform(0.0, 1.0, size=b.shape) for b in base]
        assert upper_expectation(bumped).value >= upper_expectation(base).value


def test_standard_error_of_one_sample_is_zero():
    assert standard_error(np.array([3.5])) == 0.0
    assert np.array_equal(standard_error(np.full((1, 2, 2), 7.0)), np.zeros((2, 2)))


@pytest.mark.parametrize("n", [2, 3, 17, 1000])
def test_standard_error_is_the_sd_of_the_mean_bitwise(n):
    x = np.random.default_rng(n).standard_normal(n) * 3.0 + 1.0
    assert standard_error(x) == np.std(x, ddof=1) / np.sqrt(n)
    # Over the leading axis only: each entry of a (n, 2, 2) stack on its own.
    stack = np.stack([x, -x, 2.0 * x, x + 1.0], axis=1).reshape(n, 2, 2)
    se = standard_error(stack)
    assert se.shape == (2, 2)
    assert se[1, 0] == 2.0 * se[0, 0]


def test_upper_expectation_rejects_empty():
    with pytest.raises(UsageError):
        upper_expectation([[1.0], []])


def test_capacity_examples():
    assert capacity_estimate([[0, 0], [0, 0, 0]]).value == pytest.approx(0.0)
    assert capacity_estimate([[1, 1], [1]]).value == pytest.approx(1.0)
    assert capacity_estimate([[1, 0, 0, 0], [0, 0, 1, 1]]).value == pytest.approx(0.5)
    with pytest.raises(UsageError):
        capacity_estimate([[0.5, 1.0]])


def test_scenario_set_validation():
    with pytest.raises(UsageError):
        ScenarioSet(np.zeros((0, 2, 2)))
    with pytest.raises(UsageError):
        ScenarioSet(np.zeros((1, 2, 3)))
    with pytest.raises(UsageError):
        ScenarioSet.from_list([[[np.nan]]])


def test_schedules():
    s = ScenarioSet.from_list([[[1.0]], [[2.0]]])
    sched = constant_schedule(1, 8)
    sched.validate_against(s, 8)
    assert sched.constant_index() == 1
    with pytest.raises(UsageError):
        sched.validate_against(s, 9)
    with pytest.raises(UsageError):
        constant_schedule(5, 8).validate_against(s, 8)
    fam = enumerate_schedules(s, 8, n_random=3, seed=0)
    assert len(fam) == 5
    assert fam[0].constant_index() == 0 and fam[1].constant_index() == 1
    mixed = ControlSchedule(np.array([0, 1, 0, 1, 0, 1, 0, 1]))
    assert mixed.constant_index() is None
