from dataclasses import replace

import numpy as np
import pytest

from gexplab.errors import NumericalError, UsageError
from gexplab.gbm import TimeGrid
from gexplab.hunt import (
    CoefficientField,
    InitialLaw,
    empirical_bracket,
    forward_integral,
    forward_integral_diagnostics,
    simulate_hunt,
)
from gexplab.hunt import _ndtr, _sqrt_spd_batch
from oracles import bracket_curves, fd_drift


def constant_field(value, dim=1):
    def a(pts):
        return np.broadcast_to(value * np.eye(dim), (pts.shape[0], dim, dim)).copy()

    return CoefficientField(dim, a, value, value, drift=lambda p: np.zeros_like(p),
                            name="constant")


def sin_field(base=0.75, amp=0.375):
    # a(x) = base + amp * sin^2(x) in d = 1 (the bracket-test coefficient).
    def a(pts):
        return (base + amp * np.sin(pts[:, 0]) ** 2)[:, None, None]

    def drift(pts):
        return (2.0 * amp * np.sin(pts[:, 0]) * np.cos(pts[:, 0]))[:, None]

    return CoefficientField(1, a, base, base + amp, drift=drift, name="sin")


def test_sqrt_spd_identity_and_diagonal():
    roots = _sqrt_spd_batch(np.stack([np.eye(2), np.diag([4.0, 9.0])]))
    assert np.allclose(roots[0], np.eye(2), atol=1e-14)
    assert np.allclose(roots[1], np.diag([2.0, 3.0]), atol=1e-14)
    assert np.array_equal(_sqrt_spd_batch(np.full((3, 1, 1), 4.0)), np.full((3, 1, 1), 2.0))


def test_sqrt_spd_random_spd_eigen_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        a = m @ m.T + 0.1 * np.eye(4)
        s = _sqrt_spd_batch(a[None])[0]
        assert np.allclose(s, s.T, atol=1e-12)
        assert np.linalg.norm(s @ s - a) <= 1e-10


def test_sqrt_spd_rejects_indefinite():
    with pytest.raises(NumericalError):
        _sqrt_spd_batch(np.diag([1.0, -1e-6])[None])


def test_constant_half_variance():
    # a = I/2 from a point start: Var(X_t - x0) = 2 a t = t per coordinate.
    grid = TimeGrid(1.0, 64)
    paths = simulate_hunt(constant_field(0.5), InitialLaw("point", [0.3]),
                          grid, 10_000, seed=4)
    var = float(np.var(paths.x[:, -1, 0] - 0.3, ddof=1))
    assert abs(var - 1.0) < 0.05
    # Constant coefficients: the recorded increments reconstruct X exactly.
    assert np.allclose(paths.x[:, -1] - paths.x[:, 0], paths.dm.sum(axis=1), atol=1e-12)


def test_finite_difference_drift_matches_analytic():
    field = sin_field()
    pts = np.linspace(-2.0, 2.0, 41)[:, None]
    assert np.allclose(fd_drift(field.a, 1)(pts), field.drift_at(pts), atol=1e-8)


def test_dm_constructional_identity():
    grid = TimeGrid(0.5, 16)
    field = sin_field()
    rng = np.random.default_rng(8)
    dw = rng.standard_normal((32, 16, 1)) * np.sqrt(grid.dt)
    paths = simulate_hunt(field, InitialLaw("point", [0.0]), grid, 32, seed=0, dw=dw)
    for i in range(16):
        sig = field.sigma_at(paths.x[:, i])
        expected = np.sqrt(2.0) * np.einsum("pab,pb->pa", sig, dw[:, i])
        assert np.array_equal(paths.dm[:, i], expected)


def test_forward_integral_basics():
    grid = TimeGrid(1.0, 8)
    paths = simulate_hunt(constant_field(0.5), InitialLaw("point", [0.0]),
                          grid, 16, seed=9)
    zero = forward_integral(np.zeros((8, 1)), paths)
    assert np.all(zero == 0.0)
    one_step = simulate_hunt(constant_field(0.5), InitialLaw("point", [0.0]),
                             TimeGrid(1.0, 1), 16, seed=9)
    phi = np.array([[1.7]])
    out = forward_integral(phi, one_step)
    assert np.allclose(out[:, 1], 1.7 * one_step.dm[:, 0, 0], atol=1e-14)
    with pytest.raises(UsageError):
        forward_integral(np.ones((8, 2)), paths)


def test_forward_integral_checks_the_per_path_count():
    # A per-path integrand for 3 paths on an ensemble of 5 is a usage error,
    # not a failed broadcast; one row stands for every path.
    grid = TimeGrid(1.0, 8)
    field = constant_field(0.5)
    paths = simulate_hunt(field, InitialLaw("point", [0.0]), grid, 5, seed=9)
    for integrate in (forward_integral,
                      lambda phi, paths: forward_integral_diagnostics(phi, paths, field)):
        with pytest.raises(UsageError, match="does not match the path count"):
            integrate(np.ones((3, 8, 1)), paths)
    assert np.array_equal(forward_integral(np.ones((1, 9, 1)), paths),
                          forward_integral(np.ones((8, 1)), paths))


def test_forward_integral_variance_sandwich():
    # phi = e1, a = c I: Var(int phi . dM) = 2 c T.
    c, t_hor = 0.7, 1.0
    grid = TimeGrid(t_hor, 32)
    paths = simulate_hunt(constant_field(c), InitialLaw("point", [0.0]),
                          grid, 20_000, seed=12)
    rep = forward_integral_diagnostics(np.ones((32, 1)), paths, constant_field(c))
    assert abs(rep.mean_total) <= 3.0 * rep.se_mean
    assert abs(rep.var_mc - 2.0 * c * t_hor) <= 3.0 * rep.se_var
    assert rep.sandwich_ok
    assert rep.model_variance == pytest.approx(2.0 * c * t_hor, rel=1e-12)


def test_bracket_constant_diagonal_and_offdiagonal():
    field = constant_field(0.5, dim=2)
    grid = TimeGrid(1.0, 64)
    paths = simulate_hunt(field, InitialLaw("point", [0.0, 0.0]), grid, 8000, seed=17)
    rep = empirical_bracket(paths, field)
    empirical, model = bracket_curves(paths, field)
    # Diagonal: <M^11>_T = 2 * 0.5 * T = T.
    assert abs(empirical[-1, 0, 0] - 1.0) < 0.05
    emp_d, mod_d = (np.diagonal(curve, axis1=1, axis2=2) for curve in (empirical, model))
    assert rep.max_rel_dev_diag == pytest.approx(np.max(np.abs(emp_d - mod_d) / mod_d),
                                                 rel=1e-9)
    assert rep.max_rel_dev_diag < 0.05
    assert rep.offdiag_ok


def test_bracket_variable_coefficient_self_consistency():
    field = sin_field()
    grid = TimeGrid(1.0, 512)
    paths = simulate_hunt(field, InitialLaw("point", [0.0]), grid, 4000, seed=19)
    rep = empirical_bracket(paths, field)
    assert rep.max_rel_dev_diag < 0.05


def test_gaussian_initial_weights_estimate_lebesgue_integral():
    # Weighted h(X_0) average estimates int_box h dx for a == const.
    grid = TimeGrid(0.1, 2)
    box = ([-2.0], [2.0])
    paths = simulate_hunt(constant_field(0.5), InitialLaw("gaussian", box=box),
                          grid, 40_000, seed=23)
    h = np.cos(paths.x[:, 0, 0])
    est = float(np.mean(h * paths.weights))
    exact = 2.0 * np.sin(2.0)  # int_{-2}^{2} cos = 2 sin 2
    se = float(np.std(h * paths.weights, ddof=1) / np.sqrt(paths.n_paths))
    assert abs(est - exact) <= 3.0 * se
    assert np.all(paths.weights > 0.0)
    assert np.all(np.abs(paths.x[:, 0, 0]) <= 2.0)


def test_normal_cdf_matches_scipy_up_to_the_tail_conditioning():
    # Both evaluate erfc at a rounded -x / sqrt 2, and erfc scales that
    # rounding by about x^2 in the left tail, so two faithful evaluations
    # differ by a few ulp times 1 + x^2.
    from scipy.special import ndtr

    x = np.linspace(-37.0, 8.0, 4501)
    ref = ndtr(x)
    ours = np.array([_ndtr(v) for v in x])
    assert np.all(np.abs(ours - ref) <= 4.0 * (1.0 + x**2) * np.spacing(ref))


def test_non_psd_coefficient_aborts_with_location():
    def bad_a(pts):
        return (0.5 - 0.2 * pts[:, 0] ** 2)[:, None, None]

    field = CoefficientField(1, bad_a, 0.1, 1.0, drift=lambda p: np.zeros_like(p))
    with pytest.raises(NumericalError, match="step"):
        simulate_hunt(field, InitialLaw("point", [3.0]), TimeGrid(1.0, 4), 8, seed=1)


@pytest.mark.parametrize("field", [sin_field(), constant_field(0.5, 2)], ids=["sin-1d", "2d"])
def test_paths_are_stored_slot_by_slot(field):
    # Each time slot of x and dm is a contiguous (n_paths, dim) view, and the
    # reports that sum over paths give the floats they give on a path-major
    # C-contiguous copy of the same ensemble: the summation order is kept.
    grid = TimeGrid(1.0, 256)
    paths = simulate_hunt(field, InitialLaw("gaussian"), grid, 1500, seed=29)
    assert all(paths.x[:, i].flags.c_contiguous for i in range(grid.n_steps + 1))
    assert all(paths.dm[:, i].flags.c_contiguous for i in range(grid.n_steps))
    copy = replace(paths, x=np.ascontiguousarray(paths.x), dm=np.ascontiguousarray(paths.dm))
    assert copy.x.flags.c_contiguous and copy.dm.flags.c_contiguous
    assert empirical_bracket(paths, field) == empirical_bracket(copy, field)
    phi = np.cos(np.arange(grid.n_steps * field.dim)).reshape(grid.n_steps, field.dim)
    assert (forward_integral_diagnostics(phi, paths, field)
            == forward_integral_diagnostics(phi, copy, field))
