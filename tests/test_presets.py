import numpy as np
import pytest

from gexplab.errors import ConfigError
from gexplab.gbm import TimeGrid
from gexplab.hunt import CoefficientField
from gexplab.pde import (
    ZERO_REACTION,
    GspdeProblem,
    SpatialGrid,
    _eval_sources,
    derive_contraction_inputs,
)
from gexplab.presets import (
    build_field,
    build_noise,
    build_reaction,
    build_terminal,
    integrand_values,
)
from gexplab.scenario import ScenarioSet


def test_constant_and_sinusoidal_fields():
    field = build_field({"preset": "constant", "value": 0.7}, 2)
    pts = np.zeros((3, 2))
    assert np.allclose(field.a_at(pts), 0.7 * np.eye(2))
    assert np.allclose(field.drift_at(pts), 0.0)

    sin_field = build_field({"preset": "sinusoidal-1d", "base": 0.75,
                             "amplitude": 0.25, "frequency": 2.0}, 1)
    x = np.linspace(-3, 3, 25)[:, None]
    fd = CoefficientField(1, sin_field.a, sin_field.lam_min, sin_field.lam_max)
    assert np.allclose(sin_field.drift_at(x), fd.drift_at(x), atol=1e-7)
    vals = sin_field.a_at(x)[:, 0, 0]
    assert sin_field.lam_min - 1e-12 <= vals.min() and vals.max() <= sin_field.lam_max + 1e-12


def test_diagonal_2d_field():
    field = build_field({"preset": "diagonal-2d", "base": [1.0, 0.8],
                         "amplitude": [0.2, 0.1], "frequency": [1.0, 2.0]}, 2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(40, 2))
    mats = field.a_at(pts)
    assert np.allclose(mats[:, 0, 1], 0.0)
    fd = CoefficientField(2, field.a, field.lam_min, field.lam_max)
    assert np.allclose(field.drift_at(pts), fd.drift_at(pts), atol=1e-7)
    with pytest.raises(ConfigError):
        build_field({"preset": "diagonal-2d", "base": [1.0, 0.8],
                     "amplitude": [0.2, 0.1]}, 1)


def test_terminal_presets_and_decay_flags():
    fn, decays = build_terminal({"preset": "gaussian-bump", "width": 1.5})
    assert decays
    pts = np.array([[0.0], [10.0]])
    vals = fn(pts)
    assert vals[0] == pytest.approx(1.0) and vals[1] < 1e-9
    _, decays = build_terminal({"preset": "cosine"})
    assert not decays
    _, decays = build_terminal({"preset": "constant", "value": 0.0})
    assert decays


def test_driver_declared_constants_are_honest():
    # Sampled Lipschitz quotients never exceed the declared constants.
    f_term = build_reaction({"preset": "tanh-y-sin-z", "y_scale": 0.4,
                            "z_scale": 0.3}, 1)
    g_term = build_noise({"preset": "tanh-y-sin-z", "y_scale": 0.25,
                         "z_scale": 0.5}, 1, 1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(64, 1))
    for _ in range(40):
        y1, y2 = rng.uniform(-3, 3, size=(2, 64))
        z1, z2 = rng.uniform(-3, 3, size=(2, 64, 1))
        df = f_term.fn(0.1, pts, y1, z1) - f_term.fn(0.1, pts, y2, z2)
        bound_f = f_term.lip_y_sq * (y1 - y2) ** 2 + f_term.lip_z_sq * np.sum((z1 - z2) ** 2, -1)
        assert np.all(df**2 <= bound_f + 1e-12)
        dg = g_term.fn(0.1, pts, y1, z1) - g_term.fn(0.1, pts, y2, z2)
        bound_g = g_term.lip_y_sq * (y1 - y2) ** 2 + g_term.lip_z_sq * np.sum((z1 - z2) ** 2, -1)
        assert np.all(np.sum(dg**2, -1) <= bound_g + 1e-12)


@pytest.mark.parametrize("spec", [
    {"preset": "affine-y", "slope": 1e200},
    {"preset": "tanh-y", "scale": 1e200},
    {"preset": "sin-y", "scale": 0.5, "gain": -1e200},
    {"preset": "tanh-y-sin-z", "y_scale": 1e200, "z_scale": 0.1},
    {"preset": "tanh-y-sin-z", "y_scale": 0.1, "z_scale": 0.1, "z_gain": 1e200},
])
def test_huge_reaction_constant_gives_infinite_lipschitz_bound(spec):
    # A float power of the constant would raise OverflowError instead.
    f_term = build_reaction(spec, 1)
    assert max(f_term.lip_y_sq, f_term.lip_z_sq) == np.inf


def test_deterministic_noise_with_huge_width_is_flat():
    g_term = build_noise({"preset": "deterministic-x", "amplitude": 0.5, "width": 1e200}, 1, 2)
    pts = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.array_equal(g_term.fn(0.0, pts, np.zeros(7), np.zeros((7, 1))), np.full((7, 2), 0.5))


def test_sigma_pairing_scales_z_constant():
    # Both equations read their constants from one derivation, which
    # multiplies the v-slot constants by Lambda = 4.
    field = build_field({"preset": "constant", "value": 4.0}, 1)
    g_term = build_noise({"preset": "tanh-y-sin-z", "y_scale": 0.1,
                         "z_scale": 0.2}, 1, 1)
    f_term = build_reaction({"preset": "tanh-y", "scale": 0.5}, 1)
    scen = ScenarioSet.from_list([[[1.0]]])
    lip, z_coef, sb2, lam = derive_contraction_inputs(f_term, g_term, field, scen)
    assert (sb2, lam) == (1.0, 4.0)
    assert z_coef == pytest.approx(g_term.lip_z_sq * 4.0)
    assert lip == pytest.approx(0.25)  # the reaction constant; g_y is 0.02
    # sigma = 2, so the grid solver feeds the drivers grad u * 2.
    sg = SpatialGrid(1, 8.0, 33, "periodic")
    problem = GspdeProblem(np.zeros(sg.n_nodes), f_term, g_term, field, scen,
                           TimeGrid(0.5, 2), sg)
    pts = sg.points()
    u = np.random.default_rng(3).standard_normal((2, 3, sg.n_nodes))
    f_vals, g_vals = _eval_sources(problem, u, pts)
    grad = sg.gradient(u)
    for j in (1, 2):
        t = problem.time_grid.times[j]
        assert np.allclose(g_vals[j - 1], g_term.fn(t, pts, u[:, j], 2.0 * grad[:, j]))
        assert np.allclose(f_vals[j - 1], f_term.fn(t, pts, u[:, j], 2.0 * grad[:, j]))


def test_zero_presets_are_the_zero_terms():
    assert build_reaction({"preset": "zero"}, 1) is ZERO_REACTION
    zero_g = build_noise({"preset": "zero"}, 1, 2)
    assert (zero_g.name, zero_g.n_components, zero_g.lip_y_sq, zero_g.lip_z_sq) == ("zero", 2, 0.0, 0.0)


def test_integrand_presets_and_unknown_names():
    times = np.linspace(0.0, 1.0, 9)
    for name in ("constant", "step", "sin-t"):
        vals = integrand_values(name, times, 2)
        assert vals.shape == (9, 2) and np.all(np.isfinite(vals))
    with pytest.raises(ConfigError):
        integrand_values("bogus", times, 1)
    with pytest.raises(ConfigError):
        build_reaction({"preset": "bogus"}, 1)
    with pytest.raises(ConfigError):
        build_reaction({"preset": "tanh-y", "scale": 0.1, "extra": 1}, 1)
