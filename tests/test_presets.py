import numpy as np
import pytest

from gexplab.errors import ConfigError
from gexplab.hunt import CoefficientField
from gexplab.presets import (
    build_field,
    build_raw_noise,
    build_raw_reaction,
    build_terminal,
    integrand_values,
    noise_term,
    reaction_term,
)


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
    raw_f = build_raw_reaction({"preset": "tanh-y-sin-z", "y_scale": 0.4,
                                "z_scale": 0.3}, 1)
    raw_g = build_raw_noise({"preset": "tanh-y-sin-z", "y_scale": 0.25,
                             "z_scale": 0.5}, 1, 1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(64, 1))
    for _ in range(40):
        y1, y2 = rng.uniform(-3, 3, size=(2, 64))
        z1, z2 = rng.uniform(-3, 3, size=(2, 64, 1))
        df = raw_f.fn(0.1, pts, y1, z1) - raw_f.fn(0.1, pts, y2, z2)
        bound_f = raw_f.lip_y_sq * (y1 - y2) ** 2 + raw_f.lip_z_sq * np.sum((z1 - z2) ** 2, -1)
        assert np.all(df**2 <= bound_f + 1e-12)
        dg = raw_g.fn(0.1, pts, y1, z1) - raw_g.fn(0.1, pts, y2, z2)
        bound_g = raw_g.lip_y_sq * (y1 - y2) ** 2 + raw_g.lip_z_sq * np.sum((z1 - z2) ** 2, -1)
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
    raw_f = build_raw_reaction(spec, 1)
    assert max(raw_f.lip_y_sq, raw_f.lip_z_sq) == np.inf


def test_deterministic_noise_with_huge_width_is_flat():
    raw_g = build_raw_noise({"preset": "deterministic-x", "amplitude": 0.5, "width": 1e200}, 1, 2)
    pts = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.array_equal(raw_g.fn(0.0, pts, np.zeros(7), np.zeros((7, 1))), np.full((7, 2), 0.5))


def test_sigma_mode_scales_z_constant():
    field = build_field({"preset": "constant", "value": 4.0}, 1)
    raw_g = build_raw_noise({"preset": "tanh-y-sin-z", "y_scale": 0.1,
                             "z_scale": 0.2}, 1, 1)
    composed = noise_term(raw_g, field)
    assert composed.lip_y_sq == pytest.approx(raw_g.lip_y_sq)
    assert composed.lip_z_sq == pytest.approx(raw_g.lip_z_sq * 4.0)
    # sigma = 2, so the composed term sees z * 2.
    pts = np.zeros((5, 1))
    y = np.zeros(5)
    z = np.full((5, 1), 0.3)
    assert np.allclose(composed.fn(0.0, pts, y, z), raw_g.fn(0.0, pts, y, 2.0 * z))
    raw_f = build_raw_reaction({"preset": "tanh-y", "scale": 0.5}, 1)
    assert reaction_term(raw_f, field).lip_sq == pytest.approx(0.25)


def test_sigma_cache_misses_on_a_different_point_set():
    field = build_field({"preset": "sinusoidal-1d", "base": 0.75, "amplitude": 0.375}, 1)
    raw_g = build_raw_noise({"preset": "tanh-y-sin-z", "y_scale": 0.1, "z_scale": 0.5}, 1, 1)
    pts = np.linspace(-1.0, 1.0, 5)[:, None]
    moved = pts.copy()
    moved[2, 0] = 0.7  # same shape, first and last coordinates as pts
    y, z = np.zeros(5), np.ones((5, 1))
    term = noise_term(raw_g, field)
    term(0.0, pts, y, z)
    fresh = noise_term(raw_g, field)
    assert np.array_equal(term(0.0, moved, y, z), fresh(0.0, moved, y, z))
    assert np.array_equal(term(0.0, pts, y, z), fresh(0.0, pts, y, z))


def test_integrand_presets_and_unknown_names():
    times = np.linspace(0.0, 1.0, 9)
    for name in ("constant", "step", "sin-t"):
        vals = integrand_values(name, times, 2)
        assert vals.shape == (9, 2) and np.all(np.isfinite(vals))
    with pytest.raises(ConfigError):
        integrand_values("bogus", times, 1)
    with pytest.raises(ConfigError):
        build_raw_reaction({"preset": "bogus"}, 1)
    with pytest.raises(ConfigError):
        build_raw_reaction({"preset": "tanh-y", "scale": 0.1, "extra": 1}, 1)
