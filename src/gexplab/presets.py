"""Named presets for coefficient fields, terminal data, and driver terms.

Drivers are configured by preset name rather than arbitrary code because the
contraction validators need declared Lipschitz constants, which cannot be
inferred from a black box.  Every preset documents its constants:

  reaction f:  |f(y,z) - f(y',z')|^2 <= lip (|y-y'|^2 + |z-z'|^2)
  noise g:     sum_j |dg^j|^2 <= lip_y |dy|^2 + lip_z |dz|^2

The z slot of a raw driver is the dimensionless argument fed to it.  For the
grid equation the slot carries either the gradient itself (z_mode
"gradient") or the sigma-contracted gradient (z_mode "gradient-sigma", the
Markovian pairing with the backward solver); the sigma mode multiplies the
declared z constant by the upper ellipticity bound.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .hunt import CoefficientField
from .pde import NoiseTerm, ReactionTerm

Z_MODES = ("gradient", "gradient-sigma")


def _require(spec: dict, where: str, keys: tuple, optional: tuple = ()) -> None:
    for k in keys:
        if k not in spec:
            raise ConfigError(f"{where}.{k}", "missing required key")
    allowed = set(keys) | set(optional) | {"preset"}
    for k in spec:
        if k not in allowed:
            raise ConfigError(f"{where}.{k}", "unknown key")


# -- coefficient fields -------------------------------------------------------

def build_field(spec: dict, dim: int, where: str = "coefficient_field") -> CoefficientField:
    preset = spec.get("preset")
    if preset == "constant":
        _require(spec, where, ("value",))
        c = float(spec["value"])
        if c <= 0.0:
            raise ConfigError(f"{where}.value", "must be positive")

        def a(pts):
            return np.broadcast_to(c * np.eye(dim), (pts.shape[0], dim, dim)).copy()

        return CoefficientField(dim, a, c, c, drift=lambda p: np.zeros_like(p),
                                name="constant")
    if preset == "sinusoidal-1d":
        _require(spec, where, ("base", "amplitude"), optional=("frequency",))
        base = float(spec["base"])
        amp = float(spec["amplitude"])
        freq = float(spec.get("frequency", 1.0))
        if dim != 1:
            raise ConfigError(where, "sinusoidal-1d needs a 1-D domain")
        if not (0.0 <= amp < base):
            raise ConfigError(f"{where}.amplitude", "need 0 <= amplitude < base")

        def a(pts):
            return (base + amp * np.sin(freq * pts[:, 0]))[:, None, None]

        def drift(pts):
            return (amp * freq * np.cos(freq * pts[:, 0]))[:, None]

        return CoefficientField(1, a, base - amp, base + amp, drift=drift,
                                name="sinusoidal-1d")
    if preset == "diagonal-2d":
        _require(spec, where, ("base", "amplitude"), optional=("frequency",))
        base = np.broadcast_to(np.asarray(spec["base"], float), (2,))
        amp = np.broadcast_to(np.asarray(spec["amplitude"], float), (2,))
        freq = np.broadcast_to(np.asarray(spec.get("frequency", 1.0), float), (2,))
        if dim != 2:
            raise ConfigError(where, "diagonal-2d needs a 2-D domain")
        if np.any(amp < 0) or np.any(base - amp <= 0):
            raise ConfigError(f"{where}.amplitude", "need 0 <= amplitude < base")

        def a(pts):
            out = np.zeros((pts.shape[0], 2, 2))
            out[:, 0, 0] = base[0] + amp[0] * np.sin(freq[0] * pts[:, 0])
            out[:, 1, 1] = base[1] + amp[1] * np.sin(freq[1] * pts[:, 1])
            return out

        def drift(pts):
            out = np.zeros_like(pts)
            out[:, 0] = amp[0] * freq[0] * np.cos(freq[0] * pts[:, 0])
            out[:, 1] = amp[1] * freq[1] * np.cos(freq[1] * pts[:, 1])
            return out

        return CoefficientField(2, a, float(np.min(base - amp)),
                                float(np.max(base + amp)), drift=drift,
                                name="diagonal-2d")
    raise ConfigError(f"{where}.preset", f"unknown coefficient preset {preset!r}")


# -- terminal data -------------------------------------------------------------

def build_terminal(spec: dict, where: str = "terminal"):
    """Callable psi(points) plus a flag for whether it decays at infinity."""
    preset = spec.get("preset")
    if preset == "zero":
        _require(spec, where, ())
        return (lambda pts: np.zeros(pts.shape[0])), True
    if preset == "constant":
        _require(spec, where, ("value",))
        c = float(spec["value"])
        return (lambda pts: np.full(pts.shape[0], c)), c == 0.0
    if preset == "gaussian-bump":
        _require(spec, where, (), optional=("amplitude", "width", "center"))
        amp = float(spec.get("amplitude", 1.0))
        width = float(spec.get("width", 1.0))
        center = float(spec.get("center", 0.0))
        if width <= 0:
            raise ConfigError(f"{where}.width", "must be positive")

        def fn(pts):
            return amp * np.exp(-0.5 * np.sum((pts - center) ** 2, axis=1) / width**2)

        return fn, True
    if preset == "cosine":
        _require(spec, where, (), optional=("amplitude", "frequency"))
        amp = float(spec.get("amplitude", 1.0))
        freq = float(spec.get("frequency", 1.0))
        return (lambda pts: amp * np.cos(freq * pts[:, 0])), False
    raise ConfigError(f"{where}.preset", f"unknown terminal preset {preset!r}")


# -- drivers ---------------------------------------------------------------------

class RawDriver:
    """Driver callable fn(t, x_points, y, z_slot) with split constants."""

    def __init__(self, fn, lip_y_sq: float, lip_z_sq: float, n_components: int = 0,
                 name: str = "custom"):
        self.fn = fn
        self.lip_y_sq = float(lip_y_sq)
        self.lip_z_sq = float(lip_z_sq)
        self.n_components = n_components
        self.name = name


def _profile(spec: dict, where: str):
    """Optional spatial envelope |profile| <= 1 scaling a driver."""
    width = spec.get("x_width")
    if width is None:
        return (lambda pts: 1.0), 1.0
    width = float(width)
    if width <= 0:
        raise ConfigError(f"{where}.x_width", "must be positive")
    return (lambda pts: np.exp(-0.5 * (pts[:, 0] / width) ** 2)), 1.0


def build_raw_reaction(spec: dict, dim: int, where: str = "reaction") -> RawDriver:
    preset = spec.get("preset")
    if preset == "zero":
        _require(spec, where, ())
        return RawDriver(lambda t, p, y, z: np.zeros_like(y), 0.0, 0.0, name="zero")
    if preset == "constant":
        _require(spec, where, ("value",), optional=("x_width",))
        c = float(spec["value"])
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            return c * prof(p) * np.ones_like(y)

        return RawDriver(fn, 0.0, 0.0, name="constant")
    if preset == "affine-y":
        _require(spec, where, ("slope",), optional=("intercept", "x_width"))
        a0 = float(spec.get("intercept", 0.0))
        a1 = float(spec["slope"])
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            return prof(p) * (a0 + a1 * y)

        return RawDriver(fn, a1**2, 0.0, name="affine-y")
    if preset == "sin-in-x":
        _require(spec, where, ("amplitude",), optional=("frequency", "x_width"))
        amp = float(spec["amplitude"])
        freq = float(spec.get("frequency", 1.0))
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            return amp * np.sin(freq * p[:, 0]) * prof(p) * np.ones_like(y)

        return RawDriver(fn, 0.0, 0.0, name="sin-in-x")
    if preset == "tanh-y":
        _require(spec, where, ("scale",), optional=("gain", "x_width"))
        scale = float(spec["scale"])
        gain = float(spec.get("gain", 1.0))
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            return scale * prof(p) * np.tanh(gain * y)

        return RawDriver(fn, (scale * gain) ** 2, 0.0, name="tanh-y")
    if preset == "sin-y":
        _require(spec, where, ("scale",), optional=("gain", "x_width"))
        scale = float(spec["scale"])
        gain = float(spec.get("gain", 1.0))
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            return scale * prof(p) * np.sin(gain * y)

        return RawDriver(fn, (scale * gain) ** 2, 0.0, name="sin-y")
    if preset == "tanh-y-sin-z":
        _require(spec, where, ("y_scale", "z_scale"),
                 optional=("y_gain", "z_gain", "x_width"))
        ys, zs = float(spec["y_scale"]), float(spec["z_scale"])
        yg, zg = float(spec.get("y_gain", 1.0)), float(spec.get("z_gain", 1.0))
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            zeta = np.sum(z, axis=-1)
            return prof(p) * (ys * np.tanh(yg * y) + zs * np.sin(zg * zeta))

        # |df|^2 <= 2 (ys yg)^2 |dy|^2 + 2 (zs zg)^2 dim |dz|^2.
        lip = 2.0 * max((ys * yg) ** 2, (zs * zg) ** 2 * dim)
        return RawDriver(fn, lip, lip, name="tanh-y-sin-z")
    raise ConfigError(f"{where}.preset", f"unknown reaction preset {preset!r}")


def build_raw_noise(spec: dict, dim: int, n_components: int,
                    where: str = "noise") -> RawDriver:
    preset = spec.get("preset")
    if preset == "zero":
        _require(spec, where, ())

        def fn(t, p, y, z):
            return np.zeros(np.shape(y) + (n_components,))

        return RawDriver(fn, 0.0, 0.0, n_components, name="zero")
    if preset == "constant":
        _require(spec, where, ("values",), optional=("x_width",))
        vals = np.broadcast_to(np.asarray(spec["values"], float), (n_components,))
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            base = np.multiply.outer(np.ones_like(y), vals)
            pr = prof(p)
            return base * (pr[..., None] if np.ndim(pr) else pr)

        return RawDriver(fn, 0.0, 0.0, n_components, name="constant")
    if preset == "deterministic-x":
        _require(spec, where, ("amplitude",), optional=("width", "center"))
        amp = float(spec["amplitude"])
        width = float(spec.get("width", 1.0))
        center = float(spec.get("center", 0.0))

        def fn(t, p, y, z):
            prof = amp * np.exp(-0.5 * np.sum((p - center) ** 2, axis=1) / width**2)
            return np.multiply.outer(np.ones_like(y) * prof, np.ones(n_components))

        return RawDriver(fn, 0.0, 0.0, n_components, name="deterministic-x")
    if preset == "tanh-y-sin-z":
        _require(spec, where, ("y_scale", "z_scale"),
                 optional=("y_gain", "z_gain", "x_width"))
        ys = np.broadcast_to(np.asarray(spec["y_scale"], float), (n_components,))
        zs = np.broadcast_to(np.asarray(spec["z_scale"], float), (n_components,))
        yg, zg = float(spec.get("y_gain", 1.0)), float(spec.get("z_gain", 1.0))
        prof, _ = _profile(spec, where)

        def fn(t, p, y, z):
            zeta = np.sum(z, axis=-1)
            ty = np.tanh(yg * y)
            sz = np.sin(zg * zeta)
            pr = prof(p)
            comps = [pr * (ys[j] * ty + zs[j] * sz) for j in range(n_components)]
            return np.stack(comps, axis=-1)

        lip_y = 2.0 * float(np.sum((ys * yg) ** 2))
        lip_z = 2.0 * float(np.sum((zs * zg) ** 2)) * dim
        return RawDriver(fn, lip_y, lip_z, n_components, name="tanh-y-sin-z")
    raise ConfigError(f"{where}.preset", f"unknown noise preset {preset!r}")


def _sigma_composer(field: CoefficientField):
    """z -> z sigma(x) with a one-slot cache: the grid solvers always call
    with the same point set, and batched square roots are the costly part.
    The cache hits only on a point set equal to a copy of the cached one."""
    cache = [None]

    def compose(pts, z):
        hit = cache[0]
        if hit is None or not np.array_equal(hit[0], pts):
            hit = cache[0] = (np.array(pts), field.sigma_at(pts))
        return np.einsum("...nd,ndk->...nk", z, hit[1])

    return compose


def reaction_term(raw: RawDriver, field: CoefficientField, z_mode: str) -> ReactionTerm:
    if z_mode not in Z_MODES:
        raise ConfigError("z_mode", f"must be one of {Z_MODES}")
    if z_mode == "gradient":
        return ReactionTerm(raw.fn, max(raw.lip_y_sq, raw.lip_z_sq), raw.name)
    compose = _sigma_composer(field)

    def fn(t, pts, y, z):
        return raw.fn(t, pts, y, compose(pts, z))

    lip = max(raw.lip_y_sq, raw.lip_z_sq * field.lam_max)
    return ReactionTerm(fn, lip, raw.name + "@sigma")


def noise_term(raw: RawDriver, field: CoefficientField, z_mode: str) -> NoiseTerm:
    if z_mode not in Z_MODES:
        raise ConfigError("z_mode", f"must be one of {Z_MODES}")
    if z_mode == "gradient":
        return NoiseTerm(raw.fn, raw.n_components, raw.lip_y_sq, raw.lip_z_sq, raw.name)
    compose = _sigma_composer(field)

    def fn(t, pts, y, z):
        return raw.fn(t, pts, y, compose(pts, z))

    return NoiseTerm(fn, raw.n_components, raw.lip_y_sq,
                     raw.lip_z_sq * field.lam_max, raw.name + "@sigma")


def shifted_reaction(term: ReactionTerm, shift: float) -> ReactionTerm:
    """Additive constant shift; Lipschitz constants are unchanged."""
    if shift == 0.0:
        return term

    def fn(t, pts, y, z):
        return np.asarray(term.fn(t, pts, y, z)) + shift

    return ReactionTerm(fn, term.lip_sq, f"{term.name}+{shift:g}")


# -- deterministic integrands for the backward-integral checks ------------------

def integrand_values(name: str, times: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic integrand slots (n_slots, dim) for the named preset."""
    n = times.shape[0]
    if name == "constant":
        return np.ones((n, dim))
    if name == "step":
        out = np.ones((n, dim))
        horizon = times[-1] if times[-1] > 0 else 1.0
        out[times > 0.5 * horizon] = 2.0
        return out
    if name == "sin-t":
        horizon = times[-1] if times[-1] > 0 else 1.0
        base = 1.0 + 0.5 * np.sin(2.0 * np.pi * times / horizon)
        return np.tile(base[:, None], (1, dim))
    raise ConfigError("gbm_check.integrands", f"unknown integrand preset {name!r}")
