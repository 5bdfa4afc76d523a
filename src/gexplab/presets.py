"""Named presets for coefficient fields, terminal data, and driver terms.

Drivers are configured by preset name rather than arbitrary code because the
contraction validators need declared Lipschitz constants, which cannot be
inferred from a black box.  Every preset documents its constants:

  reaction f:  |f(y,z) - f(y',z')|^2 <= lip (|y-y'|^2 + |z-z'|^2)
  noise g:     sum_j |dg^j|^2 <= lip_y |dy|^2 + lip_z |dz|^2

Constants and widths are squared as x * x: a float x ** 2 raises
OverflowError past 1e154, where the product is inf, so a huge constant fails
the contraction check and a huge width gives a flat profile.

The z slot of a raw driver is the dimensionless argument fed to it.  For the
grid equation the slot carries the sigma-contracted gradient, the Markovian
pairing with the backward solver's Z sigma, so the declared z constant is
multiplied by the upper ellipticity bound.
"""

from __future__ import annotations

from typing import Annotated, Callable, Literal, Optional

import numpy as np

from ._util import NonNeg, Positive, Presets, Scalars, read
from .errors import ConfigError
from .hunt import CoefficientField
from .pde import NoiseTerm, ReactionTerm

# A preset is a builder listed under its config name in its family's
# ``Presets``; the builder's keyword-only parameters are the preset's keys
# with their types, defaults and bounds.  A config field typed ``FieldPreset``
# (and so on) reads as the builder with the configured keys bound.


def _broadcast(value, n: int, where: str) -> np.ndarray:
    try:
        return np.broadcast_to(np.asarray(value, float), (n,))
    except ValueError:
        raise ConfigError(where, f"needs 1 or {n} values, got {np.size(value)}") from None


# -- coefficient fields: builder(dim, where) -------------------------------------

def _constant_field(dim: int, where: str, *, value: Positive) -> CoefficientField:
    def a(pts):
        return np.broadcast_to(value * np.eye(dim), (pts.shape[0], dim, dim)).copy()

    return CoefficientField(dim, a, value, value, drift=lambda p: np.zeros_like(p),
                            name="constant")


def _sinusoidal_1d_field(dim: int, where: str, *, base: float, amplitude: NonNeg,
                         frequency: float = 1.0) -> CoefficientField:
    amp, freq = amplitude, frequency  # short names for the formulas
    if dim != 1:
        raise ConfigError(where, "sinusoidal-1d needs a 1-D domain")
    if not amp < base:
        raise ConfigError(f"{where}.amplitude", "need 0 <= amplitude < base")

    def a(pts):
        return (base + amp * np.sin(freq * pts[:, 0]))[:, None, None]

    def drift(pts):
        return (amp * freq * np.cos(freq * pts[:, 0]))[:, None]

    return CoefficientField(1, a, base - amp, base + amp, drift=drift, name="sinusoidal-1d")


def _diagonal_2d_field(dim: int, where: str, *, base: Scalars, amplitude: Scalars,
                       frequency: Scalars = 1.0) -> CoefficientField:
    base = _broadcast(base, 2, f"{where}.base")
    amp = _broadcast(amplitude, 2, f"{where}.amplitude")
    freq = _broadcast(frequency, 2, f"{where}.frequency")
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

    return CoefficientField(2, a, float(np.min(base - amp)), float(np.max(base + amp)),
                            drift=drift, name="diagonal-2d")


FieldPreset = Annotated[Callable, Presets({
    "constant": _constant_field, "sinusoidal-1d": _sinusoidal_1d_field,
    "diagonal-2d": _diagonal_2d_field})]


def build_field(spec: dict, dim: int, where: str = "coefficient_field") -> CoefficientField:
    return read(FieldPreset, spec, where)(dim, where)


# -- terminal data: builder() -> (psi(points), whether psi decays at infinity) --

def _zero_terminal():
    return (lambda pts: np.zeros(pts.shape[0])), True


def _constant_terminal(*, value: float):
    return (lambda pts: np.full(pts.shape[0], value)), value == 0.0


def _gaussian_bump_terminal(*, amplitude: float = 1.0, width: Positive = 1.0,
                            center: float = 0.0):
    def fn(pts):
        return amplitude * np.exp(-0.5 * np.sum((pts - center) ** 2, axis=1) / (width * width))

    return fn, True


def _cosine_terminal(*, amplitude: float = 1.0, frequency: float = 1.0):
    return (lambda pts: amplitude * np.cos(frequency * pts[:, 0])), False


TerminalPreset = Annotated[Callable, Presets({
    "zero": _zero_terminal, "constant": _constant_terminal,
    "gaussian-bump": _gaussian_bump_terminal, "cosine": _cosine_terminal})]


def build_terminal(spec: dict, where: str = "terminal"):
    """Callable psi(points) plus a flag for whether it decays at infinity."""
    return read(TerminalPreset, spec, where)()


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


def _envelope(width: Optional[float]):
    """Optional spatial envelope |profile| <= 1 scaling a driver."""
    if width is None:
        return lambda pts: 1.0
    return lambda pts: np.exp(-0.5 * (pts[:, 0] / width) ** 2)


# Reaction presets: builder(dim) -> raw driver f.

def _zero_reaction(dim: int) -> RawDriver:
    return RawDriver(lambda t, p, y, z: np.zeros_like(y), 0.0, 0.0, name="zero")


def _constant_reaction(dim: int, *, value: float,
                       x_width: Optional[Positive] = None) -> RawDriver:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return value * prof(p) * np.ones_like(y)

    return RawDriver(fn, 0.0, 0.0, name="constant")


def _affine_y_reaction(dim: int, *, slope: float, intercept: float = 0.0,
                       x_width: Optional[Positive] = None) -> RawDriver:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return prof(p) * (intercept + slope * y)

    return RawDriver(fn, slope * slope, 0.0, name="affine-y")


def _sin_in_x_reaction(dim: int, *, amplitude: float, frequency: float = 1.0,
                       x_width: Optional[Positive] = None) -> RawDriver:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return amplitude * np.sin(frequency * p[:, 0]) * prof(p) * np.ones_like(y)

    return RawDriver(fn, 0.0, 0.0, name="sin-in-x")


def _tanh_y_reaction(dim: int, *, scale: float, gain: float = 1.0,
                     x_width: Optional[Positive] = None) -> RawDriver:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return scale * prof(p) * np.tanh(gain * y)

    return RawDriver(fn, (scale * gain) * (scale * gain), 0.0, name="tanh-y")


def _sin_y_reaction(dim: int, *, scale: float, gain: float = 1.0,
                    x_width: Optional[Positive] = None) -> RawDriver:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return scale * prof(p) * np.sin(gain * y)

    return RawDriver(fn, (scale * gain) * (scale * gain), 0.0, name="sin-y")


def _tanh_y_sin_z_reaction(dim: int, *, y_scale: float, z_scale: float, y_gain: float = 1.0,
                           z_gain: float = 1.0, x_width: Optional[Positive] = None) -> RawDriver:
    ys, zs, yg, zg = y_scale, z_scale, y_gain, z_gain
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        zeta = np.sum(z, axis=-1)
        return prof(p) * (ys * np.tanh(yg * y) + zs * np.sin(zg * zeta))

    # |df|^2 <= 2 (ys yg)^2 |dy|^2 + 2 (zs zg)^2 dim |dz|^2.
    lip = 2.0 * max((ys * yg) * (ys * yg), (zs * zg) * (zs * zg) * dim)
    return RawDriver(fn, lip, lip, name="tanh-y-sin-z")


ReactionPreset = Annotated[Callable, Presets({
    "zero": _zero_reaction, "constant": _constant_reaction, "affine-y": _affine_y_reaction,
    "sin-in-x": _sin_in_x_reaction, "tanh-y": _tanh_y_reaction, "sin-y": _sin_y_reaction,
    "tanh-y-sin-z": _tanh_y_sin_z_reaction})]


def build_raw_reaction(spec: dict, dim: int, where: str = "reaction") -> RawDriver:
    return read(ReactionPreset, spec, where)(dim)


# Noise presets: builder(dim, n_components, where) -> raw loading g, one
# component per driver coordinate.

def _zero_noise(dim: int, n_components: int, where: str) -> RawDriver:
    def fn(t, p, y, z):
        return np.zeros(np.shape(y) + (n_components,))

    return RawDriver(fn, 0.0, 0.0, n_components, name="zero")


def _constant_noise(dim: int, n_components: int, where: str, *, values: Scalars,
                    x_width: Optional[Positive] = None) -> RawDriver:
    vals = _broadcast(values, n_components, f"{where}.values")
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        base = np.multiply.outer(np.ones_like(y), vals)
        pr = prof(p)
        return base * (pr[..., None] if np.ndim(pr) else pr)

    return RawDriver(fn, 0.0, 0.0, n_components, name="constant")


def _deterministic_x_noise(dim: int, n_components: int, where: str, *, amplitude: float,
                           width: Positive = 1.0, center: float = 0.0) -> RawDriver:
    def fn(t, p, y, z):
        prof = amplitude * np.exp(-0.5 * np.sum((p - center) ** 2, axis=1) / (width * width))
        return np.multiply.outer(np.ones_like(y) * prof, np.ones(n_components))

    return RawDriver(fn, 0.0, 0.0, n_components, name="deterministic-x")


def _tanh_y_sin_z_noise(dim: int, n_components: int, where: str, *, y_scale: Scalars,
                        z_scale: Scalars, y_gain: float = 1.0, z_gain: float = 1.0,
                        x_width: Optional[Positive] = None) -> RawDriver:
    ys = _broadcast(y_scale, n_components, f"{where}.y_scale")
    zs = _broadcast(z_scale, n_components, f"{where}.z_scale")
    yg, zg = y_gain, z_gain
    prof = _envelope(x_width)

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


NoisePreset = Annotated[Callable, Presets({
    "zero": _zero_noise, "constant": _constant_noise,
    "deterministic-x": _deterministic_x_noise, "tanh-y-sin-z": _tanh_y_sin_z_noise})]


def build_raw_noise(spec: dict, dim: int, n_components: int,
                    where: str = "noise") -> RawDriver:
    return read(NoisePreset, spec, where)(dim, n_components, where)


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


def reaction_term(raw: RawDriver, field: CoefficientField) -> ReactionTerm:
    """The grid reaction: ``raw`` with its z slot fed grad u sigma(x)."""
    compose = _sigma_composer(field)

    def fn(t, pts, y, z):
        return raw.fn(t, pts, y, compose(pts, z))

    lip = max(raw.lip_y_sq, raw.lip_z_sq * field.lam_max)
    return ReactionTerm(fn, lip, raw.name + "@sigma")


def noise_term(raw: RawDriver, field: CoefficientField) -> NoiseTerm:
    """The grid noise loading: ``raw`` with its z slot fed grad u sigma(x)."""
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

Integrand = Literal["constant", "step", "sin-t"]


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
