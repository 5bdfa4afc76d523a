"""Named presets for coefficient fields, terminal data, and driver terms.

Drivers are configured by preset name rather than arbitrary code because the
contraction validators need declared Lipschitz constants, which cannot be
inferred from a black box.  Every driver preset is a ``pde.ReactionTerm`` or
``pde.NoiseTerm`` and documents its constants:

  reaction f:  |f(y,v) - f(y',v')|^2 <= lip_y |y-y'|^2 + lip_z |v-v'|^2
  noise g:     sum_j |dg^j|^2 <= lip_y |dy|^2 + lip_z |dv|^2

Constants and widths are squared as x * x: a float x ** 2 raises
OverflowError past 1e154, where the product is inf, so a huge constant fails
the contraction check and a huge width gives a flat profile.  Array squares
that overflow give inf without a warning, for the same outcome.
"""

from __future__ import annotations

from typing import Annotated, Callable, Literal, Optional

import numpy as np

from ._util import NonNeg, Positive, Presets, Scalars
from .errors import ConfigError
from .hunt import CoefficientField
from .pde import ZERO_REACTION, NoiseTerm, ReactionTerm, zero_noise

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


# -- terminal data: builder() -> (psi(points), whether psi decays at infinity) --

def _zero_terminal():
    return (lambda pts: np.zeros(pts.shape[0])), True


def _constant_terminal(*, value: float):
    return (lambda pts: np.full(pts.shape[0], value)), value == 0.0


def _half_sq_dist(pts, center, width) -> np.ndarray:
    """0.5 |pts - center|^2 / width^2 per point; inf past the float range."""
    with np.errstate(over="ignore"):
        return 0.5 * np.sum((pts - center) ** 2, axis=1) / (width * width)


def _gaussian_bump_terminal(*, amplitude: float = 1.0, width: Positive = 1.0,
                            center: float = 0.0):
    return (lambda pts: amplitude * np.exp(-_half_sq_dist(pts, center, width))), True


def _cosine_terminal(*, amplitude: float = 1.0, frequency: float = 1.0):
    return (lambda pts: amplitude * np.cos(frequency * pts[:, 0])), False


TerminalPreset = Annotated[Callable, Presets({
    "zero": _zero_terminal, "constant": _constant_terminal,
    "gaussian-bump": _gaussian_bump_terminal, "cosine": _cosine_terminal})]


# -- drivers ---------------------------------------------------------------------

def _envelope(width: Optional[float]):
    """Optional spatial envelope |profile| <= 1 scaling a driver."""
    if width is None:
        return lambda pts: 1.0
    return lambda pts: np.exp(-0.5 * (pts[:, 0] / width) ** 2)


# Reaction presets: builder(dim) -> reaction term f.

def _zero_reaction(dim: int) -> ReactionTerm:
    return ZERO_REACTION


def _constant_reaction(dim: int, *, value: float,
                       x_width: Optional[Positive] = None) -> ReactionTerm:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return value * prof(p) * np.ones_like(y)

    return ReactionTerm(fn, 0.0, 0.0, "constant")


def _affine_y_reaction(dim: int, *, slope: float, intercept: float = 0.0,
                       x_width: Optional[Positive] = None) -> ReactionTerm:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return prof(p) * (intercept + slope * y)

    return ReactionTerm(fn, slope * slope, 0.0, "affine-y")


def _sin_in_x_reaction(dim: int, *, amplitude: float, frequency: float = 1.0,
                       x_width: Optional[Positive] = None) -> ReactionTerm:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return amplitude * np.sin(frequency * p[:, 0]) * prof(p) * np.ones_like(y)

    return ReactionTerm(fn, 0.0, 0.0, "sin-in-x")


def _tanh_y_reaction(dim: int, *, scale: float, gain: float = 1.0,
                     x_width: Optional[Positive] = None) -> ReactionTerm:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return scale * prof(p) * np.tanh(gain * y)

    return ReactionTerm(fn, (scale * gain) * (scale * gain), 0.0, "tanh-y")


def _sin_y_reaction(dim: int, *, scale: float, gain: float = 1.0,
                    x_width: Optional[Positive] = None) -> ReactionTerm:
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        return scale * prof(p) * np.sin(gain * y)

    return ReactionTerm(fn, (scale * gain) * (scale * gain), 0.0, "sin-y")


def _tanh_y_sin_z_reaction(dim: int, *, y_scale: float, z_scale: float, y_gain: float = 1.0,
                           z_gain: float = 1.0, x_width: Optional[Positive] = None) -> ReactionTerm:
    ys, zs, yg, zg = y_scale, z_scale, y_gain, z_gain
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        zeta = np.sum(z, axis=-1)
        return prof(p) * (ys * np.tanh(yg * y) + zs * np.sin(zg * zeta))

    # |df|^2 <= 2 (ys yg)^2 |dy|^2 + 2 (zs zg)^2 dim |dz|^2.
    return ReactionTerm(fn, 2.0 * (ys * yg) * (ys * yg), 2.0 * (zs * zg) * (zs * zg) * dim,
                        "tanh-y-sin-z")


ReactionPreset = Annotated[Callable, Presets({
    "zero": _zero_reaction, "constant": _constant_reaction, "affine-y": _affine_y_reaction,
    "sin-in-x": _sin_in_x_reaction, "tanh-y": _tanh_y_reaction, "sin-y": _sin_y_reaction,
    "tanh-y-sin-z": _tanh_y_sin_z_reaction})]


# Noise presets: builder(dim, n_components, where) -> noise term g, one
# component per driver coordinate.

def _zero_noise(dim: int, n_components: int, where: str) -> NoiseTerm:
    return zero_noise(n_components)


def _constant_noise(dim: int, n_components: int, where: str, *, values: Scalars,
                    x_width: Optional[Positive] = None) -> NoiseTerm:
    vals = _broadcast(values, n_components, f"{where}.values")
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        base = np.multiply.outer(np.ones_like(y), vals)
        pr = prof(p)
        return base * (pr[..., None] if np.ndim(pr) else pr)

    return NoiseTerm(fn, n_components, 0.0, 0.0, "constant")


def _deterministic_x_noise(dim: int, n_components: int, where: str, *, amplitude: float,
                           width: Positive = 1.0, center: float = 0.0) -> NoiseTerm:
    def fn(t, p, y, z):
        prof = amplitude * np.exp(-_half_sq_dist(p, center, width))
        return np.multiply.outer(np.ones_like(y) * prof, np.ones(n_components))

    return NoiseTerm(fn, n_components, 0.0, 0.0, "deterministic-x")


def _tanh_y_sin_z_noise(dim: int, n_components: int, where: str, *, y_scale: Scalars,
                        z_scale: Scalars, y_gain: float = 1.0, z_gain: float = 1.0,
                        x_width: Optional[Positive] = None) -> NoiseTerm:
    ys = _broadcast(y_scale, n_components, f"{where}.y_scale")
    zs = _broadcast(z_scale, n_components, f"{where}.z_scale")
    yg, zg = y_gain, z_gain
    prof = _envelope(x_width)

    def fn(t, p, y, z):
        zeta = np.sum(z, axis=-1)
        ty = np.tanh(yg * y)
        sz = np.sin(zg * zeta)
        pr = np.expand_dims(prof(p), -1)
        return pr * (ty[..., None] * ys + sz[..., None] * zs)

    with np.errstate(over="ignore"):
        lip_y = 2.0 * float(np.sum((ys * yg) ** 2))
        lip_z = 2.0 * float(np.sum((zs * zg) ** 2)) * dim
    return NoiseTerm(fn, n_components, lip_y, lip_z, "tanh-y-sin-z")


NoisePreset = Annotated[Callable, Presets({
    "zero": _zero_noise, "constant": _constant_noise,
    "deterministic-x": _deterministic_x_noise, "tanh-y-sin-z": _tanh_y_sin_z_noise})]


def shifted_reaction(term: ReactionTerm, shift: float) -> ReactionTerm:
    """Additive constant shift; Lipschitz constants are unchanged."""
    if shift == 0.0:
        return term

    def fn(t, pts, y, z):
        return np.asarray(term.fn(t, pts, y, z)) + shift

    return ReactionTerm(fn, term.lip_y_sq, term.lip_z_sq, f"{term.name}+{shift:g}")


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
