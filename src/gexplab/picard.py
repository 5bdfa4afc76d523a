"""The fixed-point engine behind both solvers.

Existence and uniqueness for the grid equation and for the backward doubly
stochastic equation rest on one argument: a Picard map contracts with
constant kappa < 1 in an exponentially weighted space-time norm.  This
module holds that argument once: the contraction constants and the config
built from them, the weighted left-endpoint quadrature the norms are built
on, and the check of the contraction at the fixed point with its report.
A solver supplies its four contraction inputs and a Picard sweep: its
backward recursion with the drivers frozen at a given iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, UsageError

# Without a configured epsilon, kappa is held at or below 1 - KAPPA_MARGIN.
KAPPA_MARGIN = 0.1
# The check has converged when the residual |Phi(u*) - u*| is at most this
# fraction of |u*|; at the explicit solution the residual is exactly 0.
RESIDUAL_TOL = 1e-6


def contraction_constants(lip: float, z_coef: float, sigma_bar_sq: float, lam: float,
                          eps: Optional[float] = None) -> tuple[float, float, float, float]:
    """(eps, rate, delta, kappa) of the fixed-point argument.

    kappa = (lip eps + z_coef) / (2 lam) < 1, delta = lip (sigma_bar^2 + eps)
    / (lip eps + z_coef) and rate = 1/eps + 2 lam delta, the exponent of the
    norm weight.  Without ``eps`` the largest epsilon keeping kappa at or
    below 1 - KAPPA_MARGIN is taken, aiming at the midpoint of the gap when
    that is thinner than the margin; with lip = 0 kappa does not depend on eps.
    """
    if eps is None:
        if lip <= 0.0:
            eps = 1.0
        else:
            target = max(1.0 - KAPPA_MARGIN, 0.5 * (1.0 + z_coef / (2.0 * lam)))
            eps = (2.0 * lam * target - z_coef) / lip
    if eps <= 0.0:
        raise UsageError("epsilon must be positive")
    kappa = (lip * eps + z_coef) / (2.0 * lam)
    if kappa >= 1.0:
        raise UsageError(f"kappa = {kappa:.6g} >= 1; decrease epsilon")
    delta = lip * (sigma_bar_sq + eps) / (lip * eps + z_coef) if lip > 0 else 1.0
    return eps, 1.0 / eps + 2.0 * lam * delta, delta, kappa


def weighted_quadrature(density: np.ndarray, rate: float, times: np.ndarray) -> float:
    """E int e^{rate (s - T)} density(s) ds from a density at the left-endpoint
    slots t_0 .. t_{N-1}, shaped (paths, N), with T = t_N.

    Each slot carries the exact step weight int_{t_i}^{t_{i+1}} e^{rate (s - T)}
    ds, so time-constant densities integrate exactly; the expectation is the
    mean over paths.  The weight is taken relative to e^{rate T}, which
    overflows long before the norm does; every ratio of two norms is that of
    the weights e^{rate s}.
    """
    t0, t1, horizon = times[:-1], times[1:], times[-1]
    w = (t1 - t0 if abs(rate) < 1e-300
         else (np.exp(rate * (t1 - horizon)) - np.exp(rate * (t0 - horizon))) / rate)
    return float(np.mean(np.sum(density * w, axis=1)))


@dataclass(frozen=True)
class PicardConfig:
    """Constants of the fixed-point argument and the seed of the check.

    ``rate`` is the exponent of the norm weight: gamma for the grid
    equation, beta for the backward one.  ``problem`` is anything with
    ``contraction_inputs() -> (lip, z_coef, sigma_bar_sq, lam)``.  ``seed``
    draws the perturbation of ``check_fixed_point``.
    """

    eps: float
    rate: float
    delta: float
    kappa: float
    seed: int = 0

    @classmethod
    def from_problem(cls, problem, eps: Optional[float] = None, seed: int = 0) -> "PicardConfig":
        return cls(*contraction_constants(*problem.contraction_inputs(), eps), seed)

    def validate_against(self, problem) -> None:
        """Raise unless (eps, rate, delta, kappa) are ``problem``'s constants
        at this eps, so the norms and the reported kappa are its own."""
        own = contraction_constants(*problem.contraction_inputs(), self.eps)
        if own != (self.eps, self.rate, self.delta, self.kappa):
            raise UsageError(f"config was built for another problem: its kappa is "
                             f"{self.kappa:.6g}, the problem's is {own[3]:.6g} at eps = "
                             f"{self.eps:.6g}")


@dataclass(frozen=True)
class PicardReport:
    """What the contraction check of one solution measured."""

    converged: bool
    increments: tuple
    ratios: tuple
    final_norm: float

    @property
    def iterations(self) -> int:
        return len(self.increments)


def check_fixed_point(sweep, perturbation, times: np.ndarray) -> PicardReport:
    """The paper's contraction, tested at the explicit solution u*, the fixed
    point of the Picard map Phi, by three sweeps.

    ``sweep(scale)`` runs one Picard sweep with the drivers frozen at the
    iterate w whose slot i is ``scale(i)`` times slot i of u*, and returns the
    norms of Phi(w) - u* and of w - u*, in the power in which the map
    contracts: the squared (gamma, delta) functional for the grid equation,
    the (beta, delta)-norm for the backward one.  The scale is 0 for w = 0,
    1 for w = u*, and 1 + r_i ``perturbation``, r_i = (T - t_i) / T, for
    w = u* + h, whose h vanishes at slot N; at slot N it is the scalar 0 or 1.

    ``increments`` are |Phi(0) - u*|, |Phi(u* + h) - u*| and the residual
    |Phi(u*) - u*|, ``ratios`` are rho(-u*) = |Phi(0) - u*| / |u*| and
    rho(h) = |Phi(u* + h) - u*| / |h|, 0 where the perturbation has norm 0
    (the distance is then the residual's), ``final_norm`` is |u*|, and the
    check has converged when the residual is at most RESIDUAL_TOL |u*|.
    Raises NumericalError carrying the report when a norm is not finite.
    """
    n, ramp = len(times) - 1, (times[-1] - times) / times[-1]
    increments, sizes = [], []

    def scale(a, b):
        return lambda i: a + ramp[i] * b if i < n else a

    def report(converged: bool) -> PicardReport:
        ratios = tuple(inc / size if size > 0.0 else 0.0
                       for inc, size in zip(increments[:2], sizes))
        return PicardReport(converged, tuple(increments), ratios, sizes[0])

    for a, b in ((0.0, 0.0), (1.0, perturbation), (1.0, 0.0)):
        inc, size = sweep(scale(a, b))
        increments.append(inc)
        sizes.append(size)
        if not (math.isfinite(inc) and math.isfinite(size)):
            raise NumericalError(
                f"Picard check sweep {len(increments)} produced a non-finite norm "
                f"(distance {inc:.3e}, perturbation {size:.3e})", report=report(False))
    return report(increments[2] <= RESIDUAL_TOL * max(sizes[0], 1e-300))
