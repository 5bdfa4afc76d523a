"""The fixed-point engine behind both solvers.

Existence and uniqueness for the grid equation and for the backward doubly
stochastic equation rest on one argument: a Picard map contracts with
constant kappa < 1 in an exponentially weighted space-time norm.  This
module holds that argument once: the contraction constants and the config
built from them, the weighted left-endpoint quadrature the norms are built
on, and the iteration loop with its report.  A solver supplies its four
contraction inputs and its backward recursion; a Picard sweep is that
recursion with the drivers read at the previous iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, UsageError

# Without a configured epsilon, kappa is held at or below 1 - KAPPA_MARGIN.
KAPPA_MARGIN = 0.1


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
    """E int e^{rate s} density(s) ds from a density at the left-endpoint
    slots t_0 .. t_{N-1}, shaped (paths, N).

    Each slot carries the exact step weight int_{t_i}^{t_{i+1}} e^{rate s} ds,
    so time-constant densities integrate exactly; the expectation is the
    mean over paths.
    """
    t0, t1 = times[:-1], times[1:]
    w = t1 - t0 if abs(rate) < 1e-300 else (np.exp(rate * t1) - np.exp(rate * t0)) / rate
    return float(np.mean(np.sum(density * w, axis=1)))


@dataclass(frozen=True)
class PicardConfig:
    """Constants of the fixed-point argument plus iteration controls.

    ``rate`` is the exponent of the norm weight: gamma for the grid
    equation, beta for the backward one.  ``problem`` is anything with
    ``contraction_inputs() -> (lip, z_coef, sigma_bar_sq, lam)``.
    """

    eps: float
    rate: float
    delta: float
    kappa: float
    max_iter: int = 25
    tol_rel: float = 1e-6

    @classmethod
    def from_problem(cls, problem, eps: Optional[float] = None, max_iter: int = 25,
                     tol_rel: float = 1e-6) -> "PicardConfig":
        return cls(*contraction_constants(*problem.contraction_inputs(), eps), max_iter, tol_rel)

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
    """Iteration history of one fixed-point solve and the constants it ran
    under; ``rate`` is gamma for the grid equation, beta for the backward one."""

    converged: bool
    iterations: int
    increments: tuple
    ratios: tuple
    kappa: float
    eps: float
    rate: float
    delta: float
    tol_rel: float
    final_norm: float


def iterate(sweep, state: tuple, cfg) -> tuple[tuple, PicardReport]:
    """Iterate ``state, inc, norm = sweep(*state)`` until the increment is small.

    ``sweep`` returns the next state, possibly the old one overwritten, with
    the norms of new - old and of new in which the map contracts: the squared
    (gamma, delta) functional for the grid equation, the (beta, delta)-norm
    for the backward one.  The loop stops once inc <= tol_rel * max(norm,
    1e-300); it raises NumericalError carrying the report after
    ``cfg.max_iter`` sweeps, or at once when a norm is not finite.
    """
    increments: list[float] = []
    ratios: list[float] = []

    def report(converged: bool, final_norm: float) -> PicardReport:
        return PicardReport(converged, len(increments), tuple(increments), tuple(ratios),
                            cfg.kappa, cfg.eps, cfg.rate, cfg.delta, cfg.tol_rel, final_norm)

    for _ in range(cfg.max_iter):
        state, inc, final_norm = sweep(*state)
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 0.0:
            ratios.append(inc / increments[-2])
        if not (math.isfinite(inc) and math.isfinite(final_norm)):
            raise NumericalError(
                f"Picard iteration {len(increments)} produced a non-finite norm "
                f"(increment {inc:.3e}, iterate {final_norm:.3e})",
                report=report(False, final_norm))
        if inc <= cfg.tol_rel * max(final_norm, 1e-300):
            return state, report(True, final_norm)
    raise NumericalError(
        f"Picard iteration did not converge in {cfg.max_iter} iterations "
        f"(last increment {increments[-1]:.3e}); ratios: {ratios}",
        report=report(False, final_norm))


def iterate_in_place(recursion, stacks: tuple, slot_drivers, densities, norm,
                     cfg) -> tuple[PicardReport, int]:
    """``iterate`` Picard sweeps in place: ``stacks`` hold the start and end as
    the last iterate.  ``recursion(drivers, start)`` recomputes slots start
    down to 0: it hands ``drivers(i, *new)`` slot start + 1 as the stacks hold
    it, when start < N, then each new slot i before it overwrites slot i; a
    sweep returns ``slot_drivers(i, *old)``, takes the per-path densities of
    new - old and of new from ``densities(i, new, old)`` and reduces each by
    ``norm``.

    The map is nilpotent: slot N is data and slot i reads only slots above
    it, so sweep k leaves slots N .. N - k + 1 bitwise fixed and sweep k + 1
    recomputes slots N - k .. 0 only.  A slot it skips keeps its density and
    adds an increment density of exactly 0, the floats a recomputation from
    bitwise-equal inputs would give.  Returns the report and the first slot
    the K sweeps left unfixed, N - K, or -1 once K >= N + 1: where a sweep
    with the drivers read at the new slot resumes to reach the fixed point."""
    p, n = stacks[0].shape[0], stacks[0].shape[1] - 1
    inc, cur = np.empty((p, n)), np.empty((p, n))
    start = n

    def sweep(*_):
        nonlocal start
        inc[:, start + 1:] = 0.0  # the slots this sweep skips

        def drivers(i, *new):
            old = [s[:, i] for s in stacks]
            if i <= start and i < n:
                inc[:, i], cur[:, i] = densities(i, new, old)
            return slot_drivers(i, *old)

        recursion(drivers, start)
        start = max(start - 1, -1)
        return stacks, norm(inc), norm(cur)

    report = iterate(sweep, stacks, cfg)[1]
    return report, start
