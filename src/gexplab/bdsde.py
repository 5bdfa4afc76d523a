"""Backward doubly stochastic solver: regression Monte Carlo over a diffusion
ensemble with the noise path frozen.

Per (scenario, noise path) the conditional expectations are least-squares
regressions on the diffusion state only; noise-path quantities enter the
targets as constants.  The backward recursion is

    Y_i = E[ Y_{i+1} + dt f(t_{i+1}) + g(t_{i+1}) . dB_i | X_i ],
    Z_i = (2 dt)^{-1} a(X_i)^{-1} E[ Y_{i+1} dM_i | X_i ],

where the Z scaling comes from the bracket <M> = 2 int a(X) ds.  Y at the
horizon is the terminal payoff bitwise; Z at the horizon copies the last
regressed slot rather than being extrapolated.

The drivers' v slot is fed Z sigma(X), the Markovian pairing with the grid
solver's grad u sigma(x), under which Y_t = u(t, X_t) and
Z_t = grad u(t, X_t); the two equations share their driver terms and so
their contraction inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from ._util import NonNeg, NonNegInt
from .errors import NumericalError, UsageError
from .gbm import GBMPaths, TimeGrid
from .hunt import CoefficientField, HuntPaths
from .picard import (
    PicardConfig,
    PicardReport,
    increment_and_iterate_norms,
    iterate,
    weighted_quadrature,
)

MIN_SAMPLES_PER_FEATURE = 10
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class RegressionBasis:
    """Feature basis for the conditional-expectation regressions: the
    monomials of total degree at most ``degree`` in the standardized state
    (any state dimension), with a ridge penalty that never shrinks the
    intercept, so constants always fit exactly when ridge = 0.  The field
    types are the config schema of ``bdsde.basis``.
    """

    degree: NonNegInt = 4
    ridge: NonNeg = 0.0

    def __post_init__(self):
        if self.degree < 0:
            raise UsageError("polynomial degree must be >= 0")
        if self.ridge < 0.0:
            raise UsageError("ridge must be nonnegative")

    def n_features(self, dim: int) -> int:
        """Basis size on a ``dim``-dimensional state whose every axis varies."""
        return math.comb(dim + self.degree, dim)


def _monomial_powers(dim: int, degree: int) -> list[tuple]:
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(budget + 1):
            rec(prefix + [k], remaining - 1, budget - k)

    rec([], dim, degree)
    out.sort(key=lambda p: (sum(p), p))
    return out


class RegressionContext:
    """Design matrix and factorized normal equations for one state sample.

    Built once per time slot and reused for every target (Y updates, Z
    moment regressions, all noise paths): fits are matrix products.
    """

    def __init__(self, positions: np.ndarray, basis: RegressionBasis):
        x = np.asarray(positions, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise UsageError("positions must be (n_samples, state_dim)")
        n = x.shape[0]
        self.center = x.mean(axis=0)
        spread = x.std(axis=0)
        self.active = spread > DEGENERATE_STD
        self.scale = np.where(self.active, spread, 1.0)
        a_dim = int(np.sum(self.active))
        self.powers = _monomial_powers(a_dim, basis.degree) if a_dim else [()]
        phi = self._design(x)
        n_feat = phi.shape[1]
        if n < MIN_SAMPLES_PER_FEATURE * n_feat:
            raise UsageError(
                f"need at least {MIN_SAMPLES_PER_FEATURE} samples per basis "
                f"function ({n} samples, {n_feat} features)"
            )
        penalty = np.full(n_feat, basis.ridge)
        penalty[0] = 0.0  # never shrink the intercept
        gram = phi.T @ phi + np.diag(penalty)
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
            raise NumericalError(
                f"regression design is rank deficient (eig ratio {eigs[0]:.3e}/"
                f"{eigs[-1]:.3e}); reduce the basis or add ridge"
            )
        self.phi = phi
        self._chol = sla.cho_factor(gram)

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]

    def _design(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.center) / self.scale
        z = z[:, self.active] if z.shape[1] else z
        cols = []
        for pw in self.powers:
            col = np.ones(x.shape[0])
            for axis_id, p in enumerate(pw):
                if p:
                    col = col * z[:, axis_id] ** p
            cols.append(col)
        return np.stack(cols, axis=1)

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Coefficients for targets with shape (..., n_samples)."""
        t = np.asarray(targets, dtype=float)
        rhs = t @ self.phi                       # (..., n_features)
        flat = rhs.reshape(-1, self.n_features)
        # Non-finite targets pass through; the Picard loop stops on them.
        coefs = sla.cho_solve(self._chol, flat.T, check_finite=False).T
        return coefs.reshape(t.shape[:-1] + (self.n_features,))

    def predict_in_sample(self, coefs: np.ndarray) -> np.ndarray:
        return np.asarray(coefs) @ self.phi.T


class LsmcEnsemble:
    """Per-time-slot regression contexts, a(X)^{-1} and sigma(X) for one
    diffusion ensemble."""

    def __init__(self, hunt: HuntPaths, basis: RegressionBasis,
                 field_spec: CoefficientField):
        self.hunt = hunt
        n = hunt.grid.n_steps
        self.contexts = [RegressionContext(hunt.x[:, i, :], basis) for i in range(n)]
        a_values = np.stack([field_spec.a_at(hunt.x[:, i, :]) for i in range(n)])
        self.a_inverse = np.linalg.inv(a_values)               # (n, n_W, d, d)
        self.sigma = np.stack([field_spec.sigma_at(hunt.x[:, i, :])
                               for i in range(n + 1)])         # (n+1, n_W, d, d)


def extract_z(next_values, dm, context: RegressionContext, a_inverse: np.ndarray,
              dt: float) -> np.ndarray:
    """Martingale-representation estimate of Z at one time slot.

    Z(x) = (2 dt)^{-1} a(x)^{-1} E[next dM | X = x], one regression per
    martingale coordinate on ``context``; ``a_inverse`` holds a(X)^{-1} per
    sample.  Returns samples shaped like next_values + (d,).

    The fitted conditional mean of ``next`` is subtracted before multiplying
    by dM.  The subtracted part is X-measurable, so the estimated conditional
    expectation is unchanged, but the Monte Carlo variance drops from the
    value scale to the increment scale.
    """
    if dt <= 0.0:
        raise UsageError("dt must be positive")
    nxt = np.asarray(next_values, dtype=float)
    dm = np.asarray(dm, dtype=float)
    d = dm.shape[1]
    nxt = nxt - context.predict_in_sample(context.fit(nxt))
    moments = np.empty(nxt.shape + (d,))
    for j in range(d):
        moments[..., j] = context.predict_in_sample(context.fit(nxt * dm[:, j]))
    return np.einsum("njk,...nk->...nj", a_inverse, moments) / (2.0 * dt)


@dataclass(frozen=True)
class BdsdeSolution:
    """Y, Z over (noise path, time, diffusion path) for one scenario."""

    y: np.ndarray = field(repr=False)   # (n_b, n_steps+1, n_W)
    z: np.ndarray = field(repr=False)   # (n_b, n_steps+1, n_W, d)
    time_grid: TimeGrid
    scenario_id: int
    weights: np.ndarray = field(repr=False)
    hunt_fingerprint: tuple = ()
    gbm_fingerprint: tuple = ()
    picard_report: Optional[PicardReport] = None


def solve_linear_bdsde(xi: np.ndarray, ensemble: LsmcEnsemble, gbm: GBMPaths,
                       drivers: Callable) -> BdsdeSolution:
    """The slot-by-slot recursion from the terminal payoff ``xi`` on the
    diffusion ensemble back to t_0, for (y, z)-independent driver data.

    ``drivers(i)`` returns the (n_b, n_W) f and the (n_b, n_W, l) g at time
    slot i, which pairs with dB_{i-1}.  It is called for slots N..1, each
    right before slot i-1 regresses on the target built from it, so only one
    slot of driver data is alive at a time.
    """
    hunt = ensemble.hunt
    if hunt.grid != gbm.grid:
        raise UsageError("diffusion ensemble and noise paths use different time grids")
    n, n_w, d = hunt.grid.n_steps, hunt.n_paths, hunt.dim
    dt = hunt.grid.dt
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n_w,):
        raise UsageError(f"terminal payoff has shape {xi.shape}, expected ({n_w},)")
    y = np.empty((gbm.n_paths, n + 1, n_w))
    z = np.empty((gbm.n_paths, n + 1, n_w, d))
    y[:, n] = xi
    for i in range(n - 1, -1, -1):
        ctx = ensemble.contexts[i]
        f_next, g_next = drivers(i + 1)
        noise = np.einsum("bwl,bl->bw", g_next, gbm.db[:, i, :])
        y[:, i] = ctx.predict_in_sample(ctx.fit(y[:, i + 1] + dt * f_next + noise))
        z[:, i] = extract_z(y[:, i + 1], hunt.dm[:, i], ctx, ensemble.a_inverse[i], dt)
    z[:, n] = z[:, n - 1]
    return BdsdeSolution(y, z, hunt.grid, gbm.scenario_id, hunt.weights,
                         hunt.fingerprint(), gbm.fingerprint())


def delta_norm(solutions, beta: float, delta: float) -> float:
    """sup over solutions of sqrt(delta E int e^{beta s}|Y|^2 + E int e^{beta s}|Z|^2).

    The expectation is the importance-weighted mean over diffusion paths and
    the plain mean over noise paths.
    """
    if isinstance(solutions, BdsdeSolution):
        solutions = [solutions]
    if len(solutions) == 0:
        raise UsageError("need at least one solution")
    best = max(weighted_quadrature(_delta_density(sol.y[:, :-1], sol.z[:, :-1], delta,
                                                  sol.weights),
                                   beta, sol.time_grid.times) for sol in solutions)
    return float(np.sqrt(best))


def _delta_density(y, z, delta: float, weights) -> np.ndarray:
    """delta |Y|^2 + |Z|^2 with Y shaped (..., n_W) and Z (..., n_W, d),
    averaged over the diffusion paths with their importance weights, which
    enter unnormalized for Lebesgue initial mass.  Each (..., n_W) row is
    reduced on its own, so one time slot gives the same floats as the slot's
    column of a whole stack."""
    return np.mean((delta * y**2 + np.einsum("...k,...k->...", z, z)) * weights, axis=-1)


@dataclass
class BdsdeProblem:
    """Driver data of the backward equation.

    Drivers have signature fn(t, x, y, v) with x the diffusion state sample
    (state dependence is how the drivers are random over the forward
    factor).  ``inputs`` are the (lip, z_coef, sigma_bar^2, lam) that
    ``pde.derive_contraction_inputs`` gives the drivers' terms, the same for
    both equations.
    """

    terminal_fn: Callable[[np.ndarray], np.ndarray]
    f: Callable
    g: Callable
    time_grid: TimeGrid
    inputs: tuple[float, float, float, float]

    def contraction_inputs(self) -> tuple[float, float, float, float]:
        return self.inputs


def _slot_drivers(problem: BdsdeProblem, ensemble: LsmcEnsemble, y, z, i: int, t: float):
    """f and g at time slot i, time t, of the iterate (y, z); v = Z sigma(X)
    feeds the z argument.  The backward recursion asks for slots N..1 only."""
    x_here = ensemble.hunt.x[:, i, :]
    v = np.einsum("bwd,wdk->bwk", z[:, i], ensemble.sigma[i])
    return (np.asarray(problem.f(t, x_here, y[:, i], v), dtype=float),
            np.asarray(problem.g(t, x_here, y[:, i], v), dtype=float))


def solve_gbdsde_picard(problem: BdsdeProblem, ensemble: LsmcEnsemble, gbm: GBMPaths,
                        cfg: PicardConfig) -> BdsdeSolution:
    """Outer fixed-point loop: each iteration freezes the drivers at the
    previous (Y, Z) and solves the resulting linear equation by regression.

    The terminal payoff, the paths and their weights are those of
    ``ensemble.hunt``.  Convergence is monitored in the (beta, delta)-norm
    of the increments, relative to the iterate norm; the report carries the
    ratio history.
    """
    cfg.validate_against(problem)
    hunt = ensemble.hunt
    if hunt.grid != problem.time_grid or gbm.grid != problem.time_grid:
        raise UsageError("ensembles and problem use different time grids")
    n, n_w, d = hunt.grid.n_steps, hunt.n_paths, hunt.dim
    n_b = gbm.n_paths
    times = problem.time_grid.times
    xi = np.asarray(problem.terminal_fn(hunt.x[:, n, :]), dtype=float).reshape(n_w)

    def sweep(y, z):
        sol = solve_linear_bdsde(
            xi, ensemble, gbm, lambda i: _slot_drivers(problem, ensemble, y, z, i, times[i]))
        return sol.y, sol.z

    def density(y, z):
        return _delta_density(y, z, cfg.delta, hunt.weights)

    def norms(new, old):
        inc, cur = increment_and_iterate_norms(density, new, old, cfg.rate, times)
        return float(np.sqrt(inc)), float(np.sqrt(cur))

    (y, z), report = iterate(sweep, norms, (np.zeros((n_b, n + 1, n_w)),
                                            np.zeros((n_b, n + 1, n_w, d))), cfg)
    return BdsdeSolution(y, z, problem.time_grid, gbm.scenario_id, hunt.weights,
                         hunt.fingerprint(), gbm.fingerprint(), picard_report=report)
