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
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from ._util import NonNeg, NonNegInt
from .errors import NumericalError, UsageError
from .gbm import GBMPaths, TimeGrid
from .hunt import CoefficientField, HuntPaths
from .picard import PicardConfig, PicardReport, check_fixed_point, weighted_quadrature

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
        # Non-finite targets pass through: the Picard check stops on a
        # non-finite norm, the explicit scheme at the first non-finite slot.
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
        self.n_features = max(ctx.n_features for ctx in self.contexts)
        a_values = np.stack([field_spec.a_at(hunt.x[:, i, :]) for i in range(n)])
        # In 1-D the reciprocal is bitwise the inverse LAPACK gives each 1 x 1
        # matrix, without one LAPACK call per path and slot.
        self.a_inverse = (1.0 / a_values if hunt.dim == 1
                          else np.linalg.inv(a_values))        # (n, n_W, d, d)
        self.sigma = np.stack([field_spec.sigma_at(hunt.x[:, i, :])
                               for i in range(n + 1)])         # (n+1, n_W, d, d)

    @cached_property
    def norm_grams(self) -> np.ndarray:
        """Per slot i < N, the Gram matrices that give the path averages of
        |Y|^2 and |Z|^2 from the slot's coefficients (``solve_linear_bdsde``),
        shaped (N, 1 + d, F, 1 + d, F) for the F = ``n_features`` padded
        features: block [0, 0] is G_y = Phi^T diag(w) Phi / n_W, block
        [1 + k, 1 + k'] is G_z[k, k'] = Phi^T diag(w (A^T A)_kk') Phi /
        (n_W (2 dt)^2) with A = a(X)^{-1} and w the importance weights, and
        the Y-Z blocks and the padding are zero.  Built on first use and kept
        for every sweep and scenario of the ensemble."""
        hunt, f = self.hunt, self.n_features
        n, n_w, d, w = hunt.grid.n_steps, hunt.n_paths, hunt.dim, hunt.weights
        out = np.zeros((n, 1 + d, f, 1 + d, f))
        for i, ctx in enumerate(self.contexts):
            phi, k, a_inv = ctx.phi, ctx.n_features, self.a_inverse[i]
            ata = np.einsum("wjk,wjl->wkl", a_inv, a_inv) / (2.0 * hunt.grid.dt) ** 2
            out[i, 0, :k, 0, :k] = phi.T @ (w[:, None] * phi) / n_w
            for a in range(d):
                for b in range(d):
                    out[i, 1 + a, :k, 1 + b, :k] = (phi.T @ ((w * ata[:, a, b])[:, None] * phi)
                                                    / n_w)
        return out

    def slot_values(self, i: int, c_i: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) at slot i, shaped (n_b, n_W) and (n_b, n_W, d), from the
        slot's coefficients ``c_i`` (n_b, 1 + d, F) as ``solve_linear_bdsde``
        writes them: Y predicted from row 0 and Z from rows 1 .. d by the
        calls ``extract_z`` makes, so the floats are the ones the recursion
        made.  At slot N, Y is the payoff ``xi`` and Z is evaluated on slot
        N - 1's context and a(X)^{-1}, the slot whose Z it copies."""
        n = self.hunt.grid.n_steps
        regressed = min(i, n - 1)
        ctx = self.contexts[regressed]
        k = ctx.n_features
        z = _z_values(ctx, c_i[:, 1:, :k], self.a_inverse[regressed], self.hunt.grid.dt)
        y = np.tile(xi, (len(c_i), 1)) if i == n else ctx.predict_in_sample(c_i[:, 0, :k])
        return y, z


def _z_values(context: RegressionContext, coefs: np.ndarray, a_inverse: np.ndarray,
              dt: float) -> np.ndarray:
    """Z = (2 dt)^{-1} a(X)^{-1} times the moments predicted from the d moment
    regressions' coefficients ``coefs`` (..., d, n_features) on ``context``."""
    d = coefs.shape[-2]
    moments = np.empty(coefs.shape[:-2] + (context.phi.shape[0], d))
    for j in range(d):
        moments[..., j] = context.predict_in_sample(coefs[..., j, :])
    return np.einsum("njk,...nk->...nj", a_inverse, moments) / (2.0 * dt)


def extract_z(next_values, dm, context: RegressionContext, a_inverse: np.ndarray,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Martingale-representation estimate of Z at one time slot.

    Z(x) = (2 dt)^{-1} a(x)^{-1} E[next dM | X = x], one regression per
    martingale coordinate on ``context``; ``a_inverse`` holds a(X)^{-1} per
    sample.  Returns the samples, shaped like next_values + (d,), and the
    coefficients of the d moment regressions, shaped like next_values[:-1]
    + (d, n_features).

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
    coefs = np.empty(nxt.shape[:-1] + (d, context.n_features))
    for j in range(d):
        coefs[..., j, :] = context.fit(nxt * dm[:, j])
    return _z_values(context, coefs, a_inverse, dt), coefs


@dataclass(frozen=True)
class BdsdeSolution:
    """Y, Z over (noise path, time, diffusion path) for one scenario, kept as
    the coefficient stack ``c`` that ``solve_linear_bdsde`` writes and the
    payoff ``xi``; ``slot(i)`` evaluates the (Y, Z) of slot i."""

    c: np.ndarray = field(repr=False)      # (n_b, n_steps+1, 1 + d, F)
    xi: np.ndarray = field(repr=False)     # (n_W,)
    ensemble: LsmcEnsemble = field(repr=False)
    gbm_fingerprint: tuple
    picard_report: Optional[PicardReport] = None

    @property
    def time_grid(self) -> TimeGrid:
        return self.ensemble.hunt.grid

    @property
    def hunt_fingerprint(self) -> tuple:
        return self.ensemble.hunt.fingerprint()

    def slot(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) at slot i, shaped (n_b, n_W) and (n_b, n_W, d)."""
        return self.ensemble.slot_values(i, self.c[:, i], self.xi)


def solve_linear_bdsde(xi: np.ndarray, ensemble: LsmcEnsemble, gbm: GBMPaths,
                       drivers: Callable, c: Optional[np.ndarray]) -> BdsdeSolution:
    """The slot-by-slot recursion from the terminal payoff ``xi`` on the
    diffusion ensemble back to t_0, into the coefficient stack ``c`` (n_b,
    N+1, 1 + d, F), or into none when ``c`` is None.

    ``c[:, i]`` holds the regression coefficients of slot i on the ensemble's
    ``n_features`` = F features, zero-padded: row 0 those of Y, rows 1 .. d
    those of the d moment regressions behind Z.  Slot N holds no Y row (the
    payoff is not a regression) and the Z rows of slot N - 1, which its Z
    copies.  The (Y, Z) of a slot is ``LsmcEnsemble.slot_values`` of its
    coefficients; the recursion keeps only the slot it just made.
    ``drivers(i, y_i, z_i, c_i)`` sees each new slot i, N down to 0, before
    it is written into ``c``, and returns the (n_b, n_W) f and (n_b, n_W, l)
    g at slot i, which pair with dB_{i-1}; its slot-0 value is not read.
    Each slot's ``dM`` and ``X`` are read as the contiguous (n_W, d) views
    the ensemble stores.
    """
    hunt = ensemble.hunt
    if hunt.grid != gbm.grid:
        raise UsageError("diffusion ensemble and noise paths use different time grids")
    n, n_w = hunt.grid.n_steps, hunt.n_paths
    dt = hunt.grid.dt
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n_w,):
        raise UsageError(f"terminal payoff has shape {xi.shape}, expected ({n_w},)")
    slot_shape = (gbm.n_paths, 1 + hunt.dim, ensemble.n_features)
    y_i, c_i = np.tile(xi, (gbm.n_paths, 1)), np.zeros(slot_shape)
    # Z at the horizon copies the last regressed slot, N - 1.
    ctx = ensemble.contexts[n - 1]
    z_i, c_i[:, 1:, :ctx.n_features] = extract_z(y_i, hunt.dm[:, n - 1], ctx,
                                                 ensemble.a_inverse[n - 1], dt)
    for i in range(n, -1, -1):
        if i < n:
            f_next, g_next = at_next
            ctx = ensemble.contexts[i]
            k = ctx.n_features
            noise = np.einsum("bwl,bl->bw", g_next, gbm.db[:, i, :])
            c_new = np.zeros(slot_shape)
            c_new[:, 0, :k] = ctx.fit(y_i + dt * f_next + noise)
            if i < n - 1:
                z_i, c_new[:, 1:, :k] = extract_z(y_i, hunt.dm[:, i], ctx,
                                                  ensemble.a_inverse[i], dt)
            else:  # Z_{N-1} is the Z kept at the horizon
                c_new[:, 1:] = c_i[:, 1:]
            y_i, c_i = ctx.predict_in_sample(c_new[:, 0, :k]), c_new
        at_next = drivers(i, y_i, z_i, c_i)
        if c is not None:
            c[:, i] = c_i
    return BdsdeSolution(c, xi, ensemble, gbm.fingerprint())


def _coefficient_density(ensemble: LsmcEnsemble, delta: float) -> Callable:
    """``density(i, c_i)`` of the (beta, delta)-norm: per noise path,
    delta |Y|^2 + |Z|^2 at slot i < N averaged over the diffusion paths with
    their importance weights, as a quadratic form in the slot's coefficients
    c_i (n_b, 1 + d, F) with the ensemble's ``norm_grams``."""
    grams = ensemble.norm_grams.copy()
    grams[:, 0, :, 0] *= delta
    n, blocks, f = grams.shape[:3]
    grams = grams.reshape(n, blocks * f, blocks * f)

    def density(i, c_i):
        flat = c_i.reshape(len(c_i), -1)
        return np.sum((flat @ grams[i]) * flat, axis=-1)

    return density


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


def _slot_drivers(problem: BdsdeProblem, ensemble: LsmcEnsemble, i: int, y_i, z_i):
    """f and g at slot i of (y_i, z_i), v fed Z sigma(X) and x the slot's
    diffusion state; None at slot 0."""
    if i == 0:
        return None
    t, x_here = problem.time_grid.times[i], ensemble.hunt.x[:, i, :]
    v = np.einsum("bwd,wdk->bwk", z_i, ensemble.sigma[i])
    return (np.asarray(problem.f(t, x_here, y_i, v), dtype=float),
            np.asarray(problem.g(t, x_here, y_i, v), dtype=float))


def _explicit_drivers(problem: BdsdeProblem, ensemble: LsmcEnsemble, i: int, y_i, z_i, *_):
    """``_slot_drivers`` read at the new slot, the explicit scheme's, which
    stops at the first slot whose Y or Z is not finite.  The slot's
    coefficients, the last of the slot data the recursion hands its drivers,
    are not read."""
    bad = [name for name, vals in (("Y", y_i), ("Z", z_i)) if not np.all(np.isfinite(vals))]
    if bad:
        raise NumericalError(f"backward solve produced non-finite {' and '.join(bad)} "
                             f"at slot {i}")
    return _slot_drivers(problem, ensemble, i, y_i, z_i)


def _payoff(problem: BdsdeProblem, ensemble: LsmcEnsemble, gbm: GBMPaths) -> np.ndarray:
    """The payoff on ``ensemble.hunt``'s paths, once all time grids agree."""
    hunt = ensemble.hunt
    if hunt.grid != problem.time_grid or gbm.grid != problem.time_grid:
        raise UsageError("ensembles and problem use different time grids")
    return np.asarray(problem.terminal_fn(hunt.x[:, -1, :]), dtype=float).reshape(hunt.n_paths)


def solve_gbdsde(problem: BdsdeProblem, ensemble: LsmcEnsemble, gbm: GBMPaths) -> BdsdeSolution:
    """The explicit scheme, one sweep with the drivers read at the new slot:
    the fixed point of the Picard map, which fixes one slot per sweep."""
    hunt = ensemble.hunt
    c = np.zeros((gbm.n_paths, hunt.grid.n_steps + 1, 1 + hunt.dim, ensemble.n_features))
    return solve_linear_bdsde(_payoff(problem, ensemble, gbm), ensemble, gbm,
                              partial(_explicit_drivers, problem, ensemble), c)


def solve_gbdsde_picard(problem: BdsdeProblem, ensemble: LsmcEnsemble, gbm: GBMPaths,
                        cfg: PicardConfig) -> BdsdeSolution:
    """``solve_gbdsde``'s solution u* with ``picard.check_fixed_point`` at it,
    the perturbation a seeded standard normal multiplier of each coefficient.
    Each check sweep reads the drivers at its frozen iterate, evaluated slot
    by slot from the scaled coefficients of u*, and takes each new slot's
    distance to u*, and the iterate's, in the (beta, delta)-norm from the
    coefficients; it keeps no coefficient stack."""
    cfg.validate_against(problem)
    sol = solve_gbdsde(problem, ensemble, gbm)
    c, times, n = sol.c, problem.time_grid.times, problem.time_grid.n_steps
    density = _coefficient_density(ensemble, cfg.delta)

    def sweep(scale):
        dens, payoff = np.empty((2, gbm.n_paths, n)), scale(n) * sol.xi

        def drivers(i, y_i, z_i, c_i):
            w = c[:, i] * scale(i)
            if i < n:
                dens[0, :, i] = density(i, c_i - c[:, i])
                dens[1, :, i] = density(i, w - c[:, i])
            if i:  # the drivers of slot 0 are not read
                return _slot_drivers(problem, ensemble, i, *ensemble.slot_values(i, w, payoff))
            return None

        solve_linear_bdsde(sol.xi, ensemble, gbm, drivers, None)
        return tuple(math.sqrt(weighted_quadrature(d, cfg.rate, times)) for d in dens)

    perturbation = np.random.default_rng(cfg.seed).standard_normal(c.shape[2:])
    return replace(sol, picard_report=check_fixed_point(sweep, perturbation, times))
