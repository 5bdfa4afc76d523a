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
from functools import partial
from typing import Callable, Optional

import numpy as np

from ._util import NonNeg, NonNegInt
from .errors import NumericalError, UsageError
from .gbm import GBMPaths, TimeGrid
from .hunt import CoefficientField, HuntPaths, _sqrt_spd_batch
from .picard import PicardConfig, PicardReport, check_fixed_point, frozen_sweep

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


class StandardizedBasis:
    """The monomial basis on one state sample, standardized: each axis
    centered and scaled by the sample's mean and spread, the degenerate axes
    dropped.  Holds the regularized F x F Gram of the sample's design matrix,
    made here with the sample-count and rank checks; ``design`` rebuilds the
    design matrix itself, which is not kept."""

    def __init__(self, x: np.ndarray, basis: RegressionBasis):
        n = x.shape[0]
        self.center = x.mean(axis=0)
        spread = x.std(axis=0)
        self.active = spread > DEGENERATE_STD
        self.scale = np.where(self.active, spread, 1.0)
        a_dim = int(np.sum(self.active))
        self.powers = _monomial_powers(a_dim, basis.degree) if a_dim else [()]
        # Each monomial after the intercept is an earlier one, of degree one
        # less, times its last axis.
        self.parents = []
        for pw in self.powers[1:]:
            axis = max(j for j, p in enumerate(pw) if p)
            lower = pw[:axis] + (pw[axis] - 1,) + pw[axis + 1:]
            self.parents.append((self.powers.index(lower), axis))
        n_feat = self.n_features
        if n < MIN_SAMPLES_PER_FEATURE * n_feat:
            raise UsageError(
                f"need at least {MIN_SAMPLES_PER_FEATURE} samples per basis "
                f"function ({n} samples, {n_feat} features)"
            )
        phi = self.design(x)
        penalty = np.full(n_feat, basis.ridge)
        penalty[0] = 0.0  # never shrink the intercept
        gram = phi.T @ phi + np.diag(penalty)
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
            raise NumericalError(
                f"regression design is rank deficient (eig ratio {eigs[0]:.3e}/"
                f"{eigs[-1]:.3e}); reduce the basis or add ridge"
            )
        self.gram = gram

    @property
    def n_features(self) -> int:
        return len(self.powers)

    def design(self, x: np.ndarray) -> np.ndarray:
        """The (n_samples, F) design matrix of ``x``, built column by column
        as products, one axis at a time, with no powers taken; its columns
        are the rows of one C-ordered (F, n_samples) array, so each product
        runs over contiguous memory."""
        z = ((x - self.center) / self.scale).T[self.active]
        out = np.empty((self.n_features, x.shape[0]))
        out[0] = 1.0
        for k, (parent, axis) in enumerate(self.parents, start=1):
            np.multiply(out[parent], z[axis], out=out[k])
        return out.T


class RegressionContext:
    """Design matrix and normal equations for one state sample.

    ``positions`` are the (n_samples, state_dim) sample and ``basis`` the
    ``StandardizedBasis`` made from it, whose Gram is reused.  A context
    serves every target of its sample (Y updates, Z moment regressions, all
    noise paths): a fit is one matrix product and one F x F solve.
    """

    def __init__(self, positions: np.ndarray, basis: StandardizedBasis):
        self.basis = basis
        self.phi = basis.design(positions)

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Coefficients for targets with shape (..., n_samples)."""
        t = np.asarray(targets, dtype=float)
        # Non-finite targets pass through: the Picard check stops on a
        # non-finite norm, the explicit scheme at the first non-finite slot.
        with np.errstate(invalid="ignore", over="ignore"):
            rhs = (t @ self.phi).reshape(-1, self.n_features)
            coefs = np.linalg.solve(self.basis.gram, rhs.T).T
        return coefs.reshape(t.shape[:-1] + (self.n_features,))

    def predict_in_sample(self, coefs: np.ndarray) -> np.ndarray:
        return np.asarray(coefs) @ self.phi.T


class LsmcEnsemble:
    """The regression data of one diffusion ensemble: its paths and, per
    time slot i < N, the ``StandardizedBasis`` of X_i, which holds the
    slot's standardization and Gram, checked here once.

    A slot's design matrix and a(X_i)^{-1} are derived from ``hunt.x[:, i]``
    when a reader reaches the slot (``regression``) and kept until a reader
    asks for another slot, so a sweep over the slots, N down to 0 or 0 up to
    N, derives each once.  sigma(X_i) for i < N is derived with them from
    the same a(X_i), so a sweep calls a(X) once per slot; slot N's is
    derived where the drivers read it.  The slot's ``norm_gram`` is made on
    first use and kept.
    """

    def __init__(self, hunt: HuntPaths, basis: RegressionBasis,
                 field_spec: CoefficientField):
        self.hunt, self.field = hunt, field_spec
        n = hunt.grid.n_steps
        self.bases = [StandardizedBasis(hunt.x[:, i, :], basis) for i in range(n)]
        self.n_features = max(b.n_features for b in self.bases)
        self._held = {}
        self._norm_grams = [None] * n

    def regression(self, i: int) -> tuple[RegressionContext, np.ndarray]:
        """Slot i's regression context and a(X_i)^{-1}, shaped (n_W, d, d),
        for i < N."""
        if not 0 <= i < len(self.bases):
            raise UsageError(f"slot {i} has no regression; slots 0 .. {len(self.bases) - 1} do")
        return self._slot(i)[:2]

    def _slot(self, i: int) -> tuple[RegressionContext, np.ndarray, np.ndarray]:
        """The held slot i < N: its context, a(X_i)^{-1} and sigma(X_i), all
        from one a(X_i)."""
        if i not in self._held:
            self._held.clear()  # the last slot goes before this one is made
            x = self.hunt.x[:, i, :]
            a = self.field.a_at(x)
            # In 1-D the reciprocal is bitwise the inverse LAPACK gives each
            # 1 x 1 matrix, without one LAPACK call per path.
            a_inverse = 1.0 / a if self.hunt.dim == 1 else np.linalg.inv(a)
            self._held[i] = RegressionContext(x, self.bases[i]), a_inverse, _sqrt_spd_batch(a)
        return self._held[i]

    def sigma(self, i: int) -> np.ndarray:
        """sigma(X_i), shaped (n_W, d, d), for i <= N: the held slot's below
        the horizon, where a sweep holds the slot it drives."""
        if 0 <= i < len(self.bases):
            return self._slot(i)[2]
        return self.field.sigma_at(self.hunt.x[:, i, :])

    def norm_gram(self, i: int) -> np.ndarray:
        """For slot i < N, the Gram matrices that give the path averages of
        |Y|^2 and |Z|^2 from the slot's coefficients (``solve_linear_bdsde``),
        shaped (1 + d, F, 1 + d, F) for the F = ``n_features`` padded
        features: block [0, 0] is G_y = Phi^T diag(w) Phi / n_W, block
        [1 + k, 1 + k'] is G_z[k, k'] = Phi^T diag(w (A^T A)_kk') Phi /
        (n_W (2 dt)^2) with A = a(X)^{-1} and w the importance weights, and
        the Y-Z blocks and the padding are zero.  Made on first use and kept
        for every sweep and scenario of the ensemble."""
        if self._norm_grams[i] is None:
            hunt, f = self.hunt, self.n_features
            n_w, d, w = hunt.n_paths, hunt.dim, hunt.weights
            ctx, a_inv = self.regression(i)
            phi, k = ctx.phi, ctx.n_features
            ata = np.einsum("wjk,wjl->wkl", a_inv, a_inv) / (2.0 * hunt.grid.dt) ** 2
            out = np.zeros((1 + d, f, 1 + d, f))
            out[0, :k, 0, :k] = phi.T @ (w[:, None] * phi) / n_w
            for a in range(d):
                for b in range(d):
                    out[1 + a, :k, 1 + b, :k] = (phi.T @ ((w * ata[:, a, b])[:, None] * phi)
                                                 / n_w)
            self._norm_grams[i] = out
        return self._norm_grams[i]

    def z_values(self, i: int, moments: np.ndarray) -> np.ndarray:
        """Z at slot i <= N, shaped (..., n_W, d), from the coefficients
        ``moments`` (..., d, F) of the d moment regressions ``extract_z``
        fits: Z = (2 dt)^{-1} a(X)^{-1} times the predicted moments.  At
        slot N, Z is evaluated on slot N - 1's regression, the slot whose Z
        it copies."""
        ctx, a_inv = self.regression(min(i, self.hunt.grid.n_steps - 1))
        d, k = moments.shape[-2], ctx.n_features
        predicted = np.empty(moments.shape[:-2] + (ctx.phi.shape[0], d))
        for j in range(d):
            predicted[..., j] = ctx.predict_in_sample(moments[..., j, :k])
        return np.einsum("njk,...nk->...nj", a_inv, predicted) / (2.0 * self.hunt.grid.dt)

    def slot_values(self, i: int, c_i: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) at slot i, shaped (n_b, n_W) and (n_b, n_W, d), from the
        slot's coefficients ``c_i`` (n_b, 1 + d, F) as ``solve_linear_bdsde``
        writes them: Y predicted from row 0 and Z from rows 1 .. d by
        ``z_values``.  At slot N, Y is the payoff ``xi``."""
        if i == self.hunt.grid.n_steps:
            y = np.tile(xi, (len(c_i), 1))
        else:
            ctx = self.regression(i)[0]
            y = ctx.predict_in_sample(c_i[:, 0, :ctx.n_features])
        return y, self.z_values(i, c_i[:, 1:])


def extract_z(next_values, dm, context: RegressionContext) -> np.ndarray:
    """The moment regressions behind the martingale-representation estimate
    of Z at one time slot, Z(x) = (2 dt)^{-1} a(x)^{-1} E[next dM | X = x]:
    the coefficients of E[next dM_j | X] on ``context``, one regression per
    martingale coordinate j, shaped like next_values[:-1] + (d, n_features).
    ``LsmcEnsemble.z_values`` makes the Z samples from them.

    The fitted conditional mean of ``next`` is subtracted before multiplying
    by dM.  The subtracted part is X-measurable, so the estimated conditional
    expectation is unchanged, but the Monte Carlo variance drops from the
    value scale to the increment scale.
    """
    nxt = np.asarray(next_values, dtype=float)
    dm = np.asarray(dm, dtype=float)
    d = dm.shape[1]
    nxt = nxt - context.predict_in_sample(context.fit(nxt))
    coefs = np.empty(nxt.shape[:-1] + (d, context.n_features))
    for j in range(d):
        coefs[..., j, :] = context.fit(nxt * dm[:, j])
    return coefs


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
    coefficients; the recursion keeps only the slot it just made, and makes
    no Z samples.  ``drivers(i, y_i, c_i)`` sees each new slot i, N down to
    0, before it is written into ``c``, and returns the (n_b, n_W) f and
    (n_b, n_W, l) g at slot i, which pair with dB_{i-1}; its slot-0 value is
    not read.  Each slot's ``dM`` and ``X`` are read as the contiguous
    (n_W, d) views the ensemble stores, and its design matrix is
    ``LsmcEnsemble.regression``'s, made when the recursion reaches the slot.
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
    ctx = ensemble.regression(n - 1)[0]
    c_i[:, 1:, :ctx.n_features] = extract_z(y_i, hunt.dm[:, n - 1], ctx)
    for i in range(n, -1, -1):
        if i < n:
            f_next, g_next = at_next
            target = y_i + dt * f_next + np.einsum("bwl,bl->bw", g_next, gbm.db[:, i, :])
            # The drivers and the last slot's arrays go before this slot's
            # are made.
            del at_next, f_next, g_next, ctx
            ctx = ensemble.regression(i)[0]
            k = ctx.n_features
            c_new = np.zeros(slot_shape)
            c_new[:, 0, :k] = ctx.fit(target)
            del target
            if i < n - 1:
                c_new[:, 1:, :k] = extract_z(y_i, hunt.dm[:, i], ctx)
            else:  # Z_{N-1} is the Z kept at the horizon
                c_new[:, 1:] = c_i[:, 1:]
            y_i, c_i = ctx.predict_in_sample(c_new[:, 0, :k]), c_new
        at_next = drivers(i, y_i, c_i)
        if c is not None:
            c[:, i] = c_i
    return BdsdeSolution(c, xi, ensemble, gbm.fingerprint())


def _coefficient_density(ensemble: LsmcEnsemble, delta: float) -> Callable:
    """``density(i, c_i)`` of the (beta, delta)-norm: per noise path,
    delta |Y|^2 + |Z|^2 at slot i < N averaged over the diffusion paths with
    their importance weights, as a quadratic form in the slot's coefficients
    c_i (n_b, 1 + d, F) with the slot's ``LsmcEnsemble.norm_gram``."""
    def density(i, c_i):
        gram = ensemble.norm_gram(i).copy()
        gram[0, :, 0] *= delta
        flat = c_i.reshape(len(c_i), -1)
        return np.sum((flat @ gram.reshape(flat.shape[1], -1)) * flat, axis=-1)

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
    v = np.einsum("bwd,wdk->bwk", z_i, ensemble.sigma(i))
    return (np.asarray(problem.f(t, x_here, y_i, v), dtype=float),
            np.asarray(problem.g(t, x_here, y_i, v), dtype=float))


def _explicit_drivers(problem: BdsdeProblem, ensemble: LsmcEnsemble, i: int, y_i, c_i):
    """``_slot_drivers`` read at the new slot, the explicit scheme's, whose Z
    is made from the slot's moment coefficients; it stops at the first slot
    whose Y or Z is not finite."""
    z_i = ensemble.z_values(i, c_i[:, 1:])
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
    Each check sweep is a ``picard.frozen_sweep`` of the linear recursion on
    u*'s coefficient stack, whose drivers are read at the (Y, Z) of the
    frozen iterate's coefficients and whose density is the (beta, delta) one
    of ``_coefficient_density``; the sweep's functionals are taken in the
    root, the power in which the map contracts."""
    cfg.validate_against(problem)
    sol = solve_gbdsde(problem, ensemble, gbm)
    times, n = problem.time_grid.times, problem.time_grid.n_steps

    def recursion(sources):
        solve_linear_bdsde(sol.xi, ensemble, gbm, lambda i, y, c_i: sources(i, c_i), None)

    def drivers(i, w, s):
        payoff = s * sol.xi if i == n else sol.xi  # below N, s is a coefficient slot
        return _slot_drivers(problem, ensemble, i, *ensemble.slot_values(i, w, payoff))

    squared = frozen_sweep(recursion, sol.c, _coefficient_density(ensemble, cfg.delta),
                           drivers, cfg.rate, times)
    perturbation = np.random.default_rng(cfg.seed).standard_normal(sol.c.shape[2:])
    return replace(sol, picard_report=check_fixed_point(
        lambda scale: tuple(map(math.sqrt, squared(scale))), perturbation, times))
