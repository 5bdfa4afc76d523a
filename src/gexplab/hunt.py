"""Divergence-form diffusions and forward integrals against their martingale part.

The process solves dX = sqrt(2) sigma(X) dW + div_row a(X) dt with
sigma = a^{1/2}, stepped by explicit Euler-Maruyama.  The martingale
increments dM = sqrt(2) sigma(X) dW are recorded exactly as used, so the
bracket identity <M^i, M^j> = 2 int a^{ij}(X) ds can be checked against the
same paths.  Simulation needs C^1 coefficients: the drift is the analytic
row divergence that the field supplies.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

from ._util import Scalars
from .errors import NumericalError, UsageError
from .gbm import CONFIDENCE, TimeGrid, slot_integrand, stochastic_sums
from .scenario import PSD_EIG_FLOOR, standard_error


def _sqrt_spd_batch(mats: np.ndarray) -> np.ndarray:
    if mats.shape[-1] == 1:
        vals = mats[..., 0, 0]
        low = float(np.min(vals))
        if low < PSD_EIG_FLOOR:
            raise NumericalError(f"coefficient value {low:.3e} is negative")
        return np.sqrt(np.clip(vals, 0.0, None))[..., None, None]
    w, v = np.linalg.eigh(mats)
    low = float(np.min(w))
    if low < PSD_EIG_FLOOR:
        raise NumericalError(f"matrix eigenvalue {low:.3e} below PSD tolerance")
    w = np.clip(w, 0.0, None)
    return np.einsum("...ab,...b,...cb->...ac", v, np.sqrt(w), v)


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion matrix a(x) with ellipticity bounds and its drift.

    ``a`` maps points (n, dim) to matrices (n, dim, dim) and ``drift`` maps
    points to the row divergence sum_j d_j a^{ij}.
    """

    dim: int
    a: Callable[[np.ndarray], np.ndarray]
    lam_min: float
    lam_max: float
    drift: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __post_init__(self):
        if not (0.0 < self.lam_min <= self.lam_max):
            raise UsageError("ellipticity bounds must satisfy 0 < lam_min <= lam_max")

    def a_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.a(pts), dtype=float)
        if out.shape != (pts.shape[0], self.dim, self.dim):
            raise UsageError(
                f"coefficient callable returned shape {out.shape}, "
                f"expected {(pts.shape[0], self.dim, self.dim)}"
            )
        return out

    def sigma_at(self, points: np.ndarray) -> np.ndarray:
        return _sqrt_spd_batch(self.a_at(points))

    def drift_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.drift(pts), dtype=float)
        if out.shape != pts.shape:
            raise UsageError(f"drift returned shape {out.shape}, expected {pts.shape}")
        return out


@dataclass(frozen=True)
class InitialLaw:
    """Start distribution: a point mass (at the origin unless ``x0`` is
    given), or a standard Gaussian used as an importance-sampling proxy for
    Lebesgue initial mass.

    With ``kind='gaussian'`` each path carries weight Z_box / pi(X_0), where
    pi is the standard normal density and Z_box its mass on the optional
    truncation box, so weighted averages of h(X_0) estimate int_box h dx.
    The field types are the config schema of ``bdsde.init`` and
    ``hunt_check.init``; ``x0`` is stored as an array.
    """

    kind: Literal["point", "gaussian"]
    x0: Optional[tuple[float, ...]] = None
    box: Optional[tuple[Scalars, Scalars]] = None  # (low, high) per-axis bounds

    def __post_init__(self):
        if self.kind not in ("point", "gaussian"):
            raise UsageError(f"unknown initial law kind {self.kind!r}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, float)))

    def check_dim(self, dim: int) -> None:
        """Raise unless ``x0`` and the box bounds fit a ``dim``-dimensional state."""
        if self.kind == "point" and self.x0 is not None and self.x0.shape != (dim,):
            raise UsageError(f"x0 has shape {self.x0.shape}, expected ({dim},)")
        if self.kind == "gaussian" and self.box is not None:
            try:
                low, high = (np.broadcast_to(np.asarray(b, float), (dim,)) for b in self.box)
            except ValueError:
                raise UsageError(f"box bounds must have 1 or {dim} values") from None
            if np.any(high <= low):
                raise UsageError("initial-law box must have high > low")


def _ndtr(x: float) -> float:
    """The standard normal distribution function at x."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _gaussian_density(points: np.ndarray) -> np.ndarray:
    d = points.shape[1]
    return np.exp(-0.5 * np.sum(points * points, axis=1)) / (2.0 * np.pi) ** (d / 2.0)


def _sample_initial(law: InitialLaw, dim: int, n_paths: int, rng) -> tuple[np.ndarray, np.ndarray]:
    law.check_dim(dim)
    if law.kind == "point":
        x0 = np.zeros(dim) if law.x0 is None else law.x0
        return np.tile(x0, (n_paths, 1)), np.ones(n_paths)
    pts = rng.standard_normal((n_paths, dim))
    z_box = 1.0
    if law.box is not None:
        low = np.broadcast_to(np.asarray(law.box[0], float), (dim,))
        high = np.broadcast_to(np.asarray(law.box[1], float), (dim,))
        for _ in range(10_000):
            bad = np.any((pts < low) | (pts > high), axis=1)
            if not bad.any():
                break
            pts[bad] = rng.standard_normal((int(bad.sum()), dim))
        else:
            raise NumericalError("rejection sampling for the initial box stalled")
        z_box = math.prod(_ndtr(hi) - _ndtr(lo) for lo, hi in zip(low, high))
    return pts, z_box / _gaussian_density(pts)


@dataclass(frozen=True)
class HuntPaths:
    """Euler-Maruyama ensemble with exact martingale increments.

    ``simulate_hunt`` stores ``x`` and ``dm`` slot by slot, so each time
    slot ``x[:, i]`` or ``dm[:, i]`` is one contiguous (n_paths, dim) view.
    """

    grid: TimeGrid
    x: np.ndarray = field(repr=False)        # (n_paths, n_steps+1, dim)
    dm: np.ndarray = field(repr=False)       # (n_paths, n_steps, dim)
    weights: np.ndarray = field(repr=False)  # (n_paths,)
    seed: int = 0
    init_kind: str = "point"
    digest: str = ""  # of x and weights: the seed does not fix paths from a supplied dw

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    def fingerprint(self) -> tuple:
        return (self.seed, self.n_paths, self.grid.n_steps, self.dim, self.init_kind,
                self.digest)


def simulate_hunt(field_spec: CoefficientField, init: InitialLaw, grid: TimeGrid,
                  n_paths: int, seed: int, dw: Optional[np.ndarray] = None) -> HuntPaths:
    """Simulate the diffusion; ``dw`` overrides internal Wiener sampling.

    Supplying ``dw`` (n_paths, n_steps, dim) lets refinement studies reuse
    one Brownian path across several step sizes.
    """
    if n_paths < 1:
        raise UsageError("n_paths must be >= 1")
    d, n = field_spec.dim, grid.n_steps
    rng = np.random.default_rng(seed)
    x0, weights = _sample_initial(init, d, n_paths, rng)
    if dw is None:
        dw = rng.standard_normal((n_paths, n, d)) * np.sqrt(grid.dt)
    else:
        dw = np.asarray(dw, dtype=float)
        if dw.shape != (n_paths, n, d):
            raise UsageError(f"dw has shape {dw.shape}, expected {(n_paths, n, d)}")

    x = np.empty((n + 1, n_paths, d))  # slot-major: each slot is contiguous
    dm = np.empty((n, n_paths, d))
    x[0] = x0
    for i in range(n):
        here = x[i]
        try:
            sig = field_spec.sigma_at(here)
        except NumericalError as exc:
            raise NumericalError(f"non-PSD coefficient at step {i}: {exc}") from exc
        step_m = np.sqrt(2.0) * np.einsum("pab,pb->pa", sig, dw[:, i])
        dm[i] = step_m
        x[i + 1] = here + step_m + field_spec.drift_at(here) * grid.dt
    digest = hashlib.blake2b(x, digest_size=16)
    digest.update(weights)
    return HuntPaths(grid, x.transpose(1, 0, 2), dm.transpose(1, 0, 2), weights, seed,
                     init.kind, digest.hexdigest())


def forward_integral(phi, paths: HuntPaths) -> np.ndarray:
    """Cumulative sums I(t_m) = sum_{i<m} phi(t_i) . dM_i, shape (p, n+1), of
    a ``phi`` as ``gbm.slot_integrand`` takes it.  The slot paired with dM_i
    is the left endpoint t_i (forward adaptedness); of n_steps + 1 slots, the
    horizon's is unused."""
    return stochastic_sums(slot_integrand(phi, paths, 0), paths.dm, backward=False)


@dataclass(frozen=True)
class ForwardIntegralReport:
    mean_total: float
    se_mean: float
    var_mc: float
    se_var: float
    model_variance: float      # 2 E int phi . a(X) . phi ds
    lower_bound: float         # 2 lam_min E int |phi|^2
    upper_bound: float         # 2 lam_max E int |phi|^2

    @property
    def sandwich_ok(self) -> bool:
        slack = CONFIDENCE * self.se_var
        return (self.var_mc >= self.lower_bound - slack
                and self.var_mc <= self.upper_bound + slack)


def forward_integral_diagnostics(phi, paths: HuntPaths,
                                 field_spec: CoefficientField) -> ForwardIntegralReport:
    """Variance of the terminal integral against the ellipticity sandwich."""
    total = forward_integral(phi, paths)[:, -1]
    p = total.size
    steps = np.broadcast_to(slot_integrand(phi, paths, 0), (p, paths.grid.n_steps, paths.dim))
    quad = np.zeros(p)
    norm_sq = np.zeros(p)
    for i in range(paths.grid.n_steps):
        a_here = field_spec.a_at(paths.x[:, i])
        quad += np.einsum("pa,pab,pb->p", steps[:, i], a_here, steps[:, i]) * paths.grid.dt
        norm_sq += np.sum(steps[:, i] ** 2, axis=-1) * paths.grid.dt
    var_mc = float(np.var(total, ddof=1)) if p > 1 else 0.0
    se_var = var_mc * np.sqrt(2.0 / max(p - 1, 1))
    return ForwardIntegralReport(
        mean_total=float(np.mean(total)),
        se_mean=float(standard_error(total)),
        var_mc=var_mc,
        se_var=float(se_var),
        model_variance=float(2.0 * np.mean(quad)),
        lower_bound=float(2.0 * field_spec.lam_min * np.mean(norm_sq)),
        upper_bound=float(2.0 * field_spec.lam_max * np.mean(norm_sq)),
    )


@dataclass(frozen=True)
class BracketReport:
    """Path-averaged empirical bracket against 2 int a(X) ds on shared paths."""

    max_rel_dev_diag: float
    offdiag_ok: bool


def empirical_bracket(paths: HuntPaths, field_spec: CoefficientField) -> BracketReport:
    """Compare cumulative dM_i dM_j sums with the left-endpoint quadrature of
    2 a^{ij}(X) along the same paths; relative deviation is over the diagonal
    entries at every positive grid time, and each off-diagonal entry at the
    horizon is tested against CONFIDENCE standard errors of its path mean."""
    # einsum's order of summation follows the memory layout: summing over a
    # path-major copy keeps the bracket's floats independent of the slot-major
    # storage of the ensemble.
    dm = np.ascontiguousarray(paths.dm)
    p, n, d = dm.shape
    model_steps = np.zeros((n, d, d))
    for i in range(n):
        model_steps[i] = np.mean(field_spec.a_at(paths.x[:, i]), axis=0) * (2.0 * paths.grid.dt)
    empirical = np.cumsum(np.einsum("pia,pib->iab", dm, dm) / p, axis=0)
    model = np.cumsum(model_steps, axis=0)

    diag = np.arange(d)
    emp_d, mod_d = empirical[:, diag, diag], model[:, diag, diag]
    rel = np.abs(emp_d - mod_d) / np.maximum(np.abs(mod_d), 1e-300)
    final_se = standard_error(np.einsum("pia,pib->pab", dm, dm))
    off_ok = all(abs(empirical[-1, a, b] - model[-1, a, b]) <= CONFIDENCE * final_se[a, b]
                 for a in range(d) for b in range(d) if a != b)
    return BracketReport(float(np.max(rel)), bool(off_ok))
