"""Divergence-form diffusions and forward integrals against their martingale part.

The process solves dX = sqrt(2) sigma(X) dW + div_row a(X) dt with
sigma = a^{1/2}, stepped by explicit Euler-Maruyama.  The martingale
increments dM = sqrt(2) sigma(X) dW are recorded exactly as used, so the
bracket identity <M^i, M^j> = 2 int a^{ij}(X) ds can be checked against the
same paths.  Simulation needs C^1 coefficients: the drift uses the analytic
row divergence when supplied, otherwise central finite differences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

from ._util import Scalars
from .errors import NumericalError, UsageError
from .gbm import CONFIDENCE, TimeGrid
from .scenario import PSD_EIG_FLOOR

FD_STEP = 1e-5


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
    """Diffusion matrix a(x) with ellipticity bounds and optional drift.

    ``a`` maps points (n, dim) to matrices (n, dim, dim); ``drift``, when
    given, maps points to the row divergence sum_j d_j a^{ij}.  Without it
    the drift falls back to central differences with step ``FD_STEP``.
    """

    dim: int
    a: Callable[[np.ndarray], np.ndarray]
    lam_min: float
    lam_max: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
        if self.drift is not None:
            out = np.asarray(self.drift(pts), dtype=float)
            if out.shape != pts.shape:
                raise UsageError(f"drift returned shape {out.shape}, expected {pts.shape}")
            return out
        h = FD_STEP
        out = np.zeros_like(pts)
        for j in range(self.dim):
            shift = np.zeros(self.dim)
            shift[j] = h
            diff = (self.a_at(pts + shift) - self.a_at(pts - shift)) / (2.0 * h)
            out += diff[:, :, j]
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
        from scipy.special import ndtr  # only this branch needs it; its import is slow
        z_box = float(np.prod(ndtr(high) - ndtr(low)))
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


def _phi_steps(phi: np.ndarray, paths: HuntPaths) -> np.ndarray:
    """Left-endpoint integrand slots aligned with dM, shape (..., n_steps, d)."""
    arr = np.asarray(phi, dtype=float)
    n, d = paths.grid.n_steps, paths.dim
    if arr.ndim < 2 or arr.shape[-1] != d:
        raise UsageError(f"integrand must have {d} columns, got shape {arr.shape}")
    if arr.shape[-2] == n + 1:
        arr = arr[..., :n, :]
    elif arr.shape[-2] != n:
        raise UsageError(
            f"integrand must have {n} or {n + 1} time slots, got {arr.shape[-2]}"
        )
    return arr


def forward_integral(phi, paths: HuntPaths) -> np.ndarray:
    """Cumulative sums I(t_m) = sum_{i<m} phi(t_i) . dM_i, shape (p, n+1).

    The slot paired with dM_i is the left endpoint t_i (forward adaptedness);
    a trailing slot at the horizon, if present, is ignored.
    """
    steps = _phi_steps(phi, paths)
    contrib = np.sum(steps * paths.dm, axis=-1)
    if contrib.shape[0] != paths.n_paths:
        contrib = np.broadcast_to(contrib, (paths.n_paths, contrib.shape[-1])).copy()
    out = np.zeros((paths.n_paths, contrib.shape[1] + 1))
    out[:, 1:] = np.cumsum(contrib, axis=1)
    return out


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
    steps = _phi_steps(phi, paths)
    if steps.ndim == 2:
        steps = np.broadcast_to(steps, (p,) + steps.shape)
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
        se_mean=float(np.std(total, ddof=1) / np.sqrt(p)) if p > 1 else 0.0,
        var_mc=var_mc,
        se_var=float(se_var),
        model_variance=float(2.0 * np.mean(quad)),
        lower_bound=float(2.0 * field_spec.lam_min * np.mean(norm_sq)),
        upper_bound=float(2.0 * field_spec.lam_max * np.mean(norm_sq)),
    )


@dataclass(frozen=True)
class BracketReport:
    """Path-averaged empirical bracket against 2 int a(X) ds on shared paths."""

    times: np.ndarray = field(repr=False)
    empirical: np.ndarray = field(repr=False)   # (n+1, d, d) cumulative means
    model: np.ndarray = field(repr=False)       # (n+1, d, d)
    max_rel_dev_diag: float
    final_se: np.ndarray = field(repr=False)    # (d, d) SE of empirical at horizon
    offdiag_ok: bool


def empirical_bracket(paths: HuntPaths, field_spec: CoefficientField) -> BracketReport:
    """Compare cumulative dM_i dM_j sums with the left-endpoint quadrature of
    2 a^{ij}(X) along the same paths; relative deviation is over the diagonal
    entries at every positive grid time."""
    # einsum's order of summation follows the memory layout: summing over a
    # path-major copy keeps the bracket's floats independent of the slot-major
    # storage of the ensemble.
    dm = np.ascontiguousarray(paths.dm)
    p, n, d = dm.shape
    emp_steps = np.einsum("pia,pib->iab", dm, dm) / p
    model_steps = np.zeros((n, d, d))
    for i in range(n):
        model_steps[i] = np.mean(field_spec.a_at(paths.x[:, i]), axis=0) * (2.0 * paths.grid.dt)
    empirical = np.zeros((n + 1, d, d))
    model = np.zeros((n + 1, d, d))
    empirical[1:] = np.cumsum(emp_steps, axis=0)
    model[1:] = np.cumsum(model_steps, axis=0)

    diag = np.arange(d)
    emp_d = empirical[1:, diag, diag]
    mod_d = model[1:, diag, diag]
    rel = np.abs(emp_d - mod_d) / np.maximum(np.abs(mod_d), 1e-300)
    per_path_total = np.einsum("pia,pib->pab", dm, dm)
    final_se = np.std(per_path_total, axis=0, ddof=1) / np.sqrt(p) if p > 1 else np.zeros((d, d))
    off_ok = True
    for a in range(d):
        for b in range(d):
            if a != b:
                off_ok &= abs(empirical[-1, a, b] - model[-1, a, b]) <= CONFIDENCE * final_se[a, b]
    return BracketReport(
        times=paths.grid.times,
        empirical=empirical,
        model=model,
        max_rel_dev_diag=float(np.max(rel)),
        final_se=final_se,
        offdiag_ok=bool(off_ok),
    )
