"""G-Brownian path ensembles and backward stochastic integrals.

Paths are built from a seeded Wiener driver sampled in the reversed time
coordinate.  With backward increments ``dB_i = B(t_i) - B(t_{i+1})`` the
construction is

    dB_i = -beta_{k(i)} @ dW_rev[N-1-i],

where ``k(i)`` is the scheduled scenario for the original step ``i``.  That
identity is exact per path and is the contract tests assert bitwise.

Backward integrals pair the integrand slot ``t_{i+1}`` with ``dB_i``; this
is the discrete image of integrands measurable for the backward filtration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import Count, Positive
from .errors import UsageError
from .scenario import ControlSchedule, ScenarioSet, sigma_bar

# Every Monte Carlo tolerance band is this many standard errors wide.
CONFIDENCE = 3.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into n_steps steps; the field types
    are the config schema of ``time_grid``."""

    horizon: Positive
    n_steps: Count

    def __post_init__(self):
        if not (self.horizon > 0.0):
            raise UsageError("horizon must be positive")
        if self.n_steps < 1:
            raise UsageError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times, computed once per grid and read-only,
        since every caller shares the one array."""
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.flags.writeable = False
        return times


@dataclass(frozen=True)
class DriverPaths:
    """Seeded Wiener increments: those behind the G-noise, in the reversed
    time coordinate, or the diffusion's Brownian steps."""

    grid: TimeGrid
    increments: np.ndarray  # (n_paths, n_steps, dim), variance dt each
    seed: int

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]


def sample_driver(grid: TimeGrid, n_paths: int, dim: int, seed: int) -> DriverPaths:
    """Independent N(0, dt) increments; identical output for identical seed."""
    if n_paths < 1:
        raise UsageError("n_paths must be >= 1")
    if dim < 1:
        raise UsageError("driver dimension must be >= 1")
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((n_paths, grid.n_steps, dim)) * np.sqrt(grid.dt)
    return DriverPaths(grid, dw, seed)


def _merge(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum each run of ``factor`` steps of (n_paths, n_steps, dim) increments."""
    p, n, l = increments.shape
    if factor < 1 or n % factor:
        raise UsageError(f"cannot coarsen {n} steps by factor {factor}")
    return increments.reshape(p, n // factor, factor, l).sum(axis=2)


def coarsen_driver(driver: DriverPaths, factor: int) -> DriverPaths:
    """Merge consecutive increments onto a grid ``factor`` times coarser."""
    merged = _merge(driver.increments, factor)
    return DriverPaths(TimeGrid(driver.grid.horizon, merged.shape[1]), merged, driver.seed)


def coarsen_gbm(paths: "GBMPaths", factor: int) -> "GBMPaths":
    """Merge consecutive backward increments onto a coarser grid.

    Valid because dB telescopes: the merged step is B(t_i) - B(t_{i+factor}).
    The schedule must be constant within each merged block.
    """
    db = _merge(paths.db, factor)
    blocks = paths.schedule.indices.reshape(db.shape[1], factor)
    if not np.all(blocks == blocks[:, :1]):
        raise UsageError("schedule is not constant within coarsening blocks")
    return GBMPaths(TimeGrid(paths.grid.horizon, db.shape[1]), paths.scenarios,
                    ControlSchedule(blocks[:, 0]), db, paths.driver_seed)


@dataclass(frozen=True)
class GBMPaths:
    """Backward increments of B per path under one control schedule."""

    grid: TimeGrid
    scenarios: ScenarioSet
    schedule: ControlSchedule
    db: np.ndarray = field(repr=False)  # (n_paths, n_steps, dim): B(t_i) - B(t_{i+1})
    driver_seed: int = 0

    @property
    def n_paths(self) -> int:
        return self.db.shape[0]

    @property
    def dim(self) -> int:
        return self.db.shape[2]

    @property
    def scenario_id(self) -> int:
        """Constant-schedule scenario index, or -1 for mixed schedules."""
        k = self.schedule.constant_index()
        return -1 if k is None else k

    def levels(self) -> np.ndarray:
        """B anchored at B(horizon) = 0, shape (n_paths, n_steps+1, dim)."""
        p, n, l = self.db.shape
        out = np.zeros((p, n + 1, l))
        out[:, :n] = np.flip(np.cumsum(np.flip(self.db, axis=1), axis=1), axis=1)
        return out

    def fingerprint(self) -> tuple:
        return (self.driver_seed, self.n_paths, self.grid.n_steps,
                self.dim, tuple(self.schedule.indices.tolist()))


def build_gbm(driver: DriverPaths, schedule: ControlSchedule,
              scenarios: ScenarioSet) -> GBMPaths:
    """Assemble backward increments for one schedule from a shared driver."""
    schedule.validate_against(scenarios, driver.grid.n_steps)
    if scenarios.dim != driver.dim:
        raise UsageError(
            f"scenario dimension {scenarios.dim} != driver dimension {driver.dim}"
        )
    n = driver.grid.n_steps
    db = np.empty_like(driver.increments)
    # Per-step matmul keeps the reduction order fixed, so the identity
    # dB_i = -beta_{k(i)} @ dW_rev[N-1-i] holds at the bit level.
    for i in range(n):
        beta = scenarios.matrices[schedule.indices[i]]
        db[:, i, :] = -(driver.increments[:, n - 1 - i, :] @ beta.T)
    return GBMPaths(driver.grid, scenarios, schedule, db, driver.seed)


def _integrand_steps(xi: np.ndarray, paths: GBMPaths) -> np.ndarray:
    """Right-endpoint integrand slots aligned with dB, shape (..., n_steps, l)."""
    arr = np.asarray(xi, dtype=float)
    n, l = paths.grid.n_steps, paths.dim
    if arr.ndim < 2 or arr.shape[-1] != l:
        raise UsageError(f"integrand must have {l} columns, got shape {arr.shape}")
    if arr.shape[-2] == n + 1:
        arr = arr[..., 1:, :]
    elif arr.shape[-2] != n:
        raise UsageError(
            f"integrand must have {n} or {n + 1} time slots, got {arr.shape[-2]}"
        )
    if arr.ndim == 3 and arr.shape[0] not in (1, paths.n_paths):
        raise UsageError("per-path integrand does not match the path count")
    return arr


def backward_integral(xi, paths: GBMPaths) -> np.ndarray:
    """I(t_n) = sum_{i>=n} xi(t_{i+1}) . dB_i per path; I(horizon) = 0.

    ``xi`` is deterministic ``(n_steps[+1], l)`` or per-path
    ``(n_paths, n_steps[+1], l)``; when ``n_steps+1`` slots are supplied the
    slot at t_0 is unused (the pairing starts at t_1).
    """
    steps = _integrand_steps(xi, paths)
    contrib = np.sum(steps * paths.db, axis=-1)      # broadcasts to (p, n)
    if contrib.shape[0] != paths.n_paths:
        contrib = np.broadcast_to(contrib, (paths.n_paths, contrib.shape[-1])).copy()
    p, n = contrib.shape
    out = np.zeros((p, n + 1))
    out[:, :n] = np.flip(np.cumsum(np.flip(contrib, axis=1), axis=1), axis=1)
    return out


def integrand_square_integral(xi, paths: GBMPaths) -> np.ndarray:
    """Per-path integral of |xi|^2 dt with the same slot convention."""
    steps = _integrand_steps(xi, paths)
    q = np.sum(steps * steps, axis=(-2, -1)) * paths.grid.dt
    return np.broadcast_to(q, (paths.n_paths,)) if q.ndim == 0 else q


@dataclass(frozen=True)
class ScenarioIntegralStats:
    scenario_id: int
    mean_i0: float
    se_i0: float
    second_moment: float
    se_second: float
    sup_moment: float
    se_sup: float
    xi_square: float


@dataclass(frozen=True)
class IntegralDiagnostics:
    """Monte Carlo report for one integrand over an enumerated control family.

    Upper expectations are maxima across schedules; the isometry bound uses
    sigma_bar^2 * sup_E[int |xi|^2] and the maximal-inequality bound four
    times that.  Each bound is tested against its tolerance, the bound
    widened by CONFIDENCE relative standard errors of the moment it caps.
    """

    sigma_bar: float
    per_scenario: tuple
    mean_abs_max: float
    mean_band: float
    mean_zero_ok: bool
    second_moment: float
    isometry_bound: float
    isometry_tolerance: float
    isometry_ok: bool
    sup_moment: float
    doob_bound: float
    doob_tolerance: float
    doob_ok: bool


def integral_diagnostics(xi, paths_family) -> IntegralDiagnostics:
    """Diagnostics for the backward integral of ``xi`` across schedules.

    ``paths_family`` is a sequence of GBMPaths built from a shared driver,
    one entry per enumerated schedule.
    """
    if len(paths_family) == 0:
        raise UsageError("need at least one path bundle")
    sbar = sigma_bar(paths_family[0].scenarios)
    rows = []
    for paths in paths_family:
        i_all = backward_integral(xi, paths)
        i0 = i_all[:, 0]
        sup_sq = np.max(i_all * i_all, axis=1)
        q = integrand_square_integral(xi, paths)
        p = i0.size

        def _mse(x):
            se = float(np.std(x, ddof=1) / np.sqrt(p)) if p > 1 else 0.0
            return float(np.mean(x)), se

        m0, s0 = _mse(i0)
        m2, s2 = _mse(i0 * i0)
        ms, ss = _mse(sup_sq)
        rows.append(ScenarioIntegralStats(paths.scenario_id, m0, s0, m2, s2, ms, ss,
                                          float(np.mean(q))))

    # Mean-zero is a per-scenario statement; report the scenario with the
    # worst |mean| to band ratio.
    worst = max(rows, key=lambda r: abs(r.mean_i0) / (CONFIDENCE * r.se_i0 + 1e-300))
    mean_abs = abs(worst.mean_i0)
    band = CONFIDENCE * worst.se_i0
    mean_ok = all(abs(r.mean_i0) <= CONFIDENCE * r.se_i0 + 1e-15 for r in rows)
    m2 = max(r.second_moment for r in rows)
    m2_se = max(r.se_second for r in rows)
    sup_m = max(r.sup_moment for r in rows)
    sup_se = max(r.se_sup for r in rows)
    qmax = max(r.xi_square for r in rows)
    iso_bound = sbar**2 * qmax
    doob_bound = 4.0 * sbar**2 * qmax
    iso_tol = iso_bound * (1.0 + CONFIDENCE * (m2_se / m2 if m2 > 0 else 0.0)) + 1e-15
    doob_tol = doob_bound * (1.0 + CONFIDENCE * (sup_se / sup_m if sup_m > 0 else 0.0)) + 1e-15
    return IntegralDiagnostics(
        sigma_bar=sbar,
        per_scenario=tuple(rows),
        mean_abs_max=mean_abs,
        mean_band=band,
        mean_zero_ok=mean_ok,
        second_moment=m2,
        isometry_bound=iso_bound,
        isometry_tolerance=iso_tol,
        isometry_ok=bool(m2 <= iso_tol),
        sup_moment=sup_m,
        doob_bound=doob_bound,
        doob_tolerance=doob_tol,
        doob_ok=bool(sup_m <= doob_tol),
    )
