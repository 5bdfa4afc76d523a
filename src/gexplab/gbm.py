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
from .scenario import (ControlSchedule, ScenarioSet, UpperExpectation, sigma_bar,
                       upper_expectation)

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


def slot_integrand(phi, paths, first: int) -> np.ndarray:
    """The integrand slots paired with the n_steps increments of ``paths``
    (a GBMPaths or a diffusion ensemble), shaped (..., n_steps, dim).

    ``phi`` is deterministic ``(n_steps[+1], dim)`` or per path ``(1 or
    n_paths, n_steps[+1], dim)``.  Of n_steps + 1 slots, the n_steps from
    slot ``first`` are taken: 1 for the backward integral, whose slot
    t_{i+1} pairs with dB_i, and 0 for the forward one, whose t_i pairs with
    dM_i."""
    arr = np.asarray(phi, dtype=float)
    n, dim = paths.grid.n_steps, paths.dim
    if arr.ndim < 2 or arr.shape[-1] != dim:
        raise UsageError(f"integrand must have {dim} columns, got shape {arr.shape}")
    if arr.shape[-2] == n + 1:
        arr = arr[..., first:first + n, :]
    elif arr.shape[-2] != n:
        raise UsageError(f"integrand must have {n} or {n + 1} time slots, got {arr.shape[-2]}")
    if arr.ndim == 3 and arr.shape[0] not in (1, paths.n_paths):
        raise UsageError("per-path integrand does not match the path count")
    return arr


def stochastic_sums(steps: np.ndarray, increments: np.ndarray, backward: bool) -> np.ndarray:
    """The integral of ``slot_integrand`` slots against (p, n, dim) increments
    at every grid time, shaped (p, n + 1): summed from the horizon, where it
    is 0, when ``backward``, else from t_0, where it is 0."""
    contrib = np.sum(steps * increments, axis=-1)      # broadcasts to (p, n)
    p, n = contrib.shape
    out = np.zeros((p, n + 1))
    if backward:
        out[:, :n] = np.flip(np.cumsum(np.flip(contrib, axis=1), axis=1), axis=1)
    else:
        out[:, 1:] = np.cumsum(contrib, axis=1)
    return out


def backward_integral(xi, paths: GBMPaths) -> np.ndarray:
    """I(t_n) = sum_{i>=n} xi(t_{i+1}) . dB_i per path, I(horizon) = 0, of an
    ``xi`` as ``slot_integrand`` takes it; of n_steps + 1 slots, t_0's is unused."""
    return stochastic_sums(slot_integrand(xi, paths, 1), paths.db, backward=True)


def integrand_square_integral(xi, paths: GBMPaths) -> np.ndarray:
    """Per-path integral of |xi|^2 dt with the same slot convention."""
    steps = slot_integrand(xi, paths, 1)
    q = np.sum(steps * steps, axis=(-2, -1)) * paths.grid.dt
    return np.broadcast_to(q, (paths.n_paths,))


@dataclass(frozen=True)
class IntegralDiagnostics:
    """Monte Carlo report for one integrand over an enumerated control family.

    Upper expectations are maxima across schedules; the isometry bound uses
    sigma_bar^2 * sup_E[int |xi|^2] and the maximal-inequality bound four
    times that.  Each bound is tested against its tolerance, the bound
    widened by CONFIDENCE relative standard errors of the moment it caps.
    """

    sigma_bar: float
    per_scenario: tuple  # one record per schedule, as gbm_report.json writes it
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


def _widened(bound: float, moment: UpperExpectation) -> float:
    """``bound`` widened by CONFIDENCE relative standard errors of the moment
    it caps, taking the largest per-schedule standard error."""
    rel_se = float(np.max(moment.std_errors)) / moment.value if moment.value > 0 else 0.0
    return bound * (1.0 + CONFIDENCE * rel_se) + 1e-15


def integral_diagnostics(xi, paths_family) -> IntegralDiagnostics:
    """Diagnostics for the backward integral of ``xi`` across schedules.

    ``paths_family`` is a sequence of GBMPaths built from a shared driver,
    one entry per enumerated schedule; every mean, standard error and
    supremum over it is ``upper_expectation``'s.
    """
    if len(paths_family) == 0:
        raise UsageError("need at least one path bundle")
    sbar = sigma_bar(paths_family[0].scenarios)
    i0s, sup_sqs, xi_sqs = [], [], []
    for paths in paths_family:
        i_all = backward_integral(xi, paths)
        i0s.append(i_all[:, 0])
        sup_sqs.append(np.max(i_all * i_all, axis=1))
        xi_sqs.append(integrand_square_integral(xi, paths))
    first = upper_expectation(i0s)
    second = upper_expectation([i0 * i0 for i0 in i0s])
    sup = upper_expectation(sup_sqs)
    xi_sq = upper_expectation(xi_sqs)

    # Mean-zero is a per-scenario statement; report the scenario with the
    # worst |mean| to band ratio.
    bands = CONFIDENCE * first.std_errors
    worst = int(np.argmax(np.abs(first.means) / (bands + 1e-300)))
    iso_bound = sbar**2 * xi_sq.value
    doob_bound = 4.0 * sbar**2 * xi_sq.value
    iso_tol, doob_tol = _widened(iso_bound, second), _widened(doob_bound, sup)
    return IntegralDiagnostics(
        sigma_bar=sbar,
        per_scenario=tuple(
            {"scenario_id": paths.scenario_id, "mean_i0": float(first.means[k]),
             "se_i0": float(first.std_errors[k]), "second_moment": float(second.means[k]),
             "sup_moment": float(sup.means[k]), "xi_square": float(xi_sq.means[k])}
            for k, paths in enumerate(paths_family)),
        mean_abs_max=float(abs(first.means[worst])),
        mean_band=float(bands[worst]),
        mean_zero_ok=bool(np.all(np.abs(first.means) <= bands + 1e-15)),
        second_moment=second.value,
        isometry_bound=iso_bound,
        isometry_tolerance=iso_tol,
        isometry_ok=bool(second.value <= iso_tol),
        sup_moment=sup.value,
        doob_bound=doob_bound,
        doob_tolerance=doob_tol,
        doob_ok=bool(sup.value <= doob_tol),
    )
