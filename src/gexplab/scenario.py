"""Finite scenario families for sublinear expectations.

The uncertainty set is a finite list of l-by-l volatility loadings
``beta_k``.  Every sublinear quantity — the bound ``sigma_bar``, upper
expectations — is a maximum over the scenarios, so refining the family is a
configuration change, not a code change.  All operations are pure functions
of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

# Symmetric-eigenvalue tolerance: values above this are clamped to zero,
# anything below is treated as a genuinely indefinite matrix.
PSD_EIG_FLOOR = -1e-12


@dataclass(frozen=True)
class ScenarioSet:
    """Non-empty family of volatility loading matrices, one per scenario."""

    matrices: np.ndarray  # (n_scenarios, l, l)

    def __post_init__(self):
        arr = np.array(self.matrices, dtype=float)
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise UsageError(
                "scenario matrices must form a non-empty (k, l, l) stack, "
                f"got shape {arr.shape}"
            )
        if arr.shape[1] != arr.shape[2]:
            raise UsageError(f"scenario matrices must be square, got {arr.shape[1:]}")
        if not np.all(np.isfinite(arr)):
            raise UsageError("scenario matrices must have finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "matrices", arr)

    @classmethod
    def from_list(cls, matrices) -> "ScenarioSet":
        return cls(np.stack([np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]))

    @property
    def n_scenarios(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        """Driver dimension l."""
        return self.matrices.shape[1]

    def covariances(self) -> np.ndarray:
        """Per-scenario beta beta^T, shape (k, l, l)."""
        return np.einsum("kab,kcb->kac", self.matrices, self.matrices)


def sigma_bar(scenarios: ScenarioSet) -> float:
    """Smallest c with beta_k beta_k^T <= c^2 I for every scenario.

    Computed as the square root of the largest eigenvalue over the family;
    eigenvalues in [PSD_EIG_FLOOR, 0) are clamped to zero.
    """
    eigs = np.linalg.eigvalsh(scenarios.covariances())
    top = float(np.max(eigs))
    if top < PSD_EIG_FLOOR:
        raise UsageError(f"scenario covariance has negative eigenvalue {top:.3e}")
    return float(np.sqrt(max(top, 0.0)))


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control: one scenario index per time step."""

    indices: np.ndarray  # (n_steps,) ints

    def __post_init__(self):
        arr = np.array(self.indices, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise UsageError("schedule must be a non-empty 1-D index array")
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    @property
    def n_steps(self) -> int:
        return self.indices.shape[0]

    def validate_against(self, scenarios: ScenarioSet, n_steps: int) -> None:
        if self.n_steps != n_steps:
            raise UsageError(
                f"schedule has {self.n_steps} steps, time grid has {n_steps}"
            )
        if self.indices.min() < 0 or self.indices.max() >= scenarios.n_scenarios:
            raise UsageError("schedule index outside the scenario family")

    def constant_index(self) -> int | None:
        """Scenario index if the schedule is constant, else None."""
        first = int(self.indices[0])
        return first if np.all(self.indices == first) else None


def constant_schedule(scenario_index: int, n_steps: int) -> ControlSchedule:
    return ControlSchedule(np.full(n_steps, scenario_index, dtype=np.int64))


def enumerate_schedules(
    scenarios: ScenarioSet, n_steps: int, n_random: int = 0, seed: int = 0
) -> list[ControlSchedule]:
    """All constant schedules plus seeded random piecewise-constant ones.

    This is the computable stand-in for the supremum over adapted controls.
    """
    out = [constant_schedule(k, n_steps) for k in range(scenarios.n_scenarios)]
    if n_random > 0:
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            out.append(
                ControlSchedule(rng.integers(0, scenarios.n_scenarios, size=n_steps))
            )
    return out


def standard_error(samples) -> np.ndarray:
    """Standard error of the sample mean over the leading axis; 0 from one
    sample."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    return np.std(x, axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(x.shape[1:])


@dataclass(frozen=True)
class UpperExpectation:
    """Max-over-scenarios sample mean with per-scenario diagnostics."""

    value: float
    argmax: int
    means: np.ndarray = field(repr=False)
    std_errors: np.ndarray = field(repr=False)


def _scenario_stats(per_scenario_samples) -> tuple[np.ndarray, np.ndarray]:
    if len(per_scenario_samples) == 0:
        raise UsageError("need at least one scenario sample vector")
    means, ses = [], []
    for k, raw in enumerate(per_scenario_samples):
        x = np.asarray(raw, dtype=float).ravel()
        if x.size == 0:
            raise UsageError(f"scenario {k} has no samples")
        means.append(float(np.mean(x)))
        ses.append(float(standard_error(x)))
    return np.array(means), np.array(ses)


def upper_expectation(per_scenario_samples) -> UpperExpectation:
    """Sublinear expectation estimate: max over scenarios of the MC mean."""
    means, ses = _scenario_stats(per_scenario_samples)
    k = int(np.argmax(means))
    return UpperExpectation(float(means[k]), k, means, ses)

