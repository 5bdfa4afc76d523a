"""Cross-module verification: the pathwise representation of the grid
solution and the ordering of solutions under ordered data.

Every check runs per scenario and reports the worst case; every check takes
the shared path bundles explicitly and refuses mismatched randomness, so a
re-run under the same seed reproduces the report bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .bdsde import BdsdeSolution
from .errors import NumericalError, UsageError
from .gbm import GBMPaths, TimeGrid, coarsen_gbm
from .hunt import CoefficientField, HuntPaths
from .pde import GspdeProblem, RandomField, SpatialGrid, solve_gspde

REL_RMS_FLOOR = 1e-12
# The y and v values at which the comparison check samples the reaction gap.
ORDERING_SAMPLES = (-2.0, -1.0, 0.0, 1.0, 2.0)


def checkpoint_indices(checkpoints, grid: TimeGrid) -> list[int]:
    out = []
    for t in checkpoints:
        idx = int(round(t / grid.dt))
        if idx < 0 or idx > grid.n_steps or abs(idx * grid.dt - t) > 1e-9 * max(1.0, grid.horizon):
            raise UsageError(f"checkpoint {t} is not a grid time")
        out.append(idx)
    return out


def _interp_paths(grid_values: np.ndarray, sg: SpatialGrid, points: np.ndarray) -> np.ndarray:
    if sg.dim != 1:
        raise UsageError("path interpolation of grid fields is 1-D only")
    return np.interp(points, sg.axis(), grid_values)


@dataclass(frozen=True)
class CheckpointMetrics:
    t: float
    rel_rms_y: float
    rel_rms_z: float
    rel_rms_z_sigma: float
    ref_rms: float


def _check_provenance(u_field: RandomField, sol: BdsdeSolution,
                      hunt: HuntPaths, gbm: GBMPaths) -> None:
    if u_field.gbm_fingerprint != gbm.fingerprint():
        raise UsageError("grid solution was built from different noise paths")
    if sol.gbm_fingerprint != gbm.fingerprint():
        raise UsageError("backward solution was built from different noise paths")
    if sol.hunt_fingerprint != hunt.fingerprint():
        raise UsageError("backward solution was built from a different diffusion ensemble")
    if u_field.time_grid != gbm.grid or sol.time_grid != gbm.grid:
        raise UsageError("time grids of the two solves do not match")


def representation_errors(u_field: RandomField, sol: BdsdeSolution,
                          hunt: HuntPaths, gbm: GBMPaths,
                          checkpoints: Sequence[float],
                          field_spec: CoefficientField) -> list[CheckpointMetrics]:
    """Relative RMS of u(t, X_t) - Y_t and grad u(t, X_t) - Z_t for one
    scenario at the requested grid times; raises NumericalError naming the
    first time whose sums of squares are not finite."""
    _check_provenance(u_field, sol, hunt, gbm)
    sg = u_field.space_grid
    indices = checkpoint_indices(checkpoints, u_field.time_grid)
    out = []
    for idx in indices:
        pos = hunt.x[:, idx, 0]
        err_y, ref_y, err_z, ref_z, err_zs, ref_zs = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        sig = field_spec.sigma_at(hunt.x[:, idx, :])[:, 0, 0]
        y, z = sol.slot(idx)
        for b in range(u_field.n_paths):
            u_here = _interp_paths(u_field.values[b, idx], sg, pos)
            grad_here = _interp_paths(sg.gradient(u_field.values[b, idx])[:, 0], sg, pos)
            dy = u_here - y[b]
            dz = grad_here - z[b, :, 0]
            err_y += float(np.mean(dy**2))
            ref_y += float(np.mean(u_here**2))
            err_z += float(np.mean(dz**2))
            ref_z += float(np.mean(grad_here**2))
            err_zs += float(np.mean((dz * sig) ** 2))
            ref_zs += float(np.mean((grad_here * sig) ** 2))
        t = float(u_field.time_grid.times[idx])
        if not np.all(np.isfinite((err_y, ref_y, err_z, ref_z, err_zs, ref_zs))):
            raise NumericalError(f"representation errors at t = {t:g} are not finite")
        ref_rms = np.sqrt(ref_y / u_field.n_paths)
        out.append(CheckpointMetrics(
            t=t,
            rel_rms_y=float(np.sqrt(err_y / u_field.n_paths) / max(ref_rms, REL_RMS_FLOOR)),
            rel_rms_z=float(np.sqrt(err_z / max(ref_z, REL_RMS_FLOOR))),
            rel_rms_z_sigma=float(np.sqrt(err_zs / max(ref_zs, REL_RMS_FLOOR))),
            ref_rms=float(ref_rms),
        ))
    return out


def check_representation(solves: Iterable[tuple[RandomField, BdsdeSolution, GBMPaths]],
                         hunt: HuntPaths, checkpoints: Sequence[float],
                         field_spec: CoefficientField) -> tuple[CheckpointMetrics, ...]:
    """Worst case per checkpoint over the per-scenario (grid field, backward
    solution, noise bundle) triples of ``solves``, which share one diffusion
    ensemble.  Each triple is dropped before the next is drawn, so a
    generator of solves keeps one scenario's solves alive at a time."""
    worst = None
    for u_field, sol, gbm in solves:
        metrics = representation_errors(u_field, sol, hunt, gbm, checkpoints, field_spec)
        del u_field, sol  # the next scenario's solves must not run beside these
        worst = metrics if worst is None else [
            CheckpointMetrics(t=w.t, rel_rms_y=max(w.rel_rms_y, m.rel_rms_y),
                              rel_rms_z=max(w.rel_rms_z, m.rel_rms_z),
                              rel_rms_z_sigma=max(w.rel_rms_z_sigma, m.rel_rms_z_sigma),
                              ref_rms=min(w.ref_rms, m.ref_rms))
            for w, m in zip(worst, metrics)]
    if worst is None:
        raise UsageError("need at least one scenario")
    return tuple(replace(w, t=float(t)) for w, t in zip(worst, checkpoints))


# -- comparison ---------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    min_gap: float
    eps_grid: float
    c_constant: float
    per_scenario: tuple


def _sample_ordering(problem_a: GspdeProblem, problem_b: GspdeProblem) -> None:
    sg, tg = problem_a.space_grid, problem_a.time_grid
    psi_gap = problem_b.terminal - problem_a.terminal
    if float(np.min(psi_gap)) < -1e-12:
        raise UsageError("terminal data are not ordered: min(psi_b - psi_a) < 0")
    pts = sg.points()
    for t in (0.0, 0.5 * tg.horizon, tg.horizon):
        for yv in ORDERING_SAMPLES:
            for zv in ORDERING_SAMPLES:
                y = np.full(sg.n_nodes, yv)
                z = np.full((sg.n_nodes, sg.dim), zv)
                gap = np.asarray(problem_b.reaction(t, pts, y, z)) - \
                    np.asarray(problem_a.reaction(t, pts, y, z))
                if float(np.min(gap)) < -1e-12:
                    raise UsageError(
                        f"reaction terms are not ordered at t={t}, y={yv}, z={zv}"
                    )


def _case_gaps(problem_a: GspdeProblem, problems_b: Sequence[GspdeProblem], fa: RandomField,
               gbm: GBMPaths, mask: np.ndarray) -> list[tuple[float, float]]:
    """Per case, the worst gap min(u_b - u_a) on ``mask`` over one scenario
    bundle and the step-doubling probe max|gap - coarse gap| (0 when the step
    count is odd), both taken slot by slot.  A case's fields go before the
    next case is solved."""
    n = gbm.grid.n_steps
    halve = n % 2 == 0
    if halve:
        coarse = coarsen_gbm(gbm, 2)
        fac = solve_gspde(replace(problem_a, time_grid=coarse.grid), coarse)

    def case(problem_b):
        fb = solve_gspde(problem_b, gbm)
        if halve:
            fbc = solve_gspde(replace(problem_b, time_grid=coarse.grid), coarse)
        lows, probes = np.empty(n + 1), np.zeros(n // 2 + 1)
        for i in range(n + 1):
            gap = (fb.values[:, i] - fa.values[:, i])[:, mask]
            lows[i] = np.min(gap)
            if halve and i % 2 == 0:
                gap_c = (fbc.values[:, i // 2] - fac.values[:, i // 2])[:, mask]
                probes[i // 2] = np.max(np.abs(gap - gap_c))
        return float(np.min(lows)), float(np.max(probes))

    return [case(problem_b) for problem_b in problems_b]


def check_comparison(problem_a: GspdeProblem, problems_b: Sequence[GspdeProblem],
                     bases: Iterable[tuple[RandomField, GBMPaths]],
                     collar_frac: float = 0.05) -> list[ComparisonReport]:
    """Compare ``problem_a`` with each ordered ``problems_b[k]`` on shared
    noise and report, per case, the worst signed gap min(u_b - u_a) over the
    collar interior, with a grid-error scale from a step-doubling probe.

    ``bases`` yields, per scenario, the already-solved field of
    ``problem_a`` and its noise bundle, so the grid checks of a suite share
    one base solve per scenario.  Every case is validated before the first
    pair is drawn, and with no case no pair is.  Each field is dropped before
    the next pair is drawn, so a generator of solves keeps one scenario's
    base field alive at a time.  Per scenario the unshifted problem is solved
    once more, on the coarse probe grid, and both of its fields serve every
    case."""
    for problem_b in problems_b:
        if problem_a.noise is not problem_b.noise:
            raise UsageError("comparison requires the two problems to share the noise term")
        if problem_a.space_grid != problem_b.space_grid or \
                problem_a.time_grid != problem_b.time_grid:
            raise UsageError("comparison requires matching grids")
        _sample_ordering(problem_a, problem_b)
    if not problems_b:
        return []
    mask = problem_a.space_grid.interior_mask(collar_frac)
    per_case = [[] for _ in problems_b]   # (scenario_id, min gap, probe) per case
    for fa, gbm in bases:
        if fa.gbm_fingerprint != gbm.fingerprint() or fa.time_grid != problem_a.time_grid \
                or fa.space_grid != problem_a.space_grid:
            raise UsageError("base field was not solved on this problem's grids and noise")
        gaps = _case_gaps(problem_a, problems_b, fa, gbm, mask)
        del fa  # the next scenario's base solve must not run beside this field
        for rows, (gap, probe) in zip(per_case, gaps):
            rows.append((gbm.scenario_id, gap, probe))
    scale = problem_a.time_grid.dt + problem_a.space_grid.dx**2
    reports = []
    for rows in per_case:
        eps_grid = 2.0 * max((probe for _, _, probe in rows), default=0.0) + 1e-12
        reports.append(ComparisonReport(
            min_gap=min((gap for _, gap, _ in rows), default=np.inf), eps_grid=eps_grid,
            c_constant=eps_grid / scale,
            per_scenario=tuple((sid, gap) for sid, gap, _ in rows)))
    return reports

