"""Named experiment runners behind the CLI subcommands.

Each runner consumes a validated Experiment, derives its own seeded random
streams from the master seed, and returns (check rows, artifacts).  Check
rows are uniform `{check, scenario_id, metric, value, tolerance, pass}`
records; for lower-bounded metrics the tolerance column holds the bound and
`pass` means value >= tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import verify
from .bdsde import LsmcEnsemble, solve_gbdsde, solve_gbdsde_picard
from .config import Experiment
from .gbm import (
    CONFIDENCE,
    TimeGrid,
    build_gbm,
    coarsen_driver,
    integral_diagnostics,
    sample_driver,
)
from .hunt import (
    empirical_bracket,
    forward_integral_diagnostics,
    simulate_hunt,
)
from .pde import (
    SpaceTimeTestFunction,
    energy_identity_residual,
    residual_slots,
    solve_gspde,
    solve_gspde_picard,
    weak_residual,
)
from .presets import integrand_values, shifted_reaction
from .scenario import enumerate_schedules
from ._util import SEED_DRIVER, SEED_HUNT, SEED_SCHEDULES, child_seed


@dataclass(frozen=True)
class CheckRow:
    check: str
    scenario_id: int
    metric: str
    value: float
    tolerance: float
    passed: bool


def _row(check, scenario_id, metric, value, tolerance, passed) -> CheckRow:
    return CheckRow(check, int(scenario_id), metric, float(value), float(tolerance),
                    bool(passed))


def _bool_row(check, scenario_id, metric, ok) -> CheckRow:
    return _row(check, scenario_id, metric, 1.0 if ok else 0.0, 1.0, ok)


def _index_columns(*shape) -> np.ndarray:
    """The C-order indices of an array of ``shape``, one row per axis: the
    index columns of a table whose rows run over the array's elements."""
    return np.indices(shape).reshape(len(shape), -1)


def _picard_checks(check, sid, rep, kappa, terminal_exact, rows) -> dict:
    """Append the converged, contraction-ratio and terminal-slice rows of one
    Picard check to ``rows``: the ratio row gates the larger of rho(-u*) and
    rho(h) at ``kappa`` + 0.05; return its per-scenario report record."""
    max_ratio = max(rep.ratios)
    rows.append(_bool_row(check, sid, "converged", rep.converged))
    rows.append(_row(check, sid, "contraction_ratio", max_ratio,
                     kappa + 0.05, max_ratio <= kappa + 0.05))
    rows.append(_bool_row(check, sid, "terminal_exact", terminal_exact))
    return {"scenario_id": sid, "iterations": rep.iterations,
            "increments": list(rep.increments), "ratios": list(rep.ratios),
            "final_norm": rep.final_norm}


# -- backward-integral diagnostics ------------------------------------------------

def run_gbm_check(exp: Experiment) -> tuple[list[CheckRow], dict]:
    sec, scen = exp.gbm_check, exp.gbm_scenarios
    n_steps, n_paths = sec.n_steps, sec.n_paths
    grid = TimeGrid(sec.horizon, n_steps)
    driver = sample_driver(grid, n_paths, scen.dim,
                           child_seed(exp.seed, SEED_DRIVER))
    schedules = enumerate_schedules(scen, n_steps, sec.n_random_schedules,
                                    child_seed(exp.seed, SEED_SCHEDULES))
    family = [build_gbm(driver, sched, scen) for sched in schedules]

    rows: list[CheckRow] = []
    reports = {}
    for name in sec.integrands:
        xi = integrand_values(name, grid.times, scen.dim)
        rep = integral_diagnostics(xi, family)
        reports[name] = {
            "sigma_bar": rep.sigma_bar,
            "mean_abs_max": rep.mean_abs_max,
            "mean_band_3se": rep.mean_band,
            "second_moment": rep.second_moment,
            "isometry_bound": rep.isometry_bound,
            "sup_moment": rep.sup_moment,
            "doob_bound": rep.doob_bound,
            "per_scenario": list(rep.per_scenario),
        }
        rows.append(_row("gbm-integral", -1, f"mean_zero[{name}]",
                         rep.mean_abs_max, rep.mean_band, rep.mean_zero_ok))
        rows.append(_row("gbm-integral", -1, f"isometry[{name}]",
                         rep.second_moment, rep.isometry_tolerance, rep.isometry_ok))
        rows.append(_row("gbm-integral", -1, f"doob[{name}]",
                         rep.sup_moment, rep.doob_tolerance, rep.doob_ok))

    dumped = family[: scen.n_scenarios]
    db = np.stack([paths.db[: min(sec.dump_paths, n_paths)] for paths in dumped])
    s, p, i, j = _index_columns(*db.shape)
    sids = np.array([paths.scenario_id for paths in dumped])
    artifacts = {
        "gbm_report.json": {"checks": reports, "n_paths": n_paths,
                            "n_steps": n_steps, "n_schedules": len(family)},
        "gbm_paths.csv": (["path_id", "scenario_id", "step", "coord", "dB_backward"],
                          [p, sids[s], i, j, db.ravel()]),
    }
    return rows, artifacts


# -- diffusion bracket --------------------------------------------------------------

def run_hunt_check(exp: Experiment) -> tuple[list[CheckRow], dict]:
    sec, field = exp.hunt_check, exp.hunt_field
    n_steps, n_paths, tol = sec.n_steps, sec.n_paths, sec.bracket_tolerance
    grid = TimeGrid(sec.horizon, n_steps)
    paths = simulate_hunt(field, sec.init, grid, n_paths,
                          child_seed(exp.seed, SEED_HUNT))
    bracket = empirical_bracket(paths, field)
    phi = np.zeros((n_steps, field.dim))
    phi[:, 0] = 1.0
    forward = forward_integral_diagnostics(phi, paths, field)

    band = CONFIDENCE * forward.se_mean
    rows = [
        _row("hunt-bracket", -1, "max_rel_dev_diag",
             bracket.max_rel_dev_diag, tol, bracket.max_rel_dev_diag <= tol),
        _bool_row("hunt-bracket", -1, "offdiag_within_3se", bracket.offdiag_ok),
        _bool_row("hunt-forward", -1, "variance_sandwich", forward.sandwich_ok),
        _row("hunt-forward", -1, "mean_within_3se", abs(forward.mean_total), band,
             abs(forward.mean_total) <= band),
    ]
    dump_n = min(sec.dump_paths, n_paths)
    p, i = _index_columns(dump_n, n_steps)
    states = [v[:dump_n, :n_steps, k].ravel() for v in (paths.x, paths.dm)
              for k in range(field.dim)]
    header = (["path_id", "step"]
              + [f"x_{k + 1}" for k in range(field.dim)]
              + [f"dM_{k + 1}" for k in range(field.dim)]
              + ["weight"])
    artifacts = {
        "hunt_report.json": {
            "max_rel_dev_diag": bracket.max_rel_dev_diag,
            "offdiag_ok": bracket.offdiag_ok,
            "forward_variance": forward.var_mc,
            "forward_model_variance": forward.model_variance,
            "forward_bounds": [forward.lower_bound, forward.upper_bound],
            "n_paths": n_paths,
            "n_steps": n_steps,
        },
        "hunt_paths.csv": (header, [p, i] + states + [paths.weights[p]]),
    }
    return rows, artifacts


# -- grid equation ---------------------------------------------------------------

def _default_test_fn(exp: Experiment) -> SpaceTimeTestFunction:
    # A bump of width R/4 is e^-8 of its peak at the edge; on Dirichlet grids
    # the weak form needs it to vanish there, so it narrows to R/7.5 (e^-28).
    sg = exp.space_grid
    width = sg.half_width / (4.0 if sg.boundary == "periodic" else 7.5)
    horizon = exp.time_grid.horizon
    return SpaceTimeTestFunction(
        psi=lambda t: 1.0 - 0.5 * t / horizon,
        chi=lambda pts: np.exp(-0.5 * np.sum(pts**2, axis=1) / width**2),
        name="bump",
    )


def _scenario_bundles(exp: Experiment, driver):
    """One path bundle per scenario on the driver's grid."""
    return [build_gbm(driver, sched, exp.scenarios)
            for sched in enumerate_schedules(exp.scenarios, driver.grid.n_steps)]


def _problem_bundles(exp: Experiment):
    """The bundles on the problem's grid, from ``gspde.n_noise_paths`` paths."""
    driver = sample_driver(exp.time_grid, exp.gspde.n_noise_paths, exp.scenarios.dim,
                           child_seed(exp.seed, SEED_DRIVER))
    return _scenario_bundles(exp, driver)


def _dump_nodes(sg) -> range:
    """The nodes of the gspde dump: every stride-th, about 64 in all."""
    return range(0, sg.n_nodes, max(1, sg.n_nodes // 64))


def _gspde_scenario(exp: Experiment, test_fn, fld, rep, gbm) -> tuple:
    """The gspde rows, report record and dumped slices of one solved scenario."""
    sec, problem = exp.gspde, exp.gspde_problem
    slots = residual_slots(fld, problem, gbm, test_fn)
    wres = weak_residual(slots, problem)
    eres = energy_identity_residual(slots, problem)
    sid = gbm.scenario_id
    terminal_exact = bool(np.all(fld.values[:, -1] == problem.terminal))
    dump = fld.values[:min(sec.dump_paths, fld.n_paths), :, _dump_nodes(problem.space_grid)]
    w_rms = float(np.sqrt(np.mean(wres**2)))
    e_rms = float(np.sqrt(np.mean(eres**2)))
    rows: list[CheckRow] = []
    record = _picard_checks("gspde", sid, rep, exp.gspde_cfg.kappa, terminal_exact, rows)
    rows.append(_row("gspde", sid, "weak_residual_rms", w_rms, sec.weak_tolerance,
                     w_rms <= sec.weak_tolerance))
    rows.append(_row("gspde", sid, "energy_residual_rms", e_rms, sec.energy_tolerance,
                     e_rms <= sec.energy_tolerance))
    return rows, dict(record, weak_residual_rms=w_rms, energy_residual_rms=e_rms), dump


def _gspde_result(exp: Experiment, scenarios) -> tuple[list[CheckRow], dict]:
    """Rows and artifacts from the ``_gspde_scenario`` records, in scenario order."""
    problem, cfg = exp.gspde_problem, exp.gspde_cfg
    sg, times = problem.space_grid, problem.time_grid.times
    rows = [row for scen_rows, _, _ in scenarios for row in scen_rows]
    dumps = np.stack([dump for _, _, dump in scenarios])
    s, p, i, k = _index_columns(*dumps.shape)
    sids = np.array([record["scenario_id"] for _, record, _ in scenarios])
    nodes = np.asarray(_dump_nodes(sg))[k]
    m = sg.points_per_axis
    axes = [nodes] if sg.dim == 1 else [nodes // m, nodes % m]
    index_cols = ["x_index"] if sg.dim == 1 else ["x_index_1", "x_index_2"]
    artifacts = {
        "gspde_report.json": {
            "kappa": cfg.kappa, "eps": cfg.eps, "gamma": cfg.rate,
            "delta": cfg.delta, "per_scenario": [record for _, record, _ in scenarios],
        },
        "gspde_solution.csv": (["path_id", "scenario_id", "t"] + index_cols + ["u"],
                               [p, sids[s], times[i]] + axes + [dumps.ravel()]),
    }
    return rows, artifacts


# -- backward solver ----------------------------------------------------------------

def run_gbdsde(exp: Experiment) -> tuple[list[CheckRow], dict]:
    sec = exp.bdsde
    n_w, n_b = sec.n_diffusion_paths, exp.gspde.n_noise_paths
    problem, cfg = exp.bdsde_problem, exp.bdsde_cfg
    hunt = simulate_hunt(exp.field, sec.init, problem.time_grid, n_w,
                         child_seed(exp.seed, SEED_HUNT))
    ensemble = LsmcEnsemble(hunt, sec.basis, exp.field)
    dump_b = min(sec.dump_paths, n_b)
    dump_w = min(8, n_w)
    n = problem.time_grid.n_steps

    bundles = _problem_bundles(exp)
    ys = np.empty((len(bundles), dump_b, dump_w, n + 1))
    zs = np.empty(ys.shape + (hunt.dim,))
    rows: list[CheckRow] = []
    scen_reports = []
    for s, gbm in enumerate(bundles):
        sol = solve_gbdsde_picard(problem, ensemble, gbm, cfg)
        xi = np.asarray(problem.terminal_fn(hunt.x[:, -1, :]))
        terminal_exact = bool(np.all(sol.slot(n)[0] == xi))
        scen_reports.append(_picard_checks("gbdsde", gbm.scenario_id, sol.picard_report,
                                           cfg.kappa, terminal_exact, rows))
        # One slot is evaluated at a time, on every path, and only its dumped
        # paths are copied out before the next is made.
        for i in range(n + 1 if dump_b else 0):
            ys[s, ..., i], zs[s, :, :, i] = (v[:dump_b, :dump_w] for v in sol.slot(i))
    s, b, w, i = _index_columns(*ys.shape)
    sids = np.array([gbm.scenario_id for gbm in bundles])
    header = (["scenario_id", "b_path_id", "x_path_id", "t", "Y"]
              + [f"Z_{k + 1}" for k in range(hunt.dim)])
    artifacts = {
        "gbdsde_report.json": {
            "kappa": cfg.kappa, "eps": cfg.eps, "beta": cfg.rate,
            "delta": cfg.delta, "per_scenario": scen_reports,
        },
        "bdsde_solution.csv": (header, [sids[s], b, w, problem.time_grid.times[i], ys.ravel()]
                               + [zs[..., k].ravel() for k in range(hunt.dim)]),
    }
    return rows, artifacts


# -- representation -------------------------------------------------------------------

def _representation_level(exp: Experiment, grid: TimeGrid, driver, dw_hunt,
                          n_w: int, checkpoints):
    # The grid problem keeps its operator, whose Crank-Nicolson factors are
    # cached per step size.
    problem = replace(exp.gspde_problem, time_grid=grid)
    b_problem = replace(exp.bdsde_problem, time_grid=grid)
    hunt = simulate_hunt(exp.field, exp.bdsde.init, grid, n_w,
                         child_seed(exp.seed, SEED_HUNT), dw=dw_hunt)
    ensemble = LsmcEnsemble(hunt, exp.bdsde.basis, exp.field)

    def solves():
        for gbm in _scenario_bundles(exp, driver):
            fld = solve_gspde(problem, gbm)
            yield fld, solve_gbdsde(b_problem, ensemble, gbm), gbm
            del fld  # the next scenario's solves must not run beside this field

    times = [f * grid.horizon for f in checkpoints]
    return verify.check_representation(solves(), hunt, times, exp.field)


def run_representation(exp: Experiment) -> tuple[list[CheckRow], dict]:
    sec = exp.representation
    halvings, tol = sec.halvings, sec.tolerance
    n_b, n_w = sec.n_noise_paths, sec.n_diffusion_paths
    base = exp.time_grid
    finest = TimeGrid(base.horizon, base.n_steps * 2**halvings)
    driver_fine = sample_driver(finest, n_b, exp.scenarios.dim,
                                child_seed(exp.seed, SEED_DRIVER))
    dw_fine = sample_driver(finest, n_w, exp.field.dim, child_seed(exp.seed, SEED_HUNT, 1))

    refinement = []  # one row of worst-case errors per step count, coarsest first
    for level in range(halvings + 1):
        factor = 2 ** (halvings - level)
        grid = TimeGrid(base.horizon, base.n_steps * 2**level)
        driver = coarsen_driver(driver_fine, factor)
        dw = coarsen_driver(dw_fine, factor).increments
        worst = _representation_level(exp, grid, driver, dw, n_w, sec.checkpoint_fractions)
        if level == 0:
            base_worst = worst
        refinement.append({"n_steps": grid.n_steps,
                           "rel_rms_y": {c.t: c.rel_rms_y for c in worst},
                           "rel_rms_z": {c.t: c.rel_rms_z for c in worst}})

    rows = [_row("representation", -1, f"rel_rms_y[t={c.t:g}]", c.rel_rms_y, tol,
                 c.rel_rms_y <= tol) for c in base_worst]
    non_increasing = None
    if halvings:
        non_increasing = all(v <= prev["rel_rms_y"][t] + 1e-12
                             for prev, cur in zip(refinement, refinement[1:])
                             for t, v in cur["rel_rms_y"].items())
        rows.append(_bool_row("representation", -1, "non_increasing", non_increasing))
    artifacts = {
        "representation_report.json": {
            "tolerance": tol,
            "checkpoints": [asdict(c) for c in base_worst],
            "refinement": refinement,
            "non_increasing": non_increasing,
        },
    }
    return rows, artifacts


# -- comparison ---------------------------------------------------------------------

def _comparison_result(exp: Experiment, bases) -> tuple[list[CheckRow], dict]:
    """Rows and artifacts of the comparison check on the base solves ``bases``."""
    collar = exp.comparison.collar_frac
    problem_a = exp.gspde_problem
    y_dependent = (problem_a.reaction.lip_y_sq > 0.0 or problem_a.noise.lip_y_sq > 0.0)

    cases = exp.comparison.cases
    problems_b = [replace(problem_a, terminal=problem_a.terminal + case.terminal_shift,
                          reaction=shifted_reaction(problem_a.reaction, case.reaction_shift))
                  for case in cases]
    reports = verify.check_comparison(problem_a, problems_b, bases, collar_frac=collar)

    rows: list[CheckRow] = []
    case_reports = []
    for idx, (case, report) in enumerate(zip(cases, reports)):
        expected = case.terminal_shift if not y_dependent else 0.0
        bound = expected - report.eps_grid
        rows.append(_row("comparison", -1, f"min_gap[case={idx}]",
                         report.min_gap, bound, report.min_gap >= bound))
        case_reports.append({
            "terminal_shift": case.terminal_shift, "reaction_shift": case.reaction_shift,
            "min_gap": report.min_gap, "eps_grid": report.eps_grid,
            "c_constant": report.c_constant, "expected_lower_bound": bound,
            "per_scenario": [{"scenario_id": s, "min_gap": g}
                             for s, g in report.per_scenario],
        })
    artifacts = {"comparison_report.json": {"collar_frac": collar,
                                            "cases": case_reports}}
    return rows, artifacts


# -- grid checks: one base solve per scenario ------------------------------------------

GRID_CHECKS = ("gspde", "comparison")


def run_grid_checks(exp: Experiment, names) -> dict:
    """Rows and artifacts of each grid check in ``names``, keyed by name.

    The base problem is solved once per scenario bundle, and every named
    check reads that field: gspde for its residuals, Picard rows and dump,
    comparison for its case gaps; the Picard check runs only for gspde.
    Each field is dropped before the next scenario is solved, so one
    scenario's field is alive at a time."""
    problem, cfg = exp.gspde_problem, exp.gspde_cfg
    test_fn = _default_test_fn(exp)
    gspde = [] if "gspde" in names else None  # per scenario: rows, record, dump

    def bases():
        for gbm in _problem_bundles(exp):
            if gspde is None:
                fld = solve_gspde(problem, gbm)
            else:
                fld, rep = solve_gspde_picard(problem, cfg, gbm)
                gspde.append(_gspde_scenario(exp, test_fn, fld, rep, gbm))
            yield fld, gbm
            del fld  # the next scenario's solve must not run beside this field

    solves = bases()
    out = {}
    if "comparison" in names:
        out["comparison"] = _comparison_result(exp, solves)
    if gspde is not None:
        for _ in solves:  # the scenarios comparison did not draw, if any
            pass
        out["gspde"] = _gspde_result(exp, gspde)
    return out


def run_gspde(exp: Experiment) -> tuple[list[CheckRow], dict]:
    return run_grid_checks(exp, ("gspde",))["gspde"]


def run_comparison(exp: Experiment) -> tuple[list[CheckRow], dict]:
    return run_grid_checks(exp, ("comparison",))["comparison"]


# -- suite -------------------------------------------------------------------------

RUNNERS = {
    "gbm-integral": run_gbm_check,
    "hunt-bracket": run_hunt_check,
    "gspde": run_gspde,
    "gbdsde": run_gbdsde,
    "representation": run_representation,
    "comparison": run_comparison,
}


def run_suite(exp: Experiment) -> tuple[list[CheckRow], dict]:
    """Every check of ``suite.checks``, rows and artifacts in that order.  The
    grid checks run together, at the first one's turn, on shared base solves."""
    checks = exp.suite.checks
    rows: list[CheckRow] = []
    artifacts: dict = {}
    grid: dict = {}
    for name in checks:
        if name in GRID_CHECKS:
            grid = grid or run_grid_checks(exp, checks)
            sub_rows, sub_artifacts = grid[name]
        else:
            sub_rows, sub_artifacts = RUNNERS[name](exp)
        rows.extend(sub_rows)
        artifacts.update(sub_artifacts)
    artifacts["suite_report.json"] = {
        "checks_run": list(checks),
        "n_rows": len(rows),
        "all_passed": all(r.passed for r in rows),
    }
    return rows, artifacts
