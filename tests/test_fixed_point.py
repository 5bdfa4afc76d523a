"""The Picard maps of both solvers are nilpotent: slot N is data and each
sweep fixes one more slot, so their fixed point is the explicit backward
scheme that ``solve_gspde`` and ``solve_gbdsde`` compute in one sweep.  The
Picard loop is the check of the paper's contraction, and no solution a run
writes depends on its keys."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from defects import SINUSOIDAL_FIELD
from gexplab import bdsde, experiments, pde
from gexplab._util import SEED_HUNT, child_seed
from gexplab.artifacts import write_artifacts
from gexplab.bdsde import LsmcEnsemble, solve_gbdsde, solve_gbdsde_picard
from gexplab.config import default_config, validate_config
from gexplab.hunt import simulate_hunt
from gexplab.pde import solve_gspde, solve_gspde_picard
from gexplab.picard import PicardConfig
from oracles import solution_stacks, with_full_sweeps, with_last_picard_iterate

FIELDS = pytest.mark.parametrize("field", [None, SINUSOIDAL_FIELD],
                                 ids=["shipped", "sinusoidal"])
# The shipped Picard keys, and tol_rel 0 with N + 2 sweeps.
SCHEDULES = pytest.mark.parametrize("exhaust", [False, True], ids=["shipped", "exhaustive"])


def shipped(field):
    cfg = default_config()
    if field is not None:
        cfg["coefficient_field"] = field
    return validate_config(cfg)


def shipped_ensemble(exp):
    sec = exp.bdsde
    hunt = simulate_hunt(exp.field, sec.init, exp.bdsde_problem.time_grid,
                         sec.n_diffusion_paths, child_seed(exp.seed, SEED_HUNT))
    return LsmcEnsemble(hunt, sec.basis, exp.field)


def starts(module, recursion, solve, *args):
    """``solve(*args)`` and the first slot of each of its calls of the
    backward recursion ``module.<recursion>``, its last argument."""
    seen, original = [], getattr(module, recursion)

    def record(*rec_args):
        seen.append(rec_args[-1])
        return original(*rec_args)

    with mock.patch.object(module, recursion, record):
        return solve(*args), seen


def exhaustive(cfg, problem):
    """``cfg``'s constants with tol_rel 0 and N + 2 sweeps: the loop stops
    only on an increment of exactly 0, and N + 2 sweeps fix every slot from
    a zero start."""
    return PicardConfig.from_problem(problem, cfg.eps, max_iter=problem.time_grid.n_steps + 2,
                                     tol_rel=0.0)


@FIELDS
def test_grid_picard_stops_on_the_explicit_scheme_bitwise(field):
    exp = shipped(field)
    problem = exp.gspde_problem
    cfg = exhaustive(exp.gspde_cfg, problem)
    for gbm in experiments._problem_bundles(exp):
        (fld, rep), [last] = with_last_picard_iterate(pde, "_grid_recursion",
                                                      solve_gspde_picard, problem, cfg, gbm)
        explicit = solve_gspde(problem, gbm).values
        assert rep.converged and rep.increments[-1] == 0.0
        assert np.array_equal(last, explicit)
        assert np.array_equal(fld.values, explicit)


@FIELDS
def test_backward_picard_stops_on_the_explicit_scheme_bitwise(field):
    exp = shipped(field)
    problem, ensemble = exp.bdsde_problem, shipped_ensemble(exp)
    cfg = exhaustive(exp.bdsde_cfg, problem)
    for gbm in experiments._problem_bundles(exp):
        sol, [c] = with_last_picard_iterate(bdsde, "solve_linear_bdsde", solve_gbdsde_picard,
                                            problem, ensemble, gbm, cfg)
        explicit = solve_gbdsde(problem, ensemble, gbm)
        rep = sol.picard_report
        assert rep.converged and rep.increments[-1] == 0.0
        y, z = solution_stacks(replace(sol, c=c))
        ey, ez = solution_stacks(explicit)
        assert np.array_equal(c, explicit.c)
        assert np.array_equal(y, ey) and np.array_equal(z, ez)
        assert np.array_equal(sol.c, explicit.c)
        assert all(np.array_equal(a, b) for a, b in zip(solution_stacks(sol), (ey, ez)))


def schedule(n, k):
    """First slots of K resumed Picard sweeps and the explicit sweep after,
    for K <= N."""
    return list(range(n, n - k - 1, -1))


@FIELDS
@SCHEDULES
def test_resumed_grid_sweeps_match_full_sweeps_bitwise(field, exhaust):
    # Sweep k starts at slot N - k + 1 and the explicit sweep at N - K; the
    # report and the field are the floats of sweeps over every slot.  At
    # tol_rel 0 the increment reaches exactly 0 before sweep N + 1.
    exp = shipped(field)
    problem, n = exp.gspde_problem, exp.gspde_problem.time_grid.n_steps
    cfg = exhaustive(exp.gspde_cfg, problem) if exhaust else exp.gspde_cfg
    for gbm in experiments._problem_bundles(exp):
        (fld, rep), firsts = starts(pde, "_grid_recursion", solve_gspde_picard, problem, cfg, gbm)
        full, full_rep = with_full_sweeps(pde, solve_gspde_picard, problem, cfg, gbm)
        assert 2 <= rep.iterations <= n  # the explicit sweep resumes inside the stack
        assert firsts == schedule(n, rep.iterations)
        assert rep == full_rep and np.array_equal(fld.values, full.values)


@FIELDS
@SCHEDULES
def test_resumed_backward_sweeps_match_full_sweeps_bitwise(field, exhaust):
    exp = shipped(field)
    problem, ensemble = exp.bdsde_problem, shipped_ensemble(exp)
    n = problem.time_grid.n_steps
    cfg = exhaustive(exp.bdsde_cfg, problem) if exhaust else exp.bdsde_cfg
    for gbm in experiments._problem_bundles(exp):
        sol, firsts = starts(bdsde, "solve_linear_bdsde", solve_gbdsde_picard, problem,
                             ensemble, gbm, cfg)
        full = with_full_sweeps(bdsde, solve_gbdsde_picard, problem, ensemble, gbm, cfg)
        k = sol.picard_report.iterations
        assert 2 <= k <= n
        assert firsts == schedule(n, k)
        assert sol.picard_report == full.picard_report
        assert np.array_equal(sol.c, full.c)
        assert all(np.array_equal(a, b)
                   for a, b in zip(solution_stacks(sol), solution_stacks(full), strict=True))


def test_solutions_do_not_read_the_picard_keys(tmp_path):
    # tol_rel and max_iter govern the Picard records and rows only: the
    # checks and the dumped solutions read the explicit scheme.
    solved = ("representation_report.json", "comparison_report.json", "gspde_solution.csv",
              "bdsde_solution.csv")

    def run(tol_rel, max_iter):
        cfg = default_config()
        for section in ("gspde", "bdsde"):
            cfg[section].update(tol_rel=tol_rel, max_iter=max_iter)
        cfg["suite"]["checks"] = ["gspde", "gbdsde", "representation", "comparison"]
        _, artifacts = experiments.run_suite(validate_config(cfg))
        out = tmp_path / f"{tol_rel}-{max_iter}"
        write_artifacts(str(out), artifacts, "hash")
        return {name: (out / name).read_bytes() for name in solved + ("gspde_report.json",)}

    strict, loose = run(1e-6, 15), run(1e-3, 25)
    assert strict.pop("gspde_report.json") != loose.pop("gspde_report.json")  # keys were read
    assert strict == loose
