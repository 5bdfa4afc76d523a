"""The Picard maps of both solvers are nilpotent: slot N is data and each
sweep fixes one more slot, so their fixed point is the explicit backward
scheme that ``solve_gspde`` and ``solve_gbdsde`` compute in one sweep.  The
contraction is checked at that fixed point, and no solution a run writes
depends on the check's keys."""

from dataclasses import replace

import numpy as np
import pytest

from defects import SINUSOIDAL_FIELD
from gexplab import experiments
from gexplab._util import SEED_HUNT, SEED_PICARD, child_seed
from gexplab.artifacts import write_artifacts
from gexplab.bdsde import LsmcEnsemble, solve_gbdsde, solve_gbdsde_picard
from gexplab.config import default_config, validate_config
from gexplab.hunt import simulate_hunt
from gexplab.pde import solve_gspde, solve_gspde_picard
from oracles import solution_stacks

FIELDS = pytest.mark.parametrize("field", [None, SINUSOIDAL_FIELD],
                                 ids=["shipped", "sinusoidal"])


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


@FIELDS
def test_grid_check_holds_the_explicit_scheme_fixed_bitwise(field):
    # The sweep from u* reproduces u* bitwise, so the residual is exactly 0.
    exp = shipped(field)
    problem = exp.gspde_problem
    for gbm in experiments._problem_bundles(exp):
        fld, rep = solve_gspde_picard(problem, exp.gspde_cfg, gbm)
        assert rep.converged and rep.iterations == 3 and rep.increments[2] == 0.0
        assert np.array_equal(fld.values, solve_gspde(problem, gbm).values)


@FIELDS
def test_backward_check_holds_the_explicit_scheme_fixed_bitwise(field):
    exp = shipped(field)
    problem, ensemble = exp.bdsde_problem, shipped_ensemble(exp)
    for gbm in experiments._problem_bundles(exp):
        sol = solve_gbdsde_picard(problem, ensemble, gbm, exp.bdsde_cfg)
        explicit = solve_gbdsde(problem, ensemble, gbm)
        rep = sol.picard_report
        assert rep.converged and rep.iterations == 3 and rep.increments[2] == 0.0
        assert np.array_equal(sol.c, explicit.c)
        assert all(np.array_equal(a, b)
                   for a, b in zip(solution_stacks(sol), solution_stacks(explicit), strict=True))


@pytest.mark.parametrize("value, fails", [(1.0, False), (4.0, False), (16.0, True)])
def test_grid_ratio_row_fails_where_crank_nicolson_stops_contracting(value, fails):
    # On the shipped grid a constant field of v gives a dt / h^2 = 1.5625 v;
    # at v = 16 the discrete grid map expands, and the contraction_ratio row
    # of some scenario must fail, while the residual stays 0.
    cfg = default_config()
    cfg["coefficient_field"] = {"preset": "constant", "value": value}
    rows, artifacts = experiments.run_gspde(validate_config(cfg))
    ratio_rows = [r for r in rows if r.metric == "contraction_ratio"]
    assert len(ratio_rows) == 2
    assert any(not r.passed for r in ratio_rows) == fails
    assert all(r.passed for r in rows if r.metric == "converged")
    assert all(s["increments"][2] == 0.0
               for s in artifacts["gspde_report.json"]["per_scenario"])


def test_perturbation_seed_moves_only_rho_h():
    # The perturbation h is drawn from child_seed(seed, SEED_PICARD); another
    # seed moves rho(h) and nothing else of either report.
    exp = shipped(None)
    assert exp.gspde_cfg.seed == exp.bdsde_cfg.seed == child_seed(exp.seed, SEED_PICARD)
    gbm = experiments._problem_bundles(exp)[0]
    ensemble = shipped_ensemble(exp)
    checks = ((exp.gspde_cfg, lambda c: solve_gspde_picard(exp.gspde_problem, c, gbm)[1]),
              (exp.bdsde_cfg, lambda c: solve_gbdsde_picard(exp.bdsde_problem, ensemble, gbm,
                                                            c).picard_report))
    for cfg, check in checks:
        a, b = check(cfg), check(replace(cfg, seed=cfg.seed + 1))
        assert a.ratios[0] == b.ratios[0] and a.ratios[1] != b.ratios[1]
        assert a.increments[0::2] == b.increments[0::2] and a.final_norm == b.final_norm


def test_solutions_do_not_read_the_picard_keys(tmp_path):
    # eps governs the Picard records and rows only: the checks and the dumped
    # solutions read the explicit scheme.
    solved = ("representation_report.json", "comparison_report.json", "gspde_solution.csv",
              "bdsde_solution.csv")

    def run(eps):
        cfg = default_config()
        for section in ("gspde", "bdsde"):
            cfg[section]["eps"] = eps
        cfg["suite"]["checks"] = ["gspde", "gbdsde", "representation", "comparison"]
        _, artifacts = experiments.run_suite(validate_config(cfg))
        out = tmp_path / f"{eps}"
        write_artifacts(str(out), artifacts, "hash")
        return {name: (out / name).read_bytes() for name in solved + ("gspde_report.json",)}

    strict, loose = run(0.4), run(0.2)
    assert strict.pop("gspde_report.json") != loose.pop("gspde_report.json")  # keys were read
    assert strict == loose
