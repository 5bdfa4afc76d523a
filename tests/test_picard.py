import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from gexplab import bdsde, experiments, pde
from gexplab.bdsde import BdsdeProblem, LsmcEnsemble, solve_gbdsde_picard
from gexplab.config import default_config, validate_config
from gexplab.errors import NumericalError
from gexplab.gbm import TimeGrid
from gexplab.hunt import CoefficientField, simulate_hunt
from gexplab.pde import (
    GspdeProblem,
    NoiseTerm,
    ReactionTerm,
    SpatialGrid,
    derive_contraction_inputs,
    solve_gspde_picard,
)
from gexplab.picard import (
    RESIDUAL_TOL,
    PicardConfig,
    PicardReport,
    check_fixed_point,
    weighted_quadrature,
)
from gexplab.scenario import ScenarioSet
from gexplab._util import SEED_HUNT, child_seed
from oracles import absolute_weighted_quadrature


class Halving:
    """Phi(w)_i = w_{i+1} / 2 + 1/4 below slot N = 6 and Phi(w)_N = 1, whose
    fixed point u* is 1, 3/4, 5/8, ... down from slot N, in the calling
    convention of ``check_fixed_point``: each sweep returns the sums of
    squares over slots 0 .. N-1 of Phi(w) - u* and of w - u*.  Records the
    scale of each sweep; ``offset`` shifts the u* the sweeps are measured
    against."""

    def __init__(self, offset=0.0):
        n = 6
        self.times = np.linspace(0.0, 1.0, n + 1)
        self.u = np.array([0.5 + 0.5 ** (n - i + 1) for i in range(n + 1)]) + offset
        self.scales = []

    def phi(self, w):
        return np.append(w[1:] / 2.0 + 0.25, 1.0)

    def sweep(self, scale):
        self.scales.append([scale(i) for i in range(len(self.u))])
        w = self.u * np.array([np.broadcast_to(s, ()) for s in self.scales[-1]])
        return (float(np.sum((self.phi(w) - self.u)[:-1] ** 2)),
                float(np.sum((w - self.u)[:-1] ** 2)))


def test_check_runs_three_sweeps_at_the_fixed_point():
    toy, b = Halving(), 0.75
    rep = check_fixed_point(toy.sweep, b, toy.times)
    ramp = 1.0 - toy.times
    assert toy.scales == [[0.0] * 7, list(1.0 + ramp[:-1] * b) + [1.0], [1.0] * 7]
    u, h = toy.u, toy.u * ramp * b
    away = float(np.sum((0.25 - u[:-1]) ** 2))
    assert rep.iterations == 3 and rep.converged
    assert rep.increments == pytest.approx((away, np.sum(h[1:] ** 2) / 4.0, 0.0), rel=1e-14)
    assert rep.increments[2] == 0.0
    assert rep.final_norm == pytest.approx(np.sum(u[:-1] ** 2), rel=1e-14)
    assert rep.ratios == pytest.approx((away / rep.final_norm,
                                        np.sum(h[1:] ** 2) / 4.0 / np.sum(h[:-1] ** 2)),
                                       rel=1e-14)


def test_a_residual_above_the_residual_bound_is_reported_not_raised():
    # Against u* + 1e-2, Phi(u* + 1e-2) misses it by 5e-3 at each slot below N.
    toy = Halving(offset=1e-2)
    rep = check_fixed_point(toy.sweep, 0.75, toy.times)
    assert not rep.converged and rep.iterations == 3
    assert rep.increments[2] == pytest.approx(6 * 0.005**2, rel=1e-12)
    assert rep.increments[2] > RESIDUAL_TOL * rep.final_norm


def test_the_check_reads_no_config_and_reports_only_what_it_measured():
    assert [f.name for f in fields(PicardConfig)] == ["eps", "rate", "delta", "kappa", "seed"]
    assert [f.name for f in fields(PicardReport)] == ["converged", "increments", "ratios",
                                                      "final_norm"]
    assert list(inspect.signature(check_fixed_point).parameters) == ["sweep", "perturbation",
                                                                      "times"]
    rep = PicardReport(True, (1.0, 2.0, 0.0), (0.5, 0.25), 2.0)
    assert rep.iterations == 3
    with pytest.raises(AttributeError):
        rep.iterations = 4


def test_zero_norms_give_zero_ratios():
    rep = check_fixed_point(lambda scale: (0.0, 0.0), 1.0, np.linspace(0.0, 1.0, 5))
    assert rep.ratios == (0.0, 0.0) and rep.converged and rep.final_norm == 0.0


def test_check_nonfinite_norm_stops_at_once():
    calls = []

    def sweep(scale):
        calls.append(scale)
        return float("nan"), 1.0

    with pytest.raises(NumericalError, match="sweep 1 produced a non-finite") as err:
        check_fixed_point(sweep, 1.0, np.linspace(0.0, 1.0, 5))
    assert not err.value.report.converged
    assert err.value.report.iterations == 1 and len(calls) == 1


# -- weighted quadrature ------------------------------------------------------------

def test_quadrature_weights_are_relative_to_the_horizon():
    # e^{rate T} times the relative quadrature is the quadrature of the
    # weights e^{rate s}, to 1e-12, at the shipped config's gamma and beta.
    exp = validate_config(default_config())
    times = exp.time_grid.times
    dens = np.random.default_rng(3).uniform(0.0, 2.0, (4, len(times) - 1))
    for rate in (exp.gspde_cfg.rate, exp.bdsde_cfg.rate, 0.0):
        assert (weighted_quadrature(dens, rate, times) * math.exp(rate * times[-1])
                == pytest.approx(absolute_weighted_quadrature(dens, rate, times), rel=1e-12))


def test_shipped_ratios_do_not_move_with_the_weight_origin(monkeypatch):
    # The ratios of both checks on the shipped config are those of the
    # weights e^{rate s} to 1e-12; the norms scale by e^{-rate T} (its root
    # for the backward norm).
    exp = validate_config(default_config())
    gbm = experiments._problem_bundles(exp)[0]
    sec = exp.bdsde
    hunt = simulate_hunt(exp.field, sec.init, exp.bdsde_problem.time_grid,
                         sec.n_diffusion_paths, child_seed(exp.seed, SEED_HUNT))
    ensemble = LsmcEnsemble(hunt, sec.basis, exp.field)

    def reports():
        return ((solve_gspde_picard(exp.gspde_problem, exp.gspde_cfg, gbm)[1],
                 exp.gspde_cfg.rate),
                (solve_gbdsde_picard(exp.bdsde_problem, ensemble, gbm,
                                     exp.bdsde_cfg).picard_report, 0.5 * exp.bdsde_cfg.rate))

    relative = reports()
    for module in (pde, bdsde):
        monkeypatch.setattr(module, "weighted_quadrature", absolute_weighted_quadrature)
    for (rel, exponent), (ab, _) in zip(relative, reports()):
        shift = math.exp(exponent * exp.time_grid.horizon)
        assert rel.ratios == pytest.approx(ab.ratios, rel=1e-12)
        assert rel.final_norm * shift == pytest.approx(ab.final_norm, rel=1e-12)
        assert rel.increments[:2] == pytest.approx(tuple(i / shift for i in ab.increments[:2]),
                                                   rel=1e-12)


def test_a_rate_whose_exponential_overflows_at_the_horizon_integrates():
    # A constant field of 256 with no v dependence gives gamma = 1794: e^{gamma T}
    # overflows at T = 0.5, the relative weights do not.
    times = np.linspace(0.0, 0.5, 33)
    dens = np.ones((2, 32))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(absolute_weighted_quadrature(dens, 1794.0, times))
    assert weighted_quadrature(dens, 1794.0, times) == pytest.approx(1.0 / 1794.0, rel=1e-12)


# -- config ---------------------------------------------------------------------

def _field(lam_min, lam_max):
    return CoefficientField(1, lambda pts: np.ones((pts.shape[0], 1, 1)), lam_min, lam_max)


SCENARIOS = ScenarioSet.from_list([[[0.8]], [[0.5]]])  # sigma_bar = 0.8


def test_config_from_gspde_problem_matches_formulas():
    # kappa = (c_bar eps + z_coef) / (2 lam), z_coef = alpha_bar sigma_bar^2,
    # delta = c_bar (sigma_bar^2 + eps) / (c_bar eps + z_coef),
    # gamma = 1/eps + 2 lam delta; the v-slot constants count times
    # Lambda = 1.2: c_bar = max(0.3, 0.3 * 1.2, 0.2), alpha_bar = 0.5 * 1.2.
    sg = SpatialGrid(1, 8.0, 33, "periodic")
    problem = GspdeProblem(
        terminal=np.zeros(sg.n_nodes),
        reaction=ReactionTerm(lambda t, x, y, z: np.zeros_like(y), 0.3, 0.3),
        noise=NoiseTerm(lambda t, x, y, z: np.zeros(np.shape(y) + (1,)), 1, 0.2, 0.5),
        field=_field(0.8, 1.2), scenarios=SCENARIOS, time_grid=TimeGrid(0.5, 4),
        space_grid=sg)
    cfg = PicardConfig.from_problem(problem, eps=0.5, seed=7)
    c_bar, z_coef = 0.36, 0.6 * 0.64
    delta = c_bar * (0.64 + 0.5) / (c_bar * 0.5 + z_coef)
    expected = (0.5, 1 / 0.5 + 2 * 0.8 * delta, delta, (c_bar * 0.5 + z_coef) / (2 * 0.8))
    assert (cfg.eps, cfg.rate, cfg.delta, cfg.kappa) == pytest.approx(expected, rel=1e-12)
    assert cfg.seed == 7
    cfg.validate_against(problem)


def test_config_from_bdsde_problem_matches_formulas():
    # kappa = (K eps + alpha Lambda sigma_bar^2) / (2 lambda) with Lambda = lam_max,
    # lambda = lam_min; without eps the largest one giving kappa = 0.9.
    f = ReactionTerm(lambda t, x, y, v: np.zeros_like(y), 0.25, 0.0)
    g = NoiseTerm(lambda t, x, y, v: np.zeros(np.shape(y) + (1,)), 1, 0.0, 0.5)
    problem = BdsdeProblem(lambda pts: np.zeros(pts.shape[0]), f.fn, g.fn, TimeGrid(0.5, 4),
                           derive_contraction_inputs(f, g, _field(0.8, 1.2), SCENARIOS))
    z_coef = 0.5 * 1.2 * 0.64
    for eps_in, eps in ((0.5, 0.5), (None, (2 * 0.8 * 0.9 - z_coef) / 0.25)):
        cfg = PicardConfig.from_problem(problem, eps=eps_in)
        delta = 0.25 * (0.64 + eps) / (0.25 * eps + z_coef)
        expected = (eps, 1 / eps + 2 * 0.8 * delta, delta, (0.25 * eps + z_coef) / (2 * 0.8))
        assert (cfg.eps, cfg.rate, cfg.delta, cfg.kappa) == pytest.approx(expected, rel=1e-12)
        assert cfg.seed == 0
        cfg.validate_against(problem)
    assert cfg.kappa == pytest.approx(0.9, rel=1e-12)
