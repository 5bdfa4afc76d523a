from types import SimpleNamespace

import numpy as np
import pytest

from gexplab.bdsde import BdsdeProblem
from gexplab.errors import NumericalError
from gexplab.gbm import TimeGrid
from gexplab.hunt import CoefficientField
from gexplab.pde import (
    GspdeProblem,
    NoiseTerm,
    ReactionTerm,
    SpatialGrid,
    derive_contraction_inputs,
)
from gexplab.picard import PicardConfig, iterate, iterate_in_place
from gexplab.scenario import ScenarioSet
from oracles import every_slot_iterate_in_place, resumed_slots


def toy_cfg(max_iter=50, tol_rel=1e-3):
    return SimpleNamespace(max_iter=max_iter, tol_rel=tol_rel, kappa=0.5, eps=1.0,
                           rate=0.0, delta=1.0)


class Halving:
    """x -> x/2 + c from x = 0: increments 2^(1-k) c, iterates 2 (1 - 2^-k) c,
    every float exact; counts the sweeps and the norms they take."""

    def __init__(self, c=1.0, norms=None):
        self.c = c
        self.sweeps = 0
        self.norm_calls = 0
        self._norms = norms

    def sweep(self, x):
        self.sweeps += 1
        new = x / 2.0 + self.c
        return (new,), *self.norms(new, x)

    def norms(self, new, old):
        self.norm_calls += 1
        if self._norms is not None:
            return self._norms(new, old)
        return float(np.max(np.abs(new - old))), float(np.max(np.abs(new)))


def test_iterate_halving_map_history():
    toy = Halving()
    (x,), rep = iterate(toy.sweep, (np.zeros(3),), toy_cfg())
    # Stops at the first k with 2^(1-k) <= 1e-3 * 2 (1 - 2^-k), which is k = 10.
    assert rep.converged and rep.iterations == 10
    assert rep.increments == tuple(2.0 ** (1 - k) for k in range(1, 11))
    assert rep.ratios == (0.5,) * 9
    assert rep.final_norm == 2.0 * (1.0 - 2.0 ** -10)
    assert np.array_equal(x, np.full(3, rep.final_norm))
    assert toy.sweeps == 10 and toy.norm_calls == 10


def test_iterate_max_iter_carries_report():
    toy = Halving()
    with pytest.raises(NumericalError, match="did not converge") as err:
        iterate(toy.sweep, (np.zeros(3),), toy_cfg(max_iter=3))
    assert not err.value.report.converged
    assert err.value.report.iterations == 3 and toy.norm_calls == 3


def test_iterate_nonfinite_norm_stops_at_once():
    toy = Halving(norms=lambda new, old: (float("nan"), 1.0))
    with pytest.raises(NumericalError, match="non-finite") as err:
        iterate(toy.sweep, (np.zeros(3),), toy_cfg())
    assert not err.value.report.converged
    assert err.value.report.iterations == 1
    assert toy.sweeps == 1 and toy.norm_calls == 1


class ToyRecursion:
    """x_i = x_{i+1} / 2 + d_{i+1} / 4 back from x_N = 1 into a (1, N+1)
    stack, in the calling convention of ``iterate_in_place``: every float
    is dyadic, so sweeps that skip a slot and sweeps that recompute it agree
    bitwise.  Records the slots each call computes."""

    def __init__(self, n):
        self.n = n
        self.x = np.zeros((1, n + 1))
        self.computed = []

    def __call__(self, drivers, start):
        n, x = self.n, self.x
        self.computed.append([])
        if 0 <= start < n:
            at_next = drivers(start + 1, x[:, start + 1])
        for i in range(start, -1, -1):
            new = np.ones(1) if i == n else x[:, i + 1] / 2.0 + at_next / 4.0
            at_next = drivers(i, new)
            x[:, i] = new
            self.computed[-1].append(i)
        return x


def toy_picard(engine, n, cfg):
    toy = ToyRecursion(n)
    report, unfixed = engine(toy, (toy.x,), lambda i, x_i: x_i + 1.0,
                             lambda i, new, old: ((new[0] - old[0])**2, new[0]**2),
                             lambda dens: float(np.sum(dens)), cfg)
    return toy, report, unfixed


@pytest.mark.parametrize("tol_rel", [0.0, 1e-3])
def test_sweep_k_recomputes_the_slots_below_the_fixed_ones(tol_rel):
    # Sweep k recomputes slots N - k + 1 .. 0 and skips the ones above, which
    # the sweeps before fixed; the report and the iterate are the floats of
    # sweeps that recompute every slot.  Sweep N + 1 fixes slot 0 and sweep
    # N + 2, which recomputes none, is the first with an increment of 0.
    n = 6
    cfg = toy_cfg(max_iter=n + 2, tol_rel=tol_rel)
    toy, report, unfixed = toy_picard(iterate_in_place, n, cfg)
    full, full_report, _ = toy_picard(every_slot_iterate_in_place, n, cfg)
    k = report.iterations
    assert toy.computed == [list(range(n - s, -1, -1)) for s in range(k)]
    assert full.computed == [list(range(n, -1, -1))] * k
    assert report == full_report and np.array_equal(toy.x, full.x)
    # The explicit sweep after K sweeps resumes at N - K, and has nothing
    # left to do once K >= N + 1.
    assert unfixed == max(n - k, -1)
    if tol_rel == 0.0:
        assert k == n + 2 and unfixed == -1 and toy.computed[-2:] == [[0], []]
        assert report.increments[-2] > 0.0 and report.increments[-1] == 0.0
    else:
        assert 2 <= k <= n


def test_resumed_recursion_reads_back_the_slot_above():
    # Below N the recursion first hands the drivers slot start + 1 as the
    # stacks hold it; from -1 it hands them nothing.
    toy, seen = ToyRecursion(4), []
    for start in (4, 3, 1, 0, -1):
        toy(lambda i, x_i: seen.append(i) or x_i, start)
        assert seen == resumed_slots(start, 4)
        seen.clear()


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
    cfg = PicardConfig.from_problem(problem, eps=0.5, max_iter=7, tol_rel=1e-4)
    c_bar, z_coef = 0.36, 0.6 * 0.64
    delta = c_bar * (0.64 + 0.5) / (c_bar * 0.5 + z_coef)
    expected = (0.5, 1 / 0.5 + 2 * 0.8 * delta, delta, (c_bar * 0.5 + z_coef) / (2 * 0.8))
    assert (cfg.eps, cfg.rate, cfg.delta, cfg.kappa) == pytest.approx(expected, rel=1e-12)
    assert (cfg.max_iter, cfg.tol_rel) == (7, 1e-4)
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
        assert (cfg.max_iter, cfg.tol_rel) == (25, 1e-6)
        cfg.validate_against(problem)
    assert cfg.kappa == pytest.approx(0.9, rel=1e-12)
