"""Planted defects the suite must catch, each a monkeypatch on the package.

Every entry plants one defect (a wrapped solver or a scaled function, never
a source edit) and names the check rows that must fail when ``gspde`` and
``representation`` run on the shipped config at its seed.  The shipped
suite passes every row on the unmutated program, where
``rel_rms_y[t=0]`` is 0.0146 (0.0167 on ``SINUSOIDAL_FIELD``); each entry
records the value it measures.  Entries marked ``missed`` are defects the
suite does not catch yet, for the reason ``MISSED`` gives.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from gexplab import bdsde, experiments, pde

RESIDUALS = ("gspde:weak_residual_rms", "gspde:energy_residual_rms")
REPRESENTATION = ("representation:rel_rms_y[t=0]",)
# A coefficient field that is not constant, so sigma(x) and a(x)^{-1} move
# numbers; frequency pi/4 makes it periodic on the shipped [-8, 8] grid.
SINUSOIDAL_FIELD = {"preset": "sinusoidal-1d", "base": 1.0, "amplitude": 0.3,
                    "frequency": np.pi / 4}


@dataclass(frozen=True)
class Defect:
    name: str
    plant: Callable  # plant(monkeypatch, exp) mutates the program for one run
    rows: tuple  # "check:metric" rows that must fail
    rel_rms_y0: float  # the representation's rel_rms_y[t=0] with the defect
    field: Optional[dict] = None  # the coefficient_field to run on; None: shipped
    missed: bool = False


def _grid_solve_with(transform):
    """Plant: both grid solvers run on ``transform(problem)``; the residuals
    and every other reader keep the problem as configured."""
    def plant(monkeypatch, exp):
        solve, picard = experiments.solve_gspde, experiments.solve_gspde_picard
        monkeypatch.setattr(experiments, "solve_gspde",
                            lambda problem, gbm: solve(transform(problem), gbm))
        monkeypatch.setattr(experiments, "solve_gspde_picard",
                            lambda problem, cfg, gbm: picard(transform(problem), cfg, gbm))
    return plant


def _scaled_reaction(problem, factor=0.5):
    term = problem.reaction
    return replace(problem, reaction=replace(term, fn=lambda *a: factor * term.fn(*a)))


def _flipped_noise(problem):
    term = problem.noise
    return replace(problem, noise=replace(term, fn=lambda *a: -term.fn(*a)))


def _doubled_z(monkeypatch, exp):
    extract = bdsde.extract_z

    def doubled(*args):
        return 2.0 * extract(*args)

    monkeypatch.setattr(bdsde, "extract_z", doubled)


def _backward_driver(name, factor):
    def plant(monkeypatch, exp):
        fn = getattr(exp.bdsde_problem, name)
        monkeypatch.setattr(exp.bdsde_problem, name, lambda *a: factor * fn(*a))
    return plant


def _grid_drivers_one_slot_stale(monkeypatch, exp):
    # Both grid solvers pair dB_i with the sources at slot i + 2, the slot
    # before the one the recursion has just computed (at slot N, slot N's own);
    # the residuals read the sources at the right slot.  The sources are held
    # per slot: a sweep that resumes below slot N reads slot start + 2 from
    # the sweep before, which fixed it.
    sources = pde._slot_sources
    held = {}

    def stale(problem, pts, i, u_i):
        if i == problem.time_grid.n_steps:  # a solve starts from the terminal slot
            held.clear()
        held[i] = sources(problem, pts, i, u_i)
        return held.get(i + 1, held[i])

    for name in ("solve_gspde", "solve_gspde_picard"):
        def solve_stale(*args, solve=getattr(experiments, name)):
            with monkeypatch.context() as inner:
                inner.setattr(pde, "_slot_sources", stale)
                return solve(*args)

        monkeypatch.setattr(experiments, name, solve_stale)


def _z_without_sigma(monkeypatch, exp):
    # The backward drivers' v slot gets Z where it needs Z sigma(X).
    sigma = bdsde.LsmcEnsemble.sigma

    def unit_sigma(self, i):
        shape = sigma(self, i).shape
        return np.broadcast_to(np.eye(shape[-1]), shape)

    monkeypatch.setattr(bdsde.LsmcEnsemble, "sigma", unit_sigma)


MISSED = ("the representation tolerance is a flat 0.05 and Z is not gated (ROADMAP: the "
          "defect matrix, the Z half of the representation)")
DEFECTS = (
    Defect("grid-reaction-x0.5", _grid_solve_with(_scaled_reaction),
           RESIDUALS + REPRESENTATION, 0.1175),
    Defect("grid-noise-sign-flipped", _grid_solve_with(_flipped_noise),
           RESIDUALS + REPRESENTATION, 0.6663),
    Defect("extract-z-x2", _doubled_z, REPRESENTATION, 0.1487),
    Defect("backward-reaction-dropped", _backward_driver("f", 0.0), REPRESENTATION, 0.1883),
    Defect("backward-noise-x1.05", _backward_driver("g", 1.05), REPRESENTATION, 0.0229,
           missed=True),
    # An O(dt) shift of the sources in time: the scheme stays consistent, and
    # rel_rms_y[t=0] moves by 1e-5.
    Defect("grid-drivers-one-slot-stale", _grid_drivers_one_slot_stale, REPRESENTATION,
           0.01462, missed=True),
    Defect("backward-drivers-fed-z-not-z-sigma", _z_without_sigma, REPRESENTATION, 0.0272,
           field=SINUSOIDAL_FIELD, missed=True),
)
