from types import SimpleNamespace

import numpy as np
import pytest

from gexplab.errors import NumericalError
from gexplab.picard import iterate


def toy_cfg(max_iter=50, tol_rel=1e-3):
    return SimpleNamespace(max_iter=max_iter, tol_rel=tol_rel, kappa=0.5, eps=1.0,
                           rate=0.0, delta=1.0)


class Halving:
    """x -> x/2 + c from x = 0: increments 2^(1-k) c, iterates 2 (1 - 2^-k) c,
    every float exact; counts the sweep and norm calls."""

    def __init__(self, c=1.0, norms=None):
        self.c = c
        self.sweeps = 0
        self.norm_calls = 0
        self._norms = norms

    def sweep(self, x):
        self.sweeps += 1
        return (x / 2.0 + self.c,)

    def norms(self, new, old):
        self.norm_calls += 1
        if self._norms is not None:
            return self._norms(new, old)
        return float(np.max(np.abs(new[0] - old[0]))), float(np.max(np.abs(new[0])))


def test_iterate_halving_map_history():
    toy = Halving()
    (x,), rep = iterate(toy.sweep, toy.norms, (np.zeros(3),), toy_cfg())
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
        iterate(toy.sweep, toy.norms, (np.zeros(3),), toy_cfg(max_iter=3))
    assert not err.value.report.converged
    assert err.value.report.iterations == 3 and toy.norm_calls == 3


def test_iterate_nonfinite_norm_stops_at_once():
    toy = Halving(norms=lambda new, old: (float("nan"), 1.0))
    with pytest.raises(NumericalError, match="non-finite") as err:
        iterate(toy.sweep, toy.norms, (np.zeros(3),), toy_cfg())
    assert not err.value.report.converged
    assert err.value.report.iterations == 1
    assert toy.sweeps == 1 and toy.norm_calls == 1
