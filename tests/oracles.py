"""Reference computations the tests compare the package against; no
command of the package runs them."""

from unittest import mock

import numpy as np

from gexplab._util import read
from gexplab.picard import iterate, weighted_quadrature
from gexplab.presets import FieldPreset, NoisePreset


def preset(family, spec, *dims):
    """The preset ``spec`` of ``family`` (``presets.FieldPreset`` and so
    on), read and built on ``dims`` as ``validate_config`` builds it."""
    builder = read(family, spec, "preset")
    return builder(*dims, "preset") if family in (FieldPreset, NoisePreset) else builder(*dims)


def homogeneous_term(op, terminal, time_grid):
    """P_{T-t_i} terminal at every grid time via composed dt-steps."""
    n = time_grid.n_steps
    out = np.empty((n + 1, terminal.shape[-1]))
    out[n] = terminal
    for i in range(n - 1, -1, -1):
        out[i] = op.cn_step(out[i + 1], time_grid.dt)
    return out


def delta_density(y, z, delta: float, weights) -> np.ndarray:
    """delta |Y|^2 + |Z|^2 with Y shaped (..., n_W) and Z (..., n_W, d),
    averaged over the diffusion paths with their importance weights, which
    enter unnormalized for Lebesgue initial mass: the value-space density
    that the backward Picard check takes from the regression coefficients.
    Each (..., n_W) row is reduced on its own, so one time slot gives the
    same floats as the slot's column of a whole stack."""
    return np.mean((delta * y**2 + np.einsum("...k,...k->...", z, z)) * weights, axis=-1)


def whole_stack_delta_norm(y, z, beta, delta, weights, times):
    """The (beta, delta)-norm from a density built over whole stacks."""
    dens = delta * y[:, :-1]**2 + np.sum(z[:, :-1]**2, axis=-1)
    return float(np.sqrt(weighted_quadrature(np.mean(dens * weights, axis=-1), beta, times)))


def whole_stack_hnorm(u, gamma, delta, sg, times):
    """The (gamma, delta) functional from a density built over a whole stack."""
    u = u[:, :-1]
    grad = sg.gradient(u).reshape(u.shape[:-1] + (-1,))
    dens = np.sum(grad**2, axis=-1) * sg.cell_volume + delta * (np.sum(u**2, axis=-1)
                                                                * sg.cell_volume)
    return weighted_quadrature(dens, gamma, times)


def with_last_picard_iterate(module, recursion, solve, *args):
    """``solve(*args)`` and copies of the stacks that its last call of the
    backward recursion ``module.<recursion>`` started from: for a Picard
    solver, its last iterate, which the explicit sweep then overwrites."""
    seen = []
    original = getattr(module, recursion)

    def record(*rec_args):
        seen.append([a.copy() for a in rec_args if isinstance(a, np.ndarray) and a.ndim >= 3])
        return original(*rec_args)

    with mock.patch.object(module, recursion, record):
        out = solve(*args)
    return out, seen[-1]


def resumed_slots(start, n):
    """The slots a backward recursion from ``start`` hands its drivers: below
    N, slot start + 1 read back first, then start .. 0; none from -1."""
    return list(range(min(start + 1, n), -1, -1)) if start >= 0 else []


def every_slot_iterate_in_place(recursion, stacks, slot_drivers, densities, norm, cfg):
    """``picard.iterate_in_place`` with every sweep recomputing and measuring
    slots N .. 0, and the explicit sweep after it starting at N: the schedule
    that resuming at the first unfixed slot must reproduce bitwise."""
    p, n = stacks[0].shape[0], stacks[0].shape[1] - 1

    def sweep(*_):
        inc, cur = np.empty((p, n)), np.empty((p, n))

        def drivers(i, *new):
            old = [s[:, i] for s in stacks]
            if i < n:
                inc[:, i], cur[:, i] = densities(i, new, old)
            return slot_drivers(i, *old)

        recursion(drivers, n)
        return stacks, norm(inc), norm(cur)

    return iterate(sweep, stacks, cfg)[1], n


def with_full_sweeps(module, solve, *args):
    """``solve(*args)`` with ``module``'s Picard sweeps and the explicit
    sweep after them run over every slot (``every_slot_iterate_in_place``)."""
    with mock.patch.object(module, "iterate_in_place", every_slot_iterate_in_place):
        return solve(*args)
