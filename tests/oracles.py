"""Reference computations the tests compare the package against; no
command of the package runs them."""

import math
from functools import partial
from unittest import mock

import numpy as np

from gexplab import bdsde
from gexplab._util import read
from gexplab.picard import iterate, iterate_in_place, weighted_quadrature
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


def solution_stacks(sol):
    """The (Y, Z) stacks, (n_b, N+1, n_W) and (n_b, N+1, n_W, d), of a
    ``bdsde.BdsdeSolution``, evaluated slot by slot."""
    y, z = zip(*(sol.slot(i) for i in range(sol.c.shape[1])))
    return np.stack(y, axis=1), np.stack(z, axis=1)


def value_z(next_values, dm, context, a_inverse, dt):
    """``bdsde.extract_z`` with each moment predicted from the coefficients
    its fit returns, not from a stored copy of them: the Z that evaluating a
    slot's moment coefficients must give bitwise."""
    nxt = next_values - context.predict_in_sample(context.fit(next_values))
    d = dm.shape[1]
    moments = np.empty(nxt.shape + (d,))
    coefs = np.empty(nxt.shape[:-1] + (d, context.n_features))
    for j in range(d):
        coefs_j = context.fit(nxt * dm[:, j])
        coefs[..., j, :] = coefs_j
        moments[..., j] = context.predict_in_sample(coefs_j)
    return np.einsum("njk,...nk->...nj", a_inverse, moments) / (2.0 * dt), coefs


def stacked_linear_bdsde(xi, ensemble, gbm, drivers, y, z, c, start):
    """``bdsde.solve_linear_bdsde`` writing every slot's (Y, Z) into the
    stacks ``y`` and ``z`` beside the coefficient stack ``c``, and reading
    slot start + 1 back from them below N: the values that evaluating a slot
    from its coefficients must give bitwise.  Returns (y, z, c)."""
    hunt = ensemble.hunt
    n, dt = hunt.grid.n_steps, hunt.grid.dt
    slot_shape = c.shape[:1] + c.shape[2:]
    if start == n:
        y_i, c_i = np.tile(xi, (gbm.n_paths, 1)), np.zeros(slot_shape)
        ctx = ensemble.contexts[n - 1]
        z_i, c_i[:, 1:, :ctx.n_features] = value_z(y_i, hunt.dm[:, n - 1], ctx,
                                                   ensemble.a_inverse[n - 1], dt)
    else:
        y_i, z_i, c_i = y[:, start + 1], z[:, start + 1], c[:, start + 1]
        if start >= 0:
            at_next = drivers(start + 1, y_i, z_i, c_i)
    for i in range(start, -1, -1):
        if i < n:
            f_next, g_next = at_next
            ctx = ensemble.contexts[i]
            k = ctx.n_features
            noise = np.einsum("bwl,bl->bw", g_next, gbm.db[:, i, :])
            c_y = ctx.fit(y[:, i + 1] + dt * f_next + noise)
            y_i, c_new = ctx.predict_in_sample(c_y), np.zeros(slot_shape)
            c_new[:, 0, :k] = c_y
            if i < n - 1:
                z_i, c_new[:, 1:, :k] = value_z(y[:, i + 1], hunt.dm[:, i], ctx,
                                                ensemble.a_inverse[i], dt)
            else:
                c_new[:, 1:] = c_i[:, 1:]
            c_i = c_new
        at_next = drivers(i, y_i, z_i, c_i)
        y[:, i] = y_i
        z[:, i] = z_i
        c[:, i] = c_i
    return y, z, c


def zero_stacks(ensemble, gbm):
    """Zero (Y, Z, coefficient) stacks for ``stacked_linear_bdsde``."""
    hunt = ensemble.hunt
    shape = (gbm.n_paths, hunt.grid.n_steps + 1)
    return (np.zeros(shape + (hunt.n_paths,)), np.zeros(shape + (hunt.n_paths, hunt.dim)),
            np.zeros(shape + (1 + hunt.dim, ensemble.n_features)))


def stacked_gbdsde_picard(problem, ensemble, gbm, cfg):
    """``bdsde.solve_gbdsde_picard`` on (Y, Z, coefficient) stacks: the Picard
    sweeps read the previous iterate's (Y, Z) from the stacks, and the
    explicit sweep after them resumes at the first unfixed slot.  Returns the
    stacks and the report."""
    xi, times = bdsde._payoff(problem, ensemble, gbm), problem.time_grid.times
    stacks = zero_stacks(ensemble, gbm)
    report, unfixed = iterate_in_place(
        lambda drivers, start: stacked_linear_bdsde(xi, ensemble, gbm, drivers, *stacks, start),
        stacks, lambda i, y_i, z_i, _: bdsde._slot_drivers(problem, ensemble, i, y_i, z_i),
        bdsde._coefficient_densities(ensemble, cfg.delta),
        lambda dens: math.sqrt(weighted_quadrature(dens, cfg.rate, times)), cfg)
    stacked_linear_bdsde(xi, ensemble, gbm, partial(bdsde._explicit_drivers, problem, ensemble),
                         *stacks, unfixed)
    return stacks, report
