"""Reference computations the tests compare the package against; no
command of the package runs them."""

import numpy as np

from gexplab._util import read
from gexplab.picard import weighted_quadrature
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


def absolute_weighted_quadrature(density, rate, times):
    """``picard.weighted_quadrature`` with the step weights e^{rate s} taken
    as they are, not relative to e^{rate T}."""
    t0, t1 = times[:-1], times[1:]
    w = t1 - t0 if abs(rate) < 1e-300 else (np.exp(rate * t1) - np.exp(rate * t0)) / rate
    return float(np.mean(np.sum(density * w, axis=1)))


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


def stacked_linear_bdsde(xi, ensemble, gbm, drivers, y, z, c):
    """``bdsde.solve_linear_bdsde`` writing every slot's (Y, Z) into the
    stacks ``y`` and ``z`` beside the coefficient stack ``c``: the values
    that evaluating a slot from its coefficients must give bitwise.  Returns
    (y, z, c)."""
    hunt = ensemble.hunt
    n, dt = hunt.grid.n_steps, hunt.grid.dt
    slot_shape = c.shape[:1] + c.shape[2:]
    y_i, c_i = np.tile(xi, (gbm.n_paths, 1)), np.zeros(slot_shape)
    ctx = ensemble.contexts[n - 1]
    z_i, c_i[:, 1:, :ctx.n_features] = value_z(y_i, hunt.dm[:, n - 1], ctx,
                                               ensemble.a_inverse[n - 1], dt)
    for i in range(n, -1, -1):
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
