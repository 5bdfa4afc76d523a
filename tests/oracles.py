"""Reference computations the tests compare the package against; no
command of the package runs them."""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from gexplab._util import read
from gexplab.errors import UsageError
from gexplab.gbm import coarsen_gbm
from gexplab.pde import ZERO_REACTION, GspdeProblem, PhiFunction, _slot_sources, solve_gspde
from gexplab.picard import weighted_quadrature
from gexplab.presets import FieldPreset, NoisePreset
from gexplab.scenario import upper_expectation
from gexplab.verify import REL_RMS_FLOOR, _interp_paths, checkpoint_indices


def preset(family, spec, *dims):
    """The preset ``spec`` of ``family`` (``presets.FieldPreset`` and so
    on), read and built on ``dims`` as ``validate_config`` builds it."""
    builder = read(family, spec, "preset")
    return builder(*dims, "preset") if family in (FieldPreset, NoisePreset) else builder(*dims)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def row_csv(path, header, rows, config_hash):
    """The row-wise CSV writer: ``csv.writer`` over row tuples, each cell
    through ``_cell``, with a ``config_hash`` column: the bytes
    ``artifacts.write_csv`` must write for the columns of those rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header) + ["config_hash"])
        for row in rows:
            writer.writerow([_cell(v) for v in row] + [config_hash])


def homogeneous_term(op, terminal, time_grid, n_paths):
    """P_{T-t_i} terminal at every grid time via composed dt-steps, shaped
    (n_paths, N+1, n): the terminal data tiled to n_paths columns is stepped
    as one (n, n_paths) stack, as ``pde._grid_recursion`` steps it, so no
    float depends on how BLAS splits a product by columns."""
    n = time_grid.n_steps
    out = np.empty((n_paths, n + 1, terminal.shape[-1]))
    v = np.tile(terminal[:, None], (1, n_paths))
    out[:, n] = v.T
    for i in range(n - 1, -1, -1):
        v = op.cn_step(v, time_grid.dt)
        out[:, i] = v.T
    return out


def densify(matrix):
    """A grid operator's matrix as a dense array; only the 2-D one is sparse."""
    return matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)


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


def bracket_curves(paths, field):
    """The empirical bracket, the path mean of sum_{i<m} dM_i dM_i^T, and
    the model bracket 2 sum_{i<m} a(X_i) dt averaged over the paths, at
    every positive grid time t_m, each shaped (n_steps, d, d), summed one
    slot at a time."""
    n, d, dt = paths.grid.n_steps, paths.dim, paths.grid.dt
    empirical, model = np.zeros((2, n, d, d))
    emp, mod = np.zeros((2, d, d))
    for i in range(n):
        dm = paths.dm[:, i]
        emp = emp + dm.T @ dm / paths.n_paths
        mod = mod + 2.0 * dt * np.mean(field.a_at(paths.x[:, i]), axis=0)
        empirical[i], model[i] = emp, mod
    return empirical, model


def solution_stacks(sol):
    """The (Y, Z) stacks, (n_b, N+1, n_W) and (n_b, N+1, n_W, d), of a
    ``bdsde.BdsdeSolution``, evaluated slot by slot."""
    y, z = zip(*(sol.slot(i) for i in range(sol.c.shape[1])))
    return np.stack(y, axis=1), np.stack(z, axis=1)


def power_design(x, basis):
    """The design matrix of the state sample ``x`` on the
    ``bdsde.StandardizedBasis`` ``basis``, each monomial taken as powers of
    the standardized axes with ``**``: the reference for the design matrix
    the package builds by products."""
    z = (x - basis.center) / basis.scale
    z = z[:, basis.active]
    cols = []
    for pw in basis.powers:
        col = np.ones(x.shape[0])
        for axis, p in enumerate(pw):
            if p:
                col = col * z[:, axis] ** p
        cols.append(col)
    return np.stack(cols, axis=1)


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
    ctx, a_inverse = ensemble.regression(n - 1)
    z_i, c_i[:, 1:, :ctx.n_features] = value_z(y_i, hunt.dm[:, n - 1], ctx, a_inverse, dt)
    for i in range(n, -1, -1):
        if i < n:
            f_next, g_next = at_next
            ctx, a_inverse = ensemble.regression(i)
            k = ctx.n_features
            noise = np.einsum("bwl,bl->bw", g_next, gbm.db[:, i, :])
            c_y = ctx.fit(y[:, i + 1] + dt * f_next + noise)
            y_i, c_new = ctx.predict_in_sample(c_y), np.zeros(slot_shape)
            c_new[:, 0, :k] = c_y
            if i < n - 1:
                z_i, c_new[:, 1:, :k] = value_z(y[:, i + 1], hunt.dm[:, i], ctx, a_inverse, dt)
            else:
                c_new[:, 1:] = c_i[:, 1:]
            c_i = c_new
        at_next = drivers(i, y_i, c_i)
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


def stacked_residuals(u_field, problem, gbm, test_fn, phi):
    """The weak and energy-identity residuals per path from whole (p, N, n)
    stacks of the midpoint slices, the sources at the right-endpoint slots
    and g . dB_i, each residual formed over the whole stack."""
    tg, sg, dt, op = problem.time_grid, problem.space_grid, problem.time_grid.dt, \
        problem.operator
    u, pts = u_field.values, sg.points()
    p, n_slots, n = u.shape
    f_vals = np.empty((n_slots - 1, p, n))
    g_vals = np.empty((n_slots - 1, p, n, problem.noise.n_components))
    for j in range(1, n_slots):
        f_vals[j - 1], g_vals[j - 1] = _slot_sources(problem, pts, j, u[:, j])
    u_mid = 0.5 * (u[:, :-1, :] + u[:, 1:, :])
    gdb = np.einsum("ipnl,pil->pin", g_vals, gbm.db)

    chi, psi = test_fn.space_values(sg), test_fn.time_values(tg.times)
    psi_mid = 0.5 * (psi[:-1] + psi[1:])
    dpsi = psi[1:] - psi[:-1]
    weak = sg.inner(u[:, 0, :], psi[0] * chi)
    weak = weak - sg.inner(problem.terminal, psi[-1] * chi)
    weak = weak + np.sum(sg.inner(u_mid, chi[None, None, :]) * dpsi[None, :], axis=1)
    energy = op.energy(u_mid, chi[None, None, :])
    weak = weak + dt * np.sum(energy * psi_mid[None, :], axis=1)
    f_term = sg.inner(np.moveaxis(f_vals, 0, 1), chi[None, None, :])
    weak = weak - dt * np.sum(f_term * psi_mid[None, :], axis=1)
    weak = weak - np.sum(sg.inner(gdb, chi[None, None, :]) * psi_mid[None, :], axis=1)

    phi_mid, phi_right = phi.deriv(u_mid), phi.deriv(u[:, 1:, :])
    lhs = np.sum(phi.value(u[:, 0, :]), axis=-1) * sg.cell_volume
    lhs = lhs + dt * np.sum(op.energy(phi_mid, u_mid), axis=1)
    rhs = np.sum(phi.value(problem.terminal)) * sg.cell_volume
    rhs = rhs + dt * np.sum(sg.inner(phi_right, np.moveaxis(f_vals, 0, 1)), axis=1)
    rhs = rhs + np.sum(sg.inner(phi_right, gdb), axis=1)
    cov = gbm.scenarios.covariances()[gbm.schedule.indices]
    quad = np.einsum("ipna,ipnb,iab->pin", g_vals, g_vals, cov)
    rhs = rhs + 0.5 * dt * np.sum(np.sum(phi.second(u[:, 1:, :]) * quad, axis=-1)
                                  * sg.cell_volume, axis=1)
    return np.abs(weak), np.abs(lhs - rhs)


def stacked_case_gaps(problem_a, problems_b, fa, gbm, mask):
    """``verify._case_gaps`` from whole gap stacks (u_b - u_a)[:, :, mask]."""
    halve = gbm.grid.n_steps % 2 == 0
    if halve:
        coarse = coarsen_gbm(gbm, 2)
        fac = solve_gspde(replace(problem_a, time_grid=coarse.grid), coarse)
    out = []
    for problem_b in problems_b:
        gap = (solve_gspde(problem_b, gbm).values - fa.values)[:, :, mask]
        probe = 0.0
        if halve:
            fbc = solve_gspde(replace(problem_b, time_grid=coarse.grid), coarse)
            probe = float(np.max(np.abs(gap[:, ::2] - (fbc.values - fac.values)[:, :, mask])))
        out.append((float(np.min(gap)), probe))
    return out


FD_STEP = 1e-5


def fd_drift(a, dim):
    """The row divergence sum_j d_j a^{ij} of the coefficient callable ``a``
    by central differences of step ``FD_STEP``, as a field's ``drift``."""
    def drift(pts):
        out = np.zeros_like(pts)
        for j in range(dim):
            shift = np.zeros(dim)
            shift[j] = FD_STEP
            diff = (np.asarray(a(pts + shift), dtype=float)
                    - np.asarray(a(pts - shift), dtype=float)) / (2.0 * FD_STEP)
            out += diff[:, :, j]
        return out

    return drift


DEFAULT_DT_MAX = 1.0 / 32.0


def apply_semigroup(op, values, tau, dt_max=DEFAULT_DT_MAX):
    """The discrete semigroup over a duration tau: Crank-Nicolson sub-steps
    of equal size <= dt_max; tau = 0 returns the input unchanged."""
    if tau < 0.0:
        raise UsageError("semigroup duration must be nonnegative")
    vals = np.asarray(values, dtype=float)
    if tau == 0.0:
        return vals.copy()
    n_sub = max(1, int(math.ceil(tau / dt_max - 1e-12)))
    h = tau / n_sub
    out = vals
    for _ in range(n_sub):
        out = op.cn_step(out, h)
    return out


# The composition under which the energy identity reduces to the weak form.
PHI_IDENTITY = PhiFunction(lambda y: y, lambda y: np.ones_like(y),
                           lambda y: np.zeros_like(y), "identity")


def g_function(a_matrix, scenarios):
    """Generating function G(A) = max_k (1/2) tr(beta_k beta_k^T A) of a
    symmetric A of the driver dimension."""
    a = np.asarray(a_matrix, dtype=float)
    l = scenarios.dim
    if a.shape != (l, l):
        raise UsageError(f"matrix shape {a.shape} does not match driver dimension {l}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if not np.allclose(a, a.T, atol=1e-10 * scale):
        raise UsageError("G is defined on symmetric matrices only")
    traces = np.einsum("kab,ba->k", scenarios.covariances(), a)
    return float(0.5 * np.max(traces))


def capacity_estimate(per_scenario_indicator_samples):
    """Capacity estimate: max over scenarios of the empirical frequency."""
    for k, raw in enumerate(per_scenario_indicator_samples):
        x = np.asarray(raw, dtype=float).ravel()
        if x.size and not np.all((x == 0.0) | (x == 1.0)):
            raise UsageError(f"scenario {k}: indicator samples must be 0/1")
    return upper_expectation(per_scenario_indicator_samples)


@dataclass(frozen=True)
class TransportReport:
    checkpoints: tuple       # (t, rel_rms) pairs, worst over scenarios

    @property
    def worst_rel_rms(self) -> float:
        return max(v for _, v in self.checkpoints)


def check_linear_transport(noise, field_spec, time_grid, space_grid, hunt, gbms, scenarios,
                           checkpoints=(0.0,)):
    """Both sides of the pathwise identity for u = sum P g . dB: the field
    evaluated along the diffusion equals the backward noise sum minus the
    forward gradient integral.  The noise term must be deterministic in
    (y, z)."""
    if noise.lip_y_sq != 0.0 or noise.lip_z_sq != 0.0:
        raise UsageError("transport check needs a (y, z)-independent noise term")
    if hunt.grid != time_grid:
        raise UsageError("diffusion ensemble and time grid do not match")
    sg = space_grid
    indices = checkpoint_indices(checkpoints, time_grid)
    n = time_grid.n_steps
    times = time_grid.times
    n_w = hunt.n_paths
    zero_y = np.zeros(n_w)
    zero_z = np.zeros((n_w, hunt.dim))
    # Noise samples along the diffusion, g(t_{i+1}, X_{t_i}), shape (n, n_w, l).
    g_on_paths = np.stack([
        np.asarray(noise(times[i + 1], hunt.x[:, i, :], zero_y, zero_z))
        for i in range(n)
    ])
    problem = GspdeProblem(np.zeros(sg.n_nodes), ZERO_REACTION, noise, field_spec,
                           scenarios, time_grid, sg)
    worst = {idx: 0.0 for idx in indices}
    for gbm in gbms:
        u_field = solve_gspde(problem, gbm)
        grads = sg.gradient(u_field.values)[:, :, :, 0]        # (b, n+1, nodes)
        res_sq = dict.fromkeys(indices, 0.0)
        ref_sq = dict.fromkeys(indices, 0.0)
        for b in range(gbm.n_paths):
            # Per slot i: g . dB_i minus grad u(t_i, X_{t_i}) dM_i.  The
            # reversed cumulative sum gives both sums from every t_idx on.
            slots = np.einsum("iwl,il->iw", g_on_paths, gbm.db[b]) - np.stack(
                [_interp_paths(grads[b, i], sg, hunt.x[:, i, 0]) for i in range(n)]
            ) * hunt.dm[:, :, 0].T
            tails = np.zeros((n + 1, n_w))
            tails[:n] = np.cumsum(slots[::-1], axis=0)[::-1]
            for idx in indices:
                lhs = _interp_paths(u_field.values[b, idx], sg, hunt.x[:, idx, 0])
                res_sq[idx] += float(np.mean((lhs - tails[idx])**2))
                ref_sq[idx] += float(np.mean(lhs**2))
        for idx in indices:
            worst[idx] = max(worst[idx],
                             float(np.sqrt(res_sq[idx] / max(ref_sq[idx], REL_RMS_FLOOR))))
    return TransportReport(tuple((float(times[i]), worst[i]) for i in indices))
