"""Reference computations the tests compare the package against; no
command of the package runs them."""

from unittest import mock

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
