"""Grid discretization of the divergence-form operator and the mild-solution
Picard iteration for the noise-driven quasilinear equation.

The truncated domain is [-R, R]^d with either homogeneous Dirichlet data
(the function vanishes on ghost nodes outside the grid) or periodic
wraparound.  The operator uses the conservative flux stencil

    (L_h u)_i = [a_{i+1/2} (u_{i+1} - u_i) - a_{i-1/2} (u_i - u_{i-1})] / dx^2

per axis, which is symmetric negative semidefinite, and the discrete energy
is E_h(u, v) = -<L_h u, v> dx^d, exactly the face-sum of a * du * dv.

Time stepping is Crank-Nicolson.  One CN step of size dt is *the* discrete
semigroup generator: the mild sum composed with right-endpoint sources is
evaluated by the backward recursion

    u_i = CN_dt[ u_{i+1} + dt f(t_{i+1}, u*, grad u*) + g(t_{i+1}, ...) . dB_i ],

whose fixed point reproduces the mild formula exactly at grid times.

The drivers f(t, x, y, v) and g(t, x, y, v) declare constants for their y
and v slots.  The sweep feeds the v slot grad u sigma(x), the Markovian
pairing with the backward solver's Z sigma(X), under which Y_t = u(t, X_t)
and Z_t = grad u(t, X_t).  As |(p - p') sigma|^2 <= Lambda |p - p'|^2,
the v constants enter the contraction argument of both equations times the
upper ellipticity bound Lambda, in ``derive_contraction_inputs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Callable, Literal, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._util import Bound, Positive
from .errors import NumericalError, UsageError
from .gbm import GBMPaths, TimeGrid
from .hunt import CoefficientField
from .picard import (
    PicardConfig,
    PicardReport,
    increment_and_iterate_norms,
    iterate,
    weighted_quadrature,
)
from .scenario import ScenarioSet, sigma_bar

DEFAULT_DT_MAX = 1.0 / 32.0
BOUNDARY_DECAY_TOL = 1e-8


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform tensor grid on [-R, R]^d, d in {1, 2}; the field types are the
    config schema of ``space_grid``."""

    dim: Literal[1, 2]
    half_width: Positive
    points_per_axis: Annotated[int, Bound(3)]
    boundary: Literal["dirichlet0", "periodic"] = "dirichlet0"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise UsageError("spatial dimension must be 1 or 2")
        if self.points_per_axis < 3:
            raise UsageError("need at least 3 points per axis")
        if not (self.half_width > 0.0):
            raise UsageError("half width must be positive")
        if self.boundary not in ("dirichlet0", "periodic"):
            raise UsageError(f"unknown boundary condition {self.boundary!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @property
    def n_nodes(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    def points(self) -> np.ndarray:
        axes = np.meshgrid(*[self.axis()] * self.dim, indexing="ij")
        return np.stack([g.ravel() for g in axes], axis=1)

    def boundary_mask(self) -> np.ndarray:
        idx = np.indices((self.points_per_axis,) * self.dim)
        return np.any((idx == 0) | (idx == self.points_per_axis - 1), axis=0).ravel()

    def interior_mask(self, collar_frac: float = 0.0) -> np.ndarray:
        """Nodes further than collar_frac * R from the boundary.

        Periodic grids have no boundary, so everything is interior.
        """
        if self.boundary == "periodic":
            return np.ones(self.n_nodes, dtype=bool)
        margin = collar_frac * self.half_width
        pts = self.points()
        return np.all(np.abs(pts) <= self.half_width - margin + 1e-12, axis=1)

    def l2_norm_sq(self, values: np.ndarray) -> np.ndarray:
        """Discrete squared L2 norm over the last axis."""
        return np.sum(np.asarray(values) ** 2, axis=-1) * self.cell_volume

    def inner(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sum(np.asarray(u) * np.asarray(v), axis=-1) * self.cell_volume

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Central differences over the last axis; one-sided at Dirichlet
        boundaries, wraparound for periodic.  Output gains a trailing dim."""
        vals = np.asarray(values, dtype=float)
        shaped = vals.reshape(vals.shape[:-1] + (self.points_per_axis,) * self.dim)
        out = np.empty(shaped.shape + (self.dim,))
        for axis_id in range(self.dim):
            arr = np.moveaxis(shaped, axis_id - self.dim, -1)
            # Write through a view of out: a temporary plus a copy is slower.
            g = np.moveaxis(out[..., axis_id], axis_id - self.dim, -1)
            g[..., 1:-1] = (arr[..., 2:] - arr[..., :-2]) / (2.0 * self.dx)
            if self.boundary == "periodic":
                g[..., 0] = (arr[..., 1] - arr[..., -1]) / (2.0 * self.dx)
                g[..., -1] = (arr[..., 0] - arr[..., -2]) / (2.0 * self.dx)
            else:
                g[..., 0] = (arr[..., 1] - arr[..., 0]) / self.dx
                g[..., -1] = (arr[..., -1] - arr[..., -2]) / self.dx
        return out.reshape(vals.shape + (self.dim,))


class DivergenceFormOperator:
    """Sparse flux-form discretization of sum_i d_i(a^{ii} d_j .), with
    sigma(x) at the nodes for the drivers' v slot."""

    def __init__(self, field_spec: CoefficientField, grid: SpatialGrid):
        if field_spec.dim != grid.dim:
            raise UsageError("coefficient dimension does not match the grid")
        self.field = field_spec
        self.grid = grid
        self.matrix = self._assemble()
        self.node_sigma = field_spec.sigma_at(grid.points())  # (n, d, d)
        self._step_cache: dict[float, tuple] = {}

    # -- assembly ---------------------------------------------------------
    def _face_coefficient(self, mid_pts: np.ndarray, axis_id: int) -> np.ndarray:
        mats = self.field.a_at(mid_pts)
        if self.grid.dim == 2:
            off = float(np.max(np.abs(mats[:, 0, 1]))) if mats.shape[0] else 0.0
            if off > 1e-12:
                raise UsageError(
                    "2-D operator supports diagonal coefficient matrices only"
                )
        return mats[:, axis_id, axis_id]

    def _assemble(self) -> sp.csr_matrix:
        g = self.grid
        m, dx = g.points_per_axis, g.dx
        pts = g.points()
        rows, cols, vals = [], [], []

        def add(p, q, c):
            # Per face, in order: (p,p), (q,q), (p,q), (q,p).
            rows.append(np.stack([p, q, p, q], axis=1).ravel())
            cols.append(np.stack([p, q, q, p], axis=1).ravel())
            vals.append(np.stack([-c, -c, c, c], axis=1).ravel())

        def boundary_coefs(nodes, axis_id, shift):
            mids = pts[nodes].copy()
            mids[:, axis_id] += shift
            return self._face_coefficient(mids, axis_id) / dx**2

        idx = np.arange(g.n_nodes).reshape((m,) * g.dim)
        for axis_id in range(g.dim):
            lines = np.moveaxis(idx, axis_id, 0)
            left, right = lines[:-1].ravel(), lines[1:].ravel()
            add(left, right, self._face_coefficient(0.5 * (pts[left] + pts[right]), axis_id) / dx**2)
            first, last = lines[0].ravel(), lines[-1].ravel()
            if g.boundary == "periodic":
                add(last, first, boundary_coefs(last, axis_id, 0.5 * dx))
            else:
                # Ghost faces: the ghost node holds zero, only the diagonal remains.
                for nodes, shift in ((first, -0.5 * dx), (last, 0.5 * dx)):
                    rows.append(nodes)
                    cols.append(nodes)
                    vals.append(-boundary_coefs(nodes, axis_id, shift))
        mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(g.n_nodes, g.n_nodes))
        return mat.tocsr()

    # -- linear algebra ----------------------------------------------------
    def apply(self, values: np.ndarray) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        flat = vals.reshape(-1, vals.shape[-1])
        return np.asarray(self.matrix.dot(flat.T)).T.reshape(vals.shape)

    def energy(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """E_h(u, v) = -<L_h u, v> dx^d, batched over leading axes of u, v."""
        lu = self.apply(u)
        return -np.sum(lu * np.asarray(v), axis=-1) * self.grid.cell_volume

    def _factorize(self, h: float):
        cached = self._step_cache.get(h)
        if cached is None:
            n = self.grid.n_nodes
            eye = sp.identity(n, format="csc")
            solve = spla.splu((eye - 0.5 * h * self.matrix).tocsc())
            forward = (sp.identity(n, format="csr") + 0.5 * h * self.matrix.tocsr())
            cached = (solve, forward)
            self._step_cache[h] = cached
        return cached

    def cn_step(self, values: np.ndarray, h: float) -> np.ndarray:
        """One Crank-Nicolson step of size h; accepts (n,) or (n, k) stacks."""
        solve, forward = self._factorize(h)
        rhs = forward.dot(values)
        try:
            out = solve.solve(rhs)
        except RuntimeError as exc:  # pragma: no cover - singular factor
            raise NumericalError(f"semigroup linear solve failed: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise NumericalError("semigroup step produced non-finite values")
        return out


def discretize_operator(field_spec: CoefficientField, grid: SpatialGrid) -> DivergenceFormOperator:
    return DivergenceFormOperator(field_spec, grid)


def apply_semigroup(op: DivergenceFormOperator, values: np.ndarray, tau: float,
                    dt_max: float = DEFAULT_DT_MAX) -> np.ndarray:
    """Apply the discrete semigroup over a duration tau.

    Crank-Nicolson sub-steps of equal size <= dt_max; tau = 0 returns the
    input unchanged.
    """
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


def homogeneous_term(op: DivergenceFormOperator, terminal: np.ndarray,
                     time_grid: TimeGrid) -> np.ndarray:
    """P_{T-t_i} terminal at every grid time via composed dt-steps."""
    n = time_grid.n_steps
    out = np.empty((n + 1, terminal.shape[-1]))
    out[n] = terminal
    for i in range(n - 1, -1, -1):
        out[i] = op.cn_step(out[i + 1], time_grid.dt)
    return out


# -- problem data ----------------------------------------------------------

@dataclass(frozen=True)
class ReactionTerm:
    """Drift-reaction f(t, x, y, v) with declared constants:
    |f(...,y,v) - f(...,y',v')|^2 <= lip_y_sq |y-y'|^2 + lip_z_sq |v-v'|^2."""

    fn: Callable
    lip_y_sq: float
    lip_z_sq: float
    name: str = "custom"

    def __call__(self, t, pts, y, v):
        return self.fn(t, pts, y, v)


@dataclass(frozen=True)
class NoiseTerm:
    """Noise loading g = (g^1..g^l) with declared constants:
    sum_j |dg^j|^2 <= lip_y_sq |dy|^2 + lip_z_sq |dv|^2."""

    fn: Callable
    n_components: int
    lip_y_sq: float
    lip_z_sq: float
    name: str = "custom"

    def __call__(self, t, pts, y, v):
        return self.fn(t, pts, y, v)


ZERO_REACTION = ReactionTerm(lambda t, p, y, v: np.zeros_like(y), 0.0, 0.0, "zero")


def zero_noise(n_components: int) -> NoiseTerm:
    def fn(t, p, y, v):
        return np.zeros(np.shape(y) + (n_components,))

    return NoiseTerm(fn, n_components, 0.0, 0.0, "zero")


def derive_contraction_inputs(reaction: ReactionTerm, noise: NoiseTerm,
                              field_spec: CoefficientField,
                              scenarios: ScenarioSet) -> tuple[float, float, float, float]:
    """(lip, z_coef, sigma_bar^2, lam) of ``picard.contraction_constants``,
    the same for the grid and the backward equation:

        lip = max(f_y, f_z Lambda, g_y),  z_coef = g_z Lambda sigma_bar^2,
        kappa = (lip eps + z_coef) / (2 lambda).

    Raises unless the contraction margin 2 lambda - z_coef is positive."""
    sb2 = sigma_bar(scenarios) ** 2
    lam, lam_up = field_spec.lam_min, field_spec.lam_max
    z_coef = noise.lip_z_sq * lam_up * sb2
    if 2.0 * lam - z_coef <= 0.0:
        raise UsageError(f"contraction property violated: g_z * Lambda * sigma_bar^2 = "
                         f"{z_coef:.6g} >= 2 lambda = {2 * lam:.6g}")
    return max(reaction.lip_y_sq, reaction.lip_z_sq * lam_up, noise.lip_y_sq), z_coef, sb2, lam


@dataclass
class GspdeProblem:
    """Terminal-value problem data with validated structure constants.

    The problem owns its grid operator.  ``dataclasses.replace`` carries it
    over while the field object and the grid stay the same; otherwise a new
    one is built."""

    terminal: np.ndarray
    reaction: ReactionTerm
    noise: NoiseTerm
    field: CoefficientField
    scenarios: ScenarioSet
    time_grid: TimeGrid
    space_grid: SpatialGrid
    check_boundary_decay: bool = True
    operator: Optional[DivergenceFormOperator] = field(default=None, repr=False,
                                                       compare=False)

    def __post_init__(self):
        self.terminal = np.asarray(self.terminal, dtype=float)
        if self.terminal.shape != (self.space_grid.n_nodes,):
            raise UsageError("terminal data does not live on the spatial grid")
        if self.noise.n_components != self.scenarios.dim:
            raise UsageError(
                f"noise has {self.noise.n_components} components but the driver "
                f"dimension is {self.scenarios.dim}"
            )
        self.contraction_inputs()  # raises unless the margin is positive
        if self.check_boundary_decay and self.space_grid.boundary == "dirichlet0":
            self._check_decay()
        op = self.operator
        if op is None or op.field is not self.field or op.grid != self.space_grid:
            self.operator = discretize_operator(self.field, self.space_grid)

    def _check_decay(self):
        mask = self.space_grid.boundary_mask()
        pts = self.space_grid.points()
        zero_y = np.zeros(self.space_grid.n_nodes)
        zero_z = np.zeros((self.space_grid.n_nodes, self.space_grid.dim))
        for name, values in (
            ("terminal", self.terminal),
            ("reaction", np.asarray(self.reaction(0.0, pts, zero_y, zero_z))),
            ("noise", np.asarray(self.noise(0.0, pts, zero_y, zero_z))),
        ):
            arr = np.atleast_2d(values.T).T  # (n, k)
            top = float(np.max(np.abs(arr)))
            if top == 0.0:
                continue
            edge = float(np.max(np.abs(arr[mask])))
            if edge > BOUNDARY_DECAY_TOL * top:
                raise UsageError(
                    f"{name} is not negligible at the truncation boundary "
                    f"({edge:.3e} vs max {top:.3e}); enlarge the domain"
                )

    def contraction_inputs(self) -> tuple[float, float, float, float]:
        return derive_contraction_inputs(self.reaction, self.noise, self.field, self.scenarios)


@dataclass(frozen=True)
class RandomField:
    """Per-noise-path solution slices on the spatial grid."""

    values: np.ndarray = field(repr=False)  # (n_paths, n_steps+1, n_nodes)
    time_grid: TimeGrid
    space_grid: SpatialGrid
    scenario_id: int
    gbm_fingerprint: tuple = ()

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def terminal_slice(self) -> np.ndarray:
        return self.values[:, -1, :]


def hnorm_gamma_delta(fields, gamma: float, delta: float) -> float:
    """Weighted space-time functional E int e^{gamma s} (delta |u|^2 + |grad u|^2) ds.

    Accepts one RandomField or a per-scenario sequence; the expectation is
    the path mean and the sublinear layer is the max across the sequence.
    """
    if isinstance(fields, RandomField):
        fields = [fields]
    if len(fields) == 0:
        raise UsageError("need at least one field")
    return max(weighted_quadrature(_hnorm_density(f.values[:, :-1], f.space_grid, delta),
                                   gamma, f.time_grid.times) for f in fields)


def _hnorm_density(u: np.ndarray, sg: SpatialGrid, delta: float) -> np.ndarray:
    """delta |u|^2 + |grad u|^2 of grid functions u shaped (..., n_nodes).

    Each row is reduced on its own, so one time slot gives the same floats
    as the slot's column of a whole stack."""
    total = sg.l2_norm_sq(sg.gradient(u).reshape(u.shape[:-1] + (-1,)))
    if delta != 0.0:
        total = total + delta * sg.l2_norm_sq(u)
    return total


def _eval_sources(problem: GspdeProblem, u: np.ndarray, pts: np.ndarray):
    """Reaction and noise at right-endpoint slots 1..N of the iterate, their
    v slot fed grad u sigma(x)."""
    tg = problem.time_grid
    n_steps = tg.n_steps
    p, _, n = u.shape
    grad = problem.space_grid.gradient(u[:, 1:])
    sigma = problem.operator.node_sigma
    f_vals = np.empty((n_steps, p, n))
    g_vals = np.empty((n_steps, p, n, problem.noise.n_components))
    times = tg.times
    for j in range(1, n_steps + 1):
        v = np.einsum("...nd,ndk->...nk", grad[:, j - 1], sigma)
        f_vals[j - 1] = np.asarray(problem.reaction(times[j], pts, u[:, j], v))
        g_vals[j - 1] = np.asarray(problem.noise(times[j], pts, u[:, j], v))
    return f_vals, g_vals


def solve_gspde_picard(problem: GspdeProblem, cfg: PicardConfig, gbm: GBMPaths,
                       initial: str = "zero") -> tuple[RandomField, PicardReport]:
    """Fixed-point iteration of the mild map over one path bundle.

    The iterate map propagates with the dt Crank-Nicolson step and feeds the
    previous iterate into the reaction and noise slots at t_{i+1}, paired
    with dB_i.  Convergence is measured in the (gamma, delta) functional of
    the increment, relative to the iterate.
    """
    cfg.validate_against(problem)
    tg, sg = problem.time_grid, problem.space_grid
    if gbm.grid != tg:
        raise UsageError("path bundle and problem use different time grids")
    if not np.array_equal(gbm.scenarios.matrices, problem.scenarios.matrices):
        raise UsageError("path bundle and problem use different scenario sets")
    op = problem.operator
    pts = sg.points()
    p, n_steps, n = gbm.n_paths, tg.n_steps, sg.n_nodes
    dt = tg.dt

    u = np.zeros((p, n_steps + 1, n))
    u[:, -1, :] = problem.terminal
    if initial == "homogeneous":
        u[:] = homogeneous_term(op, problem.terminal, tg)[None, :, :]
    elif initial != "zero":
        raise UsageError(f"unknown initial guess {initial!r}")

    def sweep(u):
        f_vals, g_vals = _eval_sources(problem, u, pts)
        new_u = np.empty_like(u)
        new_u[:, -1, :] = problem.terminal
        v = np.ascontiguousarray(new_u[:, -1, :].T)  # (n, p)
        for i in range(n_steps - 1, -1, -1):
            src = v + dt * f_vals[i].T
            src = src + np.einsum("pnl,pl->np", g_vals[i], gbm.db[:, i, :])
            v = op.cn_step(src, dt)
            new_u[:, i, :] = v.T
        return (new_u,)

    def norms(new, old):
        return increment_and_iterate_norms(lambda u: _hnorm_density(u, sg, cfg.delta),
                                           new, old, cfg.rate, tg.times)

    (u,), report = iterate(sweep, norms, (u,), cfg)
    return RandomField(u, tg, sg, gbm.scenario_id, gbm.fingerprint()), report


# -- residual functionals ---------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable test function psi(t) * chi(x) with compact spatial support."""

    psi: Callable[[float], float]
    chi: Callable[[np.ndarray], np.ndarray]
    name: str = "test"

    def space_values(self, grid: SpatialGrid) -> np.ndarray:
        vals = np.asarray(self.chi(grid.points()), dtype=float).reshape(grid.n_nodes)
        return vals

    def time_values(self, times: np.ndarray) -> np.ndarray:
        return np.array([float(self.psi(t)) for t in times])


def _check_support(chi_vals: np.ndarray, grid: SpatialGrid) -> None:
    if grid.boundary == "periodic":
        return
    top = float(np.max(np.abs(chi_vals)))
    if top == 0.0:
        return
    edge = float(np.max(np.abs(chi_vals[grid.boundary_mask()])))
    if edge > 1e-10 * top:
        raise UsageError("test function must vanish at the domain boundary")


def _residual_slots(u_field: RandomField, problem: GspdeProblem, gbm: GBMPaths):
    """What both residuals read: the field, its sources at the right-endpoint
    slots, its midpoint slices (p, N, n) and g . dB_i."""
    if u_field.values.shape[0] != gbm.n_paths:
        raise UsageError("field and path bundle have different path counts")
    u = u_field.values
    f_vals, g_vals = _eval_sources(problem, u, problem.space_grid.points())
    u_mid = 0.5 * (u[:, :-1, :] + u[:, 1:, :])
    return u, f_vals, g_vals, u_mid, np.einsum("ipnl,pil->pin", g_vals, gbm.db)


def weak_residual(u_field: RandomField, test_fn: SpaceTimeTestFunction,
                  problem: GspdeProblem, gbm: GBMPaths) -> np.ndarray:
    """Absolute residual of the test-function formulation at t = 0, per path.

    Quadrature is midpoint in both slots of every time integral, which makes
    the residual vanish identically for the source-free discrete evolution.
    """
    tg, sg, dt = problem.time_grid, problem.space_grid, problem.time_grid.dt
    chi = test_fn.space_values(sg)
    _check_support(chi, sg)
    psi = test_fn.time_values(tg.times)
    u, f_vals, g_vals, u_mid, gdb = _residual_slots(u_field, problem, gbm)
    psi_mid = 0.5 * (psi[:-1] + psi[1:])
    dpsi = psi[1:] - psi[:-1]

    res = sg.inner(u[:, 0, :], psi[0] * chi)
    res = res - sg.inner(problem.terminal, psi[-1] * chi)
    res = res + np.sum(sg.inner(u_mid, chi[None, None, :]) * dpsi[None, :], axis=1)
    energy = problem.operator.energy(u_mid, chi[None, None, :])  # (p, N)
    res = res + dt * np.sum(energy * psi_mid[None, :], axis=1)
    f_term = sg.inner(np.moveaxis(f_vals, 0, 1), chi[None, None, :])
    res = res - dt * np.sum(f_term * psi_mid[None, :], axis=1)
    g_term = sg.inner(gdb, chi[None, None, :])
    res = res - np.sum(g_term * psi_mid[None, :], axis=1)
    return np.abs(res)


@dataclass(frozen=True)
class PhiFunction:
    """Scalar composition for the energy identity; time-independent."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]
    name: str = "phi"


PHI_SQUARE = PhiFunction(lambda y: y * y, lambda y: 2.0 * y,
                         lambda y: np.full_like(y, 2.0), "square")
PHI_IDENTITY = PhiFunction(lambda y: y, lambda y: np.ones_like(y),
                           lambda y: np.zeros_like(y), "identity")


def energy_identity_residual(u_field: RandomField, problem: GspdeProblem,
                             gbm: GBMPaths, phi: PhiFunction = PHI_SQUARE) -> np.ndarray:
    """Absolute residual, per path, of the composition identity at t = 0.

    The bracket of the noise is replaced by the active scenario's
    beta beta^T dt step by step.  Slot convention: the energy integral uses
    midpoint slices; the source and noise integrals pair the right-endpoint
    slice t_{i+1} (the backward-adapted slot) with dB_i — with a midpoint
    slice there the quadratic-variation correction would be double-counted.
    """
    sg, dt = problem.space_grid, problem.time_grid.dt
    u, f_vals, g_vals, u_mid, gdb = _residual_slots(u_field, problem, gbm)
    phi_mid = phi.deriv(u_mid)
    phi_right = phi.deriv(u[:, 1:, :])

    lhs = np.sum(phi.value(u[:, 0, :]), axis=-1) * sg.cell_volume
    lhs = lhs + dt * np.sum(problem.operator.energy(phi_mid, u_mid), axis=1)

    rhs = np.sum(phi.value(problem.terminal)) * sg.cell_volume
    f_term = sg.inner(phi_right, np.moveaxis(f_vals, 0, 1))
    rhs = rhs + dt * np.sum(f_term, axis=1)
    rhs = rhs + np.sum(sg.inner(phi_right, gdb), axis=1)

    cov = gbm.scenarios.covariances()[gbm.schedule.indices]   # (N, l, l)
    second = phi.second(u[:, 1:, :])                          # (p, N, n)
    quad = np.einsum("ipna,ipnb,iab->pin", g_vals, g_vals, cov)
    rhs = rhs + 0.5 * dt * np.sum(np.sum(second * quad, axis=-1) * sg.cell_volume, axis=1)
    return np.abs(lhs - rhs)
