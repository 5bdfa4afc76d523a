"""Grid discretization of the divergence-form operator and the mild solution
of the noise-driven quasilinear equation, with its Picard check.

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
from functools import partial
from typing import Annotated, Callable, Literal, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._util import Bound, Positive
from .errors import NumericalError, UsageError
from .gbm import GBMPaths, TimeGrid
from .hunt import CoefficientField
from .picard import PicardConfig, PicardReport, check_fixed_point, weighted_quadrature
from .scenario import ScenarioSet, sigma_bar

DEFAULT_DT_MAX = 1.0 / 32.0
PERTURBATION_MODES = 4


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


def edge_excess(values, grid: SpatialGrid, tol: float) -> Optional[tuple[float, float]]:
    """(edge max, max) of |values|, nodes on the leading axis, when the max
    over the grid's edge nodes exceeds ``tol`` times the max; else None."""
    arr = np.abs(np.asarray(values))
    edge, top = float(np.max(arr[grid.boundary_mask()])), float(np.max(arr))
    return (edge, top) if edge > tol * top else None


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
            try:
                solve = spla.splu((eye - 0.5 * h * self.matrix).tocsc())
            except RuntimeError as exc:
                raise NumericalError(f"semigroup factorization at step {h:.6g} failed: "
                                     f"{exc}") from exc
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
        op = self.operator
        if op is None or op.field is not self.field or op.grid != self.space_grid:
            self.operator = discretize_operator(self.field, self.space_grid)

    def contraction_inputs(self) -> tuple[float, float, float, float]:
        return derive_contraction_inputs(self.reaction, self.noise, self.field, self.scenarios)


@dataclass(frozen=True)
class RandomField:
    """Per-noise-path solution slices on the spatial grid."""

    values: np.ndarray = field(repr=False)  # (n_paths, n_steps+1, n_nodes)
    time_grid: TimeGrid
    space_grid: SpatialGrid
    gbm_fingerprint: tuple

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _hnorm_density(u: np.ndarray, sg: SpatialGrid, delta: float) -> np.ndarray:
    """delta |u|^2 + |grad u|^2 of grid functions u shaped (..., n_nodes).

    Each row is reduced on its own, so one time slot gives the same floats
    as the slot's column of a whole stack."""
    total = sg.l2_norm_sq(sg.gradient(u).reshape(u.shape[:-1] + (-1,)))
    if delta != 0.0:
        total = total + delta * sg.l2_norm_sq(u)
    return total


def _slot_sources(problem: GspdeProblem, pts: np.ndarray, i: int, u_i: np.ndarray):
    """Reaction and noise at slot i of grid functions u_i shaped (p, n), the
    v slot fed grad u sigma(x); None at slot 0."""
    if i == 0:
        return None
    t = problem.time_grid.times[i]
    v = np.einsum("...nd,ndk->...nk", problem.space_grid.gradient(u_i),
                  problem.operator.node_sigma)
    return (np.asarray(problem.reaction(t, pts, u_i, v)),
            np.asarray(problem.noise(t, pts, u_i, v)))


def _grid_recursion(problem: GspdeProblem, gbm: GBMPaths, sources: Callable,
                    u: Optional[np.ndarray]) -> None:
    """u_i = CN_dt[u_{i+1} + dt f_{i+1} + g_{i+1} . dB_i] from the terminal
    data at slot N down to slot 0; ``sources(i, u_i)`` sees each new slot i
    and returns the reaction and noise at slot i, which pair with dB_{i-1};
    its slot-0 value is not read.  Each slot is then written into the stack
    u (p, N+1, n), unless u is None."""
    if gbm.grid != problem.time_grid:
        raise UsageError("path bundle and problem use different time grids")
    if not np.array_equal(gbm.scenarios.matrices, problem.scenarios.matrices):
        raise UsageError("path bundle and problem use different scenario sets")
    n_steps, dt, op = problem.time_grid.n_steps, problem.time_grid.dt, problem.operator
    u_i = np.tile(problem.terminal, (gbm.n_paths, 1))
    v = np.ascontiguousarray(u_i.T)  # (n, p), the slot the CN step acts on
    for i in range(n_steps, -1, -1):
        if i < n_steps:
            f_next, g_next = at_next
            src = v + dt * f_next.T
            src = src + np.einsum("pnl,pl->np", g_next, gbm.db[:, i, :])
            v = op.cn_step(src, dt)
            u_i = np.ascontiguousarray(v.T)  # rows laid out as in the stack
        at_next = sources(i, u_i)
        if u is not None:
            u[:, i] = u_i


def solve_gspde(problem: GspdeProblem, gbm: GBMPaths) -> RandomField:
    """The explicit scheme, one sweep with the sources read at the new slot:
    the fixed point of the Picard map, which fixes one slot per sweep."""
    u = np.empty((gbm.n_paths, problem.time_grid.n_steps + 1, problem.space_grid.n_nodes))
    _grid_recursion(problem, gbm, partial(_slot_sources, problem, problem.space_grid.points()),
                    u)
    return RandomField(u, problem.time_grid, problem.space_grid, gbm.fingerprint())


def _smooth_field(sg: SpatialGrid, seed: int) -> np.ndarray:
    """A seeded smooth field on the nodes: sum_k a_k cos(w_k . x) + b_k
    sin(w_k . x) over PERTURBATION_MODES wave vectors w_k, each entry an
    integer multiple of pi / R of size at most 2, so periodic on [-R, R]^d,
    with a_k and b_k normal of variance 1 / PERTURBATION_MODES.  It takes
    only standard normal draws and no matrix product, code that a grid-only
    run already has in memory, so the field adds nothing to its peak RSS."""
    rng = np.random.default_rng(seed)
    waves = np.clip(np.rint(rng.standard_normal((PERTURBATION_MODES, sg.dim))), -2.0, 2.0)
    phases = np.sum(sg.points()[:, None, :] * waves, axis=-1) * (np.pi / sg.half_width)
    a, b = rng.standard_normal((2, PERTURBATION_MODES)) / math.sqrt(PERTURBATION_MODES)
    return np.sum(a * np.cos(phases) + b * np.sin(phases), axis=-1)


def solve_gspde_picard(problem: GspdeProblem, cfg: PicardConfig,
                       gbm: GBMPaths) -> tuple[RandomField, PicardReport]:
    """``solve_gspde``'s field u* and ``picard.check_fixed_point`` at it, the
    perturbation a ``_smooth_field`` on the nodes.  Each check sweep reads
    the sources at its frozen iterate and streams each new slot's distance
    to u*, and the iterate's, into its (gamma, delta) density; no second
    field is kept."""
    cfg.validate_against(problem)
    sg, times, n = problem.space_grid, problem.time_grid.times, problem.time_grid.n_steps
    pts, fld = sg.points(), solve_gspde(problem, gbm)
    u = fld.values

    def sweep(scale):
        dens = np.empty((2, gbm.n_paths, n))

        def sources(i, new):
            w = u[:, i] * scale(i)
            if i < n:
                dens[0, :, i] = _hnorm_density(new - u[:, i], sg, cfg.delta)
                dens[1, :, i] = _hnorm_density(w - u[:, i], sg, cfg.delta)
            return _slot_sources(problem, pts, i, w)

        _grid_recursion(problem, gbm, sources, None)
        return tuple(weighted_quadrature(d, cfg.rate, times) for d in dens)

    return fld, check_fixed_point(sweep, _smooth_field(sg, cfg.seed), times)


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


class ResidualSlots(NamedTuple):
    """What both residuals read of one field: the field, its sources at the
    right-endpoint slots, its midpoint slices (p, N, n) and g . dB_i."""

    u: np.ndarray
    f_vals: np.ndarray
    g_vals: np.ndarray
    u_mid: np.ndarray
    gdb: np.ndarray


def residual_slots(u_field: RandomField, problem: GspdeProblem,
                   gbm: GBMPaths) -> ResidualSlots:
    """The slots of ``u_field`` that both residuals read, evaluated once."""
    if u_field.values.shape[0] != gbm.n_paths:
        raise UsageError("field and path bundle have different path counts")
    u, pts = u_field.values, problem.space_grid.points()
    p, n_slots, n = u.shape
    f_vals = np.empty((n_slots - 1, p, n))
    g_vals = np.empty((n_slots - 1, p, n, problem.noise.n_components))
    for j in range(1, n_slots):
        f_vals[j - 1], g_vals[j - 1] = _slot_sources(problem, pts, j, u[:, j])
    u_mid = 0.5 * (u[:, :-1, :] + u[:, 1:, :])
    return ResidualSlots(u, f_vals, g_vals, u_mid, np.einsum("ipnl,pil->pin", g_vals, gbm.db))


def weak_residual(slots: ResidualSlots, test_fn: SpaceTimeTestFunction,
                  problem: GspdeProblem) -> np.ndarray:
    """Absolute residual of the test-function formulation at t = 0, per path.

    Quadrature is midpoint in both slots of every time integral, which makes
    the residual vanish identically for the source-free discrete evolution.
    ``slots`` are the field's ``residual_slots``.
    """
    tg, sg, dt = problem.time_grid, problem.space_grid, problem.time_grid.dt
    chi = test_fn.space_values(sg)
    if sg.boundary == "dirichlet0" and edge_excess(chi, sg, 1e-10):
        raise UsageError("test function must vanish at the domain boundary")
    psi = test_fn.time_values(tg.times)
    u, f_vals, g_vals, u_mid, gdb = slots
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


def energy_identity_residual(slots: ResidualSlots, problem: GspdeProblem, gbm: GBMPaths,
                             phi: PhiFunction = PHI_SQUARE) -> np.ndarray:
    """Absolute residual, per path, of the composition identity at t = 0.

    The bracket of the noise is replaced by the active scenario's
    beta beta^T dt step by step.  Slot convention: the energy integral uses
    midpoint slices; the source and noise integrals pair the right-endpoint
    slice t_{i+1} (the backward-adapted slot) with dB_i — with a midpoint
    slice there the quadratic-variation correction would be double-counted.
    ``slots`` are the field's ``residual_slots`` on ``gbm``.
    """
    sg, dt = problem.space_grid, problem.time_grid.dt
    u, f_vals, g_vals, u_mid, gdb = slots
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
