"""Experiment configuration: versioned JSON schema, strict validation, and
construction of the domain objects every command shares.

Each section is a frozen dataclass whose fields declare its keys with their
types, defaults and lower bounds once; ``_util.read`` walks them, so unknown
keys, wrong types and out-of-range values fail loudly with the field's path.
Everything a runner would reject is checked here, before anything is
simulated: the contraction properties always, and the rules that tie one
section to another for the checks that will run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Annotated, Literal, Optional, Sequence, get_args

import numpy as np

from ._util import SEED_PICARD, Bound, Count, NonNeg, NonNegInt, Positive, child_seed, read
from .bdsde import MIN_SAMPLES_PER_FEATURE, BdsdeProblem, RegressionBasis
from .errors import ConfigError, UsageError
from .gbm import TimeGrid
from .hunt import CoefficientField, InitialLaw
from .pde import GspdeProblem, SpatialGrid, edge_excess
from .picard import PicardConfig
from .presets import (
    FieldPreset,
    Integrand,
    NoisePreset,
    ReactionPreset,
    TerminalPreset,
)
from .scenario import ScenarioSet, sigma_bar
from .verify import checkpoint_indices

Check = Literal["gbm-integral", "hunt-bracket", "gspde", "gbdsde", "representation",
                "comparison"]
# On a Dirichlet grid the data reach at most this fraction of their maximum
# on the edge nodes.
BOUNDARY_DECAY_TOL = 1e-8


@dataclass(frozen=True)
class ScenarioSpec:
    """A family of ``l x l`` loading matrices, one per scenario."""

    l: Count
    matrices: tuple[tuple[tuple[float, ...], ...], ...]

    def build(self, where: str) -> ScenarioSet:
        try:
            scen = ScenarioSet.from_list(self.matrices)
        except ValueError as exc:  # ragged or empty nesting
            raise ConfigError(f"{where}.matrices", str(exc)) from exc
        if scen.dim != self.l:
            raise ConfigError(f"{where}.l", f"declared driver dimension {self.l} but "
                                            f"matrices are {scen.dim}x{scen.dim}")
        return scen


@dataclass(frozen=True)
class GspdeSection:
    n_noise_paths: Count = 6
    eps: Optional[Positive] = None  # None: derived from the contraction margin
    dump_paths: NonNegInt = 2
    weak_tolerance: NonNeg = 0.1
    energy_tolerance: NonNeg = 0.1


@dataclass(frozen=True)
class BdsdeSection:
    n_diffusion_paths: Count = 1500
    basis: RegressionBasis = RegressionBasis()
    eps: Optional[Positive] = None
    init: InitialLaw = InitialLaw("point")
    dump_paths: NonNegInt = 2


@dataclass(frozen=True)
class GbmCheck:
    scenario_set: Optional[ScenarioSpec] = None  # None: the problem's
    horizon: Optional[Positive] = None  # None: the problem's
    n_steps: Count = 128
    n_paths: Count = 3000
    n_random_schedules: NonNegInt = 1
    integrands: Annotated[tuple[Integrand, ...], Bound(1)] = get_args(Integrand)
    dump_paths: NonNegInt = 2


@dataclass(frozen=True)
class HuntCheck:
    field: Optional[FieldPreset] = None  # None: the problem's
    horizon: Optional[Positive] = None  # None: the problem's
    n_steps: Count = 512
    n_paths: Count = 3000
    init: InitialLaw = InitialLaw("point")
    bracket_tolerance: NonNeg = 0.05
    dump_paths: NonNegInt = 2


@dataclass(frozen=True)
class RepresentationCheck:
    checkpoint_fractions: Annotated[tuple[NonNeg, ...], Bound(1)] = (0.0, 0.25, 0.5, 0.75)
    halvings: NonNegInt = 0
    tolerance: NonNeg = 0.05
    n_noise_paths: Optional[Count] = None  # None: gspde.n_noise_paths
    n_diffusion_paths: Optional[Count] = None  # None: bdsde.n_diffusion_paths


@dataclass(frozen=True)
class ComparisonCase:
    terminal_shift: NonNeg = 0.0
    reaction_shift: NonNeg = 0.0


@dataclass(frozen=True)
class ComparisonCheck:
    cases: Annotated[tuple[ComparisonCase, ...], Bound(1)] = (
        ComparisonCase(terminal_shift=1.0), ComparisonCase(reaction_shift=0.1))
    collar_frac: NonNeg = 0.05


@dataclass(frozen=True)
class Suite:
    checks: Annotated[tuple[Check, ...], Bound(1)] = get_args(Check)


@dataclass(frozen=True)
class Config:
    """The experiment JSON, version 1."""

    schema_version: Literal[1]
    seed: NonNegInt
    scenario_set: ScenarioSpec
    time_grid: TimeGrid
    space_grid: SpatialGrid
    coefficient_field: FieldPreset
    terminal: TerminalPreset
    threads: int = 1  # accepted and kept out of the hash; runs are single-threaded
    output_dir: Optional[str] = None
    reaction: ReactionPreset = read(ReactionPreset, {"preset": "zero"}, "reaction")
    noise: NoisePreset = read(NoisePreset, {"preset": "zero"}, "noise")
    gspde: GspdeSection = GspdeSection()
    bdsde: BdsdeSection = BdsdeSection()
    gbm_check: GbmCheck = GbmCheck()
    hunt_check: HuntCheck = HuntCheck()
    representation: RepresentationCheck = RepresentationCheck()
    comparison: ComparisonCheck = ComparisonCheck()
    suite: Suite = Suite()


def config_hash(cfg: dict) -> str:
    """Hash of the experiment semantics: execution-only keys (where to write,
    how many workers) do not change results, so they are excluded."""
    semantic = {k: v for k, v in cfg.items() if k not in ("output_dir", "threads")}
    canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def default_config() -> dict:
    with resources.files("gexplab").joinpath("data/default.json").open("r") as handle:
        return json.load(handle)


def load_config(path: str) -> dict:
    if path == "default":
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"the top level of {path} must be a JSON object")
    return cfg


@dataclass(frozen=True, kw_only=True)
class Experiment(Config):
    """A validated config plus every shared object built from it.

    The fallbacks are filled in: the check horizons are the problem's when
    not given, the representation path counts those of ``gspde`` and
    ``bdsde``."""

    config_hash: str
    scenarios: ScenarioSet
    field: CoefficientField
    gspde_problem: GspdeProblem
    gspde_cfg: PicardConfig
    bdsde_problem: BdsdeProblem
    bdsde_cfg: PicardConfig
    gbm_scenarios: ScenarioSet
    hunt_field: Optional[CoefficientField]  # built only when hunt-bracket runs

    def constants_report(self) -> dict:
        """All derived structure constants, each once; what ``validate``
        prints.  Both equations share ``c_bar`` and ``margin_spde``."""
        lip, z_coef, _, lam = self.gspde_problem.contraction_inputs()
        g_z = self.gspde_problem.noise.lip_z_sq
        cp, cb = self.gspde_cfg, self.bdsde_cfg
        return {
            "sigma_bar": sigma_bar(self.scenarios),
            "lambda_min": self.field.lam_min,
            "lambda_max": self.field.lam_max,
            "c_bar": lip,
            "alpha_bar": g_z * self.field.lam_max,
            "margin_spde": 2.0 * lam - z_coef,
            "alpha": g_z,
            "spde": {"eps": cp.eps, "kappa": cp.kappa, "gamma": cp.rate,
                     "delta": cp.delta},
            "bdsde": {"eps": cb.eps, "kappa": cb.kappa, "beta": cb.rate,
                      "delta": cb.delta},
        }


def _checked(where: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a UsageError turned into a ConfigError
    naming ``where``."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except UsageError as exc:
        raise ConfigError(where, str(exc)) from exc


def _check_basis_size(basis: RegressionBasis, dim: int, n_paths: int, where: str) -> None:
    need = MIN_SAMPLES_PER_FEATURE * basis.n_features(dim)
    if n_paths < need:
        raise ConfigError(where, f"the regression basis needs at least {need} paths "
                                 f"({MIN_SAMPLES_PER_FEATURE} per basis function), got {n_paths}")


def validate_config(cfg: dict, checks: Optional[Sequence[str]] = None) -> Experiment:
    """Read ``cfg`` into an Experiment, or raise ConfigError naming the field.

    ``checks`` are the checks the caller will run (default: ``suite.checks``);
    the rules tying their sections to the rest of the config are checked too.
    """
    c = read(Config, cfg, "")
    runs = set(c.suite.checks if checks is None else checks)
    tg, sg = c.time_grid, c.space_grid
    # The grid spacing and the weak-form test bump are fractions of the half
    # width, both squared as floats; the grid operator divides by the spacing's square.
    if not math.isfinite(sg.half_width * sg.half_width):
        raise ConfigError("space_grid.half_width", f"{sg.half_width:g} overflows when squared")
    if not (sg.dx**2 > 0.0 and math.isfinite(1.0 / sg.dx**2)):
        raise ConfigError("space_grid.half_width", f"{sg.half_width:g} gives a grid spacing "
                                                   "whose inverse square overflows")
    scen = c.scenario_set.build("scenario_set")
    field_obj = c.coefficient_field(sg.dim, "coefficient_field")
    terminal_fn, decays = c.terminal()
    if not decays and sg.boundary == "dirichlet0":
        raise ConfigError("terminal.preset",
                          "non-decaying terminal data needs periodic boundaries")
    reaction, noise = c.reaction(sg.dim), c.noise(sg.dim, scen.dim, "noise")
    pts = sg.points()
    terminal = terminal_fn(pts)
    if sg.boundary == "dirichlet0":
        # The equations live on the whole space; a Dirichlet grid truncates
        # them soundly only where the data vanish at its edge.
        y, v = np.zeros(sg.n_nodes), np.zeros((sg.n_nodes, sg.dim))
        for where, values in (("terminal", terminal), ("reaction", reaction(0.0, pts, y, v)),
                              ("noise", noise(0.0, pts, y, v))):
            excess = edge_excess(values, sg, BOUNDARY_DECAY_TOL)
            if excess:
                raise ConfigError(where, "not negligible at the truncation boundary ({:.3e} vs "
                                         "max {:.3e}); enlarge the domain".format(*excess))
    # The grid problem checks the contraction margin both equations share,
    # 2 lambda > g_z Lambda sigma_bar^2, which g_z = 0 always meets.
    gspde_problem = _checked("noise", GspdeProblem,
                             terminal=terminal, reaction=reaction, noise=noise,
                             field=field_obj, scenarios=scen, time_grid=tg, space_grid=sg)
    bdsde_problem = BdsdeProblem(terminal_fn, reaction.fn, noise.fn, tg,
                                 gspde_problem.contraction_inputs())
    seed = child_seed(c.seed, SEED_PICARD)
    gspde_cfg = _checked("gspde.eps", PicardConfig.from_problem, gspde_problem,
                         eps=c.gspde.eps, seed=seed)
    bdsde_cfg = _checked("bdsde.eps", PicardConfig.from_problem, bdsde_problem,
                         eps=c.bdsde.eps, seed=seed)
    gbm_scenarios = (scen if c.gbm_check.scenario_set is None
                     else c.gbm_check.scenario_set.build("gbm_check.scenario_set"))
    # Counts are >= 1, so ``or`` takes the fallback only for None.
    rep = replace(c.representation,
                  n_noise_paths=c.representation.n_noise_paths or c.gspde.n_noise_paths,
                  n_diffusion_paths=c.representation.n_diffusion_paths
                  or c.bdsde.n_diffusion_paths)

    hunt_field = None
    if "hunt-bracket" in runs:
        hunt_field = (field_obj if c.hunt_check.field is None
                      else c.hunt_check.field(sg.dim, "hunt_check.field"))
        init = c.hunt_check.init
        _checked(f"hunt_check.init.{'x0' if init.kind == 'point' else 'box'}",
                 init.check_dim, hunt_field.dim)
    if runs & {"gbdsde", "representation"}:
        init = c.bdsde.init
        _checked(f"bdsde.init.{'x0' if init.kind == 'point' else 'box'}",
                 init.check_dim, sg.dim)
    if "gbdsde" in runs:
        _check_basis_size(c.bdsde.basis, sg.dim, c.bdsde.n_diffusion_paths,
                          "bdsde.n_diffusion_paths")
    if "comparison" in runs and not sg.interior_mask(c.comparison.collar_frac).any():
        raise ConfigError("comparison.collar_frac", "the collar leaves no grid node inside")
    if "representation" in runs:
        if sg.dim != 1:
            raise ConfigError("space_grid.dim",
                              "the representation check interpolates along 1-D grids only")
        x0 = c.bdsde.init.x0
        if x0 is not None and c.bdsde.init.kind == "point" and np.any(np.abs(x0) > sg.half_width):
            raise ConfigError("bdsde.init.x0", f"{x0.tolist()} lies off the grid "
                                               f"[-{sg.half_width:g}, {sg.half_width:g}], "
                                               "along which representation interpolates u")
        _checked("representation.checkpoint_fractions", checkpoint_indices,
                 [f * tg.horizon for f in rep.checkpoint_fractions], tg)
        _check_basis_size(c.bdsde.basis, sg.dim, rep.n_diffusion_paths,
                          "representation.n_diffusion_paths")

    return Experiment(
        **{**vars(c), "representation": rep,
           "gbm_check": replace(c.gbm_check, horizon=c.gbm_check.horizon or tg.horizon),
           "hunt_check": replace(c.hunt_check, horizon=c.hunt_check.horizon or tg.horizon)},
        config_hash=config_hash(cfg),
        scenarios=scen,
        field=field_obj,
        gspde_problem=gspde_problem,
        gspde_cfg=gspde_cfg,
        bdsde_problem=bdsde_problem,
        bdsde_cfg=bdsde_cfg,
        gbm_scenarios=gbm_scenarios,
        hunt_field=hunt_field,
    )
