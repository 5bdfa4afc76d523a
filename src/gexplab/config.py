"""Experiment configuration: versioned JSON schema, strict validation, and
construction of the domain objects every command shares.

Unknown keys are rejected so typos fail loudly; all contraction properties
are checked at load time, before anything is simulated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import numpy as np

from .bdsde import BdsdePicardConfig, BdsdeProblem, RegressionBasis
from .errors import ConfigError, UsageError
from .gbm import TimeGrid
from .hunt import CoefficientField, InitialLaw
from .pde import GspdeProblem, PicardConfig, SpatialGrid
from .presets import (
    build_field,
    build_raw_noise,
    build_raw_reaction,
    build_terminal,
    noise_term,
    reaction_term,
)
from .scenario import ScenarioSet, sigma_bar

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "seed", "threads", "output_dir",
    "scenario_set", "time_grid", "space_grid", "coefficient_field",
    "terminal", "reaction", "noise", "z_mode",
    "gspde", "bdsde", "gbm_check", "hunt_check",
    "representation", "comparison", "suite",
}

_SECTION_KEYS = {
    "scenario_set": {"l", "matrices"},
    "time_grid": {"horizon", "n_steps"},
    "space_grid": {"dim", "half_width", "points_per_axis", "boundary"},
    "gspde": {"n_noise_paths", "eps", "max_iter", "tol_rel", "dump_paths",
              "weak_tolerance", "energy_tolerance"},
    "bdsde": {"n_diffusion_paths", "basis", "eps", "max_iter", "tol_rel",
              "implicit_y", "init", "dump_paths"},
    "gbm_check": {"scenario_set", "horizon", "n_steps", "n_paths",
                  "n_random_schedules", "integrands", "dump_paths"},
    "hunt_check": {"field", "horizon", "n_steps", "n_paths", "init",
                   "bracket_tolerance", "dump_paths"},
    "representation": {"checkpoint_fractions", "halvings", "tolerance",
                       "n_noise_paths", "n_diffusion_paths"},
    "comparison": {"cases", "collar_frac"},
    "suite": {"checks"},
    "basis": {"kind", "degree", "n_bins", "ridge"},
    "init": {"kind", "x0", "box"},
}

SUITE_CHECKS = ("gbm-integral", "hunt-bracket", "gspde", "gbdsde",
                "representation", "comparison")


def _check_keys(section: dict, allowed: set, where: str) -> None:
    for k in section:
        if k not in allowed:
            raise ConfigError(f"{where}.{k}", "unknown key")


def _get(cfg: dict, key: str, where: str, kind=None, default=None, required=False):
    if key not in cfg or cfg[key] is None:
        if required:
            raise ConfigError(f"{where}.{key}", "missing required key")
        return default
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}",
                          f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _get_count(cfg: dict, key: str, where: str, default: int) -> int:
    value = _get(cfg, key, where, int, default=default)
    if value < 1:
        raise ConfigError(f"{where}.{key}", f"must be >= 1, got {value}")
    return value


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
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc


def _build_scenarios(spec: dict, where: str) -> ScenarioSet:
    _check_keys(spec, _SECTION_KEYS["scenario_set"], where)
    dim = _get(spec, "l", where, int, required=True)
    mats = _get(spec, "matrices", where, list, required=True)
    try:
        scen = ScenarioSet.from_list(mats)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}.matrices", str(exc)) from exc
    if scen.dim != dim:
        raise ConfigError(f"{where}.l",
                          f"declared driver dimension {dim} but matrices are {scen.dim}x{scen.dim}")
    return scen


def _build_init(spec: Optional[dict], dim: int, where: str) -> InitialLaw:
    if spec is None:
        return InitialLaw("point", np.zeros(dim))
    _check_keys(spec, _SECTION_KEYS["init"], where)
    kind = _get(spec, "kind", where, str, required=True)
    try:
        if kind == "point":
            return InitialLaw("point", np.asarray(spec.get("x0", np.zeros(dim)), float))
        if kind == "gaussian":
            box = spec.get("box")
            return InitialLaw("gaussian", box=tuple(box) if box else None)
    except UsageError as exc:
        raise ConfigError(where, str(exc)) from exc
    raise ConfigError(f"{where}.kind", f"unknown initial law {kind!r}")


def _build_basis(spec: Optional[dict], where: str) -> RegressionBasis:
    if spec is None:
        return RegressionBasis()
    _check_keys(spec, _SECTION_KEYS["basis"], where)
    try:
        return RegressionBasis(
            kind=_get(spec, "kind", where, str, default="polynomial"),
            degree=_get(spec, "degree", where, int, default=4),
            n_bins=_get(spec, "n_bins", where, int, default=16),
            ridge=float(_get(spec, "ridge", where, (int, float), default=0.0)),
        )
    except UsageError as exc:
        raise ConfigError(where, str(exc)) from exc


@dataclass
class Experiment:
    """Validated configuration with every shared object constructed."""

    raw: dict
    config_hash: str
    seed: int
    threads: int
    output_dir: Optional[str]
    scenarios: ScenarioSet
    time_grid: TimeGrid
    space_grid: SpatialGrid
    field: CoefficientField
    z_mode: str
    terminal_fn: object
    gspde_problem: GspdeProblem
    gspde_cfg: PicardConfig
    bdsde_problem: BdsdeProblem
    bdsde_cfg: BdsdePicardConfig
    basis: RegressionBasis
    init_law: InitialLaw
    sections: dict = field(default_factory=dict)

    def constants_report(self) -> dict:
        """All derived structure constants; what ``validate`` prints."""
        p, b = self.gspde_problem, self.bdsde_problem
        cp, cb = self.gspde_cfg, self.bdsde_cfg
        return {
            "sigma_bar": sigma_bar(self.scenarios),
            "lambda_min": self.field.lam_min,
            "lambda_max": self.field.lam_max,
            "c_bar": p.c_bar,
            "alpha_bar": p.alpha_bar,
            "margin_spde": p.contraction_margin(),
            "K": b.lip_k,
            "alpha": b.lip_alpha,
            "margin_bdsde": b.contraction_margin(),
            "spde": {"eps": cp.eps, "kappa": cp.kappa, "gamma": cp.gamma,
                     "delta": cp.delta},
            "bdsde": {"eps": cb.eps, "kappa": cb.kappa, "beta": cb.beta,
                      "delta": cb.delta},
        }


def validate_config(cfg: dict) -> Experiment:
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    version = _get(cfg, "schema_version", "config", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError("config.schema_version",
                          f"expected {SCHEMA_VERSION}, got {version}")
    seed = _get(cfg, "seed", "config", int, required=True)
    threads = _get(cfg, "threads", "config", int, default=1)
    output_dir = _get(cfg, "output_dir", "config", str, default=None)

    scen = _build_scenarios(_get(cfg, "scenario_set", "config", dict, required=True),
                            "scenario_set")
    tg_spec = _get(cfg, "time_grid", "config", dict, required=True)
    _check_keys(tg_spec, _SECTION_KEYS["time_grid"], "time_grid")
    sg_spec = _get(cfg, "space_grid", "config", dict, required=True)
    _check_keys(sg_spec, _SECTION_KEYS["space_grid"], "space_grid")
    try:
        tg = TimeGrid(float(_get(tg_spec, "horizon", "time_grid", (int, float), required=True)),
                      _get(tg_spec, "n_steps", "time_grid", int, required=True))
        sg = SpatialGrid(
            _get(sg_spec, "dim", "space_grid", int, default=1),
            float(_get(sg_spec, "half_width", "space_grid", (int, float), required=True)),
            _get(sg_spec, "points_per_axis", "space_grid", int, required=True),
            _get(sg_spec, "boundary", "space_grid", str, default="dirichlet0"),
        )
    except UsageError as exc:
        raise ConfigError("grid", str(exc)) from exc

    field_obj = build_field(_get(cfg, "coefficient_field", "config", dict, required=True),
                            sg.dim)
    z_mode = _get(cfg, "z_mode", "config", str, default="gradient-sigma")
    terminal_fn, decays = build_terminal(_get(cfg, "terminal", "config", dict, required=True))
    raw_f = build_raw_reaction(_get(cfg, "reaction", "config", dict,
                                    default={"preset": "zero"}), sg.dim)
    raw_g = build_raw_noise(_get(cfg, "noise", "config", dict,
                                 default={"preset": "zero"}), sg.dim, scen.dim)

    gspde_spec = _get(cfg, "gspde", "config", dict, default={})
    _check_keys(gspde_spec, _SECTION_KEYS["gspde"], "gspde")
    bdsde_spec = _get(cfg, "bdsde", "config", dict, default={})
    _check_keys(bdsde_spec, _SECTION_KEYS["bdsde"], "bdsde")

    try:
        gspde_problem = GspdeProblem(
            terminal=terminal_fn(sg.points()),
            reaction=reaction_term(raw_f, field_obj, z_mode),
            noise=noise_term(raw_g, field_obj, z_mode),
            field=field_obj,
            scenarios=scen,
            time_grid=tg,
            space_grid=sg,
        )
        eps = gspde_spec.get("eps")
        gspde_cfg = PicardConfig.from_problem(
            gspde_problem,
            eps=None if eps is None else float(eps),
            max_iter=_get_count(gspde_spec, "max_iter", "gspde", default=25),
            tol_rel=float(_get(gspde_spec, "tol_rel", "gspde", (int, float), default=1e-6)),
        )
        bdsde_problem = BdsdeProblem(
            terminal_fn=terminal_fn,
            f=raw_f.fn,
            g=raw_g.fn,
            lip_k=max(raw_f.lip_y_sq, raw_f.lip_z_sq, raw_g.lip_y_sq),
            lip_alpha=raw_g.lip_z_sq,
            field=field_obj,
            scenarios=scen,
            time_grid=tg,
        )
        beps = bdsde_spec.get("eps")
        bdsde_cfg = BdsdePicardConfig.from_problem(
            bdsde_problem,
            eps=None if beps is None else float(beps),
            max_iter=_get_count(bdsde_spec, "max_iter", "bdsde", default=20),
            tol_rel=float(_get(bdsde_spec, "tol_rel", "bdsde", (int, float), default=1e-6)),
            implicit_y=bool(_get(bdsde_spec, "implicit_y", "bdsde", bool, default=False)),
        )
    except ConfigError:
        raise
    except UsageError as exc:
        raise ConfigError("config", str(exc)) from exc

    basis = _build_basis(bdsde_spec.get("basis"), "bdsde.basis")
    init_law = _build_init(bdsde_spec.get("init"), sg.dim, "bdsde.init")

    sections = {}
    for name in ("gbm_check", "hunt_check", "representation", "comparison", "suite"):
        section = _get(cfg, name, "config", dict, default={})
        _check_keys(section, _SECTION_KEYS[name], name)
        sections[name] = section
    for check in sections["suite"].get("checks", []):
        if check not in SUITE_CHECKS:
            raise ConfigError("suite.checks", f"unknown check {check!r}")
    for key in ("n_steps", "n_paths", "n_random_schedules", "dump_paths"):
        _get(sections["gbm_check"], key, "gbm_check", int)
    for idx, case in enumerate(_get(sections["comparison"], "cases", "comparison", list,
                                    default=[])):
        where = f"comparison.cases[{idx}]"
        if not isinstance(case, dict):
            raise ConfigError(where, f"expected dict, got {type(case).__name__}")
        _check_keys(case, {"terminal_shift", "reaction_shift"}, where)
    sections["gspde"] = gspde_spec
    sections["bdsde"] = bdsde_spec
    if not decays and sg.boundary == "dirichlet0":
        raise ConfigError("terminal.preset",
                          "non-decaying terminal data needs periodic boundaries")

    return Experiment(
        raw=cfg,
        config_hash=config_hash(cfg),
        seed=seed,
        threads=max(1, threads),
        output_dir=output_dir,
        scenarios=scen,
        time_grid=tg,
        space_grid=sg,
        field=field_obj,
        z_mode=z_mode,
        terminal_fn=terminal_fn,
        gspde_problem=gspde_problem,
        gspde_cfg=gspde_cfg,
        bdsde_problem=bdsde_problem,
        bdsde_cfg=bdsde_cfg,
        basis=basis,
        init_law=init_law,
        sections=sections,
    )
