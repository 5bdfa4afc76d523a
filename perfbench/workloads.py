"""Workload configs for the benchmark, generated from the shipped default.

Every workload starts from ``src/gexplab/data/default.json`` read as a file,
so the benchmark never imports the package to build its inputs.  The
benchmark seed replaces the config seed and ``threads`` is pinned to 1; the
program receives only the written config file.
"""

from __future__ import annotations

import copy
import json
import os

DEFAULT_CONFIG = os.path.join("src", "gexplab", "data", "default.json")
DEFAULT_SEED = 20260808

# Scalar loadings of the gspde-family scenario set, 1.0 down to 0.3.
FAMILY_LOADINGS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)


def load_default(root: str) -> dict:
    with open(os.path.join(root, DEFAULT_CONFIG), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _default_core(cfg: dict) -> dict:
    # gbm-integral, hunt-bracket and representation fail on some seeds at the
    # shipped sizes (a 3-standard-error band over nine means, fixed 5%
    # tolerances against Monte Carlo error), so they stay out.
    cfg["suite"]["checks"] = ["gspde", "gbdsde", "comparison"]
    return cfg


def _bdsde_paths(cfg: dict) -> dict:
    # 16x the shipped diffusion ensemble for the backward solver, 10x for the
    # representation check; the grid solver runs only inside representation.
    cfg["bdsde"]["n_diffusion_paths"] = 16 * cfg["bdsde"]["n_diffusion_paths"]
    cfg["representation"]["n_diffusion_paths"] = 10 * cfg["representation"]["n_diffusion_paths"]
    cfg["suite"]["checks"] = ["gbdsde", "representation"]
    return cfg


def _gspde_family(cfg: dict) -> dict:
    # K = 8 scalar loadings (the shipped family has 2) and 8x the noise paths
    # of the grid solver, which comparison shares.  Representation at its
    # shipped size fails on some seeds, so it stays out.
    cfg["scenario_set"] = {"l": 1, "matrices": [[[v]] for v in FAMILY_LOADINGS]}
    cfg["gspde"]["n_noise_paths"] = 8 * cfg["gspde"]["n_noise_paths"]
    cfg["suite"]["checks"] = ["gspde", "comparison"]
    return cfg


WORKLOADS = {
    "default-core": _default_core,
    "bdsde-paths": _bdsde_paths,
    "gspde-family": _gspde_family,
}


def make_config(name: str, seed: int, base: dict) -> dict:
    """The config of workload ``name`` under ``seed``; ``base`` is not modified."""
    cfg = WORKLOADS[name](copy.deepcopy(base))
    cfg["seed"] = int(seed)
    cfg["threads"] = 1
    cfg["output_dir"] = None
    return cfg


def write_config(path: str, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cfg, handle, indent=2, sort_keys=True)
        handle.write("\n")
