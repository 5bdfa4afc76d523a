"""The benchmark's three workloads, shrunk, pass the benchmark's own output
checks at its seed.

``perfbench/run.py`` counts an operation as failed when
``checks.check_output`` finds a problem with what it wrote, so a change that
breaks a check there shows as a failed benchmark run, not as a test
failure.  This runs the same checks in tier-1.  Only the space grid and the
backward path count are shrunk: ``representation`` keeps its shipped 1,200
diffusion paths and its 0.05 tolerance, and the seed is the benchmark's.
"""

import contextlib
import io
import pathlib
import sys
import time

import pytest

from gexplab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

POINTS_PER_AXIS = 81        # shipped: 161
BACKWARD_PATHS = 1500       # bdsde-paths: 24,000, the shipped count times 16
BUDGET_S = 10.0             # all three workloads


def shrunk(name: str) -> dict:
    base = workloads.load_default(str(ROOT))
    cfg = workloads.make_config(name, workloads.DEFAULT_SEED, base)
    cfg["space_grid"]["points_per_axis"] = POINTS_PER_AXIS
    cfg["bdsde"]["n_diffusion_paths"] = BACKWARD_PATHS
    cfg["representation"]["n_diffusion_paths"] = base["representation"]["n_diffusion_paths"]
    return cfg


@pytest.fixture(scope="module")
def elapsed():
    times = {}
    yield times
    assert sum(times.values()) < BUDGET_S, times


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shrunk_workload_passes_the_benchmark_checks(name, tmp_path, elapsed):
    cfg = shrunk(name)
    if name == "bdsde-paths":
        assert cfg["suite"]["checks"] == ["gbdsde", "representation"]
        assert cfg["representation"]["n_diffusion_paths"] == 1200
        assert cfg["representation"]["tolerance"] == 0.05
    path, out = tmp_path / "config.json", tmp_path / "out"
    workloads.write_config(str(path), cfg)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run-suite", "--config", str(path), "--out", str(out)])
    elapsed[name] = time.perf_counter() - start
    assert code == 0
    assert checks.check_output(cfg, str(out)) == []
