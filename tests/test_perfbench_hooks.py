"""The traced benchmark run wraps package functions by name; installing its
spans fails when one of those names is deleted or renamed, and a traced run
whose layers read zero shows that a span no longer sees its calls."""

import json
import os
import subprocess
import sys

from gexplab.config import default_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def test_traced_run_installs_every_span():
    script = ("import sys; sys.path.insert(0, 'perfbench'); "
              "import traced_run, tracer; traced_run.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_run_fills_every_solver_layer(tmp_path):
    cfg = default_config()
    cfg["time_grid"]["n_steps"] = 8
    cfg["gspde"]["n_noise_paths"] = 2
    cfg["bdsde"]["n_diffusion_paths"] = 300
    cfg["suite"]["checks"] = ["gspde", "gbdsde", "comparison"]
    cfg_path, result = tmp_path / "config.json", tmp_path / "result.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "traced_run.py"),
                           str(cfg_path), str(tmp_path / "out"), str(result)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())
    assert layers["bdsde.drivers_s"] > 0.0
    assert layers["pde.sources_s"] > 0.0
    assert layers["bdsde.fit_calls"] > 0
    assert layers["pde.operators_built"] == 1
