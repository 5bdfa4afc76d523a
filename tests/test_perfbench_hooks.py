"""The traced benchmark run wraps package functions by name; installing its
spans fails when one of those names is deleted or renamed."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_run_installs_every_span():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = ("import sys; sys.path.insert(0, 'perfbench'); "
              "import traced_run, tracer; traced_run.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
