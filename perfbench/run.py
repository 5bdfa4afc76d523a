"""gexplab benchmark: seeded run-suite workloads timed at the command line.

Usage, from the root of a source checkout (no install step):

    python3 perfbench/run.py --workload default-core --seed 20260808 \
        --seconds 25 --trace 0

One operation is one ``python -m gexplab.cli run-suite`` process on the
workload's generated config, with ``src`` on its import path.  Operations
run one at a time until ``--seconds`` have passed, with one run of the fixed
reference process ``reference.py`` before the first and after each;
``wall_rel`` is the median over operations of the operation's wall time
over the mean of the two reference runs beside it.  Each operation is checked by
``checks.check_output`` and all of them must write byte-identical artifacts.
Before them, a set-up probe (import, load, validate, exit) runs once to warm
the file cache and then ``SETUP_REPEATS`` times for ``setup_s``.  With
``--trace 1`` one more operation runs in process with spans
(``traced_run.py``) and the per-layer figures are reported instead of the
end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard error.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = ".perfbench-out"
SETUP_REPEATS = 3
# Every run must end within 180 s; no child starts after this many seconds
# and a child still running then is killed and counted as failed.
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupFailed(RuntimeError):
    """The set-up probe or the reference process exited non-zero, so no
    operation can be measured."""


class Child(NamedTuple):
    """Outcome of one child process."""

    returncode: int
    wall_s: float
    max_rss_mb: float


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in SINGLE_THREAD_ENV:
        env[name] = "1"
    return env


def spawn(argv: list, env: dict, log_path: str, timeout_s: float) -> Child:
    """Run one process to its end; time it from spawn to exit and read its
    own peak resident set size from the rusage ``wait4`` returns."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def _tail(path: str, n: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return " | ".join(handle.read().splitlines()[-n:])


def _problems(cfg: dict, child: Child, out_dir: str, log_path: str) -> list:
    """Everything wrong with one operation; its failing rows when it wrote any."""
    problems = [] if child.returncode == 0 else [
        f"exit code {child.returncode}: {_tail(log_path)}"]
    if problems and not os.path.isfile(os.path.join(out_dir, "suite_summary.csv")):
        return problems
    try:
        return problems + checks.check_output(cfg, out_dir)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return problems + [f"output unreadable: {exc!r}"]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run(args, root: str, work: str) -> dict:
    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    cfg = workloads.make_config(args.workload, args.seed, workloads.load_default(root))
    cfg_path = os.path.join(work, "config.json")
    workloads.write_config(cfg_path, cfg)
    env = child_env(root)
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), cfg_path]
    reference = [sys.executable, os.path.join(HERE, "reference.py")]

    def reference_s() -> float:
        ref = spawn(reference, env, os.path.join(work, "reference.log"), remaining())
        if ref.returncode != 0:
            raise SetupFailed(_tail(os.path.join(work, "reference.log")))
        return ref.wall_s

    setups = []
    for i in range(SETUP_REPEATS + 1):
        child = spawn(probe, env, os.path.join(work, "setup.log"), remaining())
        if child.returncode != 0:
            raise SetupFailed(_tail(os.path.join(work, "setup.log")))
        if i:  # the first probe only warms the file cache
            setups.append(child.wall_s)

    walls, ratios, rss, failed, attempted = [], [], [], 0, 0
    first_digest = None
    window_start = time.perf_counter()
    refs = [reference_s()]
    while attempted == 0 or time.perf_counter() - window_start < args.seconds:
        if remaining() <= 0.0:
            break
        out_dir = os.path.join(work, f"op{attempted}")
        log_path = os.path.join(work, f"op{attempted}.log")
        child = spawn([sys.executable, "-m", "gexplab.cli", "run-suite", "--config", cfg_path,
                       "--out", out_dir], env, log_path, remaining())
        attempted += 1
        refs.append(reference_s())
        problems = _problems(cfg, child, out_dir, log_path)
        if not problems:
            found = checks.digest(out_dir)
            first_digest = first_digest or found
            if found != first_digest:
                problems = ["artifact digest differs from the first operation's"]
        if problems:
            failed += 1
        else:
            walls.append(child.wall_s)
            # the operation's time against the reference runs on either side
            ratios.append(2.0 * child.wall_s / (refs[-2] + refs[-1]))
            rss.append(child.max_rss_mb)
            shutil.rmtree(out_dir)
        log(f"op {attempted}: wall {child.wall_s:.3f} s, "
            f"reference {refs[-2]:.3f}/{refs[-1]:.3f} s, rss {child.max_rss_mb:.1f} MB"
            + "".join(f"\n  FAIL {p}" for p in problems))

    values = {}
    if walls:
        values.update(wall_rel=statistics.median(ratios),
                      setup_s=statistics.median(setups), peak_rss_mb=statistics.median(rss))
        values["cli.wall_s"] = statistics.median(walls)
        values["host.ref_s"] = statistics.median(refs)

    if args.trace:
        out_dir = os.path.join(work, "traced")
        log_path = os.path.join(work, "traced.log")
        result_path = os.path.join(work, "traced.json")
        child = spawn([sys.executable, os.path.join(HERE, "traced_run.py"), cfg_path, out_dir,
                       result_path], env, log_path, remaining())
        attempted += 1
        problems = _problems(cfg, child, out_dir, log_path)
        if not problems and first_digest and checks.digest(out_dir) != first_digest:
            problems = ["traced artifacts differ from the untraced operations'"]
        if problems:
            failed += 1
        else:
            with open(result_path, "r", encoding="utf-8") as handle:
                values.update(json.load(handle))
            if walls:
                values["trace.overhead_ratio"] = values["trace.run_s"] / (
                    values["cli.wall_s"] - values["setup_s"])
        log(f"traced: {child.wall_s:.3f} s" + "".join(f"\n  FAIL {p}" for p in problems))

    return {"attempted": attempted, "failed": failed, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    for needed in (os.path.join("src", "gexplab", "cli.py"), workloads.DEFAULT_CONFIG,
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"error: {needed} not found; run from the root of a gexplab source checkout")
            return 2
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        wanted = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(root, OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        result = run(args, root, work)
    except SetupFailed as exc:
        log(f"error: a benchmark process failed: {exc}; outputs kept in {work}")
        return 1
    values = result["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = result["failed"] == 0 and len(metrics) == len(wanted)
    if correct:
        shutil.rmtree(work)
    else:
        log(f"outputs kept in {work}; missing metrics: "
            f"{sorted(m['name'] for m in wanted if m['name'] not in values)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
