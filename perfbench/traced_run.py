"""Traced in-process run of one workload config.

Usage: python traced_run.py CONFIG OUT_DIR RESULT_JSON

Does what ``gexplab run-suite --config CONFIG --out OUT_DIR`` does, with
spans wrapped around the public functions, methods and callables of the
package's modules.  Spans stay in memory; the per-layer figures computed
from them are written to RESULT_JSON at the end.  ``src`` must be on the
import path.  Every ``*_s`` figure but ``cli.import_s``, ``runner.<check>_s``
and ``trace.run_s`` is a self time, so those self times,
``experiments.self_s`` (the runners' own code) and ``unattributed_s`` add up
to ``trace.run_s`` plus ``config.validate_s``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracer import Tracer, self_times, total_times

_t0 = time.perf_counter()
import gexplab.cli  # noqa: E402  (the import is what cli.import_s times)
IMPORT_S = time.perf_counter() - _t0

from gexplab import artifacts, bdsde, experiments, gbm, hunt, pde, verify  # noqa: E402

# metric -> span whose self time it reports
SELF_TIME_LAYERS = {
    "config.validate_s": "config.validate",
    "gbm.sample_s": "gbm.sample",
    "hunt.simulate_s": "hunt.simulate",
    "pde.operator_s": "pde.operator",
    "pde.cn_s": "pde.cn",
    "pde.sources_s": "pde.sources",
    "pde.picard_self_s": "pde.picard",
    "pde.residuals_s": "pde.residuals",
    "bdsde.ensemble_s": "bdsde.ensemble",
    "bdsde.fit_s": "bdsde.fit",
    "bdsde.predict_s": "bdsde.predict",
    "bdsde.extract_z_s": "bdsde.extract_z",
    "bdsde.drivers_s": "bdsde.drivers",
    "bdsde.linear_self_s": "bdsde.linear",
    "bdsde.picard_self_s": "bdsde.picard",
    "verify.representation_self_s": "verify.representation",
    "verify.comparison_self_s": "verify.comparison",
    "artifacts.write_s": "artifacts.write",
    "unattributed_s": "run",
}
COUNTERS = ("pde.operators_built", "pde.cn_calls", "pde.cn_columns", "pde.picard_iters",
            "bdsde.ensembles_built", "bdsde.fit_calls", "bdsde.picard_iters",
            "artifacts.bytes")


def _add(key: str):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_cn(counts, args, result):
    values = args[1]
    counts["pde.cn_calls"] += 1
    counts["pde.cn_columns"] += values.shape[1] if values.ndim == 2 else 1


def _count_gspde_iters(counts, args, result):
    counts["pde.picard_iters"] += result[1].iterations


def _count_bdsde_iters(counts, args, result):
    counts["bdsde.picard_iters"] += result.picard_report.iterations


def _patch_function(tracer: Tracer, module, name: str, span: str, count=None) -> None:
    """Wrap ``module.name`` and every ``from module import name`` copy."""
    original = getattr(module, name)
    traced = tracer.wrap(span, original, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "gexplab" and getattr(mod, name, None) is original:
            setattr(mod, name, traced)


def _patch_method(tracer: Tracer, cls, name: str, span: str, count=None) -> None:
    setattr(cls, name, tracer.wrap(span, getattr(cls, name), count))


def install(tracer: Tracer) -> None:
    """Spans around each layer's public entry points."""
    for module, name, span, count in (
        (gbm, "sample_driver", "gbm.sample", None),
        (gbm, "build_gbm", "gbm.sample", None),
        (hunt, "simulate_hunt", "hunt.simulate", None),
        (pde, "discretize_operator", "pde.operator", _add("pde.operators_built")),
        (pde, "solve_gspde_picard", "pde.picard", _count_gspde_iters),
        (pde, "weak_residual", "pde.residuals", None),
        (pde, "energy_identity_residual", "pde.residuals", None),
        (bdsde, "extract_z", "bdsde.extract_z", None),
        (bdsde, "solve_linear_bdsde", "bdsde.linear", None),
        (bdsde, "solve_gbdsde_picard", "bdsde.picard", _count_bdsde_iters),
        (verify, "check_representation", "verify.representation", None),
        (verify, "check_comparison", "verify.comparison", None),
    ):
        _patch_function(tracer, module, name, span, count)
    for cls, name, span, count in (
        (pde.DivergenceFormOperator, "cn_step", "pde.cn", _count_cn),
        (pde.ReactionTerm, "__call__", "pde.sources", None),
        (pde.NoiseTerm, "__call__", "pde.sources", None),
        (bdsde.LsmcEnsemble, "__init__", "bdsde.ensemble", _add("bdsde.ensembles_built")),
        (bdsde.RegressionContext, "fit", "bdsde.fit", _add("bdsde.fit_calls")),
        (bdsde.RegressionContext, "predict_in_sample", "bdsde.predict", None),
    ):
        _patch_method(tracer, cls, name, span, count)
    for check, runner in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[check] = tracer.wrap(f"runner.{check}", runner)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run, keyed by metric name."""
    own = self_times(tracer.spans)
    total = total_times(tracer.spans)
    runners = [name for name in total if name.startswith("runner.")]
    out = {"cli.import_s": IMPORT_S}
    out.update({metric: own.get(span, 0.0) for metric, span in SELF_TIME_LAYERS.items()})
    out["experiments.self_s"] = sum(own[name] for name in runners)
    for check in experiments.RUNNERS:
        out[f"runner.{check}_s"] = total.get(f"runner.{check}", 0.0)
    out.update({name: tracer.counts.get(name, 0) for name in COUNTERS})
    out["trace.run_s"] = total.get("run", 0.0)
    return out


def run(config_path: str, out_dir: str, tracer: Tracer) -> None:
    """The run-suite command of ``gexplab.cli``, with spans."""
    exp = tracer.call("config.validate",
                      lambda: gexplab.cli.validate_config(gexplab.cli.load_config(config_path)))
    exp.bdsde_problem.f = tracer.wrap("bdsde.drivers", exp.bdsde_problem.f)
    exp.bdsde_problem.g = tracer.wrap("bdsde.drivers", exp.bdsde_problem.g)

    def suite():
        rows, produced = experiments.run_suite(exp)
        produced = dict(produced)
        produced["checks_report.json"] = {"checks": artifacts.rows_to_json(rows),
                                          "seed": exp.seed}

        def write():
            paths = artifacts.write_artifacts(out_dir, produced, exp.config_hash)
            paths.append(artifacts.write_summary(out_dir, rows, exp.config_hash, exp.seed))
            tracer.counts["artifacts.bytes"] += sum(os.path.getsize(p) for p in paths)

        tracer.call("artifacts.write", write)

    tracer.call("run", suite)


def main(argv: list) -> int:
    config_path, out_dir, result_path = argv
    tracer = Tracer()
    install(tracer)
    run(config_path, out_dir, tracer)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(layer_metrics(tracer), handle, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
