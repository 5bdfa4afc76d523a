"""Deterministic artifact writers: CSV (UTF-8, comma, header row) and JSON
(pretty-printed, sorted keys).  Every artifact carries the config hash; no
wall-clock data is written, so identical (config, seed) runs produce
byte-identical files."""

from __future__ import annotations

import csv
import json
import os

from .errors import ConfigError, UsageError


# Rows of a CSV table formatted and written at a time: the cells of one chunk,
# not of the whole table, are alive at once.
CHUNK_ROWS = 1024


def _table_length(name: str, header: list, columns) -> int:
    """The row count of the column table ``columns`` under ``header``; a
    UsageError naming the artifact ``name`` unless the columns are 1-D int
    or float arrays, one per header name, all of one length."""
    if len(columns) != len(header):
        raise UsageError(f"artifact {name}: {len(columns)} columns for "
                         f"{len(header)} header names")
    for label, col in zip(header, columns):
        if getattr(col, "ndim", None) != 1 or col.dtype.kind not in "iuf":
            raise UsageError(f"artifact {name}: column {label} is not a 1-D int or "
                             f"float array")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise UsageError(f"artifact {name}: columns differ in length {lengths}")
    return lengths[0] if lengths else 0


def write_csv(path: str, header: list, columns, config_hash: str) -> None:
    """The table of ``columns`` under ``header``, with a ``config_hash``
    column, as ``csv.writer`` writes it: comma-separated, CRLF line ends, no
    quoting (neither a numeric cell nor the hex hash needs it), ``repr`` of
    each float and ``str`` of each int, written ``CHUNK_ROWS`` rows at a
    time."""
    n_rows = _table_length(os.path.basename(path), header, columns)
    formats = [repr if col.dtype.kind == "f" else str for col in columns]
    end = f",{config_hash}\r\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(list(header) + ["config_hash"])
        for start in range(0, n_rows, CHUNK_ROWS):
            rows = zip(*(map(fmt, col[start:start + CHUNK_ROWS].tolist())
                         for fmt, col in zip(formats, columns)))
            handle.write(end.join(map(",".join, rows)) + end)


def write_json(path: str, payload: dict, config_hash: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = config_hash
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_artifacts(out_dir: str, artifacts: dict, config_hash: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in sorted(artifacts):
        payload = artifacts[name]
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            write_json(path, payload, config_hash)
        elif name.endswith(".csv"):
            header, columns = payload
            write_csv(path, header, columns, config_hash)
        else:
            raise UsageError(f"unknown artifact kind for {name}")
        written.append(path)
    return written


SUMMARY_HEADER = ["check", "scenario_id", "metric", "value", "tolerance", "pass",
                  "config_hash", "seed"]


def write_summary(out_dir: str, rows, config_hash: str, seed: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "suite_summary.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_HEADER)
        for r in rows:
            writer.writerow([r.check, r.scenario_id, r.metric, repr(float(r.value)),
                             repr(float(r.tolerance)), "true" if r.passed else "false",
                             config_hash, seed])
    return path


def rows_to_json(rows) -> list:
    return [
        {"check": r.check, "scenario_id": r.scenario_id, "metric": r.metric,
         "value": r.value, "tolerance": r.tolerance, "pass": r.passed}
        for r in rows
    ]


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a file that does not exist is no input's
        return False


def merge_summaries(run_dirs: list, out_path: str) -> int:
    """Concatenate suite summaries; inputs are never modified.

    Returns the number of merged rows.  A directory without a readable,
    well-formed summary raises a named error, and so does an ``out_path``
    that is one of the input summaries.
    """
    if not run_dirs:
        raise UsageError("need at least one run directory")
    paths = [os.path.join(run_dir, "suite_summary.csv") for run_dir in run_dirs]
    for path in paths:
        if _same_file(path, out_path):
            raise ConfigError("--out", f"{out_path} is the input {path}, which the merge "
                                       f"would overwrite")
    merged = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header != SUMMARY_HEADER:
                    raise UsageError(f"malformed report file {path}: bad header")
                for line_no, row in enumerate(reader, start=2):
                    if len(row) != len(SUMMARY_HEADER):
                        raise UsageError(
                            f"malformed report file {path}: row {line_no}")
                    merged.append(row)
        except OSError as exc:
            raise UsageError(f"cannot read report file {path}: {exc}") from exc
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(merged)
    return len(merged)
