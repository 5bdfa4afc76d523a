"""The column-table CSV writer against the row-wise ``csv.writer`` reference
of ``oracles.row_csv``: the same bytes on any int/float table, a named error
on a table that is not one, and a memory peak of one chunk, not one table."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexplab import artifacts, experiments
from gexplab.artifacts import CHUNK_ROWS, write_artifacts
from gexplab.config import default_config, validate_config
from gexplab.errors import UsageError

from oracles import row_csv

HASH = "dcfe0c8c15dd"

# Floats whose repr or bit pattern a writer may get wrong: NaNs of both signs
# and another payload, infinities, signed zeros, subnormals, and the repr
# switches to exponent form at 1e16 and 1e-5.
SPECIAL_FLOATS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                           1.1125369292536007e-308, 1e16, 9999999999999998.0, 1e-5,
                           9.999999999999999e-05, 0.1, -1e300])
SPECIAL_FLOATS = np.concatenate([SPECIAL_FLOATS,
                                 np.array([0x7FF8000000000001], dtype=np.uint64).view("f8")])
SPECIAL_INTS = np.array([0, 1, -1, 2**63 - 1, -2**63, 10**15, -7], dtype=np.int64)


def reference_bytes(header, columns, config_hash=HASH) -> bytes:
    """What the row-wise writer writes for the rows of ``columns``: each
    row a tuple of numpy scalars, as iterating the columns gives them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ref.csv")
        row_csv(path, header, zip(*columns), config_hash)
        with open(path, "rb") as handle:
            return handle.read()


def written_bytes(header, columns, config_hash=HASH) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path, = write_artifacts(tmp, {"table.csv": (header, columns)}, config_hash)
        with open(path, "rb") as handle:
            return handle.read()


@st.composite
def tables(draw):
    """A header and int64/float64 columns of one length: each column mixes
    cells from a small pool (special values and hypothesis' own) with
    random bit patterns, in a drawn share."""
    n_rows = draw(st.sampled_from([0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   2 * CHUNK_ROWS + 1]) | st.integers(0, 64))
    n_cols = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(n_cols):
        if draw(st.booleans()):
            pool = np.concatenate([SPECIAL_FLOATS, draw(st.lists(
                st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4))])
            free = rng.integers(0, 2**64, n_rows, dtype=np.uint64).view("f8")
        else:
            pool = np.concatenate([SPECIAL_INTS, draw(st.lists(
                st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4))]).astype(np.int64)
            free = rng.integers(-2**63, 2**63, n_rows, dtype=np.int64, endpoint=False)
        pool = pool[rng.integers(0, len(pool), draw(st.integers(1, len(pool))))]
        from_pool = rng.random(n_rows) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        columns.append(np.where(from_pool, pool[rng.integers(0, len(pool), n_rows)], free))
    header = draw(st.lists(st.text(max_size=4), min_size=n_cols, max_size=n_cols))
    return header, columns


@settings(max_examples=150, deadline=None)
@given(table=tables(), config_hash=st.text("0123456789abcdef", max_size=12))
def test_column_writer_writes_the_row_writers_bytes(table, config_hash):
    header, columns = table
    assert written_bytes(header, columns, config_hash) == reference_bytes(
        header, columns, config_hash)


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_chunk_edges_write_every_row_once(n_rows):
    # An int and a float column at the chunk edges: the row count and the
    # bytes are the reference's.
    columns = [np.arange(n_rows) % 3, np.arange(n_rows) * 0.5 - 1.0 / 3.0]
    out = written_bytes(["k", "v"], columns)
    assert out.count(b"\r\n") == 1 + n_rows
    assert out == reference_bytes(["k", "v"], columns)


def loop_rows(exp, seen) -> dict:
    """The rows of the four dump tables, per artifact, built cell by cell in
    nested loops from the solver outputs the runners dumped (``seen``): the
    row order and cells the column tables must give."""
    gbm_sec, hunt_sec = exp.gbm_check, exp.hunt_check
    family, hunt = seen["build_gbm"], seen["simulate_hunt"][0][1]
    gbm_paths = []
    for _, paths in family[: exp.gbm_scenarios.n_scenarios]:
        for p in range(min(gbm_sec.dump_paths, gbm_sec.n_paths)):
            for i in range(gbm_sec.n_steps):
                for j in range(exp.gbm_scenarios.dim):
                    gbm_paths.append((p, paths.scenario_id, i, j, float(paths.db[p, i, j])))
    hunt_paths = []
    for p in range(min(hunt_sec.dump_paths, hunt_sec.n_paths)):
        for i in range(hunt_sec.n_steps):
            hunt_paths.append((p, i) + tuple(float(v) for v in hunt.x[p, i])
                              + tuple(float(v) for v in hunt.dm[p, i])
                              + (float(hunt.weights[p]),))
    sg, times = exp.gspde_problem.space_grid, exp.gspde_problem.time_grid.times
    m = sg.points_per_axis
    gspde_solution = []
    for (_, _, _, _, gbm), (_, _, dump) in seen["_gspde_scenario"]:
        for p in range(dump.shape[0]):
            for i, t in enumerate(times):
                for k, node in enumerate(experiments._dump_nodes(sg)):
                    axes = (node,) if sg.dim == 1 else (node // m, node % m)
                    gspde_solution.append((p, gbm.scenario_id, float(t)) + axes
                                          + (float(dump[p, i, k]),))
    dump_b = min(exp.bdsde.dump_paths, exp.gspde.n_noise_paths)
    dump_w = min(8, exp.bdsde.n_diffusion_paths)
    bdsde_solution = []
    for (_, _, gbm, _), sol in seen["solve_gbdsde_picard"]:
        dumped = [sol.slot(i) for i in range(len(times))]
        for b in range(dump_b):
            for w in range(dump_w):
                for (y, z), t in zip(dumped, times):
                    bdsde_solution.append((gbm.scenario_id, b, w, float(t), float(y[b, w]))
                                          + tuple(float(v) for v in z[b, w]))
    return {"gbm_paths.csv": gbm_paths, "hunt_paths.csv": hunt_paths,
            "gspde_solution.csv": gspde_solution, "bdsde_solution.csv": bdsde_solution}


def test_shipped_suite_tables_are_the_loop_rows_row_writer_bytes(tmp_path, monkeypatch):
    # The four CSV artifacts of the shipped suite are the bytes the row
    # writer writes for the rows of the nested dump loops.
    seen = {}
    for name in ("build_gbm", "simulate_hunt", "_gspde_scenario", "solve_gbdsde_picard"):
        def kept(*args, _name=name, _fn=getattr(experiments, name)):
            out = _fn(*args)
            seen.setdefault(_name, []).append((args, out))
            return out
        monkeypatch.setattr(experiments, name, kept)
    cfg = default_config()
    cfg["suite"]["checks"] = ["gbm-integral", "hunt-bracket", "gspde", "gbdsde"]
    exp = validate_config(cfg)
    _, produced = experiments.run_suite(exp)
    tables = {name: payload for name, payload in produced.items() if name.endswith(".csv")}
    rows = loop_rows(exp, seen)
    assert sorted(tables) == sorted(rows)
    write_artifacts(str(tmp_path), tables, exp.config_hash)
    for name, (header, _) in tables.items():
        row_csv(str(tmp_path / f"loops-{name}"), header, rows[name], exp.config_hash)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"loops-{name}").read_bytes(), name


@pytest.mark.parametrize("columns, problem", [
    ([np.arange(3), np.arange(2.0)], r"columns differ in length \[2, 3\]"),
    ([np.arange(4), np.zeros((2, 2))], "column b is not a 1-D int or float array"),
    ([np.arange(2), np.array([True, False])], "column b is not a 1-D int or float array"),
    ([np.arange(2), np.array(["x", "y"])], "column b is not a 1-D int or float array"),
    ([np.arange(2), [0.5, 1.5]], "column b is not a 1-D int or float array"),
    ([np.arange(2)], "1 columns for 2 header names"),
], ids=["ragged", "two-dimensional", "bool", "str", "list", "header"])
def test_a_table_that_is_not_one_is_a_named_usage_error(tmp_path, columns, problem):
    with pytest.raises(UsageError, match=f"artifact broken.csv: {problem}"):
        write_artifacts(str(tmp_path), {"broken.csv": (["a", "b"], columns)}, HASH)
    assert not (tmp_path / "broken.csv").exists()


def test_writing_the_gspde_family_dump_holds_one_chunk_not_the_table(tmp_path):
    # The gspde-family dump: 8 scenarios x 2 paths x 33 times x 81 nodes =
    # 42,768 rows of path_id, scenario_id, t, x_index, u.  The writer holds
    # one chunk's cells at a time, so its tracemalloc peak stays within 1 MB
    # of what it started with; a writer that formats the whole table at once
    # peaks some 10 MB higher.
    s, p, i, k = experiments._index_columns(8, 2, 33, 81)
    u = np.random.default_rng(1).standard_normal(len(s)) * 1e-3
    columns = [p, s, np.linspace(0.0, 0.5, 33)[i], 2 * k, u]
    assert len(u) == 42_768
    header = ["path_id", "scenario_id", "t", "x_index", "u"]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        artifacts.write_csv(str(tmp_path / "gspde_solution.csv"), header, columns, HASH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1_000_000
    assert (tmp_path / "gspde_solution.csv").read_bytes() == reference_bytes(header, columns)
