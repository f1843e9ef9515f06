"""The query registry's own invariants, checked without Ray: every row
and part names a registered operator, gated rows are gated part by part,
and each union row's DuckDB oracle has exactly its declared schema
(bound at sf0.001). Three source ratchets ride along: the count of
``map_groups`` lines, no fan-out knob on the graph paths and the
banded-LSH join, and no per-polygon or per-edge loop in the
point-in-polygon kernel."""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import duckdb
import pytest

from maskmypy_ray import pipelines as P

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]
DUCK_TYPES = {"string": "VARCHAR", "int64": "BIGINT", "double": "DOUBLE",
              "timestamp[us]": "TIMESTAMP"}
UNIONS = sorted(n for n, r in P.ROWS.items()
                if isinstance(r, P.Row) and r.parts)


def test_every_part_op_is_an_operator():
    for name, row in P.ROWS.items():
        ops = [row] if isinstance(row, str) else [p.op for p in row.parts]
        for op in ops:
            assert op in P.FULL_QUERIES, (name, op)


def test_gated_rows_have_an_oracle_per_part():
    gated = P.oracle_queries()
    for name in UNIONS:
        parts = P.ROWS[name].parts
        if name in gated:
            assert [p.tag for p in parts if not p.has_oracle()] == [], name
        else:
            assert not any(p.has_oracle() for p in parts), name


def test_rows_only_set():
    assert set(P.QUERIES) - set(P.oracle_queries()) == {
        "ann_approx", "ann_pairs_lsh", "dedup_semantic", "media_pipeline"}


@pytest.fixture(scope="module")
def con(sf_dir):
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{sf_dir}/{t}.parquet')")
    yield c
    c.close()


@pytest.mark.parametrize("name", [n for n in UNIONS
                                  if n in P.oracle_queries()])
def test_union_oracle_has_declared_schema(name, con):
    got = [(r[0], r[1]) for r in
           con.execute("DESCRIBE " + P.oracle_queries()[name]).fetchall()]
    want = [("part", "VARCHAR")] + [
        (f.name, DUCK_TYPES[str(f.type)]) for f in P.ROWS[name].schema]
    assert got == want


PKG = Path(P.__file__).parent


def test_map_groups_count_only_falls():
    """Ratchet: lines naming ``map_groups`` in the package never grow
    back (a keyed shuffle is ``util.segment_map`` / ``cogroup_map``)."""
    n = sum(line.count("map_groups") > 0 for f in PKG.rglob("*.py")
            for line in f.read_text().splitlines())
    assert n <= 40, n


FANOUT_KNOBS = {"partitions", "shuffle_blocks", "n_parts"}


@pytest.mark.parametrize("mod", ["text/clusters.py", "analysis/dbscan.py",
                                 "text/rank.py", "lsh.py", "sim/ann.py",
                                 "multimodal/media.py"])
def test_graph_paths_take_no_partitions(mod):
    """The sort fan-out is decided in ``util.segment_map``; the graph
    paths and the banded-LSH join take no ``partitions``,
    ``shuffle_blocks`` or ``n_parts`` parameter."""
    tree = ast.parse((PKG / mod).read_text())
    named = [getattr(n, "name", "lambda") for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.Lambda))
             and FANOUT_KNOBS & {a.arg for a in ast.walk(n.args)
                                 if isinstance(a, ast.arg)}]
    assert named == [], named


@pytest.mark.parametrize("fn", [
    "text.dedup.minhash_lsh_pairs", "text.dedup.simhash_pairs",
    "sim.ann.cosine_pairs_lsh", "multimodal.media.media_phash_pairs",
    "text.corpus.host_cap_sample"])
def test_lsh_and_host_cap_take_no_fanout_knob(fn):
    """The four banded-LSH entry points and the per-host cap shuffle
    through ``segment_map``, which sizes the fan-out from the data."""
    import importlib

    mod, name = fn.rsplit(".", 1)
    f = getattr(importlib.import_module(f"maskmypy_ray.{mod}"), name)
    assert not FANOUT_KNOBS & set(inspect.signature(f).parameters)


def test_pip_loops_over_no_polygon_or_edge():
    """``PolygonSet.locate`` and ``contains`` are vectorized passes: their
    only loop runs over ``_chunks`` passes, never ``range(self.n)`` or a
    ring's edges; the grid index is compiled in ``__init__`` (so
    ``ray.put`` ships it) and a query adds no state."""
    import numpy as np

    from maskmypy_ray.geokernels.pip import PolygonSet

    for fn in (PolygonSet.locate, PolygonSet.contains,
               PolygonSet._odd_crossings):
        src = textwrap.dedent(inspect.getsource(fn))
        assert "range(self.n)" not in src, fn.__name__
        loops = [n for n in ast.walk(ast.parse(src))
                 if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        assert all(isinstance(n, ast.For) and "_chunks(" in ast.unparse(n.iter)
                   for n in loops), fn.__name__
    assert "self._compile_grid()" in inspect.getsource(PolygonSet.__init__)
    ps = PolygonSet([(np.array([0, 1, 1, 0.]), np.array([0, 0, 1, 1.]))])
    state = set(vars(ps))
    assert {"ent_poly", "cell_start", "nh_edges", "cell_cost"} <= state
    ps.locate(np.array([0.5]), np.array([0.5]))
    ps.contains(0, np.array([0.5]), np.array([0.5]))
    assert set(vars(ps)) == state
