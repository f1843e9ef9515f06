"""The query registry's own invariants, checked without Ray: every row
and part names a registered operator, gated rows are gated part by part,
and each union row's DuckDB oracle has exactly its declared schema
(bound at sf0.001). Two source ratchets ride along: the count of
``map_groups`` lines, and no ``partitions`` knob on the graph paths."""

from __future__ import annotations

import ast
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
    assert n <= 60, n


@pytest.mark.parametrize("mod", ["text/clusters.py", "analysis/dbscan.py",
                                 "text/rank.py"])
def test_graph_paths_take_no_partitions(mod):
    """The sort fan-out is decided in ``util.segment_map``; the graph
    paths take no ``partitions`` parameter."""
    tree = ast.parse((PKG / mod).read_text())
    named = [getattr(n, "name", "lambda") for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.Lambda))
             and "partitions" in [a.arg for a in ast.walk(n.args)
                                  if isinstance(a, ast.arg)]]
    assert named == [], named
