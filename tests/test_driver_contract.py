"""Emulates the driver's correctness gate: every queries() entry with an
oracle_sql() entry must match DuckDB on row-count + schema (column
names and dtypes) + sorted values. Runs at sf0.001 for speed (the
driver uses sf0.01)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_con(sf_dir):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    yield con
    con.close()


@pytest.fixture(scope="module")
def oracle_sqls():
    import __ray_entry__ as e

    return e.oracle_sql()


def _query_names():
    import __ray_entry__ as e

    return sorted(e.queries().keys())


@pytest.mark.parametrize("name", _query_names())
def test_query_matches_oracle(name, ray_session, sf_dir, oracle_con,
                             oracle_sqls):
    import __ray_entry__ as e
    import pyarrow as pa
    import ray

    from maskmypy_ray import pipelines as P

    res = e.queries()[name](sf_dir)
    row = P.ROWS[name]
    if isinstance(row, P.Row) and row.schema is not None:
        # a tagged union's engine blocks carry exactly its declared schema
        # (Ray forwards zero-row blocks untouched, with no columns)
        want = pa.schema([pa.field("part", pa.string()), *row.schema])
        res = res.materialize()
        for b in ray.get(res.to_arrow_refs()):
            assert not len(b) or b.schema == want, \
                f"{name}: {b.schema} != {want}"
    res = _to_pandas(res)
    assert len(res) >= 0
    sqls = oracle_sqls
    if name not in sqls:
        pytest.skip("rows-only query (no SQL oracle)")
    exp = oracle_con.execute(sqls[name]).df()
    assert len(res) == len(exp), f"row count {len(res)} != oracle {len(exp)}"
    a, b = _canon(res), _canon(exp)
    assert list(a.columns) == list(b.columns), (list(a.columns), list(b.columns))
    for col in a.columns:
        assert a[col].dtype == b[col].dtype, \
            f"{name}.{col}: dtype {a[col].dtype} != oracle {b[col].dtype}"
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        if av.dtype.kind == "f":
            assert np.array_equal(av, bv, equal_nan=True), f"{name}.{col}"
        else:
            assert (av == bv).all(), f"{name}.{col}"


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    assert ds.count() > 0
    cols = set(ds.schema().names)
    assert {"url", "text", "mx", "my", "_distance"} <= cols
