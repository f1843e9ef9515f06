"""Distributed DBSCAN (`analysis/dbscan.py`) vs a brute-force oracle.

The brute-force twin computes the same semantics (core = degree >=
min_pts within eps self-included; cluster = min core key in the
eps-connected core component; border = min neighbor-core cluster;
noise = -1) with an O(n^2) numpy label propagation — exact for the
small synthetic point sets used here.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _brute_dbscan(keys, x, y, eps, min_pts):
    n = len(keys)
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    adj = d2 <= eps * eps
    core = adj.sum(axis=1) >= min_pts
    lab = keys.astype(np.int64).copy()
    cadj = adj & core[:, None] & core[None, :]
    for _ in range(n):
        nb_min = np.where(cadj, lab[None, :], np.iinfo(np.int64).max) \
            .min(axis=1)
        new = np.minimum(lab, nb_min)
        if (new == lab).all():
            break
        lab = new
    cluster = np.full(n, -1, dtype=np.int64)
    cluster[core] = lab[core]
    border = ~core & (adj & core[None, :]).any(axis=1)
    for i in np.flatnonzero(border):
        cluster[i] = cluster[adj[i] & core].min()
    return cluster, core.astype(np.int64)


def _points_ds(ray, n=240, seed=7, offset=0):
    rng = np.random.default_rng(seed)
    # two dense blobs + a sparse background => cores, borders and noise
    blob_a = rng.normal([0.0, 0.0], 60.0, size=(n // 3, 2))
    blob_b = rng.normal([1500.0, 900.0], 80.0, size=(n // 3, 2))
    bg = rng.uniform([-4000.0, -4000.0], [6000.0, 6000.0],
                     size=(n - 2 * (n // 3), 2))
    xy = np.concatenate([blob_a, blob_b, bg])
    keys = np.arange(len(xy), dtype=np.int64) * 13 + 5 + offset  # sparse
    tbl = pa.table({
        "doc_id": pa.array(keys),
        "url": pa.array([f"u{k}" for k in keys], type=pa.string()),
        "x": pa.array(xy[:, 0], type=pa.float64()),
        "y": pa.array(xy[:, 1], type=pa.float64()),
    })
    return ray.data.from_arrow(tbl), keys, xy


def _run(ds, keys, **kw):
    from maskmypy_ray.analysis.dbscan import dbscan

    out = dbscan(ds, key_col="doc_id", **kw).to_pandas()
    out = out.set_index("key").loc[keys]
    return (out["cluster"].to_numpy(dtype="int64"),
            out["is_core"].to_numpy(dtype="int64"))


@pytest.mark.parametrize("offset", [0, 1 << 60])
def test_dbscan_matches_brute_force(ray_session, offset):
    """``1 << 60`` keys are legal int64 ids beyond float64's exact
    range: labels must come back exact."""
    ds, keys, xy = _points_ds(ray_session, offset=offset)
    eps, min_pts = 60.0, 6
    got_cl, got_core = _run(ds, keys, eps=eps, min_pts=min_pts)
    exp_cl, exp_core = _brute_dbscan(keys, xy[:, 0], xy[:, 1], eps, min_pts)
    assert (got_core == exp_core).all()
    assert (got_cl == exp_cl).all()
    # the fixture exercises all three roles
    assert (got_core == 1).sum() > 20
    assert ((got_cl >= 0) & (got_core == 0)).sum() > 0  # borders
    assert (got_cl == -1).sum() > 10  # noise
    assert len(np.unique(got_cl[got_cl >= 0])) >= 2


def test_dbscan_partition_independent(ray_session, monkeypatch):
    """The same labels at two sort fan-outs (``util.PARTITION_BYTES`` at
    its default and at 64 bytes) over input in 8 blocks; the output
    block count, the final co-group's fan-out, shows that two different
    fan-outs ran."""
    from maskmypy_ray import util
    from maskmypy_ray.analysis.dbscan import dbscan

    ds, keys, xy = _points_ds(ray_session, n=150, seed=11)
    runs, blocks = [], []
    for value in (None, 64):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        out = dbscan(ds.repartition(8), key_col="doc_id", eps=250.0,
                     min_pts=3).materialize()
        blocks.append(out.num_blocks())
        runs.append(out.to_pandas().set_index("key").loc[keys])
    assert blocks[0] < blocks[1]
    a, b = runs
    assert (a["cluster"] == b["cluster"]).all()
    assert (a["is_core"] == b["is_core"]).all()


def test_dbscan_all_noise(ray_session):
    """eps below any pairwise distance: no cores, everything noise —
    exercises the empty-core-component path end to end."""
    ds, keys, xy = _points_ds(ray_session, n=60, seed=3)
    d2 = (xy[:, None, 0] - xy[None, :, 0]) ** 2 \
        + (xy[:, None, 1] - xy[None, :, 1]) ** 2
    np.fill_diagonal(d2, np.inf)
    eps = float(np.sqrt(d2.min())) * 0.5
    cl, core = _run(ds, keys, eps=eps, min_pts=2)
    assert (core == 0).all()
    assert (cl == -1).all()


def test_dbscan_single_giant_cluster(ray_session):
    """eps above the data diameter: every point is core, one cluster
    labeled with the min key."""
    ds, keys, xy = _points_ds(ray_session, n=50, seed=5)
    cl, core = _run(ds, keys, eps=1e6, min_pts=2)
    assert (core == 1).all()
    assert (cl == keys.min()).all()


def test_dbscan_fixture_parity_with_sql(ray_session, sf_dir):
    """Registered operating point vs the DuckDB recursive-CTE twin on
    the sf0.001 geoparse points (the driver checks the same pair at
    sf0.01 inside the graph_masks row)."""
    duckdb = pytest.importorskip("duckdb")
    from maskmypy_ray import pipelines

    res = pipelines.FULL_QUERIES["dbscan_clusters"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    ora = con.execute(
        pipelines.full_oracle_queries()["dbscan_clusters"]).fetchdf()
    a = res.sort_values("url").reset_index(drop=True)
    b = ora.sort_values("url").reset_index(drop=True)[list(a.columns)]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
