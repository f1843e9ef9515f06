"""Nearest-neighbor distance stats (A8/A9).

Reference (`/root/reference/maskmypy/analysis.py:222-263`) uses pointpats'
PointPattern min/max/mean nearest-neighbor distance. Distributed shape
(SURVEY.md §2.2 A8): a cell-halo self-join. Points are bucketed into
planar cells and replicated into their 3x3 ring (``halo_of_xy``); one
``segment_map`` over ``cell`` co-locates each cell's home points with
every halo copy, and one pyarrow kernel per sorted block runs the shared
pair loop (``halo_pair_d2``) for each home point's nearest neighbor. A
neighbor within ``cell_m`` of the point is guaranteed to be inside the
halo, so any result <= cell_m is exact; the (rare) unresolved points are
finished exactly in a second broadcast brute-force pass over the full
dataset.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geokernels.cells import halo_pair_d2, halo_rows
from ..util import segment_map, sorted_member_mask

DEFAULT_NND_CELL_M = 1000.0
NND_SCHEMA = pa.schema([("key", pa.int64()), ("nnd", pa.float64())])


def _nn_block(block: pa.Table) -> pa.Table:
    """(key, nnd) of every home row of one ``sort("cell")`` block."""
    def col(name):
        return block.column(name).to_numpy(zero_copy_only=False)

    key, home = col("key"), col("home")
    nnd = np.empty(block.num_rows)
    for ci, _, d2 in halo_pair_d2(col("cell"), home, col("px"), col("py"),
                                  key):
        nnd[ci] = np.sqrt(d2.min(axis=1))
    return pa.table({"key": key[home], "nnd": nnd[home]})


def nnd_per_point(ds, cell_m: float = DEFAULT_NND_CELL_M, x_col: str = "x",
                  y_col: str = "y", key_col: str = "doc_id"):
    """Dataset[(key, nnd)] of exact nearest-neighbor distances."""
    def halo(b: pa.Table) -> pa.Table:
        return halo_rows(b, cell_m, x_col, y_col, key_col)[1]

    nn = segment_map(ds.map_batches(halo, batch_format="pyarrow"), "cell",
                     _nn_block, NND_SCHEMA).materialize()
    # Exactness check: results > cell_m may have a true NN outside the halo.
    unresolved = nn.filter(expr=f"nnd > {cell_m!r}").to_pandas()
    if len(unresolved):
        resolved = _brute_force_nn(ds, unresolved, x_col, y_col, key_col)
        fix_key = resolved["key"].to_numpy()  # sorted by the groupby
        fix_nnd = resolved["nnd"].to_numpy()

        def patch(b: pa.Table) -> pa.Table:
            keys = b.column("key").to_numpy(zero_copy_only=False)
            vals = b.column("nnd").to_numpy(zero_copy_only=False).copy()
            hit = sorted_member_mask(fix_key, keys)
            vals[hit] = fix_nnd[np.searchsorted(fix_key, keys[hit])]
            return pa.table({"key": b.column("key"),
                             "nnd": pa.array(vals, type=pa.float64())})

        nn = nn.map_batches(patch, batch_format="pyarrow")
    return nn


def _brute_force_nn(ds, unresolved: pd.DataFrame, x_col: str, y_col: str,
                    key_col: str) -> pd.DataFrame:
    """Exact fallback: broadcast the (small) unresolved point set and scan
    the full dataset once, reducing per-unresolved minima on the driver."""
    # unresolved came from the nn result (key, nnd) — need coordinates:
    keys = np.unique(unresolved["key"].to_numpy())
    coords = ds.map_batches(
        lambda b: b.filter(pa.array(sorted_member_mask(
            keys, b.column(key_col).to_numpy(zero_copy_only=False)))),
        batch_format="pyarrow").select_columns([key_col, x_col, y_col]).to_pandas()
    ukeys = coords[key_col].to_numpy()
    ux = coords[x_col].to_numpy()
    uy = coords[y_col].to_numpy()

    def scan(b: pa.Table) -> pa.Table:
        x = b.column(x_col).to_numpy(zero_copy_only=False)
        y = b.column(y_col).to_numpy(zero_copy_only=False)
        kk = b.column(key_col).to_numpy(zero_copy_only=False)
        d2 = (ux[:, None] - x[None, :]) ** 2 + (uy[:, None] - y[None, :]) ** 2
        d2[kk[None, :] == ukeys[:, None]] = np.inf
        return pa.table({"key": pa.array(ukeys, type=pa.int64()),
                         "m": pa.array(np.sqrt(d2.min(axis=1)), type=pa.float64())})

    partial = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    return partial.groupby("key")["m"].min().rename("nnd").reset_index()


def nnd(ds, cell_m: float = DEFAULT_NND_CELL_M, x_col: str = "x",
        y_col: str = "y", key_col: str = "doc_id") -> dict:
    """{nnd_min, nnd_max, nnd_mean} — `analysis.py:222-237`."""
    from ray.data.aggregate import Max, Mean, Min

    nn = nnd_per_point(ds, cell_m, x_col, y_col, key_col)
    agg = nn.aggregate(Min("nnd"), Max("nnd"), Mean("nnd"))
    return {
        "nnd_min": float(agg["min(nnd)"]),
        "nnd_max": float(agg["max(nnd)"]),
        "nnd_mean": float(agg["mean(nnd)"]),
    }


def nnd_delta(ds, cell_m: float = DEFAULT_NND_CELL_M, key_col: str = "doc_id") -> dict:
    """after - before for each nnd stat, round 6 (`analysis.py:240-263`).
    ``ds`` must carry both original (x, y) and masked (mx, my)."""
    before = nnd(ds, cell_m, "x", "y", key_col)
    after = nnd(ds, cell_m, "mx", "my", key_col)
    return {f"{k}_delta": round(after[k] - before[k], 6) for k in before}
