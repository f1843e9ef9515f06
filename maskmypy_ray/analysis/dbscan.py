"""Distributed DBSCAN over planar points (grid cells + halo shuffles +
large-star/small-star components).

No reference counterpart (graft spatial addition, SURVEY.md §2.6): the
density-clustering sibling of the near-dup cluster family
(`text/clusters.py`) on the spatial side of the engine. Semantics
(Ester et al. 1996, with a deterministic border rule):

* CORE point: >= ``min_pts`` neighbors within ``eps`` (self included —
  degree counts every point at distance <= eps, itself among them);
* cluster: eps-connected component of core points, labeled with the
  MIN point key among its cores;
* BORDER point: non-core with >= 1 core eps-neighbor, assigned the MIN
  cluster label among those cores (classic DBSCAN leaves multi-cluster
  borders order-dependent; the min rule is a deterministic refinement,
  mirrored exactly by the SQL oracle);
* everything else is NOISE (``cluster = -1``).

Scale shape (north_rule tiling engine — the cell-halo self-join of
`analysis/nnd.py`, the components kernel of `text/clusters.py`):

1. degree pass: each point replicates into its 3x3 ``eps``-cell ring
   (``halo_rows``), and one
   ``segment_map`` over ``cell`` co-locates a cell's home points with
   every possible eps-neighbor; one pyarrow kernel per sorted block
   runs the shared pair loop (``halo_pair_d2``) and emits one
   ``(key, x, y, is_core)`` row per point;
2. edge pass: a second self-join over the flagged points emits
   core-core edges and border->core adjacency (each from the home
   cell, so every ordered pair is emitted exactly once);
3. components: `text.clusters.connected_components` — alternating
   large-star/small-star rounds, one coarse shuffle each over the
   core-core edges, O(log n) rounds in practice however long the
   chains of core points;
4. border + final assembly: the adjacency attaches component labels by
   routing on the CORE key, then every per-point row (url side, flag
   side, component side, border side) meets in ONE fused
   ``groupby(key % P)`` merge. Nothing ever materializes on the
   driver; the two `materialize()` checkpoints are bounded (one row
   per point; one row per eps-neighbor pair — the same O(E) each
   components round moves) and exist because each feeds two consumers
   (round-4 dual-consumer rule).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geokernels.cells import halo_pair_d2, halo_rows
from ..util import segment_map

DEFAULT_PARTITIONS = 64
DEFAULT_EPS_M = 300.0
DEFAULT_MIN_PTS = 4
FLAG_SCHEMA = pa.schema([("key", pa.int64()), ("px", pa.float64()),
                         ("py", pa.float64()), ("is_core", pa.int64())])
ADJ_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                        ("kind", pa.int64())])


def _self_join(ds, eps: float, x_col: str, y_col: str, key_col: str,
               kernel, schema, core_col: str | None = None):
    """``kernel`` over the :func:`halo_rows` of ``ds`` (eps cells, plus
    ``is_core`` when given), sorted by cell."""
    def halo(b: pa.Table) -> pa.Table:
        rep, t = halo_rows(b, eps, x_col, y_col, key_col)
        if core_col is None:
            return t
        c = b.column(core_col).to_numpy(zero_copy_only=False)
        return t.append_column("is_core", pa.array(c[rep].astype(np.int64)))

    return segment_map(ds.map_batches(halo, batch_format="pyarrow"), "cell",
                       kernel, schema)


def _cols(block: pa.Table, *names):
    return [block.column(n).to_numpy(zero_copy_only=False) for n in names]


def _deg_block(block: pa.Table, eps2: float, min_pts: int) -> pa.Table:
    """(key, px, py, is_core) for every HOME row of one sorted block —
    degree counts all residents+halo within eps, self included."""
    cell, px, py, key, home = _cols(block, "cell", "px", "py", "key", "home")
    deg = np.zeros(block.num_rows, dtype=np.int64)
    for ci, _, d2 in halo_pair_d2(cell, home, px, py):
        deg[ci] = (d2 <= eps2).sum(axis=1)
    return pa.table({"key": key[home], "px": px[home], "py": py[home],
                     "is_core": (deg[home] >= min_pts).astype(np.int64)})


def _edge_block(block: pa.Table, eps2: float) -> pa.Table:
    """(a, b, kind) rows emitted by each point's HOME cell: kind 0 =
    core-core edge (a core, b core, a != b), kind 1 = border adjacency
    (a non-core, b core)."""
    cell, px, py, key, home, core = _cols(
        block, "cell", "px", "py", "key", "home", "is_core")
    core = core.astype(bool)
    out_a, out_b = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for ci, gi, d2 in halo_pair_d2(cell, home, px, py, key, cand=core):
        ai, bi = np.nonzero(d2 <= eps2)  # never self: equal keys are inf
        out_a.append(ci[ai])
        out_b.append(gi[bi])
    a, b = np.concatenate(out_a), np.concatenate(out_b)
    return pa.table({"a": key[a], "b": key[b],
                     "kind": np.where(core[a], 0, 1).astype(np.int64)})


def _to_arrow_i64(cols: tuple[str, ...]):
    def fn(d: pd.DataFrame) -> pa.Table:
        return pa.table({c: pa.array(d[c].to_numpy(dtype="int64"),
                                     type=pa.int64()) for c in cols})
    return fn


def dbscan(points_ds, eps: float = DEFAULT_EPS_M,
           min_pts: int = DEFAULT_MIN_PTS, x_col: str = "x",
           y_col: str = "y", key_col: str = "doc_id",
           carry: tuple[str, ...] = ("url",),
           partitions: int = DEFAULT_PARTITIONS, max_rounds: int = 64):
    """Dataset[(*carry, key, cluster, is_core)] — DBSCAN labels for
    every input point; ``cluster`` = min core key in the cluster, -1
    for noise. Result is independent of ``partitions`` (pytest-pinned).

    SQL twin: `pipelines._dbscan_sql` (grid-bucketed neighbor join +
    recursive-CTE min-label closure over core-core edges)."""
    from ..text.clusters import connected_components

    eps2 = eps * eps
    pts = points_ds.select_columns(
        list(dict.fromkeys([key_col, x_col, y_col, *carry])))

    # -- pass 1: degree/core flags -------------------------------------------
    # bounded checkpoint: one row per point; feeds the edge pass, the
    # CC node list and the final merge (dual-consumer rule)
    flags = _self_join(pts, eps, x_col, y_col, key_col,
                       lambda b: _deg_block(b, eps2, min_pts),
                       FLAG_SCHEMA).materialize()

    # -- pass 2: core-core edges + border adjacency ------------------------
    # bounded checkpoint: O(eps-neighbor pairs) — the same order the
    # components round shuffle moves; feeds CC and the border attach
    adj = _self_join(flags, eps, "px", "py", "key",
                     lambda b: _edge_block(b, eps2), ADJ_SCHEMA,
                     core_col="is_core").materialize()

    # -- components over core points ---------------------------------------
    nodes = flags.filter(expr="is_core == 1").map_batches(
        lambda b: pa.table({"node": b.column("key")}),
        batch_format="pyarrow")
    core_edges = adj.filter(expr="kind == 0").map_batches(
        lambda b: pa.table({"doc_a": b.column("a"),
                            "doc_b": b.column("b")}),
        batch_format="pyarrow")
    cc = connected_components(nodes, core_edges, node_col="node",
                              max_rounds=max_rounds, partitions=partitions)

    # -- border attach: route adjacency + labels by the CORE key -----------
    # side rows share (key, other, v): v = -1 tags a label row
    # (other = cluster), v = 1 tags an adjacency row (other = border key)
    lab_side = cc.map_batches(
        lambda b: pa.table({
            "key": b.column("node"),
            "other": b.column("cluster_id"),
            "v": pa.array(np.full(len(b), -1, dtype=np.int64)),
            "bp": pa.array(b.column("node").to_numpy(
                zero_copy_only=False) % partitions, type=pa.int64()),
        }), batch_format="pyarrow")
    adj_side = adj.filter(expr="kind == 1").map_batches(
        lambda b: pa.table({
            "key": b.column("b"),
            "other": b.column("a"),
            "v": pa.array(np.ones(len(b), dtype=np.int64)),
            "bp": pa.array(b.column("b").to_numpy(
                zero_copy_only=False) % partitions, type=pa.int64()),
        }), batch_format="pyarrow")

    def attach_border(g: pd.DataFrame) -> pd.DataFrame:
        lab = g.loc[g["v"] == -1, ["key", "other"]] \
            .rename(columns={"other": "cluster"})
        bor = g.loc[g["v"] == 1, ["key", "other"]] \
            .rename(columns={"other": "bkey"})
        j = bor.merge(lab, on="key", how="inner")
        return pd.DataFrame({"key": j["bkey"].to_numpy(dtype="int64"),
                             "cluster": j["cluster"].to_numpy(dtype="int64")})

    border_rows = lab_side.union(adj_side).groupby("bp") \
        .map_groups(attach_border, batch_format="pandas") \
        .map_batches(_to_arrow_i64(("key", "cluster")),
                     batch_format="pandas")

    # -- final fused merge: url side + flag side + cc side + border side ---
    def side(ds_in, s, key_src, val_src, carry_src):
        def fn(b: pa.Table) -> pa.Table:
            n = len(b)
            k = b.column(key_src).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cols = {
                "key": pa.array(k, type=pa.int64()),
                "v": (b.column(val_src).cast(pa.int64()) if val_src
                      else pa.array(np.zeros(n, dtype=np.int64))),
                "side": pa.array(np.full(n, s, dtype=np.int64)),
                "fp": pa.array(k % partitions, type=pa.int64()),
            }
            for c in carry:
                cols[c] = (b.column(c) if carry_src
                           else pa.array([""] * n, type=pa.string()))
            return pa.table(cols)
        return ds_in.map_batches(fn, batch_format="pyarrow")

    s_url = side(pts, 0, key_col, None, True)
    s_flag = side(flags, 1, "key", "is_core", False)
    s_cc = side(cc, 2, "node", "cluster_id", False)
    s_bor = side(border_rows, 3, "key", "cluster", False)

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        base = g[g["side"] == 0]
        fl = g.loc[g["side"] == 1, ["key", "v"]] \
            .rename(columns={"v": "is_core"})
        lab = g.loc[g["side"] == 2, ["key", "v"]] \
            .rename(columns={"v": "cl_cc"})
        bor = g.loc[g["side"] == 3, ["key", "v"]] \
            .groupby("key", as_index=False)["v"].min() \
            .rename(columns={"v": "cl_bor"})
        j = base.merge(fl, on="key", how="inner") \
            .merge(lab, on="key", how="left") \
            .merge(bor, on="key", how="left")
        # left merges promote to float64; cluster ids are point keys
        # (< 2^53 by contract), so the round-trip is exact
        cl = j["cl_cc"].fillna(j["cl_bor"]).fillna(-1.0) \
            .to_numpy(dtype="float64").astype(np.int64)
        out = {c: j[c] for c in carry}
        out["key"] = j["key"].to_numpy(dtype="int64")
        out["cluster"] = cl
        out["is_core"] = j["is_core"].to_numpy(dtype="int64")
        return pd.DataFrame(out)

    def to_arrow(d: pd.DataFrame) -> pa.Table:
        cols = {c: pa.array(d[c].to_numpy(dtype=object), type=pa.string())
                for c in carry}
        for c in ("key", "cluster", "is_core"):
            cols[c] = pa.array(d[c].to_numpy(dtype="int64"), type=pa.int64())
        return pa.table(cols)

    return s_url.union(s_flag).union(s_cc).union(s_bor).groupby("fp") \
        .map_groups(finalize, batch_format="pandas") \
        .map_batches(to_arrow, batch_format="pandas")
