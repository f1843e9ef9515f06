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

Scale shape (north_rule tiling engine — same cell+halo pattern as
`analysis/nnd.py` / `analysis/knn.py`, same components kernel as
`text/clusters.py`):

1. degree pass: each point replicates into its 3x3 ``eps``-cell ring
   (halo rows); ONE ``groupby(cell % P)`` coarse shuffle co-locates a
   cell's residents with every possible eps-neighbor; the per-partition
   kernel walks cell SEGMENTS of the sorted partition (a numpy slice
   loop, not per-cell Ray groups — fine-key map_groups costs ~0.4 ms
   per group) and counts chunked pairwise distances, emitting one
   ``(key, x, y, is_core)`` row per point;
2. edge pass: a second halo shuffle over the flagged points emits
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

from ..geokernels.cells import cell_of_xy, neighbors_xy

DEFAULT_PARTITIONS = 64
DEFAULT_EPS_M = 300.0
DEFAULT_MIN_PTS = 4
# Chunk pairwise-distance slabs so no temporary exceeds ~4M float64s
# (same bound as the nnd kernel).
_CHUNK_ELEMS = 4_000_000


def _halo_rows(batch: pa.Table, eps: float, x_col: str, y_col: str,
               key_col: str, partitions: int,
               core_col: str | None = None) -> pa.Table:
    """Replicate each point into its 3x3 eps-cell ring; ``home`` marks
    the copy living in the point's own cell; ``p`` is the coarse
    shuffle key."""
    x = batch.column(x_col).to_numpy(zero_copy_only=False)
    y = batch.column(y_col).to_numpy(zero_copy_only=False)
    keys = batch.column(key_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    own = cell_of_xy(x, y, eps)
    nb = neighbors_xy(own, ring=1)  # (n, 9) incl. self
    n, k = nb.shape
    rep = np.repeat(np.arange(n), k)
    cells = nb.ravel()
    cols = {
        "cell": pa.array(cells, type=pa.int64()),
        "p": pa.array(cells % partitions, type=pa.int64()),
        "key": pa.array(keys[rep], type=pa.int64()),
        "px": pa.array(x[rep], type=pa.float64()),
        "py": pa.array(y[rep], type=pa.float64()),
        "home": pa.array((nb == own[:, None]).ravel()),
    }
    if core_col is not None:
        c = batch.column(core_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cols["is_core"] = pa.array(c[rep], type=pa.int64())
    return pa.table(cols)


def _cell_segments(g: pd.DataFrame):
    """Sort one coarse partition by cell and yield per-cell slices."""
    g = g.sort_values("cell", kind="mergesort")
    cells = g["cell"].to_numpy()
    starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    ends = np.r_[starts[1:], len(cells)]
    return g, starts, ends


def _pair_mask(hx, hy, px, py, eps2):
    """Boolean (home x all) adjacency for one cell segment, chunked."""
    out = np.empty((len(hx), len(px)), dtype=bool)
    chunk = max(1, _CHUNK_ELEMS // max(1, len(px)))
    for i in range(0, len(hx), chunk):
        sl = slice(i, min(i + chunk, len(hx)))
        d2 = (hx[sl, None] - px[None, :]) ** 2 \
            + (hy[sl, None] - py[None, :]) ** 2
        out[sl] = d2 <= eps2
    return out


def _deg_part(g: pd.DataFrame, eps2: float, min_pts: int) -> pd.DataFrame:
    """(key, px, py, is_core) for every HOME point of this partition's
    cells — degree counts all residents+halo within eps, self
    included."""
    g, starts, ends = _cell_segments(g)
    px = g["px"].to_numpy()
    py = g["py"].to_numpy()
    keys = g["key"].to_numpy()
    home = g["home"].to_numpy()
    out_k, out_x, out_y, out_c = [], [], [], []
    for s, e in zip(starts, ends):
        h = home[s:e]
        if not h.any():
            continue
        ax, ay = px[s:e], py[s:e]
        adj = _pair_mask(ax[h], ay[h], ax, ay, eps2)
        deg = adj.sum(axis=1)
        out_k.append(keys[s:e][h])
        out_x.append(ax[h])
        out_y.append(ay[h])
        out_c.append((deg >= min_pts).astype(np.int64))
    if not out_k:
        return pd.DataFrame({"key": pd.array([], dtype="int64"),
                             "px": pd.array([], dtype="float64"),
                             "py": pd.array([], dtype="float64"),
                             "is_core": pd.array([], dtype="int64")})
    return pd.DataFrame({"key": np.concatenate(out_k),
                         "px": np.concatenate(out_x),
                         "py": np.concatenate(out_y),
                         "is_core": np.concatenate(out_c)})


def _edge_part(g: pd.DataFrame, eps2: float) -> pd.DataFrame:
    """(a, b, kind) rows emitted by each point's HOME cell: kind 0 =
    core-core edge (a core, b core, a != b), kind 1 = border adjacency
    (a non-core, b core)."""
    g, starts, ends = _cell_segments(g)
    px = g["px"].to_numpy()
    py = g["py"].to_numpy()
    keys = g["key"].to_numpy()
    home = g["home"].to_numpy()
    core = g["is_core"].to_numpy().astype(bool)
    out_a, out_b, out_kind = [], [], []
    for s, e in zip(starts, ends):
        h = home[s:e]
        ccol = core[s:e]
        if not h.any() or not ccol.any():
            continue
        ax, ay, ak = px[s:e], py[s:e], keys[s:e]
        adj = _pair_mask(ax[h], ay[h], ax[ccol], ay[ccol], eps2)
        hk = ak[h]
        bk = ak[ccol]
        adj &= hk[:, None] != bk[None, :]  # never self (by key)
        ai, bi = np.nonzero(adj)
        if not len(ai):
            continue
        out_a.append(hk[ai])
        out_b.append(bk[bi])
        out_kind.append(np.where(ccol[h][ai], 0, 1).astype(np.int64))
    if not out_a:
        return pd.DataFrame({"a": pd.array([], dtype="int64"),
                             "b": pd.array([], dtype="int64"),
                             "kind": pd.array([], dtype="int64")})
    return pd.DataFrame({"a": np.concatenate(out_a),
                         "b": np.concatenate(out_b),
                         "kind": np.concatenate(out_kind)})


def _to_arrow_i64(cols: tuple[str, ...]):
    def fn(d: pd.DataFrame) -> pa.Table:
        return pa.table({c: pa.array(
            d[c].to_numpy(dtype="float64" if c in ("px", "py") else "int64"),
            type=pa.float64() if c in ("px", "py") else pa.int64())
            for c in cols})
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
    from ray.data.aggregate import Sum  # noqa: F401  (parity with peers)

    from ..text.clusters import connected_components

    eps2 = eps * eps
    pts = points_ds.select_columns(
        list(dict.fromkeys([key_col, x_col, y_col, *carry])))

    # -- pass 1: degree/core flags (one coarse halo shuffle) ---------------
    halo1 = pts.map_batches(
        lambda b: _halo_rows(b, eps, x_col, y_col, key_col, partitions),
        batch_format="pyarrow")
    # bounded checkpoint: one row per point; feeds the edge pass, the
    # CC node list and the final merge (dual-consumer rule)
    flags = halo1.groupby("p").map_groups(
        lambda g: _deg_part(g, eps2, min_pts), batch_format="pandas") \
        .map_batches(_to_arrow_i64(("key", "px", "py", "is_core")),
                     batch_format="pandas").materialize()

    # -- pass 2: core-core edges + border adjacency ------------------------
    halo2 = flags.map_batches(
        lambda b: _halo_rows(b, eps, "px", "py", "key", partitions,
                             core_col="is_core"),
        batch_format="pyarrow")
    # bounded checkpoint: O(eps-neighbor pairs) — the same order the
    # components round shuffle moves; feeds CC and the border attach
    adj = halo2.groupby("p").map_groups(
        lambda g: _edge_part(g, eps2), batch_format="pandas") \
        .map_batches(_to_arrow_i64(("a", "b", "kind")),
                     batch_format="pandas").materialize()

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
