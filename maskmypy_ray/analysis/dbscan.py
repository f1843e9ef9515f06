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
4. border + final assembly: one ``util.cogroup_map`` attaches
   component labels to the border adjacency on the CORE key, then a
   second one co-groups every per-point row (url side, flag side,
   component side, border side) on the point key, with pyarrow joins
   only, so keys stay int64 at any magnitude. Nothing ever
   materializes on the driver; the two `materialize()` checkpoints
   are bounded (one row per point; one row per eps-neighbor pair —
   the same O(E) each components round moves) and exist because each
   feeds two consumers (round-4 dual-consumer rule).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geokernels.cells import halo_pair_d2, halo_rows
from ..util import cogroup_map, segment_map

DEFAULT_EPS_M = 300.0
DEFAULT_MIN_PTS = 4
FLAG_SCHEMA = pa.schema([("key", pa.int64()), ("px", pa.float64()),
                         ("py", pa.float64()), ("is_core", pa.int64())])
ADJ_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                        ("kind", pa.int64())])
CORE_SCHEMA = pa.schema([("key", pa.int64()), ("is_core", pa.int64())])
BORDER_ADJ_SCHEMA = pa.schema([("b", pa.int64()), ("a", pa.int64())])
BORDER_SCHEMA = pa.schema([("key", pa.int64()), ("cluster", pa.int64())])


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


def dbscan(points_ds, eps: float = DEFAULT_EPS_M,
           min_pts: int = DEFAULT_MIN_PTS, x_col: str = "x",
           y_col: str = "y", key_col: str = "doc_id",
           carry: tuple[str, ...] = ("url",), max_rounds: int = 64):
    """Dataset[(*carry, key, cluster, is_core)] — DBSCAN labels for
    every input point; ``cluster`` = min core key in the cluster, -1
    for noise. Every shuffle is a ``util.segment_map`` sort whose
    fan-out follows its input's size; the labels do not depend on it
    (pytest runs two fan-outs).

    SQL twin: `pipelines._dbscan_sql` (grid-bucketed neighbor join +
    recursive-CTE min-label closure over core-core edges)."""
    from ..text.clusters import LABEL_SCHEMA, connected_components

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
                              max_rounds=max_rounds)

    # -- border attach: labels meet border adjacency on the CORE key ------
    def attach_border(lab: pa.Table, bor: pa.Table) -> pa.Table:
        j = bor.join(lab, "b", "node", join_type="inner")
        return pa.table({"key": j.column("a"),
                         "cluster": j.column("cluster_id")})

    border_rows = cogroup_map(
        [(cc, "node", LABEL_SCHEMA),
         (adj.filter(expr="kind == 1"), "b", BORDER_ADJ_SCHEMA)],
        attach_border, BORDER_SCHEMA)

    # -- final co-group: url side + flag side + cc side + border side ------
    base_schema = pa.schema([(key_col, pa.int64())]
                            + [(c, pa.string()) for c in carry])
    out_schema = pa.schema([(c, pa.string()) for c in carry]
                           + [("key", pa.int64()), ("cluster", pa.int64()),
                              ("is_core", pa.int64())])

    def finalize(base: pa.Table, fl: pa.Table, lab: pa.Table,
                 bor: pa.Table) -> pa.Table:
        bor = bor.group_by("key").aggregate([("cluster", "min")])
        j = base.join(fl, key_col, "key", join_type="inner") \
            .join(lab, key_col, "node") \
            .join(bor, key_col, "key")
        cols = {c: j.column(c) for c in carry}
        cols["key"] = j.column(key_col)
        cols["cluster"] = pc.coalesce(j.column("cluster_id"),
                                      j.column("cluster_min"),
                                      pa.scalar(-1, pa.int64()))
        cols["is_core"] = j.column("is_core")
        return pa.table(cols)

    return cogroup_map([(pts, key_col, base_schema),
                        (flags, "key", CORE_SCHEMA),
                        (cc, "node", LABEL_SCHEMA),
                        (border_rows, "key", BORDER_SCHEMA)],
                       finalize, out_schema)
