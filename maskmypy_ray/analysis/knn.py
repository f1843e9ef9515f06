"""k-nearest-neighbors join: masked points -> the k closest addresses.

The engine already had kNN(1) (nnd, street snapping) and within-radius
counts (k-anonymity); this is the general spatial kNN JOIN from the
north_rule's operator list. Reference counterpart: none directly —
pointpats' knn machinery underlies `maskmypy/analysis.py:222-237`, but
the reference never exposes a point→context-layer kNN.

Plan (broadcast, zero shuffle, EXACT): the address side compiles into
the same sorted cell-bucketed index as the broadcast k-anonymity path
(`analysis/k_anonymity.py:196`); each point batch runs an iterative
ring expansion — gather candidates from the (2r+1)^2 cell block, take
the k best by (dist2, addr_id), and accept once the k-th distance is
strictly inside the ring's guarantee radius ``r * index_cell`` (an
address outside the block is farther than that) or the block already
covers every address. Unresolved points re-run with the ring doubled,
gathering only the annulus the doubling adds and re-ranking it with
their carried top-k; every step is vectorized across the batch
(range-expansion via repeat/cumsum). A point still unresolved once its
next ring block would hold at least as many cells as there are
addresses (a point far outside the address cloud) is ranked against
every address at once instead, so no point walks the empty cells
between it and the cloud.

Ranking is filter-then-refine. A point gathers ~30 candidates on a
100 m index and keeps 3, so sorting every candidate by (point, dist2,
addr_id) would spend most of the kernel ordering rows that are then
dropped. First each point's k-th smallest candidate dist2, counting
repeated values, is found (k passes of a segmented minimum in the ring
loop, ``np.partition`` in the all-address fallback); only the rows at or
below it are lexsorted and segment-ranked. The filter is exact: at least
k rows of the point have dist2 <= that bound, so every row above it
ranks after the k-th by (dist2, addr_id) and can never be in the top k.
A point whose bound is not a finite number (fewer than k candidates, or
a NaN dist2 from a NaN coordinate) keeps all of its rows, so a NaN point
still gets the k smallest addr_ids with NaN dist2. A point with a
non-finite coordinate has no cell, so it skips the rings and goes
straight to the all-address fallback.

Scale note: this is the small-context-side plan (guarded by the same
BROADCAST_ADDR_LIMIT as calculate_k). For address sides too large to
broadcast, the shape is a cell-halo join over ``segment_map`` (replicate
addresses into 3x3 halos sized by an upper-bound k-th distance, doubling
for unresolved points) — the count-based variant of which ships in
calculate_k(mode="shuffle").

dist2 is a single fused ``dx*dx + dy*dy`` in float64 on both the
engine and SQL sides — bit-exact given the bit-exact mask/address
coordinates, so the oracle value-checks distances, not just ids.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geokernels.cells import MAX_PAIRS, cell_of_xy, neighbors_xy
from ..util import flat_ranges, segment_bounds
from .k_anonymity import BROADCAST_ADDR_LIMIT, _TableDS

DEFAULT_KNN_CELL_M = 500.0


def knn_index(x, y, ids, cell_m: float):
    """(cells_sorted, x, y, ids (all in sorted cell order), index_cell):
    the broadcast kNN index over planar sites, as ``_knn_batch`` reads
    it."""
    index_cell = max(cell_m, 50.0)
    cells = cell_of_xy(x, y, index_cell)
    order = np.argsort(cells, kind="stable")
    return (cells[order], x[order], y[order],
            np.asarray(ids)[order].astype(np.int64), index_cell)


def _compile_knn_index(addresses_ds, cell_m: float):
    """Ray task -> ``knn_index`` over the address side (addr_id
    payload). Same off-driver compile shape as
    k_anonymity._compile_index_remote."""
    import ray

    from ..geokernels.geometry import latlon_to_xy

    @ray.remote(num_cpus=1)
    def compile_task(*blocks):
        tbl = pa.concat_tables(
            [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
             for b in blocks])
        ax, ay = latlon_to_xy(
            tbl.column("lat").to_numpy(zero_copy_only=False),
            tbl.column("lon").to_numpy(zero_copy_only=False))
        return knn_index(ax, ay,
                         tbl.column("addr_id").to_numpy(zero_copy_only=False),
                         cell_m)

    if isinstance(addresses_ds, _TableDS):
        return compile_task.remote(ray.put(addresses_ds.table))
    return compile_task.remote(*addresses_ds.to_arrow_refs())


def _within_kth(starts, ends, d2, k: int):
    """Mask of the rows that can rank in their segment's top k.

    Rows are grouped into segments ``starts[i]:ends[i]`` (one per point,
    none empty). Each segment's bound is its k-th smallest dist2 counting
    repeated values, found by k passes of a segmented minimum that each
    count the rows equal to the pass's minimum and then retire them. A
    segment that does not reach k rows (it has fewer, or holds a NaN,
    which ``np.minimum`` propagates) keeps the bound +inf: every row."""
    lens = ends - starts
    kth = np.full(len(starts), np.inf)
    need = np.full(len(starts), k, dtype=np.int64)
    v = d2.copy()
    for _ in range(k):
        m = np.minimum.reduceat(v, starts)
        eq = v == np.repeat(m, lens)
        c = np.add.reduceat(eq, starts, dtype=np.int64)
        hit = (need > 0) & (c >= need)
        kth[hit] = m[hit]
        need -= c
        if not (need > 0).any():
            break
        v[eq] = np.inf
    return ~(d2 > np.repeat(kth, lens))


def _knn_batch(idx, mx, my, keys, k: int):
    cells, ax, ay, aid, icell = idx
    n_addr = len(ax)
    n = len(mx)
    out_key = np.empty(min(k, n_addr) * n, dtype=np.int64)
    out_rank = np.empty_like(out_key)
    out_aid = np.empty_like(out_key)
    out_d2 = np.empty(len(out_key), dtype=np.float64)
    filled = 0
    # a non-finite point has no cell: it is ranked by _knn_all only
    fin = np.isfinite(mx) & np.isfinite(my)
    unres, bad = np.flatnonzero(fin), np.flatnonzero(~fin)
    own = np.zeros(n, dtype=np.int64)
    own[unres] = cell_of_xy(mx[unres], my[unres], icell)
    # Carried top-k candidates of the unresolved points (local point
    # index, index position, dist2) and each one's cumulative candidate
    # count: a ring doubling gathers only its new annulus and re-ranks it
    # together with the carried top-k, which ranks like the full block.
    c_pts = np.empty(0, dtype=np.int64)
    c_cand = np.empty(0, dtype=np.int64)
    c_d2 = np.empty(0, dtype=np.float64)
    seen = np.zeros(len(unres), dtype=np.int64)
    ring, inner = 1, -1
    while len(unres) and (2 * ring + 1) ** 2 < n_addr:
        px, py = mx[unres], my[unres]
        nb = neighbors_xy(own[unres], ring=ring, inner=inner)
        lo = np.searchsorted(cells, nb.ravel(), side="left")
        hi = np.searchsorted(cells, nb.ravel(), side="right")
        cnt = hi - lo
        b = nb.shape[1]
        pidx_block = np.repeat(np.arange(len(unres)), b)
        sel = cnt > 0
        reps, starts = cnt[sel], lo[sel]
        pts = np.repeat(pidx_block[sel], reps)
        # flat candidate positions: per-block ranges starts..starts+reps
        cand = flat_ranges(starts, reps)
        dx = px[pts] - ax[cand]
        dy = py[pts] - ay[cand]
        seen += np.bincount(pts, minlength=len(unres))
        pts = np.concatenate((c_pts, pts))
        cand = np.concatenate((c_cand, cand))
        d2 = np.concatenate((c_d2, dx * dx + dy * dy))
        # Filter-then-refine: group the rows by point (ring 1's are
        # already; carried rows sort in front of their point's annulus),
        # drop every row beyond its point's k-th dist2, lexsort the rest.
        g = np.argsort(pts, kind="stable")
        pts, cand, d2 = pts[g], cand[g], d2[g]
        keep = _within_kth(*segment_bounds(pts), d2, k)
        pts, cand, d2 = pts[keep], cand[keep], d2[keep]
        order = np.lexsort((aid[cand], d2, pts))
        spt = pts[order]
        scand = cand[order]
        sd2 = d2[order]
        firsts = np.ones(len(spt), dtype=bool)
        firsts[1:] = spt[1:] != spt[:-1]
        seg_start = np.maximum.accumulate(
            np.where(firsts, np.arange(len(spt)), 0))
        rank = np.arange(len(spt)) - seg_start
        top = rank < k
        # per-point found count + k-th (= worst kept) distance
        found = np.minimum(seen, k)
        worst = np.zeros(len(unres), dtype=np.float64)
        np.maximum.at(worst, spt[top], sd2[top])
        guarantee = (ring * icell) ** 2
        done = ((found >= min(k, n_addr)) & (worst < guarantee)) \
            | (seen >= n_addr)
        if done.any():
            emit = top & done[spt]
            m = int(emit.sum())
            sl = slice(filled, filled + m)
            out_key[sl] = keys[unres][spt[emit]]
            out_rank[sl] = rank[emit] + 1
            out_aid[sl] = aid[scand[emit]]
            out_d2[sl] = sd2[emit]
            filled += m
        carry = top & ~done[spt]
        c_pts = (np.cumsum(~done) - 1)[spt[carry]]
        c_cand = scand[carry]
        c_d2 = sd2[carry]
        seen = seen[~done]
        unres = unres[~done]
        ring, inner = 2 * ring, ring
    return _knn_all(idx, mx, my, keys, k, np.concatenate((unres, bad)),
                    (out_key, out_rank, out_aid, out_d2), filled)


def _knn_all(idx, mx, my, keys, k: int, unres, out, filled: int):
    """Finish ``_knn_batch``: rank the ``unres`` points against every
    address by the same (dist2, addr_id) order, chunked so no step
    exceeds MAX_PAIRS pairs, and return the filled output arrays.

    Each chunk's row bound is its k-th smallest dist2 (``np.partition``,
    which counts repeated values and orders NaN last); only the entries
    at or below it are lexsorted. At least k entries of a row are at or
    below its bound, so no entry above it is in the row's top k; a NaN
    bound (a NaN coordinate) keeps the whole row."""
    _, ax, ay, aid, _ = idx
    kk = min(k, len(ax))
    step = max(1, MAX_PAIRS // max(1, len(ax)))
    for i in range(0, len(unres) if kk else 0, step):
        u = unres[i:i + step]
        dx = mx[u][:, None] - ax[None, :]
        dy = my[u][:, None] - ay[None, :]
        d2 = dx * dx + dy * dy
        kth = np.partition(d2, kk - 1, axis=1)[:, kk - 1:kk]
        row, col = np.nonzero(~(d2 > kth))
        rd2 = d2[row, col]
        order = np.lexsort((aid[col], rd2, row))
        # every row keeps >= kk entries: its top kk open its sorted run
        top = order[np.searchsorted(row, np.arange(len(u)))[:, None]
                    + np.arange(kk)].ravel()
        sl = slice(filled, filled + len(u) * kk)
        out[0][sl] = np.repeat(keys[u], kk)
        out[1][sl] = np.tile(np.arange(1, kk + 1), len(u))
        out[2][sl] = aid[col[top]]
        out[3][sl] = rd2[top]
        filled = sl.stop
    return tuple(o[:filled] for o in out)


def knn_join(points_ds, addresses_ds, k: int = 3,
             cell_m: float = DEFAULT_KNN_CELL_M, x_col: str = "mx",
             y_col: str = "my", key_col: str = "doc_id"):
    """Dataset[(doc_id, rank, addr_id, dist2)] — the k nearest
    addresses per point, rank 1..k by (dist2, addr_id)."""
    import ray

    if isinstance(addresses_ds, pa.Table):
        addresses_ds = _TableDS(addresses_ds)
    if not isinstance(addresses_ds, _TableDS):
        n_addr = addresses_ds.count()
        assert n_addr <= BROADCAST_ADDR_LIMIT, (
            f"{n_addr} addresses exceed the broadcast bound; use the "
            "halo-shuffle plan (see module docstring)")
    ref = _compile_knn_index(addresses_ds, cell_m)

    def fn(batch: pa.Table) -> pa.Table:
        idx = ray.get(ref)  # zero-copy plasma read per task
        keys, rank, aids, d2 = _knn_batch(
            idx,
            batch.column(x_col).to_numpy(zero_copy_only=False),
            batch.column(y_col).to_numpy(zero_copy_only=False),
            batch.column(key_col).to_numpy(zero_copy_only=False), k)
        return pa.table({
            "doc_id": pa.array(keys, type=pa.int64()),
            "rank": pa.array(rank, type=pa.int64()),
            "addr_id": pa.array(aids, type=pa.int64()),
            "dist2": pa.array(d2, type=pa.float64()),
        })

    return points_ds.select_columns([key_col, x_col, y_col]) \
        .map_batches(fn, batch_format="pyarrow")
