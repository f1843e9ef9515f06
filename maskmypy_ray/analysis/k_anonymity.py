"""k-anonymity (A2/A3/A4).

A3 — address-based ``calculate_k`` (`/root/reference/maskmypy/analysis.py:
582-596`): each masked point is buffered by its own displacement distance;
k = (# addresses inside the buffer) + 1; no addresses -> k = 1.

Deviation from the reference (documented): the reference's "buffer" is
shapely's inscribed 32-gon circle approximation, whose float artifacts
decide boundary cases (its own golden tests rely on ``sin(pi)=1.2e-16``
excluding the due-west boundary address). This engine uses the
mathematically exact circle predicate ``dist <= d``; the ported golden
tests carry exact-circle expectations and the DuckDB oracle uses the
identical predicate, so engine/oracle agree bit-for-bit.

Distributed shape (SURVEY.md §2.2 A3), single shuffle: the grid cell is
sized >= the max displacement radius, addresses are replicated into their
3x3 halo ring, points stay in their own cell, and ONE ``sort("cell")``
co-locates every point with all addresses it could count (a cell never
spans two sorted blocks); one vectorized kernel per whole block emits
final k values. Optional salting splits each cell's points into ``salt``
subgroups (addresses replicated per subgroup) to cap hot-cell skew.

A4 — polygon/areal ``estimate_k`` (`analysis.py:524-539,563-579`):
k = floor(sum over polygons of pop * area(circle ∩ polygon)/area(polygon)).
Small polygon side is broadcast (``ray.put``) into an actor pool; the
circle∩polygon area uses an exact Green's-theorem kernel (not the
reference's 32-gon approximation — same deviation note as above).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geokernels.cells import (MAX_PAIRS, cell_of_xy, cover_circle_xy,
                               halo_of_xy)
from ..geokernels.pip import PolygonSet
from ..util import flat_ranges, segment_map

DEFAULT_CELL_M = 500.0


def _point_cell_batch(batch: pa.Table, cell_m: float, salt: int,
                      key_col: str) -> pa.Table:
    keys = batch.column(key_col).to_numpy(zero_copy_only=False)
    mx = batch.column("mx").to_numpy(zero_copy_only=False)
    my = batch.column("my").to_numpy(zero_copy_only=False)
    d = batch.column("_distance").to_numpy(zero_copy_only=False)
    if len(d) and float(np.max(d)) > cell_m:
        raise ValueError(
            f"displacement {float(np.max(d)):.1f} m exceeds cell size {cell_m} m; "
            "pass a larger cell_m (or cell_m=None for auto)")
    cell = cell_of_xy(mx, my, cell_m)
    return pa.table({
        "cell": pa.array(cell * salt + (keys % salt), type=pa.int64()),
        "is_addr": pa.array(np.zeros(len(keys), dtype=np.int8)),
        "key": pa.array(keys, type=pa.int64()),
        "px": pa.array(mx, type=pa.float64()),
        "py": pa.array(my, type=pa.float64()),
        "d": pa.array(d, type=pa.float64()),
    })


def _addr_halo_batch(batch: pa.Table, cell_m: float, salt: int) -> pa.Table:
    if "ax" in batch.column_names:
        ax = batch.column("ax").to_numpy(zero_copy_only=False)
        ay = batch.column("ay").to_numpy(zero_copy_only=False)
    else:
        from ..geokernels.geometry import latlon_to_xy

        ax, ay = latlon_to_xy(batch.column("lat").to_numpy(zero_copy_only=False),
                              batch.column("lon").to_numpy(zero_copy_only=False))
    rep, cells, _ = halo_of_xy(ax, ay, cell_m)
    tables = []
    for s in range(salt):
        tables.append(pa.table({
            "cell": pa.array(cells * salt + s, type=pa.int64()),
            "is_addr": pa.array(np.ones(len(rep), dtype=np.int8)),
            "key": pa.array(np.full(len(rep), -1, dtype=np.int64)),
            "px": pa.array(ax[rep], type=pa.float64()),
            "py": pa.array(ay[rep], type=pa.float64()),
            "d": pa.array(np.zeros(len(rep)), type=pa.float64()),
        }))
    return pa.concat_tables(tables)


class _TableDS:
    """Minimal Dataset-shim for a driver-side pyarrow address table."""

    def __init__(self, table):
        self.table = table

    def to_pandas(self):
        return self.table.to_pandas()

    def map_batches(self, fn, **kwargs):
        import ray.data

        return ray.data.from_arrow(self.table).map_batches(fn, **kwargs)


def count_by_cell(idx, mx: np.ndarray, my: np.ndarray, d: np.ndarray,
                  row: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per point, the indexed addresses inside its circle (exact
    ``dx*dx + dy*dy <= d*d``) among the cells the flat (``row``,
    ``cells``) pairs list for it, each cell at most once per point.

    ``idx`` = ``(cell_sorted, order, ax, ay, ...)``: cell c's addresses
    are ``order[lo:hi]`` where ``cell_sorted[lo:hi] == c``. Each occupied
    cell's addresses are tested once against ALL points listing it, as
    small cache-resident P x A blocks (a flat gather was memory-bound and
    anti-scaled past ~8 cores); a hot cell's block is split over its
    points to stay within MAX_PAIRS pairs."""
    cell_sorted, order, ax, ay = idx[:4]
    cnt = np.zeros(len(mx), dtype=np.int64)
    sorter = np.argsort(cells, kind="stable")
    rows_s = row[sorter]
    uniq, starts = np.unique(cells[sorter], return_index=True)
    lo = np.searchsorted(cell_sorted, uniq, side="left")
    hi = np.searchsorted(cell_sorted, uniq, side="right")
    ends = np.append(starts[1:], len(rows_s))
    occ = np.nonzero(hi > lo)[0]
    for s, e, a, b in zip(starts[occ].tolist(), ends[occ].tolist(),
                          lo[occ].tolist(), hi[occ].tolist()):
        sel = order[a:b]
        gx, gy = ax[sel][None, :], ay[sel][None, :]
        step = max(1, MAX_PAIRS // (b - a))
        for i in range(s, e, step):
            pr = rows_s[i:min(i + step, e)]
            dx = gx - mx[pr][:, None]
            dy = gy - my[pr][:, None]
            dx *= dx  # in place: two pair matrices live, not four
            dy *= dy
            dx += dy
            cnt[pr] += (dx <= (d[pr] * d[pr])[:, None]).sum(axis=1)
    return cnt


def count_in_circles(idx, mx: np.ndarray, my: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """Count addresses within each point's own circle against the
    compiled broadcast cell index, searching the circle's cover cells.
    Works at the index's coordinate dtype (float32 in the fused bench
    path, float64 everywhere else)."""
    row, cells = cover_circle_xy(mx, my, d, idx[4])
    return count_by_cell(idx, mx, my, d, row, cells)


def _count_cell_block(block: pa.Table, key_col: str) -> pa.Table:
    """Shuffle-plan kernel over one whole ``sort("cell")`` output block.
    Every cell's point rows and halo-replicated address rows share the
    block, so each point's own (salted) cell is its single cover cell.
    An address-only block yields a typed empty table."""
    def col(name):
        return block.column(name).to_numpy(zero_copy_only=False)

    is_addr = col("is_addr") == 1
    pt, ad = np.nonzero(~is_addr)[0], np.nonzero(is_addr)[0]
    cell, px, py = col("cell"), col("px"), col("py")
    order = ad[np.argsort(cell[ad], kind="stable")]
    # the index reads the block's own columns: no per-address copies
    idx = (cell[order], order, px, py)
    cnt = count_by_cell(idx, px[pt], py[pt], col("d")[pt],
                        np.arange(len(pt)), cell[pt])
    return pa.table({key_col: pa.array(col("key")[pt], type=pa.int64()),
                     "k_anonymity": pa.array(cnt + 1, type=pa.int64())})


class BroadcastKCounter:
    """Zero-shuffle k path: the cell-bucketed address index is broadcast
    (``ray.put``) and each actor counts within-radius addresses per point
    from its circle's cover cells. Right whenever the address side fits in
    the object store (the common census/address case); the halo-shuffle
    path below covers the both-sides-huge regime."""

    def __init__(self, index_ref, key_col: str = "doc_id", append: bool = False):
        import ray

        self.idx = ray.get(index_ref) if not isinstance(index_ref, tuple) else index_ref
        self.key_col = key_col
        self.append = append

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        mx = batch.column("mx").to_numpy(zero_copy_only=False)
        my = batch.column("my").to_numpy(zero_copy_only=False)
        d = batch.column("_distance").to_numpy(zero_copy_only=False)
        cnt = count_in_circles(self.idx, mx, my, d)
        k_col = pa.array(cnt + 1, type=pa.int64())
        if self.append:
            # Fused plan: k rides along with the full masked batch, so
            # downstream stages (suppress, street_k) never re-join it.
            return batch.append_column("k_anonymity", k_col)
        return pa.table({
            self.key_col: pa.array(keys, type=pa.int64()),
            "k_anonymity": k_col,
        })


def _compile_index_from_table(table: pa.Table, cell_m: float, dtype=None):
    from ..geokernels.geometry import latlon_to_xy

    if "ax" in table.column_names:
        ax = table.column("ax").to_numpy(zero_copy_only=False)
        ay = table.column("ay").to_numpy(zero_copy_only=False)
    else:
        ax, ay = latlon_to_xy(table.column("lat").to_numpy(zero_copy_only=False),
                              table.column("lon").to_numpy(zero_copy_only=False))
    if dtype is not None:
        # fused bench path: float32 address coords keep the hot count
        # kernel's P x A blocks half-width (driver queries stay float64)
        ax = ax.astype(dtype)
        ay = ay.astype(dtype)
    # Index cell == the max circle radius: each circle covers at most a
    # 3x3 block of index cells. A finer index (cell_m/4) shrinks the
    # candidate set per point, but the per-cover-cell loop overhead
    # dominates: measured 8.1s (cell_m/4) vs 1.5s (cell_m) per 280k
    # points on the sf0.1 address density, round 2.
    index_cell = max(cell_m, 50.0)
    cells = cell_of_xy(ax, ay, index_cell)
    order = np.argsort(cells, kind="stable")
    return (cells[order], order.astype(np.int64), ax, ay, index_cell)


def _compile_index_remote(addresses_ds, cell_m: float, dtype=None):
    """Compile the broadcast cell index in a Ray TASK (not the driver):
    the address blocks stream from the object store into the task, and
    the compiled index lands back in the object store as the task's
    output ref — the driver never holds either copy, and the (sort-
    dominated) compile runs off the driver's scheduling thread
    (VERDICT r01 #8 serial-prefix shrink)."""
    import ray

    @ray.remote(num_cpus=1)
    def compile_task(*blocks):
        tbl = pa.concat_tables([b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                                for b in blocks])
        return _compile_index_from_table(tbl, cell_m, dtype=dtype)

    if isinstance(addresses_ds, _TableDS):
        return compile_task.remote(ray.put(addresses_ds.table))
    refs = addresses_ds.to_arrow_refs()
    return compile_task.remote(*refs)


BROADCAST_ADDR_LIMIT = 5_000_000


def calculate_k(masked_ds, addresses_ds, cell_m: float | None = None,
                salt: int = 1, key_col: str = "doc_id", mode: str = "auto",
                append: bool = False):
    """Address-based k-anonymity -> Dataset[(doc_id, k_anonymity)], or —
    with ``append=True`` — the full masked Dataset with a ``k_anonymity``
    column fused in (broadcast plan only: the zero-shuffle path computes k
    per input batch in order, so appending is free and downstream stages
    need no re-join).

    ``masked_ds`` must carry mx, my, _distance (run displacement() first).

    Two physical plans, same exact predicate:

    * ``broadcast`` (zero shuffle) — when the address side is small
      enough to broadcast (< BROADCAST_ADDR_LIMIT rows), a cell-bucketed
      index is ``ray.put`` once and a stateless actor pool counts per
      point from the circle's cover cells.
    * ``shuffle`` — ONE ``sort("cell")``: the cell size is >= the max
      displacement radius (auto: one Max aggregate), so every address
      within a point's circle lies in the 3x3 halo of the point's own
      cell; addresses replicate into their halo (9x [x salt]), points
      stay in one (cell [, salt]) key, and one vectorized kernel per
      sorted block completes k for all its cells (``count_by_cell``,
      the loop the broadcast plan runs too).

    ``mode="auto"`` picks broadcast when the address count is known small.
    """
    if isinstance(addresses_ds, pa.Table):
        # Small side handed directly as an Arrow table: skip the Ray
        # count/collect passes entirely.
        if mode == "auto":
            mode = "broadcast"
        addresses_ds = _TableDS(addresses_ds)
    elif mode == "auto":
        n_addr = addresses_ds.count()
        mode = "broadcast" if n_addr <= BROADCAST_ADDR_LIMIT else "shuffle"
    if append and mode != "broadcast":
        raise ValueError(
            "append=True requires the broadcast plan (the shuffle plan "
            "reorders rows; join its (key, k) output back instead)")
    if cell_m is None:
        from ray.data.aggregate import Max

        dmax = masked_ds.aggregate(Max("_distance"))["max(_distance)"] or 0.0
        cell_m = max(DEFAULT_CELL_M, float(dmax))
    if mode == "broadcast":
        ref = _compile_index_remote(addresses_ds, cell_m)

        # Stateless tasks, not an actor pool: the broadcast index lives in
        # the object store and each task's ray.get is a zero-copy mmap of
        # the shared numpy arrays, so there is no per-actor state to
        # amortize — and task pools scale to every free CPU instantly
        # (the autoscaling actor pool ramped too slowly to matter).
        def count(batch: pa.Table) -> pa.Table:
            return BroadcastKCounter(ref, key_col=key_col, append=append)(batch)

        # Chunking happens INSIDE the function (4096-row zero-copy
        # slices keep per-call allocations in reused malloc pools — this
        # sandbox's first-touch page faults are slow). Never via Ray's
        # batch_size here: on a fused lazy chain Ray bundles tasks by
        # PRE-expansion input rows, which once serialized this stage
        # into two giant tasks.
        def count_chunked(batch: pa.Table) -> pa.Table:
            if batch.num_rows <= 4096:
                return count(batch)
            outs = [count(batch.slice(i, 4096))
                    for i in range(0, batch.num_rows, 4096)]
            return pa.concat_tables(outs)

        return masked_ds.map_batches(count_chunked, batch_format="pyarrow")
    pts = masked_ds.map_batches(
        lambda b: _point_cell_batch(b, cell_m, salt, key_col), batch_format="pyarrow")
    adr = addresses_ds.map_batches(
        lambda b: _addr_halo_batch(b, cell_m, salt), batch_format="pyarrow")
    return segment_map(pts.union(adr), "cell",
                       lambda b: _count_cell_block(b, key_col),
                       pa.schema([(key_col, pa.int64()),
                                  ("k_anonymity", pa.int64())]))


# ---------------------------------------------------------------------------
# A4: areal (polygon population) estimate
# ---------------------------------------------------------------------------


def circle_polygon_area_exact(cx: float, cy: float, r: float,
                              rx: np.ndarray, ry: np.ndarray) -> float:
    """Exact area of circle((cx,cy), r) ∩ simple polygon (Green's theorem).

    Each directed polygon edge contributes either a triangle term (portion
    inside the circle) or a circular-sector term (portion outside); the
    signed sum is the intersection area. Classic computational-geometry
    identity; exact up to float rounding.
    """
    if r <= 0:
        return 0.0
    ax = np.asarray(rx, dtype=np.float64) - cx
    ay = np.asarray(ry, dtype=np.float64) - cy
    n = len(ax)
    if n < 3:
        return 0.0
    total = 0.0
    r2 = r * r

    def sector(p, q):
        # signed angle sector contribution r^2/2 * atan2(cross, dot)
        cr = p[0] * q[1] - p[1] * q[0]
        dt = p[0] * q[0] + p[1] * q[1]
        return 0.5 * r2 * np.arctan2(cr, dt)

    def triangle(p, q):
        return 0.5 * (p[0] * q[1] - p[1] * q[0])

    for i in range(n):
        p = (ax[i], ay[i])
        q = (ax[(i + 1) % n], ay[(i + 1) % n])
        dx, dy = q[0] - p[0], q[1] - p[1]
        a = dx * dx + dy * dy
        if a == 0:
            continue
        b = 2.0 * (p[0] * dx + p[1] * dy)
        c = p[0] * p[0] + p[1] * p[1] - r2
        disc = b * b - 4 * a * c
        pin = c <= 0
        q_c = q[0] * q[0] + q[1] * q[1] - r2
        qin = q_c <= 0
        if pin and qin:
            total += triangle(p, q)
        elif disc <= 0:
            total += sector(p, q)
        else:
            sq = np.sqrt(disc)
            t1 = (-b - sq) / (2 * a)
            t2 = (-b + sq) / (2 * a)
            pieces = []  # (point, is_arc_entry)
            m1 = (p[0] + t1 * dx, p[1] + t1 * dy)
            m2 = (p[0] + t2 * dx, p[1] + t2 * dy)
            if pin and not qin:
                # leaves the circle at t2
                tt = min(max(t2, 0.0), 1.0)
                m = (p[0] + tt * dx, p[1] + tt * dy)
                total += triangle(p, m) + sector(m, q)
            elif not pin and qin:
                tt = min(max(t1, 0.0), 1.0)
                m = (p[0] + tt * dx, p[1] + tt * dy)
                total += sector(p, m) + triangle(m, q)
            else:
                # both outside; may pass through the circle
                if 0.0 < t1 < 1.0 and 0.0 < t2 < 1.0 and t1 < t2:
                    total += sector(p, m1) + triangle(m1, m2) + sector(m2, q)
                else:
                    total += sector(p, q)
    return abs(total)


def _edge_contrib(px: np.ndarray, py: np.ndarray, qx: np.ndarray,
                  qy: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-edge Green's-theorem contribution to area(circle ∩ polygon),
    vectorized over a flat edge array (coordinates relative to each
    edge's circle center, per-edge radius ``r``). Branch logic mirrors
    :func:`circle_polygon_area_exact` case-for-case; all five cases are
    computed arraywise and selected with ``np.where``."""
    r2 = r * r
    dx = qx - px
    dy = qy - py
    a = dx * dx + dy * dy
    safe_a = np.where(a > 0, a, 1.0)
    b = 2.0 * (px * dx + py * dy)
    c = px * px + py * py - r2
    disc = b * b - 4 * a * c
    pin = c <= 0
    qin = (qx * qx + qy * qy - r2) <= 0
    tri_pq = 0.5 * (px * qy - py * qx)
    sec_pq = 0.5 * r2 * np.arctan2(px * qy - py * qx, px * qx + py * qy)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = (-b - sq) / (2 * safe_a)
    t2 = (-b + sq) / (2 * safe_a)
    # case pin & !qin: leaves the circle at clip(t2)
    tt = np.minimum(np.maximum(t2, 0.0), 1.0)
    m3x, m3y = px + tt * dx, py + tt * dy
    c3 = 0.5 * (px * m3y - py * m3x) \
        + 0.5 * r2 * np.arctan2(m3x * qy - m3y * qx, m3x * qx + m3y * qy)
    # case !pin & qin: enters at clip(t1)
    tt = np.minimum(np.maximum(t1, 0.0), 1.0)
    m4x, m4y = px + tt * dx, py + tt * dy
    c4 = 0.5 * r2 * np.arctan2(px * m4y - py * m4x, px * m4x + py * m4y) \
        + 0.5 * (m4x * qy - m4y * qx)
    # case both outside, chord passes through the circle
    m1x, m1y = px + t1 * dx, py + t1 * dy
    m2x, m2y = px + t2 * dx, py + t2 * dy
    through = (t1 > 0.0) & (t1 < 1.0) & (t2 > 0.0) & (t2 < 1.0) & (t1 < t2)
    c5 = 0.5 * r2 * np.arctan2(px * m1y - py * m1x, px * m1x + py * m1y) \
        + 0.5 * (m1x * m2y - m1y * m2x) \
        + 0.5 * r2 * np.arctan2(m2x * qy - m2y * qx, m2x * qx + m2y * qy)
    out = np.where(pin & qin, tri_pq,
                   np.where(disc <= 0, sec_pq,
                            np.where(pin & ~qin, c3,
                                     np.where(~pin & qin, c4,
                                              np.where(through, c5, sec_pq)))))
    return np.where((a > 0) & (r > 0), out, 0.0)


class ArealKEstimator:
    """Actor-pool stage: broadcast population polygons; per point compute
    k = floor(sum pop_i * area(circle ∩ poly_i) / area(poly_i)).

    Vectorized edge-array kernel (VERDICT r01 #9): (point, polygon)
    candidate pairs come from one bbox-overlap matrix against the
    broadcast (small) polygon side; all pairs' edges are expanded into a
    single flat array, run through :func:`_edge_contrib` at once, and
    segment-summed with ``np.add.reduceat`` — no per-point/per-edge
    Python loops."""

    def __init__(self, polygons_ref, key_col: str = "doc_id"):
        import ray

        self.ps: PolygonSet = (
            ray.get(polygons_ref) if not isinstance(polygons_ref, PolygonSet) else polygons_ref
        )
        self.key_col = key_col
        self.areas = np.array([self.ps.area(i) for i in range(self.ps.n)])

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        mx = batch.column("mx").to_numpy(zero_copy_only=False)
        my = batch.column("my").to_numpy(zero_copy_only=False)
        d = batch.column("_distance").to_numpy(zero_copy_only=False)
        acc = np.zeros(len(mx), dtype=np.float64)
        ps = self.ps
        x0, y0, x1, y1 = ps.bbox
        if ps.pops is not None and len(mx):
            ov = ((x0[None, :] <= (mx + d)[:, None])
                  & (x1[None, :] >= (mx - d)[:, None])
                  & (y0[None, :] <= (my + d)[:, None])
                  & (y1[None, :] >= (my - d)[:, None])
                  & (self.areas > 0)[None, :])
            pj, pi = np.nonzero(ov)
            if len(pi):
                ec = ps.counts[pi]
                pstarts = np.concatenate([[0], np.cumsum(ec)])
                flat = flat_ranges(ps.starts[pi], ec)
                eop = np.repeat(np.arange(len(pi)), ec)  # edge -> pair
                cxe = mx[pj][eop]
                cye = my[pj][eop]
                contrib = _edge_contrib(ps.vx[flat] - cxe, ps.vy[flat] - cye,
                                        ps.qx[flat] - cxe, ps.qy[flat] - cye,
                                        d[pj][eop])
                pair_area = np.abs(np.add.reduceat(contrib, pstarts[:-1]))
                np.add.at(acc, pj, self.ps.pops[pi] * (pair_area / self.areas[pi]))
        k = np.floor(acc).astype(np.int64)
        return pa.table({
            self.key_col: pa.array(keys, type=pa.int64()),
            "k_anonymity": pa.array(k, type=pa.int64()),
        })


def estimate_k(masked_ds, polygons: PolygonSet, key_col: str = "doc_id"):
    """Areal k-anonymity -> Dataset[(doc_id, k_anonymity)] (broadcast side,
    no shuffle)."""
    import ray

    ref = ray.put(polygons)

    # Stateless tasks over broadcast polygons (see stages/donut.py note).
    def estimate(batch: pa.Table) -> pa.Table:
        return ArealKEstimator(ref, key_col=key_col)(batch)

    return masked_ds.map_batches(estimate, batch_format="pyarrow")


def k_anonymity(masked_ds, population, population_column: str = "pop",
                key_col: str = "doc_id", **kwargs):
    """Dispatch like the reference (`analysis.py:108-147`): address points
    -> calculate_k; PolygonSet -> estimate_k."""
    if isinstance(population, PolygonSet):
        if population.pops is None:
            raise ValueError(
                f"Cannot find population column {population_column} in population polygons")
        return estimate_k(masked_ds, population, key_col=key_col, **kwargs)
    return calculate_k(masked_ds, population, key_col=key_col, **kwargs)
