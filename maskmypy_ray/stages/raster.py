"""Raster↔vector operators (north_rule: "H3/S2 index, point-in-polygon,
kNN, raster↔vector").

* :func:`rasterize_points` — vector→raster: bin points into a fixed
  ``W x H`` grid over the fixture bbox (the privacy-product view: a
  masked-point density raster is what a geomasking pipeline actually
  publishes). Out-of-bbox points (donut offsets can leave the bbox)
  clip into the border cells.
* :func:`zonal_stats` — raster→vector: aggregate the raster back onto
  the census polygons by locating each cell CENTER with the engine's
  general crossing-number PIP kernel (`geokernels/pip.py`). The SQL
  twin locates centers with the grid's closed-form floor arithmetic
  (`oracle.grid_pid`) — two independent PIP implementations must agree
  on every cell.

The raster resolution (48 x 40) is deliberately NOT an integer
multiple of the polygon grid (6 x 4), so no cell center ever lands on
a polygon edge: (i + 0.5) * 6 / 48 = (i + 0.5) / 8 is never an
integer, keeping the crossing-number vs floor-division comparison
tie-free.

Reference counterpart: none (the reference has no raster surface);
the polygon side mirrors `maskmypy/analysis.py:563-579`'s population
layer.

Scale shape: rasterization is per-batch ``np.bincount`` partials into
a BOUNDED key space (W*H cells) followed by a few-key groupby — the
same pre-aggregated-partials plan as the sketches; zonal stats is a
stateless map over the (bounded) raster plus one tiny groupby. At
10^12 rows nothing here grows with the corpus except the streaming
histogram pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..constants import X_MAX, X_MIN, Y_MAX, Y_MIN

RASTER_W = 48
RASTER_H = 40


def _cell_size(w: int, h: int) -> tuple[float, float]:
    return (X_MAX - X_MIN) / w, (Y_MAX - Y_MIN) / h


def rasterize_points(points_ds, x_col: str = "mx", y_col: str = "my",
                     w: int = RASTER_W, h: int = RASTER_H):
    """Dataset[(cell_row, cell_col, n)] — 2D point-density histogram
    over the fixture bbox; only non-empty cells are emitted."""
    from ray.data.aggregate import Sum

    rw, rh = _cell_size(w, h)

    def part(b: pa.Table) -> pa.Table:
        x = b.column(x_col).to_numpy(zero_copy_only=False)
        y = b.column(y_col).to_numpy(zero_copy_only=False)
        col = np.clip(np.floor((x - X_MIN) / rw).astype(np.int64), 0, w - 1)
        row = np.clip(np.floor((y - Y_MIN) / rh).astype(np.int64), 0, h - 1)
        counts = np.bincount(row * w + col, minlength=w * h)
        nz = np.flatnonzero(counts)
        return pa.table({
            "cell": pa.array(nz, type=pa.int64()),
            "n": pa.array(counts[nz], type=pa.int64()),
        })

    def split(b: pa.Table) -> pa.Table:
        cell = b.column("cell").to_numpy(zero_copy_only=False)
        return pa.table({
            "cell_row": pa.array(cell // w, type=pa.int64()),
            "cell_col": pa.array(cell % w, type=pa.int64()),
            "n": b.column("sum(n)"),
        })

    return points_ds.select_columns([x_col, y_col]) \
        .map_batches(part, batch_format="pyarrow") \
        .groupby("cell").aggregate(Sum("n")) \
        .map_batches(split, batch_format="pyarrow")


def zonal_stats(raster_ds, w: int = RASTER_W, h: int = RASTER_H,
                seed: int = 42):
    """Dataset[(poly_id, n_cells, n_points)] — the raster aggregated
    onto the census polygons: each non-empty cell's CENTER is located
    with the general PIP kernel; cells outside every polygon would land
    on poly_id -1 (never happens here: the polygon grid tiles the
    bbox)."""
    from ray.data.aggregate import Sum

    from ..sources.boundary import boundary_polygon_set

    rw, rh = _cell_size(w, h)

    def assign(b: pa.Table) -> pa.Table:
        # PolygonSet is synthesized from constants (24 rectangles): its
        # grid index compiles in under a millisecond, cheaper per task
        # than a broadcast; locate is one vectorized pass over the centers
        ps = boundary_polygon_set(seed)
        row = b.column("cell_row").to_numpy(zero_copy_only=False)
        col = b.column("cell_col").to_numpy(zero_copy_only=False)
        cx = X_MIN + (col + 0.5) * rw
        cy = Y_MIN + (row + 0.5) * rh
        pid = ps.locate(cx, cy)
        return pa.table({
            "poly_id": pa.array(pid, type=pa.int64()),
            "n_cells": pa.array(np.ones(len(pid), dtype=np.int64)),
            "n_points": b.column("n"),
        })

    return raster_ds.map_batches(assign, batch_format="pyarrow") \
        .groupby("poly_id").aggregate(Sum("n_cells"), Sum("n_points")) \
        .map_batches(lambda b: pa.table({
            "poly_id": b.column("poly_id"),
            "n_cells": b.column("sum(n_cells)"),
            "n_points": b.column("sum(n_points)"),
        }), batch_format="pyarrow")


def hotspot_cells(raster_ds, w: int = RASTER_W, h: int = RASTER_H):
    """Dataset[(cell_row, cell_col, nbr_sum, w_nbrs, gi_micro)] —
    Getis-Ord Gi* hotspot z-scores over the density raster (Getis &
    Ord 1992/1995, binary 3x3 contiguity weights INCLUDING self,
    clipped at the grid edge), quantized to ``floor(1e6 * z)``.

    The spatial-statistics layer over :func:`rasterize_points`: a
    masked-point density raster's publishable companion is "which
    tiles are significantly denser than chance" — Gi* > ~1.96e6 micro
    flags the hot tiles.

    Scale shape: the raster is BOUNDED (w*h cells) by construction,
    so the dense grid compiles in ONE Ray task from the raster's
    arrow refs (never the driver) and broadcasts; the z computation
    is a stateless vectorized map over row strips. Nothing grows with
    the corpus — only the upstream histogram pass streams.

    Float parity: every IEEE op (two exact-integer->double divisions,
    one sqrt each for S and the weight variance, one multiply/subtract
    chain) is emitted in the identical order by the SQL twin, and the
    1e-6 quantization absorbs sub-ulp drift; all inputs (nbr_sum,
    w_nbrs, T, S2) are exact int64 sums. S == 0 (constant raster)
    yields gi_micro = 0 on both sides."""
    import ray

    @ray.remote
    def compile_grid(*blocks) -> np.ndarray:
        grid = np.zeros(h * w, dtype=np.int64)
        for b in blocks:
            if isinstance(b, list):  # block of arrow tables
                tabs = b
            else:
                tabs = [b]
            for t in tabs:
                r = t.column("cell_row").to_numpy(zero_copy_only=False)
                c = t.column("cell_col").to_numpy(zero_copy_only=False)
                n = t.column("n").to_numpy(zero_copy_only=False)
                grid[r * w + c] += n
        return grid

    ref = compile_grid.remote(*raster_ds.to_arrow_refs())

    def strip(batch) -> pa.Table:
        rows = batch.column("id").to_numpy(zero_copy_only=False)
        grid = ray.get(ref).reshape(h, w)
        N = w * h
        T = int(grid.sum())
        S2 = int((grid.astype(object) * grid.astype(object)).sum())
        mean = np.float64(T) / N
        S = np.sqrt(np.float64(S2) / N - mean * mean)
        # padded 3x3 sums (values and valid-neighbor counts)
        pv = np.zeros((h + 2, w + 2), dtype=np.int64)
        pv[1:-1, 1:-1] = grid
        pc_ = np.zeros((h + 2, w + 2), dtype=np.int64)
        pc_[1:-1, 1:-1] = 1
        nbr = np.zeros((h, w), dtype=np.int64)
        cnt = np.zeros((h, w), dtype=np.int64)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                nbr += pv[dr:dr + h, dc:dc + w]
                cnt += pc_[dr:dr + h, dc:dc + w]
        out_r, out_c, out_s, out_w, out_g = [], [], [], [], []
        for r in rows:
            ns = nbr[r]
            wn = cnt[r]
            num = ns.astype(np.float64) - mean * wn.astype(np.float64)
            var = (N * wn - wn * wn).astype(np.float64) / np.float64(N - 1)
            den = S * np.sqrt(var)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = num / den
            gi = np.where(den == 0.0, 0,
                          np.floor(1e6 * z)).astype(np.int64)
            out_r.append(np.full(w, r, dtype=np.int64))
            out_c.append(np.arange(w, dtype=np.int64))
            out_s.append(ns)
            out_w.append(wn)
            out_g.append(gi)
        return pa.table({
            "cell_row": pa.array(np.concatenate(out_r), type=pa.int64()),
            "cell_col": pa.array(np.concatenate(out_c), type=pa.int64()),
            "nbr_sum": pa.array(np.concatenate(out_s), type=pa.int64()),
            "w_nbrs": pa.array(np.concatenate(out_w), type=pa.int64()),
            "gi_micro": pa.array(np.concatenate(out_g), type=pa.int64()),
        })

    import ray.data

    return ray.data.range(h, override_num_blocks=4).map_batches(
        strip, batch_format="pyarrow")
