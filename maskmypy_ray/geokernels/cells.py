"""Spatial cell index (H3-equivalent for this engine; SURVEY.md §7.1).

Two flavors:

* **Global lat/lon quadkey** — ``cell_of_latlon(lat, lon, res)``: row-major
  index over a 2^res x 2^res grid of the whole globe. This is the web-scale
  partitioning key (the ``north_star``'s "H3 cells, S2 fallback" — neither
  library is installed, so the index is a from-scratch equal-angle grid with
  the same role: co-locate nearby points for shuffle joins).
* **Planar meter grid** — ``cell_of_xy(x, y, cell_m)``: local grid over
  projected planar meters, used by the k-anonymity / kNN spatial joins where
  a metric cell size is needed (circle covers, halo rings).

Both are pure integer arithmetic so the DuckDB oracle can reproduce cell
assignments exactly.
"""

from __future__ import annotations

import numpy as np

# Offset so planar grid indices are non-negative for any |coordinate| < ~2^40 m.
_GRID_OFFSET = 1 << 20
# Row stride for packing (gx, gy) into one int64: supports gx, gy < 2^21.
_GRID_STRIDE = 1 << 21


def cell_of_latlon(lat: np.ndarray, lon: np.ndarray, res: int) -> np.ndarray:
    """Global cell id = iy * 2^res + ix over an equal-angle grid."""
    n = 1 << res
    ix = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / 360.0 * n).astype(np.int64)
    iy = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) / 180.0 * n).astype(np.int64)
    ix = np.clip(ix, 0, n - 1)
    iy = np.clip(iy, 0, n - 1)
    return iy * n + ix


def cell_of_xy(x: np.ndarray, y: np.ndarray, cell_m: float) -> np.ndarray:
    """Planar cell id over a ``cell_m``-meter grid (packed gx, gy)."""
    gx = np.floor(np.asarray(x, dtype=np.float64) / cell_m).astype(np.int64) + _GRID_OFFSET
    gy = np.floor(np.asarray(y, dtype=np.float64) / cell_m).astype(np.int64) + _GRID_OFFSET
    return gy * _GRID_STRIDE + gx


def cell_xy_components(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cell = np.asarray(cell, dtype=np.int64)
    return cell % _GRID_STRIDE - _GRID_OFFSET, cell // _GRID_STRIDE - _GRID_OFFSET


def neighbors_xy(cell: np.ndarray, ring: int = 1,
                 inner: int = -1) -> np.ndarray:
    """All cells within ``ring`` grid steps of each input cell (incl. self).
    With ``inner >= 0``, only the annulus of Chebyshev distance in
    (inner, ring]: the cells a kNN ring doubling adds.

    Shape: (len(cell), (2*ring+1)**2), less (2*inner+1)**2 with an
    ``inner``. Used for halo replication in kNN / nnd joins (SURVEY.md
    §2.2 A8).
    """
    cell = np.asarray(cell, dtype=np.int64).reshape(-1, 1)
    k = 2 * ring + 1
    dx = np.tile(np.arange(-ring, ring + 1, dtype=np.int64), k)
    dy = np.repeat(np.arange(-ring, ring + 1, dtype=np.int64), k)
    if inner >= 0:
        keep = np.maximum(np.abs(dx), np.abs(dy)) > inner
        dx, dy = dx[keep], dy[keep]
    return cell + dy * _GRID_STRIDE + dx


def cover_circle_xy(
    x: np.ndarray, y: np.ndarray, radius: np.ndarray, cell_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cells overlapping each point's circle of per-point ``radius``.

    Returns (row_index, cell_id) pairs — a flat expansion suitable for a
    ``flat_map``-style explode before a ``groupby(cell)`` shuffle (the A3
    k-anonymity join, SURVEY.md §2.2). Cover is the bounding-box cover of
    the circle: complete (may include a few extra cells, which the exact
    distance filter later discards).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), x.shape)
    gx0 = np.floor((x - radius) / cell_m).astype(np.int64) + _GRID_OFFSET
    gx1 = np.floor((x + radius) / cell_m).astype(np.int64) + _GRID_OFFSET
    gy0 = np.floor((y - radius) / cell_m).astype(np.int64) + _GRID_OFFSET
    gy1 = np.floor((y + radius) / cell_m).astype(np.int64) + _GRID_OFFSET
    w = (gx1 - gx0 + 1).astype(np.int64)
    h = (gy1 - gy0 + 1).astype(np.int64)
    # Padded-grid vectorization: every point gets a wmax x hmax candidate
    # grid in ONE (n, K) array; cells beyond the point's own (w, h) are
    # masked out. Single pass, no per-shape loops.
    if len(x) and int(w.max() * h.max()) <= 4096:
        wmax = int(w.max())
        hmax = int(h.max())
        di = np.tile(np.arange(wmax, dtype=np.int64), hmax)  # (K,)
        dj = np.repeat(np.arange(hmax, dtype=np.int64), wmax)
        cells_full = (gy0[:, None] + dj[None, :]) * _GRID_STRIDE \
            + (gx0[:, None] + di[None, :])
        valid = (di[None, :] < w[:, None]) & (dj[None, :] < h[:, None])
        row_idx, col = np.nonzero(valid)
        return row_idx, cells_full[row_idx, col]
    # Degenerate huge-radius path: plain loop.
    cells = []
    rows = []
    for r in range(len(x)):
        gx = np.arange(gx0[r], gx1[r] + 1, dtype=np.int64)
        gy = np.arange(gy0[r], gy1[r] + 1, dtype=np.int64)
        cc = (gy[:, None] * _GRID_STRIDE + gx[None, :]).ravel()
        cells.append(cc)
        rows.append(np.full(len(cc), r, dtype=np.int64))
    return (
        np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
        np.concatenate(cells) if cells else np.empty(0, dtype=np.int64),
    )
