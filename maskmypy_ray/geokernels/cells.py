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

from ..util import segment_bounds

# Offset so planar grid indices are non-negative for any |coordinate| < ~2^40 m.
_GRID_OFFSET = 1 << 20
# Row stride for packing (gx, gy) into one int64: supports gx, gy < 2^21.
_GRID_STRIDE = 1 << 21
# Cap on one pairwise step's rows x columns (~32 MB per float64 temp).
MAX_PAIRS = 4_000_000


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


def halo_of_xy(x: np.ndarray, y: np.ndarray,
               cell_m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3x3 halo replication of a cell self-join: ``(rep, cell,
    home)``, nine rows per point — ``rep`` the point's row, ``cell`` one
    of its ring cells, ``home`` True on the one copy in its own cell.
    Every point within ``cell_m`` of a point lives in a cell its home
    copy shares with that point's halo copies."""
    own = cell_of_xy(x, y, cell_m)
    nb = neighbors_xy(own, ring=1)
    rep = np.repeat(np.arange(len(own)), nb.shape[1])
    return rep, nb.ravel(), (nb == own[:, None]).ravel()


def halo_rows(batch, cell_m: float, x_col: str, y_col: str, key_col: str):
    """``(rep, table)``: a point batch's :func:`halo_of_xy` replication
    as the int64/float64 ``(cell, key, px, py, home)`` rows a cell
    self-join sorts by ``cell``; ``rep`` maps each row to its batch row,
    for callers that carry more columns."""
    import pyarrow as pa

    x = batch.column(x_col).to_numpy(zero_copy_only=False)
    y = batch.column(y_col).to_numpy(zero_copy_only=False)
    keys = batch.column(key_col).to_numpy(zero_copy_only=False)
    rep, cell, home = halo_of_xy(x, y, cell_m)
    return rep, pa.table({
        "cell": pa.array(cell, type=pa.int64()),
        "key": pa.array(keys[rep].astype(np.int64), type=pa.int64()),
        "px": pa.array(x[rep], type=pa.float64()),
        "py": pa.array(y[rep], type=pa.float64()),
        "home": pa.array(home),
    })


def halo_pair_d2(cell: np.ndarray, core: np.ndarray, x: np.ndarray,
                 y: np.ndarray, key: np.ndarray | None = None,
                 cand: np.ndarray | None = None):
    """The pair loop of a cell self-join over rows sorted by ``cell``:
    every ``core`` row against every row of its cell segment (only the
    ``cand`` rows, when given), as squared distances. Yields ``(ci, gi,
    d2)`` with ``d2[i, j]`` the squared distance of row ``ci[i]`` to row
    ``gi[j]``; a segment's core rows are chunked so no ``d2`` exceeds
    MAX_PAIRS elements. With ``key``, pairs of equal key (a point and
    itself) get ``inf``."""
    starts, ends = segment_bounds(cell)
    for s, e in zip(starts.tolist(), ends.tolist()):
        ci = s + np.flatnonzero(core[s:e])
        gi = np.arange(s, e) if cand is None \
            else s + np.flatnonzero(cand[s:e])
        if not len(ci) or not len(gi):
            continue
        gx, gy = x[gi], y[gi]
        step = max(1, MAX_PAIRS // len(gi))
        for i in range(0, len(ci), step):
            c = ci[i:i + step]
            d2 = (x[c, None] - gx[None, :]) ** 2 \
                + (y[c, None] - gy[None, :]) ** 2
            if key is not None:
                d2[key[c, None] == key[gi][None, :]] = np.inf
            yield c, gi, d2


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
