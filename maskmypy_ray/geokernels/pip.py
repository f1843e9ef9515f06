"""Point-in-polygon over flat numpy ring arrays.

From-scratch replacement for shapely's ``intersects`` as used by the donut
containment loop (`/root/reference/maskmypy/masks/donut.py:152-168`) and the
areal k-anonymity kernel. A :class:`PolygonSet` is compiled once (driver
side), broadcast via ``ray.put``, and queried inside ``map_batches`` tasks.

Algorithm: the set compiles once, in ``__init__``, so ``ray.put`` ships
the compiled form and no task rebuilds it: flat edge arrays (edge ``e``
runs from vertex ``(vx[e], vy[e])`` to the next vertex of its ring,
``(qx[e], qy[e])``), per-polygon bbox columns, and a uniform grid over the
set's extent, sized from the data (cells half the median bbox side, at
most ``4 * n`` cells). Each cell lists the polygons whose closed bbox
touches it, ascending, and each polygon its non-horizontal edges.
:meth:`locate` is one vectorized even-odd crossing-number pass over
(point, candidate polygon, edge) rows: grid cell per point -> candidates
-> closed bbox test -> the candidate's edges -> ``xint = ax + (y - ay) /
(by - ay) * (bx - ax)`` in float64 -> parity per pair -> the lowest
polygon index per point. It costs a fixed number of numpy calls per pass
of at most ``cells.MAX_PAIRS`` rows, however many polygons there are.
:meth:`contains` runs the same crossing kernel over one polygon's edges.
Points on an edge follow the half-open crossing rule (deterministic,
matches the oracle's arithmetic containment for the rectangular fixture
grid as long as points don't land exactly on grid lines — fixture draws
make that measure-zero).
"""

from __future__ import annotations

import numpy as np

from ..util import flat_ranges
from . import cells

# Grid cells per median polygon bbox side. A finer grid leaves fewer
# candidate polygons per point but a larger index: on the 24-rectangle
# fixture 2 and 4 ran alike and 1 ran ~15% slower at 90,000 points.
_GRID_SPLIT = 2


def _chunks(cost: np.ndarray):
    """``(s, e)`` row ranges of ``cost`` summing to at most
    ``cells.MAX_PAIRS`` each (a row that alone costs more stands
    alone)."""
    cum = np.cumsum(cost)
    s, done = 0, 0
    while s < len(cost):
        e = max(s + 1, int(np.searchsorted(cum, done + cells.MAX_PAIRS, side="right")))
        yield s, e
        s, done = e, int(cum[e - 1])


class PolygonSet:
    """Immutable compiled set of simple polygons (single outer ring each).

    Parameters
    ----------
    rings : list of (ring_x, ring_y) float64 array pairs, one per polygon,
        in vertex order (a closing vertex equal to the first is dropped).
    poly_ids : optional int64 ids (default 0..n-1).
    pops : optional per-polygon population counts (for areal k-anonymity).
    """

    def __init__(self, rings, poly_ids=None, pops=None):
        self.n = len(rings)
        self.poly_ids = (
            np.asarray(poly_ids, dtype=np.int64)
            if poly_ids is not None
            else np.arange(self.n, dtype=np.int64)
        )
        self.pops = np.asarray(pops, dtype=np.float64) if pops is not None else None
        xs, ys = [], []
        for rx, ry in rings:
            rx = np.asarray(rx, dtype=np.float64)
            ry = np.asarray(ry, dtype=np.float64)
            if len(rx) >= 2 and rx[0] == rx[-1] and ry[0] == ry[-1]:
                rx, ry = rx[:-1], ry[:-1]
            if not len(rx):
                raise ValueError("PolygonSet rings must have vertices")
            xs.append(rx)
            ys.append(ry)
        self.counts = np.array([len(rx) for rx in xs], dtype=np.int64)
        self.starts = np.concatenate([[0], np.cumsum(self.counts)])
        self.vx = np.concatenate(xs) if xs else np.empty(0)
        self.vy = np.concatenate(ys) if ys else np.empty(0)
        # edge e: (vx[e], vy[e]) -> (qx[e], qy[e]), the ring's next vertex
        nxt = np.arange(1, len(self.vx) + 1)
        nxt[self.starts[1:] - 1] = self.starts[:-1]
        self.qx, self.qy = self.vx[nxt], self.vy[nxt]
        first = self.starts[:-1]
        # bbox rows: xmin, ymin, xmax, ymax (one contiguous column each)
        self.bbox = np.stack([
            np.minimum.reduceat(self.vx, first), np.minimum.reduceat(self.vy, first),
            np.maximum.reduceat(self.vx, first), np.maximum.reduceat(self.vy, first),
        ]) if self.n else np.empty((4, 0))
        self._compile_grid()

    def _compile_grid(self) -> None:
        """The grid index: cells ``1 / _GRID_SPLIT`` of the median bbox
        side over the bboxes' extent, at most ``_GRID_SPLIT ** 2 * n`` of
        them (both sides shrink by one factor to fit).

        * ``ent_poly`` lists, cell by cell (``cell_start`` offsets), the
          polygons whose closed bbox touches the cell, ascending: a
          point's candidates, one entry each.
        * ``nh_edges`` holds the :meth:`_edge_rows` of every
          non-horizontal edge, polygon by polygon: polygon p's are
          columns ``nh_start[p]`` to ``nh_start[p] + nh_count[p]``. A
          horizontal edge never meets the crossing condition ``(ay > y)
          != (by > y)``, so it is left out.
        * ``cell_cost`` is a point's expansion rows in each cell
          (candidates plus their edges), for chunking.
        """
        self.g_n = np.ones(2, dtype=np.int64)  # columns, rows
        self.g_0 = np.zeros(2)
        self.g_step = np.ones(2)
        if self.n:
            lo, hi = self.bbox[:2].min(axis=1), self.bbox[2:].max(axis=1)
            cap = _GRID_SPLIT ** 2 * self.n
            side = np.ones(2)
            for d in (0, 1):
                med = np.median(self.bbox[d + 2] - self.bbox[d])
                if np.isfinite(hi[d] - lo[d]) and hi[d] > lo[d]:
                    side[d] = min(_GRID_SPLIT * (hi[d] - lo[d]) / med, cap) if med > 0 else cap
            if side.prod() > cap:
                side = np.floor(side * np.sqrt(cap / side.prod()))
            self.g_n = np.maximum(1, np.ceil(side)).astype(np.int64)
            split = self.g_n > 1
            self.g_0[split] = lo[split]
            self.g_step[split] = ((hi - lo) / self.g_n)[split]
        nx, ny = (int(v) for v in self.g_n)
        gx0, gx1 = self._grid(self.bbox[0], 0), self._grid(self.bbox[2], 0)
        gy0, gy1 = self._grid(self.bbox[1], 1), self._grid(self.bbox[3], 1)
        # (cell, polygon) entries of every bbox, sorted by cell then polygon
        w, size = gx1 - gx0 + 1, (gx1 - gx0 + 1) * (gy1 - gy0 + 1)
        poly = np.repeat(np.arange(self.n), size)
        k = flat_ranges(np.zeros(self.n, dtype=np.int64), size)
        cell = (gy0[poly] + k // w[poly]) * nx + gx0[poly] + k % w[poly]
        order = np.argsort(cell, kind="stable")
        self.ent_poly = poly[order]
        self.cell_start = np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=nx * ny))])
        edge = np.flatnonzero(self.vy != self.qy)
        self.nh_edges = self._edge_rows(edge)
        self.nh_count = np.bincount(np.repeat(np.arange(self.n), self.counts)[edge],
                                    minlength=self.n)
        self.nh_start = np.cumsum(self.nh_count) - self.nh_count
        ent_end = np.concatenate([[0], np.cumsum(self.nh_count[self.ent_poly])])
        self.cell_cost = np.diff(self.cell_start) + np.diff(ent_end[self.cell_start])

    def _grid(self, v: np.ndarray, d: int) -> np.ndarray:
        """Grid column (``d`` 0) or row (``d`` 1) of each coordinate,
        clamped into the grid (a NaN lands in column/row 0, and then fails
        every bbox test). One monotone expression for points and bbox
        corners alike, so a point inside a closed bbox always lies in one
        of the bbox's cells."""
        g = np.fmin(np.fmax((v - self.g_0[d]) / self.g_step[d], 0.0), self.g_n[d] - 1)
        return g.astype(np.int64)

    def _edge_rows(self, e: np.ndarray) -> np.ndarray:
        """Rows ax, ay, by, dx = bx - ax, dy = by - ay of edges ``e``."""
        return np.stack([self.vx[e], self.vy[e], self.qy[e],
                         self.qx[e] - self.vx[e], self.qy[e] - self.vy[e]])

    @staticmethod
    def _odd_crossings(px, py, ec, edges) -> np.ndarray:
        """Even-odd crossing number of point ``(px[j], py[j])`` against
        its ``ec[j]`` edges, the next ones of the :meth:`_edge_rows`
        columns ``edges``, for every pair j at once: does a rightward ray
        from the point cross each edge, at ``xint = ax + (y - ay) / (by -
        ay) * (bx - ax)``? Branch-free over the rows; ``xint`` only counts
        where ``cond`` holds, and there ``by != ay``."""
        ax, ay, by, dx, dy = edges
        px, py = np.repeat(px, ec), np.repeat(py, ec)
        cond = ay > py
        cond ^= by > py
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = py - ay
            xint /= dy
            xint *= dx
            xint += ax
        cond &= px < xint
        hits = np.zeros(len(cond) + 1, dtype=np.int64)
        np.cumsum(cond, out=hits[1:])
        end = np.cumsum(ec)
        return ((hits[end] - hits[end - ec]) & 1).astype(bool)

    def contains(self, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized crossing-number test of N points against polygon i."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        s = self.nh_start[i]
        edges = self.nh_edges[:, s:s + self.nh_count[i]]
        ne = edges.shape[1]
        out = np.zeros(len(x), dtype=bool)
        for a, b in _chunks(np.full(len(x), ne)):
            out[a:b] = self._odd_crossings(x[a:b], y[a:b], np.full(b - a, ne),
                                           np.tile(edges, b - a))
        return out

    def locate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Polygon id containing each point; -1 if none.

        The reference requires containers to be non-overlapping
        (`donut.py:158-161`); with overlap the lowest polygon index wins
        here — call :meth:`validate_nonoverlap` at build time to enforce.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.full(len(x), -1, dtype=np.int64)
        if not self.n:
            return out
        cell = self._grid(y, 1) * self.g_n[0] + self._grid(x, 0)
        x0, y0, x1, y1 = self.bbox
        for s, e in _chunks(self.cell_cost[cell]):
            lo = self.cell_start[cell[s:e]]
            cnt = self.cell_start[cell[s:e] + 1] - lo
            pt = np.repeat(np.arange(s, e), cnt)
            ent = flat_ranges(lo, cnt)
            poly = self.ent_poly[ent]
            px, py = x[pt], y[pt]
            ok = px >= x0[poly]
            ok &= px <= x1[poly]
            ok &= py >= y0[poly]
            ok &= py <= y1[poly]
            keep = np.flatnonzero(ok)
            ec = self.nh_count[poly[keep]]
            edges = self.nh_edges.take(flat_ranges(self.nh_start[poly[keep]], ec), axis=1)
            hit = keep[self._odd_crossings(px[keep], py[keep], ec, edges)]
            pt, poly = pt[hit], poly[hit]
            # pairs run by point, polygons ascending: the first hit wins
            first = np.ones(len(pt), dtype=bool)
            first[1:] = pt[1:] != pt[:-1]
            out[pt[first]] = self.poly_ids[poly[first]]
        return out

    def area(self, i: int) -> float:
        """Shoelace area of polygon i (for areal k disaggregation)."""
        s, e = self.starts[i], self.starts[i + 1]
        return 0.5 * abs(np.dot(self.vx[s:e], self.qy[s:e])
                         - np.dot(self.vy[s:e], self.qx[s:e]))

    def _interior_point(self, i: int) -> tuple[float, float] | None:
        """A point strictly inside polygon i: try the vertex centroid,
        then inward-nudged edge midpoints (handles nonconvex rings)."""
        s, e = self.starts[i], self.starts[i + 1]
        rx, ry, qx, qy = self.vx[s:e], self.vy[s:e], self.qx[s:e], self.qy[s:e]
        bb = self.bbox[:, i]
        eps = 1e-9 * max(bb[2] - bb[0], bb[3] - bb[1], 1.0)
        cx, cy = float(rx.mean()), float(ry.mean())
        if self.contains(i, np.array([cx]), np.array([cy]))[0]:
            return cx, cy
        for j in range(len(rx)):
            mx, my = (rx[j] + qx[j]) / 2.0, (ry[j] + qy[j]) / 2.0
            ex, ey = qx[j] - rx[j], qy[j] - ry[j]
            ln = float(np.hypot(ex, ey))
            if ln == 0:
                continue
            for sg in (1.0, -1.0):
                px = mx + sg * (-ey / ln) * eps
                py = my + sg * (ex / ln) * eps
                if self.contains(i, np.array([px]), np.array([py]))[0]:
                    return float(px), float(py)
        return None

    def _edges_properly_cross(self, i: int, j: int) -> bool:
        """True if any edge of i strictly crosses any edge of j
        (vectorized orientation tests; collinear touches and shared
        endpoints do NOT count — adjacent polygons may share borders)."""
        si, ei, sj, ej = self.starts[i], self.starts[i + 1], self.starts[j], self.starts[j + 1]
        ax, ay, a2x, a2y = self.vx[si:ei], self.vy[si:ei], self.qx[si:ei], self.qy[si:ei]
        bx, by, b2x, b2y = self.vx[sj:ej], self.vy[sj:ej], self.qx[sj:ej], self.qy[sj:ej]
        # orientation of (p, q, r) for all (edge_i, endpoint_j) pairs
        dix = (a2x - ax)[:, None]
        diy = (a2y - ay)[:, None]
        o1 = dix * (by[None, :] - ay[:, None]) - diy * (bx[None, :] - ax[:, None])
        o2 = dix * (b2y[None, :] - ay[:, None]) - diy * (b2x[None, :] - ax[:, None])
        djx = (b2x - bx)[None, :]
        djy = (b2y - by)[None, :]
        o3 = djx * (ay[:, None] - by[None, :]) - djy * (ax[:, None] - bx[None, :])
        o4 = djx * (a2y[:, None] - by[None, :]) - djy * (a2x[:, None] - bx[None, :])
        return bool(((o1 * o2 < 0) & (o3 * o4 < 0)).any())

    def validate_nonoverlap(self) -> None:
        """Raise ``ValueError`` if any two polygons' INTERIORS overlap —
        the compile-time analog of the reference's per-point check
        (`/root/reference/maskmypy/masks/donut.py:158-161`), promised by
        :meth:`locate`'s docstring.

        Candidate pairs are the polygons that share a grid cell, kept
        when their bboxes overlap strictly (touching bboxes cannot yield
        interior overlap, so shared-border grids pass without edge
        tests), built over runs of cells of at most ``cells.MAX_PAIRS``
        same-cell pairs each; then per candidate pair, in ascending (i, j) order: any
        properly-crossing edge pair, or one polygon's interior point
        inside the other (the containment-without-crossing case).
        """
        n = max(self.n, 1)
        x0, y0, x1, y1 = self.bbox
        k = np.diff(self.cell_start)
        keys = []
        # each entry pairs with the later entries of its cell; cells go in
        # ranges of at most cells.MAX_PAIRS pairs (a cell with more alone)
        for a, b in _chunks(k * (k - 1) // 2):
            s, e = self.cell_start[a], self.cell_start[b]
            later = np.repeat(self.cell_start[a + 1:b + 1], k[a:b]) - np.arange(s + 1, e + 1)
            pi = np.repeat(self.ent_poly[s:e], later)
            pj = self.ent_poly[flat_ranges(np.arange(s + 1, e + 1), later)]
            ov = (x0[pi] < x1[pj]) & (x1[pi] > x0[pj]) & (y0[pi] < y1[pj]) & (y1[pi] > y0[pj])
            keys.append(np.unique(pi[ov] * n + pj[ov]))
        key = np.unique(np.concatenate(keys))
        pi, pj = key // n, key % n
        for i, j in zip(pi.tolist(), pj.tolist()):
            overlap = self._edges_properly_cross(i, j)
            if not overlap:
                for a, b in ((i, j), (j, i)):
                    pt = self._interior_point(a)
                    if pt is not None and self.contains(
                            b, np.array([pt[0]]), np.array([pt[1]]))[0]:
                        overlap = True
                        break
            if overlap:
                raise ValueError(
                    f"Container polygons {int(self.poly_ids[i])} and "
                    f"{int(self.poly_ids[j])} overlap. Container polygons "
                    "must not overlap.")
