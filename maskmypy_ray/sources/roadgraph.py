"""Deterministic synthetic road graph (FIXTURES.md F5).

The reference fetches a live OSM drive network per bbox
(`/root/reference/maskmypy/masks/street.py:217-230`); osmnx is unavailable
and tests must be hermetic, so this generator produces a connected
perturbed-grid graph over the fixture bbox: ~200 m pitch nodes, jittered
by the counter RNG, 4-connected edges with euclidean lengths, plus a few
long "highway" edges (> max_length) to exercise the neighbor-length
filter (`street.py:236-249`).

Encoding is CSR adjacency (node_x, node_y, indptr, indices, edge_len) —
compiled once, broadcast via ``ray.put`` into the street-mask actor pool
(SURVEY.md §2.1 M3).
"""

from __future__ import annotations

import numpy as np

from .. import rng
from ..constants import X_MAX, X_MIN, Y_MAX, Y_MIN
from ..util import flat_ranges


class RoadGraph:
    """Immutable CSR road graph in planar meters."""

    def __init__(self, node_x: np.ndarray, node_y: np.ndarray,
                 edges: np.ndarray, lengths: np.ndarray):
        self.node_x = node_x
        self.node_y = node_y
        n = len(node_x)
        # undirected expansion -> CSR
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        ln = np.concatenate([lengths, lengths])
        order = np.argsort(src, kind="stable")
        src, dst, ln = src[order], dst[order], ln[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.indptr, src + 1, 1)
        self.indptr = np.cumsum(self.indptr)
        self.indices = dst
        self.edge_len = ln
        # spatial grid for nearest-node snapping
        self._grid_cell = 400.0
        gx = np.floor(node_x / self._grid_cell).astype(np.int64)
        gy = np.floor(node_y / self._grid_cell).astype(np.int64)
        key = (gx - gx.min()) + (gx.max() - gx.min() + 1) * (gy - gy.min())
        self._gx0, self._gy0 = gx.min(), gy.min()
        self._gnx = gx.max() - gx.min() + 1
        self._gny = gy.max() - gy.min() + 1
        order = np.argsort(key, kind="stable")
        self._grid_order = order
        self._grid_start = np.searchsorted(key[order], np.arange(self._gnx * self._gny + 1))

    @property
    def n_nodes(self) -> int:
        return len(self.node_x)

    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[node], self.indptr[node + 1]
        return self.indices[s:e], self.edge_len[s:e]

    def _cells_nodes(self, gx: int, gy: int) -> np.ndarray:
        if not (0 <= gx - self._gx0 < self._gnx and 0 <= gy - self._gy0 < self._gny):
            return np.empty(0, dtype=np.int64)
        k = (gx - self._gx0) + self._gnx * (gy - self._gy0)
        return self._grid_order[self._grid_start[k]:self._grid_start[k + 1]]

    def nearest_node(self, x: float, y: float,
                     allowed: np.ndarray | None = None) -> int:
        """Nearest node by expanding grid-ring search (exact: continues one
        extra ring beyond the first hit). ``allowed`` is an optional boolean
        valid-node mask (the street mask's precomputed snap set)."""
        cgx = int(np.floor(x / self._grid_cell))
        cgy = int(np.floor(y / self._grid_cell))
        best, best_d2 = -1, np.inf
        ring = 0
        max_ring = max(self._gnx, self._gny) + 1
        while ring <= max_ring:
            cand = []
            for gy in range(cgy - ring, cgy + ring + 1):
                for gx in range(cgx - ring, cgx + ring + 1):
                    if max(abs(gx - cgx), abs(gy - cgy)) != ring:
                        continue
                    cand.append(self._cells_nodes(gx, gy))
            if cand:
                nodes = np.concatenate(cand)
                if allowed is not None and len(nodes):
                    nodes = nodes[allowed[nodes]]
                if len(nodes):
                    d2 = (self.node_x[nodes] - x) ** 2 + (self.node_y[nodes] - y) ** 2
                    i = int(np.argmin(d2))
                    if d2[i] < best_d2:
                        best, best_d2 = int(nodes[i]), float(d2[i])
            # stop once a hit is at least one full ring old (guarantees exact)
            if best >= 0 and (ring * self._grid_cell) ** 2 > best_d2:
                break
            ring += 1
        return best

    def nearest_nodes(self, x: np.ndarray, y: np.ndarray,
                      allowed: np.ndarray | None = None) -> np.ndarray:
        """Vectorized nearest node for a whole batch (VERDICT r02 #5 —
        replaces the per-point Python snap loop).

        Same flat-gather shape as the locationswap cover machinery: every
        point's 3x3 grid neighborhood is gathered in ONE segmented slice
        expansion, distances run in one vectorized pass, and the per-row
        argmin falls out of a single lexsort. Points whose best hit is
        not certified exact (nothing within one full grid cell — nodes
        outside the 3x3 block are >= ``_grid_cell`` away) fall back to
        the exact expanding-ring scalar search; with the ~200 m node
        pitch that path is empirically empty."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(x)
        out = np.full(n, -1, dtype=np.int64)
        if not n:
            return out
        cgx = np.floor(x / self._grid_cell).astype(np.int64) - self._gx0
        cgy = np.floor(y / self._grid_cell).astype(np.int64) - self._gy0
        rows_l, keys_l = [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                gx = cgx + dx
                gy = cgy + dy
                valid = (gx >= 0) & (gx < self._gnx) & (gy >= 0) & (gy < self._gny)
                rows_l.append(np.nonzero(valid)[0])
                keys_l.append((gx + self._gnx * gy)[valid])
        row = np.concatenate(rows_l)
        key = np.concatenate(keys_l)
        lo = self._grid_start[key]
        cnt = self._grid_start[key + 1] - lo
        nz = cnt > 0
        row, lo, cnt = row[nz], lo[nz], cnt[nz]
        best_d2 = np.full(n, np.inf)
        total = int(cnt.sum())
        if total:
            cand = self._grid_order[flat_ranges(lo, cnt)]
            crow = np.repeat(row, cnt)
            if allowed is not None:
                ok = allowed[cand]
                cand, crow = cand[ok], crow[ok]
            if len(cand):
                d2 = (self.node_x[cand] - x[crow]) ** 2 \
                    + (self.node_y[cand] - y[crow]) ** 2
                order = np.lexsort((d2, crow))
                cand, crow, d2 = cand[order], crow[order], d2[order]
                seg_lo = np.searchsorted(crow, np.arange(n), side="left")
                seg_hi = np.searchsorted(crow, np.arange(n), side="right")
                has = seg_hi > seg_lo
                out[has] = cand[seg_lo[has]]
                best_d2[has] = d2[seg_lo[has]]
        uncert = np.nonzero((out < 0) | (best_d2 >= self._grid_cell ** 2))[0]
        for i in uncert:
            out[i] = self.nearest_node(float(x[i]), float(y[i]), allowed=allowed)
        return out

    def dijkstra_ball(self, source: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes within network distance <= cutoff of source, sorted by
        distance (mirrors networkx single_source_dijkstra_path_length
        ordering, `street.py:257-262`). Returns (nodes, dists)."""
        import heapq

        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            nbrs, lens = self.neighbors(u)
            for v, w in zip(nbrs, lens):
                nd = d + w
                if nd <= cutoff and (v not in dist or nd < dist[v]):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        nodes = np.fromiter(dist.keys(), dtype=np.int64, count=len(dist))
        ds = np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
        order = np.argsort(ds, kind="stable")
        return nodes[order], ds[order]


def synth_road_graph(seed: int = 42, pitch_m: float = 200.0,
                     jitter: float = 0.3,
                     bbox: tuple[float, float, float, float] | None = None
                     ) -> RoadGraph:
    """Seeded perturbed-grid road graph over ``bbox`` (x0, x1, y0, y1);
    default = the fixture bbox (bit-identical to the historical
    single-region graph). Regional bboxes feed the sharded street-mask
    loader (VERDICT r03 #7)."""
    x0, x1, y0, y1 = bbox if bbox is not None else (X_MIN, X_MAX, Y_MIN, Y_MAX)
    xs = np.arange(x0, x1 + pitch_m, pitch_m)
    ys = np.arange(y0, y1 + pitch_m, pitch_m)
    nx, ny = len(xs), len(ys)
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny))
    gx, gy = gx.ravel(), gy.ravel()
    node_id = gy * nx + gx
    jx = (rng.uniform01(node_id, seed, 200) - 0.5) * 2 * jitter * pitch_m
    jy = (rng.uniform01(node_id, seed, 201) - 0.5) * 2 * jitter * pitch_m
    node_x = xs[gx] + jx
    node_y = ys[gy] + jy
    edges = []
    right = node_id.reshape(ny, nx)
    for dy, dx in ((0, 1), (1, 0)):
        a = right[: ny - dy, : nx - dx].ravel()
        b = right[dy:, dx:].ravel()
        edges.append(np.stack([a, b], axis=1))
    edges = np.concatenate(edges)
    # drop ~10% of edges (keeps grid connected in practice; seeded)
    ekey = edges[:, 0] * 100003 + edges[:, 1]
    keep = rng.uniform01(ekey & 0xFFFFFFFF, seed, 202) >= 0.10
    edges = edges[keep]
    lengths = np.hypot(node_x[edges[:, 0]] - node_x[edges[:, 1]],
                       node_y[edges[:, 0]] - node_y[edges[:, 1]])
    # a few long highway edges (> typical max_length) across the bbox
    n = nx * ny
    hsrc = np.arange(0, n - 1, n // 8, dtype=np.int64)[:8]
    hdst = np.clip(hsrc + nx * 7 + 11, 0, n - 1)
    hmask = hsrc != hdst
    hedges = np.stack([hsrc[hmask], hdst[hmask]], axis=1)
    hlen = np.hypot(node_x[hedges[:, 0]] - node_x[hedges[:, 1]],
                    node_y[hedges[:, 0]] - node_y[hedges[:, 1]])
    edges = np.concatenate([edges, hedges])
    lengths = np.concatenate([lengths, hlen])
    return RoadGraph(node_x, node_y, edges, lengths)
