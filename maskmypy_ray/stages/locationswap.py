"""Location swap mask (M5).

Reference `/root/reference/maskmypy/masks/locationswap.py:101-116`: per
point, eligible addresses are those in the (low, high] annulus (intersects
the high-buffer but not the low-buffer); one is chosen uniformly; with no
candidates the original point is kept and marked UNMASKED
(`locationswap.py:70-71`, `tools.py:136-147`; the docstring's "(0,0)"
claim is wrong — the tests pin keep-original).

Engine semantics (documented deviations): exact-circle annulus
``low^2 < dist^2 <= high^2`` instead of shapely's 32-gon buffers; the
uniform choice picks index ``floor(u * n)`` over candidates sorted by
``addr_id`` (the reference draws from a Python-set iteration order — not
reproducible by design), with ``u`` from per-row RNG stream 9. Both are
mirrored exactly by the DuckDB oracle.

Shape: the address table is compiled into a cell-bucketed index and
broadcast (``ray.put``); each actor answers annulus queries per point with
a cover-cells gather + vectorized distance filter. No shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import rng
from ..geokernels.cells import cell_of_xy, cover_circle_xy
from ..util import flat_ranges


class AddressIndex:
    """Cell-bucketed immutable address set for annulus queries."""

    def __init__(self, addr_id: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                 cell_m: float = 500.0):
        order = np.argsort(addr_id, kind="stable")
        self.addr_id = np.asarray(addr_id)[order]
        self.ax = np.asarray(ax, dtype=np.float64)[order]
        self.ay = np.asarray(ay, dtype=np.float64)[order]
        self.cell_m = cell_m
        cells = cell_of_xy(self.ax, self.ay, cell_m)
        corder = np.argsort(cells, kind="stable")
        self._order = corder
        self._cells_sorted = cells[corder]

    def in_cells(self, cells: np.ndarray) -> np.ndarray:
        """Indices (into the addr_id-sorted arrays) of addresses in any of
        the given cells, in addr_id order."""
        lo = np.searchsorted(self._cells_sorted, cells, side="left")
        hi = np.searchsorted(self._cells_sorted, cells, side="right")
        if not len(lo):
            return np.empty(0, dtype=np.int64)
        idx = np.concatenate([self._order[a:b] for a, b in zip(lo, hi)]) \
            if len(lo) else np.empty(0, dtype=np.int64)
        return np.sort(idx)


class LocationSwapper:
    def __init__(self, index_ref, low: float, high: float, seed: int,
                 key_col: str = "doc_id"):
        import ray

        self.idx: AddressIndex = (
            ray.get(index_ref) if not isinstance(index_ref, AddressIndex) else index_ref)
        self.low, self.high, self.seed = float(low), float(high), seed
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Fully vectorized (VERDICT r01 #6): one batch-wide circle-cover
        expansion, one segmented gather of the cover cells' address
        slices, one flat annulus filter, then a per-row segment pick at
        ``floor(u * n_candidates)`` — no Python loop over points. The
        candidate ordering (addr_id ascending per row) and the pick index
        match the per-point formulation bit-for-bit, so the DuckDB oracle
        is unchanged."""
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False) & 0xFFFFFFFF
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        u = rng.uniform01(keys, self.seed, 9)
        n = len(x)
        mx = x.copy()
        my = y.copy()
        unmasked = np.ones(n, dtype=np.int64)
        low2 = self.low * self.low
        high2 = self.high * self.high
        row, cells = cover_circle_xy(x, y, np.full(n, self.high), self.idx.cell_m)
        # address slice (lo, count) of each (row, cover-cell) pair
        lo = np.searchsorted(self.idx._cells_sorted, cells, side="left")
        hi = np.searchsorted(self.idx._cells_sorted, cells, side="right")
        cnt = hi - lo
        nz = cnt > 0
        row, lo, cnt = row[nz], lo[nz], cnt[nz]
        total = int(cnt.sum())
        if total:
            cand = self.idx._order[flat_ranges(lo, cnt)]
            crow = np.repeat(row, cnt)
            d2 = (self.idx.ax[cand] - x[crow]) ** 2 + (self.idx.ay[cand] - y[crow]) ** 2
            ok = (d2 > low2) & (d2 <= high2)
            cand, crow = cand[ok], crow[ok]
            if len(cand):
                # per-row candidates in addr_id order (cand index order ==
                # addr_id order by construction of AddressIndex)
                order = np.lexsort((cand, crow))
                cand, crow = cand[order], crow[order]
                seg_lo = np.searchsorted(crow, np.arange(n), side="left")
                seg_hi = np.searchsorted(crow, np.arange(n), side="right")
                m = seg_hi - seg_lo
                has = m > 0
                pick = cand[seg_lo[has] + np.floor(u[has] * m[has]).astype(np.int64)]
                mx[has] = self.idx.ax[pick]
                my[has] = self.idx.ay[pick]
                unmasked[has] = 0
        batch = batch.append_column("mx", pa.array(mx, type=pa.float64()))
        batch = batch.append_column("my", pa.array(my, type=pa.float64()))
        batch = batch.append_column("UNMASKED", pa.array(unmasked, type=pa.int64()))
        return batch


def locationswap(ds, addresses: pa.Table, low: float, high: float,
                 seed: int | None = None, key_col: str = "doc_id",
                 snap_to_streets: bool = False, graph=None,
                 warn_unmasked: bool = False):
    """Location-swap a geoparsed Dataset against a broadcast address table
    (columns addr_id, ax/ay or lat/lon).

    ``snap_to_streets=True`` snaps outputs to the nearest ``graph`` node
    (`locationswap.py:73-74`); ``warn_unmasked=True`` eagerly emits the
    reference's ``UserWarning`` with the unmasked count
    (`locationswap.py:70-71`, `tools.py:136-147`) at the cost of one
    materialization."""
    import ray

    if low >= high:
        raise ValueError(
            "Minimum displacement distance is larger than or equal to maximum.")
    if seed is None:
        seed = rng.gen_seed()
    if "ax" in addresses.column_names:
        ax = addresses.column("ax").to_numpy(zero_copy_only=False)
        ay = addresses.column("ay").to_numpy(zero_copy_only=False)
    else:
        from ..geokernels.geometry import latlon_to_xy

        ax, ay = latlon_to_xy(addresses.column("lat").to_numpy(zero_copy_only=False),
                              addresses.column("lon").to_numpy(zero_copy_only=False))
    idx = AddressIndex(addresses.column("addr_id").to_numpy(zero_copy_only=False), ax, ay)
    ref = ray.put(idx)

    # Stateless tasks over the broadcast index (see stages/donut.py note).
    def swap(batch: pa.Table) -> pa.Table:
        return LocationSwapper(ref, low=low, high=high, seed=seed,
                               key_col=key_col)(batch)

    masked = ds.map_batches(swap, batch_format="pyarrow")
    if warn_unmasked:
        from .suppress import warn_if_unmasked

        masked = warn_if_unmasked(masked)
    from .donut import _maybe_snap

    return _maybe_snap(masked, snap_to_streets, graph)
