"""Ripley's K (A11) + RMSE comparison (A12).

Reference `/root/reference/maskmypy/analysis.py:288-368` wraps pointpats'
``k_test``: K̂(d) over ``steps`` bands in (min_dist, max_dist], default
``max_dist`` = Ripley's rule of thumb (quarter of the smallest bounding
box side, `analysis.py:324-325`), with 99 CSR simulations in the same
window kept for envelope/p-values. Flagged slow and skipped by default
(`analysis.py:40-43,64-65`) — same here.

Estimator: K̂(d) = A / (n(n-1)) * #{ordered pairs with 0 < d_ij <= d},
window = bounding box (area A), no edge correction — matching pointpats'
default k(...) used by k_test. CSR simulations draw from the engine's
counter RNG (streams 300+2s/301+2s keyed on point index), so results are
deterministic.

Distributed shape (Dataset input, SURVEY.md §2.2 A11): pairwise band
counts are the cell-halo self-join nnd runs (halo = max_dist), over the
observed points and every CSR simulation at once under the segment key
``cell * (S+1) + sim``: one ``segment_map`` and one pyarrow kernel per
sorted block that runs the shared pair loop and counts pairs per band.
Array input runs the same chunked pair distances over the collected
coordinates, for unit tests and tiny patterns.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import pyarrow as pa

from .. import rng
from ..geokernels.cells import halo_of_xy, halo_pair_d2
from ..util import segment_map

KtestResult = namedtuple("KtestResult", ("support", "statistic", "pvalue", "simulations"))


def _k_stat(x: np.ndarray, y: np.ndarray, support: np.ndarray,
            area: float | None = None) -> np.ndarray:
    n = len(x)
    if n < 2:
        return np.zeros(len(support))
    if area is None:
        area = (x.max() - x.min()) * (y.max() - y.min())
    counts = np.zeros(len(support))
    # one segment holding every point: each point against all, self included
    for _, _, d2 in halo_pair_d2(np.zeros(n, dtype=np.int64),
                                 np.ones(n, dtype=bool), x, y):
        d = np.sqrt(d2)
        for k, r in enumerate(support):
            counts[k] += ((d <= r).sum(axis=1) - 1).sum()  # exclude self
    return area * counts / (n * (n - 1))


def ripleys_k(ds_or_xy, max_dist: float | None = None, min_dist: float | None = None,
              steps: int = 10, simulations: int = 99, seed: int = 42,
              x_col: str = "x", y_col: str = "y", key_col: str = "doc_id",
              keys: np.ndarray | None = None) -> KtestResult:
    """Ripley's K of a point Dataset (or (x, y) arrays).

    Dataset input runs the fully distributed cell+halo kernel with CSR
    simulations generated inside ``map_batches`` (VERDICT r01 #5 — no
    driver-side x/y collect); array input keeps the in-memory numpy
    kernel for unit tests and tiny patterns.

    The two paths are unified (ADVICE r02): CSR simulations are keyed on
    ``keys`` (array path default: row index; pass the same key column the
    Dataset path uses for identical envelopes) and every simulation K̂ is
    normalized by the OBSERVED pattern's window area, not its own bbox —
    so identical data gives identical envelopes/p-values either way."""
    if not isinstance(ds_or_xy, tuple):
        return ripleys_k_distributed(ds_or_xy, max_dist=max_dist,
                                     min_dist=min_dist, steps=steps,
                                     simulations=simulations, seed=seed,
                                     x_col=x_col, y_col=y_col, key_col=key_col)
    x, y = ds_or_xy
    if not max_dist:
        # Ripley rule of thumb: quarter of the smallest bbox side.
        max_dist = 0.25 * min(x.max() - x.min(), y.max() - y.min())
    if not min_dist:
        min_dist = max_dist / steps
    support = np.linspace(min_dist, max_dist, steps)
    stat = _k_stat(x, y, support)
    n = len(x)
    x0, x1 = x.min(), x.max()
    y0, y1 = y.min(), y.max()
    area = (x1 - x0) * (y1 - y0)
    sims = []
    idx = (np.arange(n, dtype=np.int64) if keys is None
           else np.asarray(keys, dtype=np.int64))
    for s in range(simulations):
        sx = x0 + (x1 - x0) * rng.uniform01(idx & 0xFFFFFFFF, seed, 300 + 2 * s)
        sy = y0 + (y1 - y0) * rng.uniform01((idx + 131071 * (s + 1)) & 0xFFFFFFFF,
                                            seed, 301 + 2 * s)
        sims.append(_k_stat(sx, sy, support, area=area))
    sims_arr = np.asarray(sims)
    # two-sided pseudo p-value per band, like pointpats' k_test
    if simulations:
        ge = (sims_arr >= stat[None, :]).sum(axis=0)
        le = (sims_arr <= stat[None, :]).sum(axis=0)
        pvalue = (np.minimum(ge, le) + 1) / (simulations + 1)
    else:
        pvalue = np.full(len(support), np.nan)
    return KtestResult(support, stat, pvalue, sims_arr)


def ripley_rmse(sensitive_result: KtestResult, candidate_result: KtestResult) -> float:
    """RMSE between two K̂ vectors, round 3 (`analysis.py:339-368`)."""
    res = np.asarray(candidate_result.statistic) - np.asarray(sensitive_result.statistic)
    return round(float(np.sqrt(np.square(res).mean())), 3)


def ripleys_k_distributed(ds, max_dist: float | None = None,
                          min_dist: float | None = None, steps: int = 10,
                          simulations: int = 99, seed: int = 42,
                          x_col: str = "x", y_col: str = "y",
                          key_col: str = "doc_id",
                          cell_m: float | None = None) -> KtestResult:
    """Fully distributed k_test: ONE shuffle covers the observed pattern
    AND every CSR simulation (VERDICT r01 #5).

    Per input batch, each point emits its observed coordinates plus
    ``simulations`` CSR draws (streams 300+2s / 301+2s keyed on the row
    key — partition/order independent), each halo-replicated into its
    3x3 cell ring under a composite ``cell * (S+1) + sim`` segment key.
    One ``segment_map`` counts band pairs per sorted block into an
    (S+1) x steps grid; the driver sums the blocks' grids.

    Exact: every ordered pair within max(support) lies in the core
    point's 3x3 halo when cell_m >= max(support); each pair is counted
    once, at the core point's own cell.

    Cost note: the shuffle carries 9 x (S+1) halo rows per point — the
    price of exact simulation envelopes; cut ``simulations`` (the
    reference marks this operator slow and skips it by default,
    `analysis.py:40-43`)."""
    from ray.data.aggregate import Count, Max, Min

    agg = ds.aggregate(Min(x_col), Max(x_col), Min(y_col), Max(y_col), Count(x_col))
    n = int(agg[f"count({x_col})"])
    x0, x1 = float(agg[f"min({x_col})"]), float(agg[f"max({x_col})"])
    y0, y1 = float(agg[f"min({y_col})"]), float(agg[f"max({y_col})"])
    if not max_dist:
        max_dist = 0.25 * min(x1 - x0, y1 - y0)
    if not min_dist:
        min_dist = max_dist / steps
    support = np.linspace(min_dist, max_dist, steps)
    area = (x1 - x0) * (y1 - y0)
    if n < 2:
        empty = np.zeros(len(support))
        return KtestResult(support, empty, np.full(len(support), np.nan),
                           np.zeros((simulations, len(support))))
    cm = float(cell_m if cell_m is not None else support.max())
    S = int(simulations)

    # Bound peak per-task memory (ADVICE r02): the 9x(S+1) halo expansion
    # of a whole batch can be multi-GB at simulations=99; slice the input
    # into chunks sized so each emitted sub-table stays ~2M rows and
    # YIELD them (Ray streams generator outputs into separate blocks).
    in_chunk = max(64, 2_000_000 // (9 * (S + 1)))

    def expand(b: pa.Table):
        for off in range(0, b.num_rows, in_chunk):
            c = b.slice(off, in_chunk)
            keys = c.column(key_col).to_numpy(zero_copy_only=False)
            x = c.column(x_col).to_numpy(zero_copy_only=False)
            y = c.column(y_col).to_numpy(zero_copy_only=False)
            m = len(x)
            all_x = [x]
            all_y = [y]
            for s in range(S):
                u1 = rng.uniform01(keys & 0xFFFFFFFF, seed, 300 + 2 * s)
                u2 = rng.uniform01((keys + 131071 * (s + 1)) & 0xFFFFFFFF,
                                   seed, 301 + 2 * s)
                all_x.append(x0 + (x1 - x0) * u1)
                all_y.append(y0 + (y1 - y0) * u2)
            ax = np.concatenate(all_x)
            ay = np.concatenate(all_y)
            sim = np.repeat(np.arange(S + 1, dtype=np.int64), m)
            akey = np.tile(keys, S + 1)
            rep, cell, home = halo_of_xy(ax, ay, cm)
            yield pa.table({
                "gcell": pa.array(cell * (S + 1) + sim[rep], type=pa.int64()),
                "key": pa.array(akey[rep], type=pa.int64()),
                "px": pa.array(ax[rep], type=pa.float64()),
                "py": pa.array(ay[rep], type=pa.float64()),
                "home": pa.array(home),
            })

    sup2 = support * support
    bands = np.tile(np.arange(len(support), dtype=np.int64), S + 1)
    sims = np.repeat(np.arange(S + 1, dtype=np.int64), len(support))

    def band_counts(block: pa.Table) -> pa.Table:
        def col(name):
            return block.column(name).to_numpy(zero_copy_only=False)

        gcell = col("gcell")
        grid = np.zeros((S + 1, len(support)), dtype=np.int64)
        for ci, _, d2 in halo_pair_d2(gcell, col("home"), col("px"),
                                      col("py"), col("key")):
            sim_id = gcell[ci[0]] % (S + 1)
            for bnd, r2 in enumerate(sup2):
                grid[sim_id, bnd] += int((d2 <= r2).sum())
        return pa.table({"sim": sims, "band": bands, "cnt": grid.ravel()})

    halo = ds.select_columns([key_col, x_col, y_col]).map_batches(
        expand, batch_format="pyarrow")
    tot = segment_map(halo, "gcell", band_counts, pa.schema(
        [("sim", pa.int64()), ("band", pa.int64()), ("cnt", pa.int64())])) \
        .to_pandas()
    grid = np.zeros((S + 1, len(support)), dtype=np.int64)
    np.add.at(grid, (tot["sim"].to_numpy(), tot["band"].to_numpy()),
              tot["cnt"].to_numpy())
    khat = area * grid / (n * (n - 1))
    stat = khat[0]
    sims_arr = khat[1:]
    if S:
        ge = (sims_arr >= stat[None, :]).sum(axis=0)
        le = (sims_arr <= stat[None, :]).sum(axis=0)
        pvalue = (np.minimum(ge, le) + 1) / (S + 1)
    else:
        pvalue = np.full(len(support), np.nan)
    return KtestResult(support, stat, pvalue, sims_arr)
