"""Global scalar aggregates (A5, A6, A7, A10 kernels).

All are algebraic (min/max/mean/count) and run as Ray Dataset aggregates
— streaming partial aggregation per block, tiny final combine. The exact
median follows the reference's exact semantics (`analysis.py:192,217`)
at EVERY scale: below ``MEDIAN_COLLECT_LIMIT`` rows the single float
column is collected (bounded, cheap); above it the iterative-histogram
:func:`exact_median_distributed` kernel computes the same order
statistics without the column ever leaving the cluster (SURVEY.md
§7.5.7; VERDICT r01 #3).
"""

from __future__ import annotations

import numpy as np

# Above this row count the exact median switches to the distributed
# histogram-refinement kernel; below it a bounded single-column collect
# is both exact and cheaper (no extra full-dataset passes).
MEDIAN_COLLECT_LIMIT = 262_144


def summarize_column(ds, col: str, approx: bool = False) -> dict:
    """{min, max, mean, median, count} of one numeric column.

    NaN policy (ADVICE r02): pandas semantics throughout — the reference
    is `gdf[col].min()/.max()/.mean()/.median()` which all skip NaN — so
    every stat here is computed over the finite values only, via one
    NaN-aware map_batches partial + scalar aggregate (Ray's Mean returns
    None when a float batch contains NaN)."""
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    def part(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False)
        if v.dtype.kind == "f":
            v = v[~np.isnan(v)]
        return pa.table({
            "vmin": pa.array([float(v.min()) if len(v) else np.inf]),
            "vmax": pa.array([float(v.max()) if len(v) else -np.inf]),
            "vsum": pa.array([float(v.sum(dtype=np.float64)) if len(v) else 0.0]),
            "n": pa.array([len(v)], type=pa.int64()),
        })

    agg = ds.map_batches(part, batch_format="pyarrow").aggregate(
        Min("vmin"), Max("vmax"), Sum("vsum"), Sum("n"))
    n = int(agg["sum(n)"] or 0)
    out = {
        "min": float(agg["min(vmin)"]),
        "max": float(agg["max(vmax)"]),
        "mean": float(agg["sum(vsum)"]) / n if n else float("nan"),
        "count": n,
    }
    # NaN policy (ADVICE r02): both median paths skip NaNs, matching the
    # reference's pandas ``.median()`` (skipna=True) — the distributed
    # kernel already drops NaNs via its range comparisons, so the collect
    # paths must use nanmedian for row-count-independent results.
    if approx:
        # Optional cheap path: 1% sample median — flagged approximate.
        vals = ds.select_columns([col]).random_sample(0.01, seed=7).to_pandas()[col].to_numpy()
        out["median"] = _nanmedian(vals)
    elif out["count"] > MEDIAN_COLLECT_LIMIT:
        out["median"] = exact_median_distributed(ds, col)
    else:
        vals = ds.select_columns([col]).to_pandas()[col].to_numpy()
        out["median"] = _nanmedian(vals)
    return out


def _nanmedian(vals: np.ndarray) -> float:
    vals = vals[~np.isnan(vals)] if vals.dtype.kind == "f" else vals
    return float(np.median(vals)) if len(vals) else float("nan")


def k_satisfaction(ds, min_k: int, col: str = "k_anonymity") -> float:
    """round(count(k >= min_k) / count(k), 3) — `analysis.py:150-169`."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def flag(batch: pa.Table) -> pa.Table:
        sat = pc.cast(pc.greater_equal(batch.column(col), min_k), pa.int64())
        return pa.table({"sat": sat})

    agg = ds.map_batches(flag, batch_format="pyarrow").aggregate(Sum("sat"), Count("sat"))
    return round(float(agg["sum(sat)"]) / float(agg["count(sat)"]), 3)


def summarize_k(ds, col: str = "k_anonymity") -> dict:
    """{k_min:int, k_max:int, k_med, k_mean} — `analysis.py:172-194`."""
    s = summarize_column(ds, col)
    return {
        "k_min": int(s["min"]),
        "k_max": int(s["max"]),
        "k_med": round(s["median"], 2),
        "k_mean": round(s["mean"], 2),
    }


def mean_center(ds, x_col: str = "x", y_col: str = "y") -> tuple[float, float]:
    """Mean center of a point Dataset (dissolve().centroid of a MultiPoint
    is the coordinate mean — `analysis.py:283-284`)."""
    from ray.data.aggregate import Mean

    agg = ds.aggregate(Mean(x_col), Mean(y_col))
    return float(agg[f"mean({x_col})"]), float(agg[f"mean({y_col})"])


def central_drift(ds, round_to: int = 6) -> float:
    """Distance between the original and masked mean centers, round 6
    (`analysis.py:266-285`). One pass: four Mean aggregates."""
    from ray.data.aggregate import Mean

    agg = ds.aggregate(Mean("x"), Mean("y"), Mean("mx"), Mean("my"))
    dx = agg["mean(mx)"] - agg["mean(x)"]
    dy = agg["mean(my)"] - agg["mean(y)"]
    return round(float(np.hypot(dx, dy)), round_to)


def _finite_stats(ds, col: str) -> tuple[int, float, float]:
    """(count, min, max) over the FINITE values of one column.

    NaN-aware first pass (ADVICE r02): Ray's Count counts NaN floats as
    valid but the histogram kernel drops them, which would shift ranks —
    so min/max/n are computed over the finite values only, in one
    map_batches + scalar aggregate (same cost as the plain aggregate).
    """
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    def stats_part(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False)
        if v.dtype.kind == "f":
            v = v[~np.isnan(v)]
        return pa.table({
            "vmin": pa.array([float(v.min()) if len(v) else np.inf]),
            "vmax": pa.array([float(v.max()) if len(v) else -np.inf]),
            "n": pa.array([len(v)], type=pa.int64()),
        })

    a = ds.map_batches(stats_part, batch_format="pyarrow").aggregate(
        Min("vmin"), Max("vmax"), Sum("n"))
    return int(a["sum(n)"] or 0), float(a["min(vmin)"] or 0.0), float(a["max(vmax)"] or 0.0)


def _refinable(lo: float, hi: float) -> bool:
    """True if [lo, hi] can host another 1024-bin histogram pass —
    i.e. its 1025-point linspace is strictly increasing (duplicate
    edges appear once the window narrows to a few ulps around a tie
    run; the bin between two equal edges can never hold a row, so
    refining further would not split anything)."""
    if not hi > lo:
        return False
    return bool(np.all(np.diff(np.linspace(lo, hi, 1025)) > 0))


def _hist_rows(v: np.ndarray, edges: np.ndarray, w=None) -> dict:
    """One row per NON-EMPTY bin of values ``v`` (already inside the
    window) over ``edges``: bin index, row count ``c``, value min
    ``mn`` and max ``mx``, and the weight sum ``wsum`` when ``w`` is
    given. Bins are ``np.histogram``'s (right-open, the last one
    closed); integer weights sum exactly (below 2^53 per batch).

    Empty bins send no row, so the per-pass groupby works on occupied
    bins only. ``mn == mx`` marks a bin holding one distinct value: a
    descent stops there, since narrowing it further only shrinks the
    window towards denormal width without splitting any row off."""
    nb = len(edges) - 1
    idx = np.minimum(np.searchsorted(edges, v, side="right") - 1, nb - 1)
    c = np.bincount(idx, minlength=nb)
    nz = np.flatnonzero(c)
    mn = np.full(nb, np.inf)
    mx = np.full(nb, -np.inf)
    np.minimum.at(mn, idx, v)
    np.maximum.at(mx, idx, v)
    rows = {"bin": nz, "c": c[nz], "mn": mn[nz], "mx": mx[nz]}
    if w is not None:
        rows["wsum"] = np.bincount(idx, weights=w.astype(np.float64),
                                   minlength=nb)[nz].astype(np.int64)
    return rows


def _hist_table(parts, weighted: bool = False):
    """The ``_hist_rows`` of every ``(window, rows)`` in ``parts`` as
    one typed table (``w`` = window index)."""
    import pyarrow as pa

    types = {"w": pa.int64(), "bin": pa.int64(), "c": pa.int64(),
             "mn": pa.float64(), "mx": pa.float64()}
    if weighted:
        types["wsum"] = pa.int64()
    cols = {n: [np.full(len(r["bin"]), wi, dtype=np.int64) if n == "w"
                else r[n] for wi, r in parts] for n in types}
    return pa.table({n: pa.array(np.concatenate(cols[n]) if cols[n] else [],
                                 type=t) for n, t in types.items()})


def _combine_hist(hist_ds, weighted: bool = False) -> dict:
    """Cross-batch combine of ``_hist_table`` rows, per window: dense
    1024-vectors of the row count ``n``, value ``mn``/``mx`` (+-inf in
    empty bins) and, when ``weighted``, the weight sum ``ws``."""
    from ray.data.aggregate import Max, Min, Sum

    aggs = [Sum("c", alias_name="n"), Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx")]
    if weighted:
        aggs.append(Sum("wsum", alias_name="ws"))
    df = hist_ds.groupby(["w", "bin"]).aggregate(*aggs).to_pandas()
    fill = {"n": (0, np.int64), "mn": (np.inf, np.float64),
            "mx": (-np.inf, np.float64), "ws": (0, np.int64)}
    return {int(wi): {c: sub.set_index("bin")[c]
                      .reindex(range(1024), fill_value=f).to_numpy(dtype=t)
                      for c, (f, t) in fill.items() if c in sub}
            for wi, sub in df.groupby("w")}


def _kth_value(ds, col: str, rank: int, vmin: float, vmax: float,
               max_collect: int) -> float:
    """Exact rank-``rank`` (0-based) order statistic of one column by
    iterative 1024-bin histogram refinement — the column never leaves
    the cluster; only (1024,) counter vectors reach the driver."""
    import pyarrow as pa

    lo, hi = vmin, vmax
    below = 0  # values strictly below current [lo, hi] window
    while True:
        if not _refinable(lo, hi):
            # window narrowed to a tie run (or a single value): every
            # value in it is within a few ulps — collect it whole
            def collect_win(t: pa.Table) -> pa.Table:
                v = t.column(col).to_numpy(zero_copy_only=False)
                return pa.table({col: pa.array(v[(v >= lo) & (v <= hi)])})

            vals = np.sort(ds.map_batches(collect_win, batch_format="pyarrow")
                           .to_pandas()[col].to_numpy())
            return float(vals[rank - below])
        # count values in [lo, hi] bucketed into 1024 bins
        edges = np.linspace(lo, hi, 1025)

        def hist(b: pa.Table) -> pa.Table:
            v = b.column(col).to_numpy(zero_copy_only=False)
            return _hist_table([(0, _hist_rows(v[(v >= lo) & (v <= hi)],
                                               edges))])

        bins = _combine_hist(ds.map_batches(hist, batch_format="pyarrow"))[0]
        counts = bins["n"]
        cum = np.cumsum(counts)
        target = rank - below
        b = int(np.searchsorted(cum, target + 1))
        in_bin = int(counts[b])
        if bins["mn"][b] == bins["mx"][b]:
            return float(bins["mn"][b])  # the target bin holds one value
        # second/third disjunct: the target bin cannot be subdivided
        # further (zero width, or a tie run so narrow its 1024-linspace
        # would repeat edges) — collect the ties regardless of max_collect
        if (in_bin <= max_collect
                or not _refinable(edges[b], edges[b + 1])):
            blo, bhi = edges[b], edges[b + 1]
            is_last = b == 1023

            def collect(t: pa.Table) -> pa.Table:
                v = t.column(col).to_numpy(zero_copy_only=False)
                sel = (v >= blo) & ((v <= bhi) if is_last else (v < bhi))
                return pa.table({col: pa.array(v[sel])})

            vals = np.sort(ds.map_batches(collect, batch_format="pyarrow")
                           .to_pandas()[col].to_numpy())
            offset = target - (int(cum[b - 1]) if b else 0)
            return float(vals[offset])
        below += int(cum[b - 1]) if b else 0
        lo, hi = edges[b], edges[b + 1]


def exact_median_distributed(ds, col: str, max_collect: int = 1_000_000) -> float:
    """Exact median without collecting the column (SURVEY.md §7.5.7).

    Iterative histogram refinement: one Min/Max/Count pass, then per-pass
    1024-bin counting over a shrinking value range until the bin(s)
    holding the median rank(s) contain few enough values to collect
    exactly. O(passes * scan) with passes ~ log_1024(range/precision);
    2-3 passes in practice. Result equals ``numpy.median`` bit-for-bit
    (it returns the exact order statistics).
    """
    n, vmin, vmax = _finite_stats(ds, col)
    if n == 0:
        return float("nan")
    lo_rank = (n - 1) // 2
    hi_rank = n // 2
    v_lo = _kth_value(ds, col, lo_rank, vmin, vmax, max_collect)
    v_hi = v_lo if hi_rank == lo_rank else _kth_value(
        ds, col, hi_rank, vmin, vmax, max_collect)
    return float((v_lo + v_hi) / 2.0)


def keyed_quantiles_distributed(ds, key_col: str, val_col: str,
                                qs: list[float],
                                max_collect: int = 65_536) -> dict:
    """Exact per-key lower-order-statistic quantiles, distributed —
    the keyed generalization of :func:`exact_quantiles_distributed`
    (VERDICT r04 #2: the previous per-source path materialized each
    whole key group in one ``map_groups`` task, which OOMs when one
    key holds a double-digit share of a 100-TB corpus).

    Every key's ranks descend TOGETHER: each refinement pass is ONE
    ``map_batches`` emitting histogram rows keyed ``(key, window,
    bin)`` and ONE tiny groupby-sum (1024 x active windows rows, never
    values), and the final pass is ONE tagged collect over the union
    of resolved bins (each ≤ ``max_collect`` values or a tie run).
    Driver state is O(keys x len(qs)) scalars — no key group is ever
    materialized in a single task.

    Returns ``{key: [v_q0, v_q1, ...]}`` with the lower rule
    (rank = floor(q * (n_key - 1)), SQL ``row_number`` twin).
    """
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    def stats_part(b: pa.Table) -> pa.Table:
        import pandas as pd

        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        v = b.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        fin = ~np.isnan(v)
        keys, v = keys[fin], v[fin]
        codes, uniq = pd.factorize(keys)
        k = len(uniq)
        mn = np.full(k, np.inf)
        mx = np.full(k, -np.inf)
        np.minimum.at(mn, codes, v)
        np.maximum.at(mx, codes, v)
        return pa.table({
            key_col: pa.array(uniq),
            "vmin": pa.array(mn, type=pa.float64()),
            "vmax": pa.array(mx, type=pa.float64()),
            "n": pa.array(np.bincount(codes, minlength=k), type=pa.int64()),
        })

    stats = ds.map_batches(stats_part, batch_format="pyarrow") \
        .groupby(key_col).aggregate(
            Min("vmin", alias_name="vmin"), Max("vmax", alias_name="vmax"),
            Sum("n", alias_name="n")).to_pandas()
    keys = stats[key_col].tolist()
    n_by = stats["n"].to_numpy()
    ranks = {(i, qi): int(np.floor(q * (n_by[i] - 1)))
             for i in range(len(keys)) for qi, q in enumerate(qs)}

    # per (key_idx, q_idx): (lo, hi, below); resolved -> (blo,bhi,last,off);
    # known -> the value itself (its bin held one distinct value)
    state: dict[tuple, tuple] = {}
    resolved: dict[tuple, tuple] = {}
    known: dict[tuple, float] = {}
    for i in range(len(keys)):
        lo, hi = float(stats["vmin"][i]), float(stats["vmax"][i])
        for qi in range(len(qs)):
            if _refinable(lo, hi):
                state[(i, qi)] = (lo, hi, 0)
            else:  # whole key column is one tie run
                resolved[(i, qi)] = (lo, hi, True, ranks[(i, qi)])

    while state:
        # active (key_idx, lo, hi) windows, deduped across quantiles
        windows = sorted({(i, lo, hi) for (i, _), (lo, hi, _) in state.items()})
        w_edges = [np.linspace(lo, hi, 1025) for _, lo, hi in windows]
        by_key: dict[int, list[int]] = {}
        for wi, (i, _, _) in enumerate(windows):
            by_key.setdefault(i, []).append(wi)

        def hist(b: pa.Table, windows=windows, w_edges=w_edges,
                 by_key=by_key, keys=keys) -> pa.Table:
            import pandas as pd

            bkeys = b.column(key_col).to_numpy(zero_copy_only=False)
            v = b.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
            parts = []
            codes = pd.Categorical(bkeys, categories=keys).codes
            for i, wis in by_key.items():
                vv = v[codes == i]
                if not len(vv):
                    continue
                for wi in wis:
                    _, lo, hi = windows[wi]
                    parts.append((wi, _hist_rows(vv[(vv >= lo) & (vv <= hi)],
                                                 w_edges[wi])))
            return _hist_table(parts)

        by_w = _combine_hist(ds.map_batches(hist, batch_format="pyarrow"))

        nxt = {}
        for (i, qi), (lo, hi, below) in state.items():
            wi = windows.index((i, lo, hi))
            counts, mn, mx = (by_w[wi][c] for c in ("n", "mn", "mx"))
            edges = w_edges[wi]
            cum = np.cumsum(counts)
            target = ranks[(i, qi)] - below
            b = int(np.searchsorted(cum, target + 1))
            in_bin = int(counts[b])
            off = target - (int(cum[b - 1]) if b else 0)
            if mn[b] == mx[b]:  # one distinct value: the answer
                known[(i, qi)] = float(mn[b])
            elif (in_bin <= max_collect
                    or not _refinable(edges[b], edges[b + 1])):
                resolved[(i, qi)] = (float(edges[b]), float(edges[b + 1]),
                                     b == 1023, off)
            else:
                nxt[(i, qi)] = (float(edges[b]), float(edges[b + 1]),
                                below + (int(cum[b - 1]) if b else 0))
        state = nxt

    spans = sorted({(i, blo, bhi, last)
                    for (i, _), (blo, bhi, last, _) in resolved.items()})

    def collect(t: pa.Table, spans=spans, keys=keys) -> pa.Table:
        import pandas as pd

        bkeys = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        codes = pd.Categorical(bkeys, categories=keys).codes
        tags, vals = [], []
        for si, (i, blo, bhi, last) in enumerate(spans):
            sel = (codes == i) & (v >= blo) & ((v <= bhi) if last else (v < bhi))
            vals.append(v[sel])
            tags.append(np.full(int(sel.sum()), si, dtype=np.int64))
        if not tags:
            return pa.table({"tag": pa.array([], type=pa.int64()),
                             "val": pa.array([], type=pa.float64())})
        return pa.table({"tag": pa.array(np.concatenate(tags)),
                         "val": pa.array(np.concatenate(vals))})

    out: dict = {k: [None] * len(qs) for k in keys}
    for (i, qi), val in known.items():
        out[keys[i]][qi] = val
    if not spans:
        return out
    got = ds.map_batches(collect, batch_format="pyarrow").to_pandas()
    for (i, qi), (blo, bhi, last, off) in resolved.items():
        si = spans.index((i, blo, bhi, last))
        vals = np.sort(got.loc[got["tag"] == si, "val"].to_numpy())
        out[keys[i]][qi] = float(vals[off])
    return out


def exact_quantiles_distributed(ds, col: str, qs: list[float],
                                max_collect: int = 1_000_000) -> list[float]:
    """Exact lower-order-statistic quantiles of one column, distributed.

    For each q, returns the element at 0-based rank ``floor(q * (n - 1))``
    of the sorted finite values — the "lower" rule, SQL-expressible as
    ``ORDER BY col LIMIT 1 OFFSET rank`` (the oracle's form).

    All requested quantiles descend TOGETHER: each refinement pass is
    ONE map_batches that histograms every still-active window (rows
    ``(window, bin, count)``, combined by one tiny groupby), and the
    final pass is ONE tagged collect over the union of resolved bins —
    total scans = 1 stats + ~2 refinement + 1 collect regardless of
    ``len(qs)``, vs (2-3) x len(qs) for independent descents."""
    import pyarrow as pa

    n, vmin, vmax = _finite_stats(ds, col)
    if n == 0:
        return [float("nan")] * len(qs)

    # state per quantile: (lo, hi, below) — rank's bin window + count of
    # values strictly below it
    ranks = [int(np.floor(q * (n - 1))) for q in qs]
    resolved: dict[int, tuple[float, float, bool, int]] = {}  # i -> (blo, bhi, is_last, offset)
    known: dict[int, float] = {}  # i -> value (its bin held one value)
    if _refinable(vmin, vmax):
        state = {i: (vmin, vmax, 0) for i in range(len(qs))}
    else:
        # whole column is one tie run — collect it directly
        state = {}
        for i in range(len(qs)):
            resolved[i] = (vmin, vmax, True, ranks[i])

    while state:
        windows = sorted({(lo, hi) for lo, hi, _ in state.values()})
        w_edges = {w: np.linspace(w[0], w[1], 1025) for w in windows}

        def hist(b: pa.Table, windows=windows, w_edges=w_edges) -> pa.Table:
            v = b.column(col).to_numpy(zero_copy_only=False)
            return _hist_table([
                (wi, _hist_rows(v[(v >= lo) & (v <= hi)], w_edges[(lo, hi)]))
                for wi, (lo, hi) in enumerate(windows)])

        by_w = _combine_hist(ds.map_batches(hist, batch_format="pyarrow"))

        nxt = {}
        for i, (lo, hi, below) in state.items():
            wi = windows.index((lo, hi))
            counts, mn, mx = (by_w[wi][c] for c in ("n", "mn", "mx"))
            edges = w_edges[(lo, hi)]
            cum = np.cumsum(counts)
            target = ranks[i] - below
            b = int(np.searchsorted(cum, target + 1))
            in_bin = int(counts[b])
            off = target - (int(cum[b - 1]) if b else 0)
            # tie-run guard as in _kth_value: a single-valued bin is the
            # answer; collect any other bin that cannot be subdivided
            if mn[b] == mx[b]:
                known[i] = float(mn[b])
            elif (in_bin <= max_collect
                    or not _refinable(edges[b], edges[b + 1])):
                # np.histogram's LAST bin is closed on the right — the
                # collect filter must mirror that per-window rule
                resolved[i] = (float(edges[b]), float(edges[b + 1]),
                               b == 1023, off)
            else:
                nxt[i] = (float(edges[b]), float(edges[b + 1]),
                          below + (int(cum[b - 1]) if b else 0))
        state = nxt

    # one tagged collect over the union of resolved bins
    spans = sorted({(blo, bhi, last) for blo, bhi, last, _ in resolved.values()})

    def collect(t: pa.Table, spans=spans) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        tags, vals = [], []
        for si, (blo, bhi, last) in enumerate(spans):
            sel = (v >= blo) & ((v <= bhi) if last else (v < bhi))
            vals.append(v[sel])
            tags.append(np.full(int(sel.sum()), si, dtype=np.int64))
        return pa.table({"tag": pa.array(np.concatenate(tags)),
                         col: pa.array(np.concatenate(vals))})

    if not spans:
        return [known[i] for i in range(len(qs))]
    got = ds.map_batches(collect, batch_format="pyarrow").to_pandas()
    out = []
    for i in range(len(qs)):
        if i in known:
            out.append(known[i])
            continue
        blo, bhi, last, off = resolved[i]
        si = spans.index((blo, bhi, last))
        vals = np.sort(got.loc[got["tag"] == si, col].to_numpy())
        out.append(float(vals[off]))
    return out


def weighted_crossing_distributed(ds, val_col: str, w_col: str, target: int,
                                  eq: tuple[str, object] | None = None,
                                  max_collect: int = 65_536):
    """First value (ascending ``val_col`` order) whose INCLUSIVE
    cumulative integer weight exceeds ``target`` — the weighted
    generalization of the rank descent in
    :func:`exact_quantiles_distributed` (there every row has weight 1).

    This is the primitive behind "window SUM OVER (ORDER BY ...) <= B"
    selections (token-budget corpus cuts, weighted quantiles) computed
    WITHOUT a global sort: each refinement pass is one ``map_batches``
    emitting a 1024-bin (weight-sum, row-count) histogram of the active
    window plus one tiny groupby, and the terminal pass aggregates
    per-DISTINCT-value weight sums inside the final bin (pre-combined
    per batch, so the shuffle carries <= distinct-values rows no matter
    how many rows the bin holds; a tie run is one row).

    ``eq`` optionally restricts every pass to rows where column
    ``eq[0] == eq[1]`` (exact compare — used for tie-breaking a prior
    crossing by a second key). Weights must be non-negative int64; a
    batch's per-bin float64 accumulation is exact because batch weight
    sums stay far below 2^53, and the cross-batch combine is int64.

    Returns ``(cross_val, w_before)`` with ``w_before`` = exact sum of
    weights over ``val < cross_val``, or ``(None, W_total)`` when the
    total weight never exceeds ``target``.
    """
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    eq_col, eq_val = eq if eq is not None else (None, None)

    def _sel(b: pa.Table):
        v = b.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        w = b.column(w_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ~np.isnan(v)
        if eq_col is not None:
            keep &= (b.column(eq_col).to_numpy(zero_copy_only=False) == eq_val)
        return v[keep], w[keep]

    def stats_part(b: pa.Table) -> pa.Table:
        v, w = _sel(b)
        return pa.table({
            "vmin": pa.array([float(v.min()) if len(v) else np.inf]),
            "vmax": pa.array([float(v.max()) if len(v) else -np.inf]),
            "wsum": pa.array([int(w.sum()) if len(v) else 0], type=pa.int64()),
        })

    agg = ds.map_batches(stats_part, batch_format="pyarrow").aggregate(
        Min("vmin"), Max("vmax"), Sum("wsum"))
    vmin, vmax = float(agg["min(vmin)"]), float(agg["max(vmax)"])
    total = int(agg["sum(wsum)"] or 0)
    if total <= target:
        return None, total

    # window invariant: the crossing value lies in [lo, hi] ("last" =>
    # hi inclusive, mirroring np.histogram's closed final bin); before =
    # exact weight sum strictly below lo at the levels already resolved.
    lo, hi, before, last = vmin, vmax, 0, True
    while _refinable(lo, hi):
        edges = np.linspace(lo, hi, 1025)

        def hist(b: pa.Table, edges=edges, lo=lo, hi=hi,
                 last=last) -> pa.Table:
            v, w = _sel(b)
            m = (v >= lo) & ((v <= hi) if last else (v < hi))
            return _hist_table([(0, _hist_rows(v[m], edges, w[m]))],
                               weighted=True)

        bins = _combine_hist(ds.map_batches(hist, batch_format="pyarrow"),
                             weighted=True)[0]
        cum = np.cumsum(bins["ws"])
        b = int(np.searchsorted(cum, target - before, side="right"))
        if b:
            before += int(cum[b - 1])
        lo, hi = float(edges[b]), float(edges[b + 1])
        last = last and b == 1023
        # the terminal pass aggregates per distinct value, so a bin of
        # one value (however many rows) is as good as a small one
        if (int(bins["n"][b]) <= max_collect
                or bins["mn"][b] == bins["mx"][b]):
            break

    def term(b: pa.Table, lo=lo, hi=hi, last=last) -> pa.Table:
        v, w = _sel(b)
        m = (v >= lo) & ((v <= hi) if last else (v < hi))
        vv, ww = v[m], w[m]
        uv, inv = np.unique(vv, return_inverse=True)
        ws = np.zeros(len(uv), dtype=np.int64)
        np.add.at(ws, inv, ww)
        return pa.table({"val": pa.array(uv, type=pa.float64()),
                         "wsum": pa.array(ws)})

    got = ds.map_batches(term, batch_format="pyarrow") \
        .groupby("val").aggregate(Sum("wsum", alias_name="w")) \
        .to_pandas().sort_values("val")
    cum = before + got["w"].cumsum().to_numpy().astype(np.int64)
    j = int(np.searchsorted(cum, target, side="right"))
    if j >= len(got):  # pragma: no cover — window invariant violated
        raise AssertionError("weighted crossing escaped its window")
    return float(got["val"].iloc[j]), (int(cum[j - 1]) if j else before)


def weighted_quantiles_distributed(ds, val_col: str, w_col: str,
                                   qs_rational: list[tuple[int, int]],
                                   max_collect: int = 65_536) -> list[float]:
    """Exact weighted lower-order-statistic quantiles, distributed —
    for each rational ``(num, den)`` quantile returns the element at
    0-based rank ``(W - 1) * num // den`` of the weight-expanded sorted
    multiset (each row repeated ``w_col`` times; all-integer rank
    derivation so engine and SQL agree exactly). Equivalently: the
    smallest value whose inclusive cumulative weight exceeds the rank,
    the SQL ``min(val) WHERE sum(w) OVER (ORDER BY val) > rank`` twin.

    All ranks descend TOGETHER (the multi-target form of
    :func:`weighted_crossing_distributed`, mirroring
    :func:`exact_quantiles_distributed`): each refinement pass is ONE
    ``map_batches`` emitting 1024-bin (weight-sum, row-count) histogram
    rows per still-active deduped window plus one tiny groupby, and the
    terminal pass is ONE collect of per-batch per-DISTINCT-value weight
    partials over the union of resolved bins (each bounded by
    ``max_collect`` rows or a tie run), combined on the driver — no
    value column ever leaves the cluster unaggregated. Weights must be
    non-negative int64; zero-weight rows can never be selected by the
    crossing rule (their cumulative equals their predecessor's).
    """
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    def _sel(b: pa.Table):
        v = b.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        w = b.column(w_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ~np.isnan(v) & (w > 0)
        return v[keep], w[keep]

    def stats_part(b: pa.Table) -> pa.Table:
        v, w = _sel(b)
        return pa.table({
            "vmin": pa.array([float(v.min()) if len(v) else np.inf]),
            "vmax": pa.array([float(v.max()) if len(v) else -np.inf]),
            "wsum": pa.array([int(w.sum()) if len(v) else 0], type=pa.int64()),
        })

    agg = ds.map_batches(stats_part, batch_format="pyarrow").aggregate(
        Min("vmin"), Max("vmax"), Sum("wsum"))
    vmin, vmax = float(agg["min(vmin)"]), float(agg["max(vmax)"])
    total = int(agg["sum(wsum)"] or 0)
    if total == 0:
        return [float("nan")] * len(qs_rational)
    ranks = [(total - 1) * num // den for num, den in qs_rational]
    if any(r < 0 or r >= total for r in ranks):
        raise ValueError(f"rank out of range [0, {total})")

    # per-rank state: (lo, hi, below) — window + exact weight strictly
    # below it; resolved -> (blo, bhi, is_last, in_window_target)
    resolved: dict[int, tuple] = {}
    if _refinable(vmin, vmax):
        state = {i: (vmin, vmax, 0) for i in range(len(ranks))}
    else:  # whole column is one tie run of values
        state = {}
        for i, r in enumerate(ranks):
            resolved[i] = (vmin, vmax, True, r)

    while state:
        windows = sorted({(lo, hi) for lo, hi, _ in state.values()})
        w_edges = {w: np.linspace(w[0], w[1], 1025) for w in windows}

        def hist(b: pa.Table, windows=windows, w_edges=w_edges) -> pa.Table:
            v, w = _sel(b)
            parts = []
            for wi, (lo, hi) in enumerate(windows):
                m = (v >= lo) & (v <= hi)
                parts.append((wi, _hist_rows(v[m], w_edges[(lo, hi)], w[m])))
            return _hist_table(parts, weighted=True)

        by_w = _combine_hist(ds.map_batches(hist, batch_format="pyarrow"),
                             weighted=True)

        nxt = {}
        for i, (lo, hi, below) in state.items():
            wi = windows.index((lo, hi))
            wbins, nbins, mn, mx = (by_w[wi][c]
                                    for c in ("ws", "n", "mn", "mx"))
            edges = w_edges[(lo, hi)]
            cum = np.cumsum(wbins)
            target = ranks[i] - below
            b = int(np.searchsorted(cum, target, side="right"))
            w_before_bin = int(cum[b - 1]) if b else 0
            # the terminal pass aggregates per distinct value, so a
            # single-valued bin resolves however many rows it holds
            if (int(nbins[b]) <= max_collect or mn[b] == mx[b]
                    or not _refinable(edges[b], edges[b + 1])):
                resolved[i] = (float(edges[b]), float(edges[b + 1]),
                               b == 1023, target - w_before_bin)
            else:
                nxt[i] = (float(edges[b]), float(edges[b + 1]),
                          below + w_before_bin)
        state = nxt

    # one collect of per-batch per-distinct-value weight partials over
    # the union of resolved spans; rows <= spans x blocks x max_collect
    spans = sorted({(blo, bhi, last) for blo, bhi, last, _ in
                    resolved.values()})

    def term(b: pa.Table, spans=spans) -> pa.Table:
        v, w = _sel(b)
        tags, vals, wss = [], [], []
        for si, (blo, bhi, last) in enumerate(spans):
            m = (v >= blo) & ((v <= bhi) if last else (v < bhi))
            uv, inv = np.unique(v[m], return_inverse=True)
            ws_ = np.zeros(len(uv), dtype=np.int64)
            np.add.at(ws_, inv, w[m])
            tags.append(np.full(len(uv), si, dtype=np.int64))
            vals.append(uv)
            wss.append(ws_)
        return pa.table({"tag": pa.array(np.concatenate(tags)),
                         "val": pa.array(np.concatenate(vals),
                                         type=pa.float64()),
                         "wsum": pa.array(np.concatenate(wss))})

    got = ds.map_batches(term, batch_format="pyarrow").to_pandas() \
        .groupby(["tag", "val"], as_index=False)["wsum"].sum()
    out: list[float] = []
    for i in range(len(ranks)):
        blo, bhi, last, target = resolved[i]
        si = spans.index((blo, bhi, last))
        sub = got[got["tag"] == si].sort_values("val")
        cum = sub["wsum"].cumsum().to_numpy().astype(np.int64)
        j = int(np.searchsorted(cum, target, side="right"))
        out.append(float(sub["val"].iloc[j]))
    return out
