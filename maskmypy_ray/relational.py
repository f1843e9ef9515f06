"""Relational analytics over the TPC-H-shaped tables.

Two canonical shapes, both bit-exact against DuckDB because every money
sum runs in integer fixed-point (the table's money columns are 2-dp
decimals stored as doubles; ``round(x * 100)`` recovers exact cents, so
partial sums are order-independent int64 arithmetic and only the final
scale-back division touches floats — no float-accumulation-order
divergence between Ray partials and SQL aggregates):

* :func:`pricing_summary` — TPC-H Q1 shape: full-scan groupby with
  per-batch partial aggregates combined by one tiny ``groupby``.
* :func:`top_orders` — TPC-H Q3 shape: broadcast the small dimension
  side (segment-filtered customer keys), co-group the two fact tables
  (orders x lineitem) on the order key with ``util.cogroup_map`` (every
  row of a key meets in one sorted block, so the per-block pyarrow
  sum+join is final for that key), then a distributed sort + limit.

Int64 headroom: charge sums carry a 1e6 scale; at ~1e7 cents/row that
is ~1e11 per row, so a single (flag, status) group overflows int64 only
past ~9e7 rows per PARTIAL (per-batch partials are ~64k rows) and
~9e7 rows per group at the final combine x 1e6 scale — at larger SFs
drop the scale to 1e4 per stage or split the charge sum into two
columns. Cutoff constants are fixed so the SQL oracles mirror them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .util import cogroup_map

Q1_CUTOFF_US = 1_000_000 * int(pd.Timestamp("2001-06-01").timestamp())
Q3_SEGMENT = "BUILDING"
Q3_CUTOFF_US = 1_000_000 * int(pd.Timestamp("2000-06-01").timestamp())


def _ts_us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _cents(col, n: int = 100) -> np.ndarray:
    v = col.to_numpy(zero_copy_only=False)
    return np.round(v * n).astype(np.int64)


def pricing_summary(lineitem_ds, cutoff_us: int = Q1_CUTOFF_US):
    """TPC-H Q1: per (returnflag, linestatus) sums/avgs over lineitems
    shipped up to the cutoff. Per-batch integer partials -> one tiny
    groupby -> exact float finalization."""
    from ray.data.aggregate import Sum

    empty = pa.table({
        "l_returnflag": pa.array([], type=pa.string()),
        "l_linestatus": pa.array([], type=pa.string()),
        "qty_c": pa.array([], type=pa.int64()),
        "ext_c": pa.array([], type=pa.int64()),
        "disc_c": pa.array([], type=pa.int64()),
        "disc_price_e4": pa.array([], type=pa.int64()),
        "charge_e6": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
    })

    def partial(b: pa.Table) -> pa.Table:
        keep = _ts_us(b.column("l_shipdate")) <= cutoff_us
        b = b.filter(pa.array(keep))
        if b.num_rows == 0:
            # an all-filtered batch must not flow through from_pandas —
            # its empty object columns would infer as null-typed and
            # schema-clash with sibling blocks (ADVICE r03)
            return empty
        qty = _cents(b.column("l_quantity"))
        ext = _cents(b.column("l_extendedprice"))
        disc = _cents(b.column("l_discount"))
        tax = _cents(b.column("l_tax"))
        df = pd.DataFrame({
            "l_returnflag": b.column("l_returnflag").to_numpy(zero_copy_only=False),
            "l_linestatus": b.column("l_linestatus").to_numpy(zero_copy_only=False),
            "qty_c": qty,
            "ext_c": ext,
            "disc_c": disc,
            "disc_price_e4": ext * (100 - disc),
            "charge_e6": ext * (100 - disc) * (100 + tax),
            "n": np.ones(len(qty), dtype=np.int64),
        })
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False,
                       as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = lineitem_ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["l_returnflag", "l_linestatus"]).aggregate(
            Sum("qty_c", alias_name="qty_c"),
            Sum("ext_c", alias_name="ext_c"),
            Sum("disc_c", alias_name="disc_c"),
            Sum("disc_price_e4", alias_name="disc_price_e4"),
            Sum("charge_e6", alias_name="charge_e6"),
            Sum("n", alias_name="n"))

    def finalize(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        qty = b.column("qty_c").to_numpy(zero_copy_only=False).astype(np.int64)
        ext = b.column("ext_c").to_numpy(zero_copy_only=False).astype(np.int64)
        disc = b.column("disc_c").to_numpy(zero_copy_only=False).astype(np.int64)
        dp = b.column("disc_price_e4").to_numpy(zero_copy_only=False).astype(np.int64)
        ch = b.column("charge_e6").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "sum_qty": pa.array(qty / 100.0, type=pa.float64()),
            "sum_base_price": pa.array(ext / 100.0, type=pa.float64()),
            "sum_disc_price": pa.array(dp / 10_000.0, type=pa.float64()),
            "sum_charge": pa.array(ch / 1_000_000.0, type=pa.float64()),
            "avg_qty": pa.array(qty / (100.0 * n), type=pa.float64()),
            "avg_price": pa.array(ext / (100.0 * n), type=pa.float64()),
            "avg_disc": pa.array(disc / (100.0 * n), type=pa.float64()),
            "count_order": pa.array(n, type=pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def top_orders(lineitem_ds, orders_ds, customer_table: pa.Table,
               segment: str = Q3_SEGMENT, cutoff_us: int = Q3_CUTOFF_US,
               k: int = 10):
    """TPC-H Q3: top-``k`` orders by revenue for one customer segment —
    (l_orderkey, revenue, o_orderdate [epoch us], o_orderpriority).

    Dimension side (customers of the segment) is broadcast; the
    orders x lineitem fact join is ONE ``util.cogroup_map`` on the
    order key: every row of a key meets in one sorted block, whose
    kernel sums the lineitem partials per key (``group_by``) and
    inner-joins them to the orders (``pa.Table.join``), then a
    distributed sort+limit yields the top k. Ties break on ascending
    orderkey."""
    import ray

    keys = customer_table.filter(
        pa.compute.equal(customer_table.column("c_mktsegment"), segment)
    ).column("c_custkey").to_numpy(zero_copy_only=False)
    cust_ref = ray.put(np.sort(keys.astype(np.int64)))

    def order_rows(b: pa.Table) -> pa.Table:
        ck = ray.get(cust_ref)
        cust = b.column("o_custkey").to_numpy(zero_copy_only=False)
        od = _ts_us(b.column("o_orderdate"))
        if len(ck):
            pos = np.minimum(np.searchsorted(ck, cust), len(ck) - 1)
            hit = ck[pos] == cust
        else:
            hit = np.zeros(len(cust), dtype=bool)
        keep = hit & (od < cutoff_us)
        b = b.filter(pa.array(keep))
        return pa.table({"okey": b.column("o_orderkey"),
                         "odate": pa.array(_ts_us(b.column("o_orderdate"))),
                         "oprio": b.column("o_orderpriority")})

    def line_rows(b: pa.Table) -> pa.Table:
        keep = _ts_us(b.column("l_shipdate")) > cutoff_us
        b = b.filter(pa.array(keep))
        okey = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        ext = _cents(b.column("l_extendedprice"))
        disc = _cents(b.column("l_discount"))
        df = pd.DataFrame({"okey": okey, "rev": ext * (100 - disc)})
        g = df.groupby("okey", sort=False, as_index=False).sum()  # combiner
        return pa.table({
            "okey": pa.array(g["okey"].to_numpy(dtype=np.int64)),
            "rev_e4": pa.array(g["rev"].to_numpy(dtype=np.int64)),
        })

    def join_part(orders: pa.Table, lines: pa.Table) -> pa.Table:
        rev = lines.group_by("okey").aggregate([("rev_e4", "sum")])
        m = orders.join(rev, "okey", join_type="inner")
        return pa.table({"l_orderkey": m.column("okey"),
                         "revenue_e4": m.column("rev_e4_sum"),
                         "o_orderdate": m.column("odate"),
                         "o_orderpriority": m.column("oprio")})

    joined = cogroup_map(
        [(orders_ds.map_batches(order_rows, batch_format="pyarrow"), "okey",
          pa.schema([("okey", pa.int64()), ("odate", pa.int64()),
                     ("oprio", pa.string())])),
         (lineitem_ds.map_batches(line_rows, batch_format="pyarrow"), "okey",
          pa.schema([("okey", pa.int64()), ("rev_e4", pa.int64())]))],
        join_part,
        pa.schema([("l_orderkey", pa.int64()), ("revenue_e4", pa.int64()),
                   ("o_orderdate", pa.int64()),
                   ("o_orderpriority", pa.string())]))
    top = joined.sort(["revenue_e4", "l_orderkey"],
                      descending=[True, False]).limit(k)

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "revenue": pa.array(
                b.column("revenue_e4").to_numpy(zero_copy_only=False)
                / 10_000.0, type=pa.float64()),
            "o_orderdate": b.column("o_orderdate"),
            "o_orderpriority": b.column("o_orderpriority"),
        })

    return top.map_batches(finalize, batch_format="pyarrow")
