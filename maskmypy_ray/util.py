"""Small Ray helpers."""

from __future__ import annotations

# Sorted bytes per segment_map partition; None reads Ray's
# DataContext.target_max_block_size (128 MiB by default).
PARTITION_BYTES = None


def auto_concurrency(cap: int = 64) -> tuple[int, int]:
    """Autoscaling actor-pool bounds (min 1, max = CPUs - 2 capped).

    A FIXED pool equal to the CPU count reserves every slot and starves
    the upstream read stage (deadlock on small ray.init sessions); an
    autoscaling (1, N) pool starts at 1 actor and grows only while CPUs
    are free.
    """
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(1, min(cap, cpus - 2)))


def segment_bounds(keys):
    """``(starts, ends)`` of the runs of equal values in ``keys``, an
    array already sorted so each key is one contiguous run."""
    import numpy as np

    keys = np.asarray(keys)
    if not len(keys):
        z = np.array([], dtype=np.int64)
        return z, z
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return starts, np.r_[starts[1:], len(keys)]


def flat_ranges(start, count):
    """Concatenated ``arange(start[i], start[i] + count[i])``: the rows
    of a CSR's selected segments, in order."""
    import numpy as np

    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0, dtype=np.int64) \
        + np.repeat(start - (ends - count), count)


def segment_map(ds, key: str, kernel, schema):
    """``kernel(block)`` over every block of ``ds.sort(key)``, each block
    whole (``batch_size=None``) and in pyarrow: the fine-key group
    shape without a UDF call per group. The sort's range partitioning
    keeps every key inside one block, so the kernel finds complete
    segments (:func:`segment_bounds`); ``schema`` types what an empty
    block yields. (Ray 2.49 forwards a zero-row block without calling a
    map UDF, so a sort's empty partitions pass through schema-less; the
    kernels type their own empty outputs.) The sort is an all-to-all
    barrier, so the whole-block map never fuses with a row-expanding
    upstream stage.

    The fan-out is decided here, once, from the input's size: the sort
    runs over ``P = max(1, min(blocks, ceil(bytes / PARTITION_BYTES)))``
    partitions, and the input is coalesced to P blocks when P is below
    its block count. A shuffle costs in-blocks x out-partitions objects,
    so a small input sorts into one partition however many blocks it
    arrived in, while at 10^12 rows each partition still holds about
    one target block (``bytes / PARTITION_BYTES`` is then far above any
    CPU count, and capping at the block count never sorts into more
    partitions than the blocks Ray cut). The sizes come from block
    metadata, so an input that is not materialised is materialised
    first (the sort is an all-to-all barrier that holds every input
    block before it sorts anything anyway), and a materialised input
    does not run again."""
    import math

    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE, DataContext
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    target = PARTITION_BYTES or DataContext.get_current() \
        .target_max_block_size or DEFAULT_TARGET_MAX_BLOCK_SIZE
    blocks = ds.num_blocks()
    p = max(1, min(blocks, math.ceil((ds.size_bytes() or 0) / target)))
    if p < blocks:
        ds = ds.repartition(p)

    def fn(block):
        return kernel(block) if block.num_rows else schema.empty_table()

    return ds.sort(key).map_batches(fn, batch_format="pyarrow",
                                    batch_size=None)


def cogroup_map(sides, kernel, schema):
    """Keyed co-group of several datasets: ``sides`` is a list of
    ``(ds, key_col, side_schema)``, and every row that shares a key,
    from every side, reaches exactly ONE call ``kernel(*tables)`` with
    one ``pa.Table`` per side, typed by its ``side_schema`` (a side
    with no rows in the block arrives as a typed zero-row table). The
    result is cast to ``schema``.

    Each side is projected and cast to its schema, then padded to one
    union schema with typed Arrow nulls plus an int8 side tag (``_key``
    holds the key, cast to the first side's key type); the union runs
    through :func:`segment_map` on the real key, and each sorted block
    is split back by the tag. Kernels join with ``pa.Table.join``,
    ``group_by`` or ``searchsorted`` — no pandas, so an int64 id stays
    int64 at any magnitude (no sentinel padding, no float round trip,
    no cast-back stage)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    key_type = sides[0][2].field(sides[0][1]).type
    cols = {i: {f.name: f"_{i}_{f.name}" for f in sch if f.name != key}
            for i, (_, key, sch) in enumerate(sides)}
    union = pa.schema(
        [("_key", key_type), ("_side", pa.int8())]
        + [(cols[i][f.name], f.type) for i, (_, key, sch) in enumerate(sides)
           for f in sch if f.name != key])

    def pad(i, key, sch):
        def fn(b: pa.Table) -> pa.Table:
            b = b.select(sch.names).cast(sch)
            own = {u: b.column(c) for c, u in cols[i].items()}
            n = b.num_rows
            return pa.Table.from_arrays(
                [b.column(key).cast(key_type),
                 pa.array(np.full(n, i, dtype=np.int8))]
                + [own[f.name] if f.name in own else pa.nulls(n, f.type)
                   for f in list(union)[2:]], schema=union)
        return fn

    def split(block: pa.Table) -> pa.Table:
        tag = block.column("_side")
        tables = []
        for i, (_, key, sch) in enumerate(sides):
            t = block.filter(pc.equal(tag, pa.scalar(i, pa.int8())))
            tables.append(pa.Table.from_arrays(
                [t.column("_key").cast(f.type) if f.name == key
                 else t.column(cols[i][f.name]) for f in sch], schema=sch))
        return kernel(*tables).select(schema.names).cast(schema)

    padded = [ds.map_batches(pad(i, key, sch), batch_format="pyarrow")
              for i, (ds, key, sch) in enumerate(sides)]
    return segment_map(padded[0].union(*padded[1:]) if len(padded) > 1
                       else padded[0], "_key", split, schema)


def run_local_ranks(new):
    """0-based rank of each row WITHIN its run, given run-start
    indicator ``new`` over rows already sorted so each run is
    contiguous — one vectorized arange-minus-starts, no per-run loop.
    The segmented building block shared by the LSH pair kernels
    (:func:`segmented_pair_indices`) and the keyed-prefix-sum rank
    assignment in ``text.corpus.shuffle_shards``."""
    import numpy as np

    if not len(new):
        return np.array([], dtype=np.int64)
    starts = np.nonzero(new)[0]
    run = np.cumsum(new) - 1
    return np.arange(len(new), dtype=np.int64) - starts[run]


def segmented_pair_indices(new):
    """Row positions ``(ia, ib)`` of every within-run pair (``ia < ib``,
    same run) given run-start indicator ``new`` over rows already sorted
    so each bucket is a contiguous run — ONE segmented arange, no
    per-bucket Python loop. Shared by the MinHash-, SimHash- and
    sign-LSH bucket→candidate-pair kernels: at web scale one coarse
    partition holds millions of colliding buckets, so a per-bucket
    pandas groupby loop (~70 us each) is the path's real hot spot
    (measured 55x on 200k buckets)."""
    import numpy as np

    if not len(new):
        z = np.array([], dtype=np.int64)
        return z, z
    starts = np.nonzero(new)[0]
    run = np.cumsum(new) - 1
    local = run_local_ranks(new)
    M = int(local.sum())
    if not M:
        z = np.array([], dtype=np.int64)
        return z, z
    ib = np.repeat(np.arange(len(new), dtype=np.int64), local)
    return flat_ranges(starts[run], local), ib


def pair_ids_ref(pairs_ds, col_a: str, col_b: str):
    """Sorted distinct ids appearing in either side column of a
    (materialized) candidate-pair Dataset, compiled in a single Ray task
    from the pair blocks — the driver holds only the ObjectRef, so
    candidates never visit the driver. Size is bounded by the candidate
    count (the mass the verify stage holds anyway); each block is
    deduped as it is consumed so the task's peak stays at the per-block
    distinct sum. Used by the LSH verify semi-joins
    (text.dedup.minhash_lsh_pairs, sim.ann.cosine_pairs_lsh) to filter
    the big payload table (shingles / embeddings) to candidate members
    BEFORE its tokenize/cast stage and its partition all-to-all."""
    import numpy as np
    import pyarrow as pa
    import ray

    @ray.remote(num_cpus=1)
    def union(*blocks):
        arrs = []
        for b in blocks:
            t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            # empty shuffle partitions yield schema-less blocks
            if not t.num_rows or col_a not in t.column_names:
                continue
            ab = np.concatenate([
                t.column(col_a).to_numpy(zero_copy_only=False),
                t.column(col_b).to_numpy(zero_copy_only=False)])
            arrs.append(np.unique(ab.astype(np.int64)))
        if not arrs:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrs))

    return union.remote(*pairs_ds.to_arrow_refs())


def sorted_member_mask(sorted_ids, ids):
    """Boolean membership of ``ids`` in the broadcast sorted array —
    one searchsorted probe, no Python sets."""
    import numpy as np

    if not len(sorted_ids):
        return np.zeros(len(ids), dtype=bool)
    pos = np.searchsorted(sorted_ids, ids)
    return (pos < len(sorted_ids)) & \
        (sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == ids)
