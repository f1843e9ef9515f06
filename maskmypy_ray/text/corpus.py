"""Corpus curation: benchmark decontamination over the documents table.

The standard training-data hygiene step (remove training documents that
share long n-grams with an evaluation benchmark — e.g. GPT-3 appendix C,
PaLM §B.4): the benchmark side is always small and fixed, so the 100-TB
shape is a broadcast hash-set membership test inside ``map_batches`` —
never a shuffle join. The benchmark gram set is compiled in a Ray task
from the filtered dataset's block refs (driver never holds the text) and
shipped once via the object store.

Gram hashing is fully vectorized: one batch-wide RE2 split +
dictionary-encode, md5 only per DISTINCT token (content-based, so hashes
agree across batches and across the compile/flag stages), then one
fixed-position uint64 mix over sliding windows — no per-gram Python.
Collision probability over a ``|corpus grams| x |benchmark grams|``
membership test is ~1e-8 at billions of grams; the oracle compares exact
strings, so any collision would surface as a hash mismatch in
CORRECTNESS.
"""

from __future__ import annotations

from hashlib import md5

import numpy as np
import pandas as pd
import pyarrow as pa

BENCH_MOD = 97  # doc_id % BENCH_MOD == 0 -> benchmark member (fixture rule)

# odd 64-bit position multipliers + splitmix64 finalizer constants
_POS_MULT = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                      0x165667B19E3779F9, 0x27D4EB2F165667C5,
                      0x9E3779B97F4A7C55], dtype=np.uint64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64-style avalanche finalizer (vectorized, wraps mod 2^64)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _batch_gram_hashes(batch: pa.Table, n: int,
                       text_col: str = "text"):
    """(seg, gram_hash) for every full word n-gram in the batch, position
    ordered, duplicates included. Vectorized: tokens are dictionary-
    encoded once, md5 runs per DISTINCT token, and each window hash is a
    position-weighted uint64 mix of its token hashes."""
    from .quality import _flat_tokens

    assert n <= len(_POS_MULT), f"n > {len(_POS_MULT)} needs more multipliers"
    seg, tok, vocab, nrows = _flat_tokens(batch, text_col)
    if len(tok) < n:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64),
                nrows)
    # content-based hash per DISTINCT token (md5 runs |vocab| times, not
    # |tokens| times; hashes agree across batches because they depend
    # only on the token string)
    words = vocab.to_pylist()
    th_vocab = np.frombuffer(
        b"".join(md5(w.encode()).digest()[:8] for w in words),
        dtype=np.uint64)
    th = th_vocab[tok]
    # sliding windows: h = mix64(xor_i(th[pos+i] * POS_MULT[i]))
    m = len(th) - n + 1
    acc = th[:m] * _POS_MULT[0]
    for i in range(1, n):
        acc = acc ^ (th[i:m + i] * _POS_MULT[i])
    g = _mix64(acc)
    valid = seg[:m] == seg[n - 1:]
    return seg[:m][valid], g[valid], nrows


def _distinct_per_seg(seg: np.ndarray, g: np.ndarray):
    """Drop duplicate (seg, gram) pairs; returns (seg, gram) sorted."""
    if not len(seg):
        return seg, g
    order = np.lexsort((g, seg))
    ss, gs = seg[order], g[order]
    first = np.ones(len(ss), dtype=bool)
    first[1:] = (gs[1:] != gs[:-1]) | (ss[1:] != ss[:-1])
    return ss[first], gs[first]


def _benchmark_grams_ref(ds, n: int):
    """Union of the benchmark docs' gram hashes. The heavy part (filter +
    tokenize + hash) runs as a parallel Dataset stage; only the tiny
    per-block distinct hash arrays reach the single union task, whose
    result stays in the object store (driver never holds the text)."""
    import ray

    def bench_hashes(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        mask = ids % BENCH_MOD == 0
        if not mask.any():
            return pa.table({"g": pa.array([], type=pa.uint64())})
        _, g, _ = _batch_gram_hashes(b.filter(pa.array(mask)), n)
        return pa.table({"g": pa.array(np.unique(g), type=pa.uint64())})

    hashed = ds.select_columns(["doc_id", "text"]).map_batches(
        bench_hashes, batch_format="pyarrow")

    @ray.remote(num_cpus=1)
    def union(*blocks):
        arrs = []
        for b in blocks:
            t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            # empty blocks inherited from upstream map_groups partitions
            # can carry an EMPTY schema (Ray passes them through without
            # applying the UDF) — they contribute nothing
            if "g" in t.column_names:
                arrs.append(t.column("g").to_numpy(zero_copy_only=False))
        arrs = [a for a in arrs if len(a)]
        if not arrs:
            return np.empty(0, dtype=np.uint64)
        return np.unique(np.concatenate(arrs))

    return union.remote(*hashed.to_arrow_refs())


SAMPLE_STREAM = 910  # rng stream registry: stratified data-mix sampling


def _source_frac(num: np.ndarray) -> np.ndarray:
    """Per-source keep fraction from the source's numeric suffix:
    (1 + num % 4) / 5 -> 0.2 / 0.4 / 0.6 / 0.8 (a fixed data-mixing
    recipe, mirrored exactly in the SQL oracle)."""
    return (1 + num % 4) / 5.0


def stratified_sample_batch(batch: pa.Table, seed: int) -> pa.Table:
    """Keep each row iff its counter-RNG draw (keyed on doc_id, stream
    910) falls below its source's mix fraction — deterministic at any
    parallelism, no coordination, the standard hash-sampling shape for
    training-data mixing."""
    import pyarrow.compute as pc

    from ..rng import uniform01

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    enc = pc.dictionary_encode(batch.column("source"))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nums = np.array([int("".join(ch for ch in s if ch.isdigit()) or 0)
                     for s in enc.dictionary.to_pylist()], dtype=np.int64)
    frac = _source_frac(nums)[idx]
    u = uniform01(ids, seed, SAMPLE_STREAM)
    return batch.filter(pa.array(u < frac))


def stratified_sample(ds, seed: int = 42):
    """Dataset of the kept (doc_id, source) rows under the per-source
    mix fractions."""
    return ds.map_batches(lambda b: stratified_sample_batch(b, seed),
                          batch_format="pyarrow") \
        .select_columns(["doc_id", "source"])


def flag_batch(batch: pa.Table, bench: np.ndarray, n: int) -> pa.Table:
    """Per-batch contamination flags: one vectorized gram-hash pass, one
    ``np.isin`` against the broadcast benchmark set, one bincount."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    seg, g, nrows = _batch_gram_hashes(batch, n)
    dseg, dg = _distinct_per_seg(seg, g)
    hit = np.isin(dg, bench, assume_unique=False)
    hits_per_row = np.bincount(dseg[hit], minlength=nrows).astype(np.int64)
    keep = ids % BENCH_MOD != 0
    hits = hits_per_row[keep]
    return pa.table({
        "doc_id": pa.array(ids[keep], type=pa.int64()),
        "n_hit_grams": pa.array(hits, type=pa.int64()),
        "contaminated": pa.array((hits > 0).astype(np.int64), type=pa.int64()),
    })


def decontaminate(ds, n: int = 5):
    """(doc_id, n_hit_grams, contaminated) for every NON-benchmark doc:
    the count of its distinct word n-grams that also occur anywhere in
    the benchmark slice (doc_id % 97 == 0).

    Task-pool stage, not an actor pool: the only per-task state is one
    ``ray.get`` of the broadcast hash array — a zero-copy shared-memory
    read — so plain tasks reach full parallelism instantly instead of
    paying actor-pool ramp-up (measured 2x on a 2 s job)."""
    import ray

    bench_ref = _benchmark_grams_ref(ds, n)

    def flag(batch: pa.Table) -> pa.Table:
        return flag_batch(batch, ray.get(bench_ref), n)

    return ds.map_batches(flag, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-filter decontamination (bounded-broadcast variant)
# ---------------------------------------------------------------------------

# Bloom geometry: K hash probes into an m-bit array (m a power of two).
# Probe i of gram g is ``mix32(g XOR BLOOM_SALTS[i]) & (m - 1)`` — the
# engine's 32-bit avalanche, so the SQL oracle reproduces every bit
# position (and therefore every false positive) exactly.
BLOOM_K = 4
BLOOM_M_BITS = 1 << 18  # 256 Kbit = 32 KiB broadcast at the default
_BLOOM_SALT_BASE = 0xB100


def _bloom_salts() -> np.ndarray:
    from ..rng import mix32

    return mix32(np.arange(BLOOM_K, dtype=np.int64) + _BLOOM_SALT_BASE)


def _bloom_positions(g: np.ndarray, m_bits: int) -> np.ndarray:
    """(BLOOM_K, len(g)) int64 bit positions for 32-bit gram hashes."""
    from ..rng import mix32

    salts = _bloom_salts()
    return np.stack([mix32(g ^ int(s)) & (m_bits - 1) for s in salts])


def _bench_bloom_ref(ds, n: int, m_bits: int):
    """Compile the benchmark slice's word-n-gram Bloom bitset in a Ray
    task; the driver holds only the ObjectRef. Grams are the dedup-side
    positional hashes (text/grams.py — full windows only, short docs
    contribute nothing), so the bitset composes with the near-dup
    family and has an exact SQL twin."""
    import ray

    from .grams import gram_hashes_batch, token_codes_batch

    def bench_bits(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        mask = ids % BENCH_MOD == 0
        if not mask.any():
            return pa.table({"p": pa.array([], type=pa.int64())})
        codes, bounds = token_codes_batch(
            b.filter(pa.array(mask)).column("text").to_pylist())
        g, _ = gram_hashes_batch(codes, bounds, n, "skip")
        pos = np.unique(_bloom_positions(np.unique(g), m_bits))
        return pa.table({"p": pa.array(pos, type=pa.int64())})

    posed = ds.select_columns(["doc_id", "text"]).map_batches(
        bench_bits, batch_format="pyarrow")

    @ray.remote(num_cpus=1)
    def union(*blocks):
        view = np.zeros(m_bits, dtype=bool)
        for b in blocks:
            t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            if "p" in t.column_names and len(t):
                view[t.column("p").to_numpy(zero_copy_only=False)] = True
        return np.packbits(view)  # m_bits/8 bytes broadcast

    return union.remote(*posed.to_arrow_refs())


def _bloom_test(bits: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Probe a packed (np.packbits big-endian) bitset at ``pos``; bool
    array of the same shape — two gathers, no unpack of the bitset."""
    return (bits[pos >> 3] >> (7 - (pos & 7)) & 1).astype(bool)


def decontaminate_bloom(ds, n: int = 5, m_bits: int = BLOOM_M_BITS):
    """Bloom-filter benchmark decontamination: ``(doc_id, n_hit_grams,
    contaminated)`` for every non-benchmark doc, where a gram "hits"
    iff all ``BLOOM_K`` of its probe bits are set in the benchmark
    bitset.

    The 100-TB rationale vs :func:`decontaminate`: the broadcast side
    is a FIXED ``m_bits/8``-byte bitset regardless of how many grams
    the benchmark suite holds (an exact gram set for a 10^9-gram eval
    suite is ~8 GB of hashes; the bloom at 1e-4 FP is ~2.4 GB of bits
    — and a few MB for normal eval suites), and the probe is four
    vectorized gathers per batch. The trade is a deterministic false-
    positive rate (~(1-e^{-K·n_grams/m})^K, over-flagging only — safe
    for a removal filter). Every bit position derives from ``mix32``,
    so the DuckDB oracle reproduces the exact output INCLUDING false
    positives — approximation without nondeterminism."""
    import ray

    from .grams import distinct_per_doc, gram_hashes_batch, token_codes_batch

    bits_ref = _bench_bloom_ref(ds, n, m_bits)

    def flag(batch: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)  # zero-copy plasma read per task
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % BENCH_MOD != 0
        out_ids = ids[keep]
        nh = np.zeros(len(out_ids), dtype=np.int64)
        texts = batch.filter(pa.array(keep)).column("text").to_pylist()
        if texts:
            codes, bounds = token_codes_batch(texts)
            g, gb = gram_hashes_batch(codes, bounds, n, "skip")
            g, gb = distinct_per_doc(g, gb)
            if len(g):
                pos = _bloom_positions(g, m_bits)
                hit = _bloom_test(bits, pos).all(axis=0)
                seg = np.repeat(np.arange(len(gb) - 1, dtype=np.int64),
                                np.diff(gb))
                nh = np.bincount(seg[hit],
                                 minlength=len(out_ids)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(out_ids, type=pa.int64()),
            "n_hit_grams": pa.array(nh, type=pa.int64()),
            "contaminated": pa.array((nh > 0).astype(np.int64),
                                     type=pa.int64()),
        })

    return ds.select_columns(["doc_id", "text"]).map_batches(
        flag, batch_format="pyarrow")


HOST_RE = r"^https?://(?P<host>[^/]+)"


def domain_stats_partial_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial aggregate of per-HOST page stats over the web
    corpus (url column): (host, n_pages, n_chars) sums — the domain-level
    twin of source_stats (domain blocklists / per-site caps are standard
    web-curation steps)."""
    import pyarrow.compute as pc

    ex = pc.extract_regex(batch.column("url"), HOST_RE)
    host = pc.struct_field(ex, "host")
    enc = pc.dictionary_encode(host)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    hosts = enc.dictionary.to_pylist()
    n_chr = pc.utf8_length(batch.column("text")).to_numpy(
        zero_copy_only=False).astype(np.int64)
    k = len(hosts)
    return pa.table({
        "host": pa.array(hosts, type=pa.string()),
        "n_pages": pa.array(np.bincount(idx, minlength=k), type=pa.int64()),
        "n_chars": pa.array(
            np.bincount(idx, weights=n_chr, minlength=k).astype(np.int64),
            type=pa.int64()),
    })


DOMAIN_STATS_SCHEMA = pa.schema({"host": pa.string(), "n_pages": pa.int64(),
                                  "n_chars": pa.int64()})


def _domain_stats_block(t: pa.Table) -> pa.Table:
    """Sum the per-batch partials of each host in a ``host``-sorted block."""
    g = t.group_by("host").aggregate([("n_pages", "sum"), ("n_chars", "sum")])
    return pa.table([g.column("host"), g.column("n_pages_sum"),
                     g.column("n_chars_sum")], schema=DOMAIN_STATS_SCHEMA)


def domain_stats(ds):
    """(host, n_pages, n_chars) per URL host: per-batch partial sums, then
    one :func:`util.segment_map` on ``host`` with a ``group_by`` sum
    kernel. (A Ray ``groupby().aggregate`` here hashed into as many
    partitions as blocks and sent its empty ones on column-less.)"""
    from ..util import segment_map

    part = ds.map_batches(domain_stats_partial_batch, batch_format="pyarrow")
    return segment_map(part, "host", _domain_stats_block, DOMAIN_STATS_SCHEMA)


SAMPLE_K_STREAM = 911  # rng stream registry: fixed-k uniform sampling


def sample_fixed_k_partial(batch: pa.Table, k: int, seed: int,
                           key_col: str) -> pa.Table:
    """Per-batch partial: keep the batch's k smallest (u, key) rows —
    caps the sort input at k rows per batch."""
    from ..rng import uniform01

    ids = batch.column(key_col).to_numpy(zero_copy_only=False)
    u = uniform01(ids, seed, SAMPLE_K_STREAM)
    order = np.lexsort((ids, u))[:k]
    order = np.sort(order)
    return pa.table({
        key_col: pa.array(ids[order], type=pa.int64()),
        "u": pa.array(u[order], type=pa.float64()),
    })


def sample_fixed_k(ds, k: int = 100, seed: int = 42, key_col: str = "doc_id"):
    """Deterministic uniform k-sample of a table of ANY size: rank every
    row by its counter-RNG draw u(key) and keep the k smallest
    (ties -> smaller key). Order-, partition- and retry-independent;
    the RNG mirrors into SQL so the selected set is bit-reproducible.

    Scale shape: per-batch partial top-k (k rows leave each batch) then
    one distributed sort + limit over ~k x blocks rows — the standard
    way to cut a fixed eval/debug sample from an arbitrarily large
    corpus without a full shuffle."""
    part = ds.map_batches(
        lambda b: sample_fixed_k_partial(b, k, seed, key_col),
        batch_format="pyarrow")
    return part.sort(["u", key_col]).limit(k)


SAMPLE_K_SRC_STREAM = 917  # rng stream registry: per-source fixed-k sampling


def sample_fixed_k_per_source_partial(batch: pa.Table, k: int, seed: int,
                                      key_col: str,
                                      source_col: str) -> pa.Table:
    """Per-batch partial: the k smallest (u, key) rows PER SOURCE in
    this batch — at most k x (sources in batch) rows leave, one
    vectorized lexsort + segmented head-k, no per-source loop."""
    import pyarrow.compute as pc

    from ..rng import uniform01

    ids = batch.column(key_col).to_numpy(zero_copy_only=False)
    enc = pc.dictionary_encode(
        batch.column(source_col).combine_chunks())
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    u = uniform01(ids, seed, SAMPLE_K_SRC_STREAM)
    order = np.lexsort((ids, u, codes))
    if len(order):
        new = np.ones(len(order), dtype=bool)
        new[1:] = codes[order][1:] != codes[order][:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        keep_pos = (np.arange(len(order)) - starts[seg]) < k
        order = order[keep_pos]
    return pa.table({
        source_col: batch.column(source_col).take(pa.array(order)),
        key_col: pa.array(ids[order], type=pa.int64()),
        "u": pa.array(u[order], type=pa.float64()),
    })


def sample_fixed_k_per_source(ds, k: int = 20, seed: int = 42,
                              key_col: str = "doc_id",
                              source_col: str = "source"):
    """Stratified deterministic sample: the k counter-RNG-smallest rows
    of EVERY source (ties -> smaller key) — the fixed-size-per-stratum
    eval cut (`sample_fixed_k` is the global variant; `sample_mix` is
    fractional). Order-, partition- and retry-independent; the RNG
    mirrors into SQL so each stratum's kept set is bit-reproducible.

    Scale shape: per-batch segmented partial top-k caps the shuffle at
    k rows per (source, batch); sources are FEW and the survivors are
    <= k x sources x blocks rows, so the final per-source head-k is a
    legitimate few-big-groups ``groupby().map_groups`` (round-3 rule)."""
    part = ds.map_batches(
        lambda b: sample_fixed_k_per_source_partial(
            b, k, seed, key_col, source_col),
        batch_format="pyarrow")

    def head_k(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["u", key_col], kind="mergesort").head(k)

    def to_arrow(d: pd.DataFrame) -> pa.Table:
        return pa.table({
            source_col: pa.array(d[source_col].to_numpy(dtype=object),
                                 type=pa.string()),
            key_col: pa.array(d[key_col].to_numpy(), type=pa.int64()),
            "u": pa.array(d["u"].to_numpy(), type=pa.float64()),
        })

    return part.groupby(source_col) \
        .map_groups(head_k, batch_format="pandas") \
        .map_batches(to_arrow, batch_format="pandas")


MIX_Q_SCALE = 1_000_000_000  # sqrt quantizer: q_i = floor(1e9 * sqrt(n_i))
MIX_W_SCALE = 1_000_000      # weights in parts-per-million


def source_mix_weights(ds, source_col: str = "source") -> pa.Table:
    """Temperature-scaled source mixing weights at alpha = 1/2: the
    multinomial sampling rates w_i proportional to n_i^alpha that
    rebalance a head-heavy corpus (the exponent-smoothing mixing rule
    of multilingual / multi-source pretraining recipes). alpha = 1/2
    is the IEEE-exact temperature: the engine and the SQL twin each
    compute q_i = floor(1e9 * sqrt(n_i)) — sqrt and the multiply are
    one correctly-rounded op apiece, so they agree bit-for-bit — and
    the weight is then the EXACT integer rational
    w_ppm_i = q_i * 1e6 // sum_j q_j (no float sum, no order
    dependence).

    Scale shape: per-batch bincount partials combine before the
    ``groupby(source).sum`` (shuffle volume = sources x blocks); the
    weights themselves are computed driver-side over n_sources rows —
    bounded, the documented few-big-groups exception (a corpus has a
    handful of sources at any scale)."""
    from ray.data.aggregate import Sum

    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch.column(source_col))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(enc.dictionary)
        return pa.table({
            source_col: enc.dictionary.cast(pa.string()),
            "n_docs": pa.array(np.bincount(idx, minlength=k),
                               type=pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(source_col).aggregate(Sum("n_docs", alias_name="n_docs"))
    rows = sorted(agg.take_all(), key=lambda r: r[source_col])
    n = np.array([r["n_docs"] for r in rows], dtype=np.float64)
    # one IEEE mul of one correctly-rounded sqrt -> bit-equal to SQL
    q = [int(v) for v in np.floor(MIX_Q_SCALE * np.sqrt(n))]
    den = sum(q)  # Python int: exact, order-independent
    return pa.table({
        source_col: pa.array([r[source_col] for r in rows],
                             type=pa.string()),
        "n_docs": pa.array([r["n_docs"] for r in rows], type=pa.int64()),
        "q_sqrt": pa.array(q, type=pa.int64()),
        "w_ppm": pa.array([qi * MIX_W_SCALE // den for qi in q],
                          type=pa.int64()),
    })


def source_budget_alloc(ds, budget: int | None = None,
                        source_col: str = "source") -> pa.Table:
    """Water-filling document-budget allocation across sources (the
    UniMax-style rule: spread a total training budget as uniformly as
    possible, capping each source at its own corpus size). Sources are
    processed in ascending (n_docs, source) order; a source whose
    count fits under the current fair share keeps all its docs, and
    every remaining source gets the floor threshold
    t = (budget - sum_satisfied) // n_remaining. All-integer math, so
    the SQL twin (window-function prefix sums + the same integer
    predicate n_i * remaining + prefix <= budget) is bit-exact.

    ``budget=None`` uses total_docs // 2 (the registered fixture
    rule). The allocation is computed driver-side over the bounded
    n_sources rows after per-batch bincount partials and one
    ``groupby(source).sum`` — the few-big-groups exception."""
    from ray.data.aggregate import Sum

    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch.column(source_col))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            source_col: enc.dictionary.cast(pa.string()),
            "n_docs": pa.array(
                np.bincount(idx, minlength=len(enc.dictionary)),
                type=pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(source_col).aggregate(Sum("n_docs", alias_name="n_docs"))
    rows = sorted(((r["n_docs"], r[source_col]) for r in agg.take_all()))
    m = len(rows)
    b = sum(n for n, _ in rows) // 2 if budget is None else int(budget)
    # ascending pass: the satisfied predicate is prefix-closed, so it
    # can be evaluated independently per row (mirrors the SQL window)
    prefix = 0
    sat = []
    for i, (n, _) in enumerate(rows):
        sat.append(n * (m - i) + prefix <= b)
        prefix += n
    s_k = sum(n for (n, _), ok in zip(rows, sat) if ok)
    k = sum(sat)
    t = (b - s_k) // max(m - k, 1)
    order = sorted(range(m), key=lambda i: rows[i][1])
    return pa.table({
        source_col: pa.array([rows[i][1] for i in order],
                             type=pa.string()),
        "n_docs": pa.array([rows[i][0] for i in order], type=pa.int64()),
        "alloc": pa.array(
            [rows[i][0] if sat[i] else t for i in order],
            type=pa.int64()),
        "budget": pa.array([b] * m, type=pa.int64()),
    })


# ---------------------------------------------------------------------------
# Round-4 curation additions: weighted sampling, per-host caps, host
# blocklist filtering (bloom-prefiltered broadcast membership).
# ---------------------------------------------------------------------------

WEIGHTED_STREAM = 913  # rng stream registry: weighted Bernoulli sampling


def weighted_sample_batch(batch: pa.Table, seed: int, maxw: int,
                          weight_col: str) -> pa.Table:
    """Keep each row with probability weight/maxw — ALL-INTEGER compare
    ``substream(doc_id) * maxw < weight * 2^32`` so the kept set is
    bit-exact in SQL (no float boundary anywhere, unlike an
    Efraimidis-Spirakis ``u^(1/w)`` key whose ``ln``/``pow`` may differ
    by an ulp between numpy and DuckDB)."""
    from ..rng import substream

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
    h = substream(ids, seed, WEIGHTED_STREAM)
    keep = h * np.int64(maxw) < w << np.int64(32)
    return batch.filter(pa.array(keep))


def weighted_sample(ds, seed: int = 42, weight_col: str = "n_chars"):
    """Weighted Bernoulli sample: row kept with probability
    ``weight / max(weight)`` — longer documents proportionally more
    likely (the inverse of a length-bias correction). The max is ONE
    scalar aggregate broadcast into a stateless filter; no shuffle.
    """
    maxw = int(ds.max(weight_col))
    if not 0 < maxw < (1 << 30):
        raise ValueError(f"weight range [1, 2^30) required, max={maxw}")
    return ds.map_batches(
        lambda b: weighted_sample_batch(b, seed, maxw, weight_col),
        batch_format="pyarrow")


HOST_CAP_STREAM = 912  # rng stream registry: per-host page cap


def _host_of(batch: pa.Table):
    """(idx, hosts): dictionary-encoded URL host per row.

    URLs that don't match ``HOST_RE`` (no scheme, garbage crawl rows —
    absent from the fixture but present in any real crawl) bucket under
    the ``<no-host>`` sentinel instead of producing null dictionary
    indices that would crash the int64 cast downstream (ADVICE r04)."""
    import pyarrow.compute as pc

    ex = pc.extract_regex(batch.column("url"), HOST_RE)
    enc = pc.dictionary_encode(
        pc.fill_null(pc.struct_field(ex, "host"), "<no-host>"))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return idx, enc.dictionary.to_pylist()


def _host_hash64(hosts: list[str]) -> np.ndarray:
    """First 8 md5 bytes per host — content-based, so blocklist
    membership agrees across batches and stages."""
    if not hosts:
        return np.empty(0, dtype=np.uint64)
    return np.frombuffer(
        b"".join(md5(h.encode()).digest()[:8] for h in hosts),
        dtype=np.uint64)


def _head_k_per_host(host_key: np.ndarray, u: np.ndarray, ids: np.ndarray,
                     k: int) -> np.ndarray:
    """Row indices of the k smallest (u, id) rows per host key —
    one lexsort + segment-rank, no per-host loop."""
    order = np.lexsort((ids, u, host_key))
    hk = host_key[order]
    starts = np.ones(len(hk), dtype=bool)
    starts[1:] = hk[1:] != hk[:-1]
    seg_start = np.maximum.accumulate(np.where(starts,
                                               np.arange(len(hk)), 0))
    rank = np.arange(len(hk)) - seg_start
    return order[rank < k]


def host_cap_sample(ds, k: int = 10, seed: int = 42):
    """Per-host page cap: keep at most ``k`` pages per URL host, chosen
    by counter-RNG rank (ties -> smaller doc_id) — the MassiveText-style
    per-domain cap that stops any single site from dominating the
    corpus. Deterministic at any parallelism.

    Scale shape: per-batch partial head-k per host (≤ k rows per
    (host, batch) enter the shuffle) -> one ``util.segment_map`` on
    ``host`` -> the same vectorized segment-rank kernel finishes each
    host exactly once, in pyarrow."""
    from ..rng import uniform01
    from ..util import segment_bounds, segment_map

    schema = pa.schema([("doc_id", pa.int64()), ("host", pa.string())])

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        idx, hosts = _host_of(b)
        u = uniform01(ids, seed, HOST_CAP_STREAM)
        sel = np.sort(_head_k_per_host(idx, u, ids, k))
        return pa.table({
            "doc_id": pa.array(ids[sel], type=pa.int64()),
            "host": pa.array(np.asarray(hosts, dtype=object)[idx[sel]],
                             type=pa.string()),
            "u": pa.array(u[sel], type=pa.float64()),
        })

    def finish(t: pa.Table) -> pa.Table:
        new = np.zeros(t.num_rows, dtype=bool)
        new[segment_bounds(t.column("host").to_numpy())[0]] = True
        sel = np.sort(_head_k_per_host(
            np.cumsum(new), t.column("u").to_numpy(),
            t.column("doc_id").to_numpy(), k))
        return t.select(["doc_id", "host"]).take(pa.array(sel))

    return segment_map(ds.map_batches(partial, batch_format="pyarrow"),
                       "host", finish, schema)


def _blocked_hosts_ref(pages_ds, bloom_bits_pow2: int = 16):
    """Compile the blocklist (hosts whose total chars exceed the
    per-host mean: ``host_chars * n_hosts > total_chars``, all-integer)
    into (bloom bitset, sorted 64-bit host hashes) inside a Ray task —
    the driver holds only the ObjectRef. The bloom array is the
    100-TB-side answer (10^8 blocked hosts = a few hundred MB of bits
    broadcast once vs. gigabytes of strings); the sorted hash array
    gives exact verification of bloom positives."""
    import ray

    stats = domain_stats(pages_ds)

    @ray.remote(num_cpus=1)
    def compile_blocklist(*blocks):
        tbls = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                for b in blocks]
        hosts, chars = [], []
        for t in tbls:
            if "host" not in t.column_names:  # empty block, empty schema
                continue
            hosts.extend(t.column("host").to_pylist())
            chars.append(t.column("n_chars").to_numpy(zero_copy_only=False))
        chars = (np.concatenate(chars) if chars
                 else np.empty(0, dtype=np.int64)).astype(np.int64)
        nh, tot = len(hosts), int(chars.sum())
        blocked = [h for h, c in zip(hosts, chars) if int(c) * nh > tot]
        h64 = np.sort(_host_hash64(blocked))
        nbits = 1 << bloom_bits_pow2
        while nbits < 16 * max(len(h64), 1) and nbits < (1 << 30):
            nbits <<= 1
        mask = np.uint64(nbits - 1)
        bloom = np.zeros(nbits, dtype=bool)
        for shift in (0, 16, 32, 48):
            bloom[((h64 >> np.uint64(shift)) & mask).astype(np.int64)] = True
        return bloom, mask, h64

    return compile_blocklist.remote(*stats.to_arrow_refs())


def host_blocklist_filter(pages_ds, out_ds=None):
    """Drop pages whose host is on the data-derived blocklist
    (above-mean total chars — a stand-in for any spam/quality host
    list). Returns Dataset[(doc_id, host)] of the SURVIVORS.

    Membership is a broadcast bloom probe per DISTINCT host per batch
    with exact verification of positives against the sorted hash array
    — never a shuffle join. Result is exact (bloom false positives are
    re-checked; 64-bit host-hash collisions are the documented ~2^-64
    residual, same class as every content-hash key in text/)."""
    import ray

    ref = _blocked_hosts_ref(pages_ds)

    def keep_batch(b: pa.Table) -> pa.Table:
        bloom, mask, h64 = ray.get(ref)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        idx, hosts = _host_of(b)
        hh = _host_hash64(hosts)
        maybe = np.zeros(len(hh), dtype=bool)
        if len(hh):
            maybe = np.ones(len(hh), dtype=bool)
            for shift in (0, 16, 32, 48):
                maybe &= bloom[((hh >> np.uint64(shift)) & mask)
                               .astype(np.int64)]
        blocked = np.zeros(len(hh), dtype=bool)
        if maybe.any() and len(h64):
            pos = np.searchsorted(h64, hh[maybe])
            pos = np.minimum(pos, len(h64) - 1)
            blocked[maybe] = h64[pos] == hh[maybe]
        keep = ~blocked[idx]
        return pa.table({
            "doc_id": pa.array(ids[keep], type=pa.int64()),
            "host": pa.array(np.asarray(hosts, dtype=object)[idx[keep]],
                             type=pa.string()),
        })

    src = out_ds if out_ds is not None else pages_ds
    return src.map_batches(keep_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# URL canonicalization + URL-level dedup (crawl refetch dedup)
# ---------------------------------------------------------------------------

# Deterministic messy-fetch synthesis (FIXTURES-style rule, no RNG): a
# crawler sees each page once, in one of four raw forms keyed on
# doc_id % 4 (tracking query / shouting host + fragment / trailing
# slash / clean); every doc_id % 5 == 0 page is fetched a SECOND time
# in the next form — the realistic same-page-recrawled duplicate that
# URL canonicalization exists to remove. fetch_id = doc_id*2 + j.
_URL_PREFIX_RE = r"^https?://[^/]+"       # clean URLs (synthesis side)
_URL_PREFIX_RE_I = r"(?i)^https?://[^/]+"  # raw URLs (canonicalize side)
_UTM_SUFFIX = "?utm_source=feed&utm_medium=rss"


def _messy_url(url: pa.Array, m: np.ndarray) -> pa.Array:
    """Raw fetch form per page: m in {0,1,2,3} selects the noise rule."""
    import pyarrow.compute as pc

    st = pc.extract_regex(url, r"(?P<pfx>^https?://[^/]+)(?P<rest>.*)")
    pfx = pc.struct_field(st, "pfx")
    rest = pc.struct_field(st, "rest")
    m0 = pc.binary_join_element_wise(url, pa.scalar(_UTM_SUFFIX), "")
    m1 = pc.binary_join_element_wise(pc.utf8_upper(pfx), rest,
                                     pa.scalar("#top"), "")
    m2 = pc.binary_join_element_wise(url, pa.scalar("/"), "")
    out = pc.if_else(pa.array(m == 0), m0,
                     pc.if_else(pa.array(m == 1), m1,
                                pc.if_else(pa.array(m == 2), m2, url)))
    return out


def url_fetches_batch(batch: pa.Table) -> pa.Table:
    """pages batch -> (fetch_id, doc_id, raw_url) fetch log rows."""
    import pyarrow.compute as pc

    doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
    url = batch.column("url")
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    first = pa.table({
        "fetch_id": pa.array(doc_id * 2, type=pa.int64()),
        "doc_id": batch.column("doc_id"),
        "raw_url": _messy_url(url, doc_id % 4),
    })
    re_mask = doc_id % 5 == 0
    if not re_mask.any():
        return first
    idx = np.flatnonzero(re_mask)
    url2 = url.take(pa.array(idx))
    second = pa.table({
        "fetch_id": pa.array(doc_id[idx] * 2 + 1, type=pa.int64()),
        "doc_id": pa.array(doc_id[idx], type=pa.int64()),
        "raw_url": _messy_url(url2, (doc_id[idx] + 1) % 4),
    })
    return pa.concat_tables([first, second])


def canonical_url_batch(batch: pa.Table,
                        url_col: str = "raw_url") -> pa.Table:
    """Append ``canonical_url``: lowercase scheme+host, strip query
    string + fragment + trailing slashes. Three RE2 kernel calls per
    batch, stateless — the 100-TB shape is a plain ``map_batches``."""
    import pyarrow.compute as pc

    raw = batch.column(url_col)
    st = pc.extract_regex(
        raw, r"(?i)(?P<pfx>^https?://[^/]+)(?P<rest>.*)")
    pfx = pc.utf8_lower(pc.struct_field(st, "pfx"))
    rest = pc.struct_field(st, "rest")
    rest = pc.replace_substring_regex(rest, r"[?#].*$", "")
    rest = pc.replace_substring_regex(rest, r"/+$", "")
    canon = pc.binary_join_element_wise(pfx, rest, "")
    return batch.append_column("canonical_url", canon)


def url_dedup(pages_ds, partitions: int = 64):
    """Crawl-refetch dedup: canonicalize every raw fetch URL, keep the
    first fetch (min fetch_id) per canonical URL.

    (canonical_url, kept_fetch_id, doc_id, n_fetches). Canonical groups
    are tiny (1-2 rows), so this uses the coarse ``hash(canon) % P``
    partition groupby with one vectorized sort + duplicated() pass per
    partition (the exact_dedup shape), NOT a per-group apply. The
    canonical hash runs md5 once per DISTINCT url in the batch
    (dictionary-encode + gather)."""
    import pyarrow.compute as pc

    fetches = pages_ds.select_columns(["doc_id", "url"]) \
        .map_batches(url_fetches_batch, batch_format="pyarrow")
    canon = fetches.map_batches(canonical_url_batch, batch_format="pyarrow")

    def with_part(b: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(b.column("canonical_url"))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        distinct = enc.dictionary.to_pylist()
        hd = np.array([int(md5(u.encode()).hexdigest()[:15], 16) % partitions
                       for u in distinct], dtype=np.int64)
        p = hd[enc.indices.to_numpy(zero_copy_only=False)]
        return b.append_column("p", pa.array(p, type=pa.int64()))

    def first_per_canon(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["canonical_url", "fetch_id"], kind="mergesort")
        n = g.groupby("canonical_url", sort=False)["fetch_id"] \
            .transform("size")
        keep = ~g["canonical_url"].duplicated().to_numpy()
        out = g[keep].copy()
        out["n_fetches"] = n[keep].astype(np.int64)
        return out[["canonical_url", "fetch_id", "doc_id", "n_fetches"]] \
            .rename(columns={"fetch_id": "kept_fetch_id"})

    return canon.map_batches(with_part, batch_format="pyarrow") \
        .groupby("p").map_groups(first_per_canon, batch_format="pandas")


def sequence_pack(ds, seq_len: int = 2048, text_col: str = "text",
                  range_rows: int = 100_000):
    """Token-budget sequence packing: assign every doc its position in
    the concatenated token stream — (doc_id, n_tokens, seq_id, offset)
    where ``seq_id = tokens_before // seq_len`` and ``offset =
    tokens_before % seq_len``, with docs concatenated in doc_id order.
    This is the layout pass of training-sequence packing (which doc
    lands in which fixed-length sample, and where) — the step between a
    curated corpus and a token-stream dataloader.

    Scale shape — a distributed PREFIX SUM, the one pattern the rest of
    the engine doesn't already exercise:

    1. one vectorized count pass -> (doc_id, n_tokens);
    2. per-batch partial sums per doc_id RANGE (``doc_id //
       range_rows``) -> one tiny ``groupby(range)`` -> the ~(max_id /
       range_rows)-row range-total table reaches the driver, where an
       exclusive cumsum turns it into per-range stream offsets
       (broadcast via ``ray.put``);
    3. ONE ``groupby(range)`` co-locates each range's docs; the
       per-range kernel sorts by doc_id and adds its local exclusive
       cumsum to the broadcast range offset.

    No task ever holds more than one range (``range_rows`` docs — size
    it so a range's (id, count) pairs fit a worker, independent of
    corpus size); the driver holds one int per range. Deterministic at
    any parallelism: the stream position depends only on doc_id order.
    """
    import ray
    from ray.data.aggregate import Max, Sum

    from .quality import TOKEN_RE as _QTOKEN_RE

    def count_batch(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lower = pc.utf8_lower(b.column(text_col))
        n = pc.count_substring_regex(lower, _QTOKEN_RE)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_tokens": pc.cast(n, pa.int64()),
        })

    counts = ds.map_batches(count_batch, batch_format="pyarrow")

    def range_partial(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        n = b.column("n_tokens").to_numpy(zero_copy_only=False)
        r = ids // range_rows
        ur, inv = np.unique(r, return_inverse=True)
        sums = np.bincount(inv, weights=n).astype(np.int64)
        return pa.table({"r": pa.array(ur, type=pa.int64()),
                         "rsum": pa.array(sums, type=pa.int64())})

    totals = counts.map_batches(range_partial, batch_format="pyarrow") \
        .groupby("r").aggregate(Sum("rsum", alias_name="rsum")).to_pandas() \
        .sort_values("r")
    max_r = int(totals["r"].max()) if len(totals) else 0
    range_sums = np.zeros(max_r + 1, dtype=np.int64)
    range_sums[totals["r"].to_numpy()] = totals["rsum"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(range_sums)[:-1]])
    off_ref = ray.put(offsets)

    def with_range(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.append_column("r", pa.array(ids // range_rows,
                                             type=pa.int64()))

    def finish_range(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        g = g.sort_values("doc_id", kind="mergesort")
        n = g["n_tokens"].to_numpy()
        before = offs[int(g["r"].iloc[0])] \
            + np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": n,
            "seq_id": before // seq_len,
            "offset": before % seq_len,
        })

    return counts.map_batches(with_range, batch_format="pyarrow") \
        .groupby("r").map_groups(finish_range, batch_format="pandas")


def shuffle_shards(ds, n_shards: int = 8, seed: int = 0, buckets: int = 256,
                   id_col: str = "doc_id"):
    """Deterministic global corpus shuffle into dataloader shards:
    (doc_id, shard, pos) where ``shard = key % n_shards``, ``pos`` is
    the rank of ``(key, doc_id)`` within the shard, and ``key =
    substream(doc_id, seed, stream 914)`` — i.e. a reproducible
    pseudo-random permutation of the corpus split across ``n_shards``
    readers, the step between a curated corpus and a sharded training
    dataloader. Depends only on (doc_id, seed): byte-identical at any
    parallelism, partitioning or retry, and exactly reproducible in SQL
    (``row_number() OVER (PARTITION BY key % S ORDER BY key, doc_id)``).

    Scale shape — a KEYED distributed prefix sum (``sequence_pack``'s
    pattern generalized from one global stream to ``n_shards``
    independent ones), NOT a global sort:

    1. one map pass computes ``key`` and the coarse ``(shard, bucket)``
       cell (``bucket`` = top bits of ``key``, so bucket order = key
       order within a shard);
    2. per-batch cell counts -> one tiny ``groupby(cell)`` -> the
       ``n_shards * buckets`` cell totals reach the driver, where a
       per-shard exclusive cumsum turns them into cell start ranks
       (broadcast via ``ray.put`` — one int per cell);
    3. ONE coarse ``groupby(cell % 64)`` co-locates each cell's docs;
       the partition kernel sorts by (cell, key, doc_id) and adds each
       run's local arange to its broadcast start rank.

    No shard is ever materialized in one task (a shard is 1/n_shards of
    the corpus — size ``buckets`` so a cell fits a worker), and the
    driver holds ``n_shards * buckets`` ints regardless of corpus size.
    """
    import ray
    from ray.data.aggregate import Sum

    from ..rng import substream

    if buckets & (buckets - 1):
        raise ValueError("buckets must be a power of two")
    shift = 32 - (buckets.bit_length() - 1)

    def keyed(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        key = substream(ids, seed, 914)
        shard = key % n_shards
        cell = shard * buckets + (key >> shift)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "skey": pa.array(key, type=pa.int64()),
            "shard": pa.array(shard, type=pa.int64()),
            "cell": pa.array(cell, type=pa.int64()),
        })

    rows = ds.map_batches(keyed, batch_format="pyarrow")

    def cell_partial(b: pa.Table) -> pa.Table:
        c = b.column("cell").to_numpy(zero_copy_only=False)
        uc, cnt = np.unique(c, return_counts=True)
        return pa.table({"cell": pa.array(uc, type=pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    totals = rows.map_batches(cell_partial, batch_format="pyarrow") \
        .groupby("cell").aggregate(Sum("cnt", alias_name="cnt")).to_pandas()
    counts = np.zeros(n_shards * buckets, dtype=np.int64)
    counts[totals["cell"].to_numpy()] = totals["cnt"].to_numpy()
    grid = counts.reshape(n_shards, buckets)
    starts = np.zeros_like(grid)
    starts[:, 1:] = np.cumsum(grid, axis=1)[:, :-1]  # per-shard exclusive
    off_ref = ray.put(starts.reshape(-1))

    def with_pq(b: pa.Table) -> pa.Table:
        c = b.column("cell").to_numpy(zero_copy_only=False)
        return b.append_column("pq", pa.array(c % 64, type=pa.int64()))

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        from ..util import run_local_ranks

        offs = ray.get(off_ref)
        g = g.sort_values(["cell", "skey", "doc_id"], kind="mergesort")
        cell = g["cell"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            new[1:] = cell[1:] != cell[:-1]
        pos = offs[cell] + run_local_ranks(new)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "shard": g["shard"].to_numpy(),
            "pos": pos.astype(np.int64),
        })

    return rows.map_batches(with_pq, batch_format="pyarrow") \
        .groupby("pq").map_groups(rank_part, batch_format="pandas")


def quality_signals_batch(b):
    """Per-doc (doc_id, quality_score, neg_score, n_tokens) derive
    shared by :func:`token_budget_cut` and
    :func:`token_weighted_quality_quantiles` — the composite quality
    score of `text/quality.py:quality_score_batch` restricted to its
    two token-stat terms (both sides IEEE-exact in SQL)."""
    from .quality import token_stats_batch

    st = token_stats_batch(b)
    tok = st.column("n_tokens").to_numpy(zero_copy_only=False)
    ratio = st.column("stop_ratio").to_numpy(zero_copy_only=False)
    score = (np.minimum(tok / 50.0, 1.0) * 0.5
             + np.minimum(ratio * 5.0, 1.0) * 0.5)
    return pa.table({
        "doc_id": st.column("doc_id"),
        "quality_score": pa.array(score, type=pa.float64()),
        # descents run ascending; negation of IEEE doubles is exact
        "neg_score": pa.array(-score, type=pa.float64()),
        "n_tokens": st.column("n_tokens"),
    })


# rational quantiles shared by the token-weighted distribution op and
# its SQL twin (integer rank derivation: rank = (W - 1) * num // den)
WEIGHTED_QS: list[tuple[int, int]] = [(1, 10), (1, 4), (1, 2), (3, 4),
                                      (9, 10)]


def token_weighted_quality_quantiles(ds, qs_rational=None):
    """Token-mass-weighted quality-score distribution: the quality
    score at which the p-th percentile TOKEN sits (each doc weighted by
    its token count) — the curation diagnostic for "how much of my
    training-token mass is low quality", distinct from the doc-count
    quantiles of `source_quantiles`.

    100-TB shape: one narrow materialized (score, n_tokens) projection,
    then :func:`maskmypy_ray.analysis.aggregates.weighted_quantiles_distributed`
    — all percentiles descend together through shared 1024-bin weighted
    histogram passes; no sort, no value column on the driver.

    Returns (q, value) rows. Reference analog: none (graft addition).
    """
    qs = qs_rational or WEIGHTED_QS
    from ..analysis.aggregates import weighted_quantiles_distributed

    nds = ds.map_batches(quality_signals_batch,
                         batch_format="pyarrow").materialize()
    vals = weighted_quantiles_distributed(nds, "quality_score", "n_tokens",
                                          qs)
    return pa.table({
        "q": pa.array([num / den for num, den in qs], type=pa.float64()),
        "value": pa.array(vals, type=pa.float64()),
    })


def token_budget_cut(ds, budget_num: int = 1, budget_den: int = 2):
    """Quality-ranked corpus selection under a global token budget —
    the "take the best docs until the token budget is spent" cut that
    closes a curation pipeline (keep rule: cumulative ``n_tokens`` over
    ``ORDER BY quality_score DESC, doc_id`` stays <= budget, budget =
    ``total_tokens * budget_num // budget_den``).

    100-TB shape: the defining global sort is NEVER performed. The
    boundary is found by two weighted histogram-refinement descents
    (:func:`maskmypy_ray.analysis.aggregates.weighted_crossing_distributed`
    — the weighted twin of the exact-quantile kernel): one over the
    negated score finds the boundary score ``t`` and the exact token
    mass above it, one over ``doc_id`` restricted to ``score == t``
    breaks the tie. The keep flags are then one stateless broadcast-
    scalar pass; driver state is a handful of scalars. Per-doc signals
    are computed once into a narrow materialized (doc_id, score,
    n_tokens) projection that the descents re-scan.

    Returns (doc_id, quality_score, n_tokens, keep) for every doc.
    Reference analog: none (graft addition; the quality score is
    `text/quality.py:quality_score_batch`, hash-green on its own).
    """
    from ray.data.aggregate import Sum

    from ..analysis.aggregates import weighted_crossing_distributed

    nds = ds.map_batches(quality_signals_batch,
                         batch_format="pyarrow").materialize()
    total = int(nds.aggregate(Sum("n_tokens"))["sum(n_tokens)"] or 0)
    budget = total * budget_num // budget_den

    t_neg, w_above = weighted_crossing_distributed(
        nds, "neg_score", "n_tokens", budget)
    if t_neg is None:
        cross_id = None  # budget covers the whole corpus
    else:
        # docs tied at the boundary score keep in doc_id order until the
        # remaining budget is spent; c = first doc_id pushing past it
        cross_id, _ = weighted_crossing_distributed(
            nds, "doc_id", "n_tokens", budget - w_above,
            eq=("neg_score", t_neg))

    def flag(b: pa.Table, t_neg=t_neg, cross_id=cross_id) -> pa.Table:
        neg = b.column("neg_score").to_numpy(zero_copy_only=False)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        if t_neg is None:
            keep = np.ones(len(neg), dtype=np.int64)
        else:
            keep = (neg < t_neg)
            ties = neg == t_neg
            if cross_id is None:
                keep |= ties
            else:
                keep |= ties & (ids < cross_id)
            keep = keep.astype(np.int64)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "quality_score": b.column("quality_score"),
            "n_tokens": b.column("n_tokens"),
            "keep": pa.array(keep),
        })

    return nds.map_batches(flag, batch_format="pyarrow")


SPLIT_STREAM = 918  # rng stream registry: train/val/test assignment
SPLIT_BUCKETS = 1000


def train_split(ds, test_permille: int = 10, val_permille: int = 10,
                seed: int = 42):
    """Deterministic hash-bucket train/val/test assignment: bucket =
    ``substream(doc_id, seed, 918) % 1000``; test takes the lowest
    ``test_permille`` buckets, val the next ``val_permille``, train the
    rest — the standard hash-split that is stable under corpus growth
    (a doc's split never changes when other docs arrive), partition and
    retry independent, and needs no coordination.

    All-integer (one 32-bit mix hash + one modulo), so the SQL twin is
    bit-exact. Returns (doc_id, bucket, split) for every doc, split in
    {'train','val','test'}.

    Reference analog: none (graft addition; the mixing-rate sampler
    is `stratified_sample_batch`, stream 910).
    """
    from ..rng import substream

    def assign(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        bucket = (substream(ids, seed, SPLIT_STREAM)
                  % SPLIT_BUCKETS).astype(np.int64)
        split = np.where(
            bucket < test_permille, "test",
            np.where(bucket < test_permille + val_permille, "val",
                     "train"))
        return pa.table({
            "doc_id": b.column("doc_id"),
            "bucket": pa.array(bucket),
            "split": pa.array(split.astype(object), type=pa.string()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")
