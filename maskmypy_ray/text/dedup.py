"""Deduplication operators: exact, token-Jaccard, MinHash+LSH, SimHash,
embedding-cosine. SURVEY.md §2.5 "Set ops / dedup" + graft additions.

Scale shapes:

* exact        — content hash per batch (vectorized), ``groupby(hash)``
                 keep-first; the canonical hash-partition dedup.
* jaccard      — exact all-pairs verification (validation-scale oracle
                 twin of the LSH path; broadcast one side).
* minhash_lsh  — word-5-gram shingles -> 64-perm MinHash -> 16 bands of 4
                 -> ``lsh.lsh_pairs`` bucket join -> candidate pairs ->
                 exact-Jaccard verify. The scalable near-dup path.
* simhash      — 64-bit simhash; hamming <= k via 4x16-bit band blocking
                 (pigeonhole-complete for k <= 3).
* embedding    — cosine >= threshold pairs over the embeddings table
                 (exact blocked matmul; LSH-bucketed variant in sim.ann).

MinHash permutations reuse the engine's mix32 avalanche: perm_i(shingle)
= mix32(shingle_hash XOR mix32(SALT + i)) — deterministic everywhere.
"""

from __future__ import annotations

from hashlib import md5

import numpy as np
import pandas as pd
import pyarrow as pa

from ..rng import mix32
from ..util import flat_ranges
from .grams import (TOKEN_RE, band_keys, distinct_per_doc, gram_hashes_batch,
                    minhash_signatures, token_codes_batch)

N_PERM = 64
N_BANDS = 16
ROWS_PER_BAND = 4
_SALT = 0x5EED


def text_md5_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = [md5(t.encode()).hexdigest() for t in batch.column(text_col).to_pylist()]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "h": pa.array(h, type=pa.string()),
    })


def exact_dedup_groups(ds, text_col: str = "text", partitions: int = 64):
    """Dataset[(h, keeper)] — min doc_id per content hash. Same coarse
    ``hash % P`` partition groupby as :func:`exact_dedup` (content-hash
    groups are ~1 row each, so a fine-key ``groupby(h).aggregate`` pays
    Ray's per-distinct-key aggregation overhead on every doc)."""
    def with_part(b: pa.Table) -> pa.Table:
        t = text_md5_batch(b, text_col)
        p = np.array([int(x[:15], 16) % partitions
                      for x in t.column("h").to_pylist()], dtype=np.int64)
        return t.append_column("p", pa.array(p))

    def min_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        g = g[~g["h"].duplicated().to_numpy()]
        return pd.DataFrame({"h": g["h"].to_numpy(),
                             "keeper": g["doc_id"].to_numpy()})

    def to_arrow(d: pd.DataFrame) -> pa.Table:
        return pa.table({"h": pa.array(d["h"], type=pa.string()),
                         "keeper": pa.array(d["keeper"].to_numpy(),
                                            type=pa.int64())})

    return ds.map_batches(with_part, batch_format="pyarrow") \
        .groupby("p").map_groups(min_part, batch_format="pandas") \
        .map_batches(to_arrow, batch_format="pandas")


def exact_dedup(ds, text_col: str = "text", partitions: int = 64):
    """Surviving rows (the min-doc_id representative of each hash group).

    Coarse hash-partition groupby (``hash % P``) with one vectorized
    sort + duplicated() pass per partition — per-content-hash groups
    are 1-row almost everywhere, and Ray's per-group apply would pay
    ~0.4 ms each."""
    def with_hash(b: pa.Table) -> pa.Table:
        h = text_md5_batch(b, text_col).column("h")
        p = np.array([int(x[:15], 16) % partitions for x in h.to_pylist()],
                     dtype=np.int64)
        return b.append_column("h", h).append_column("p", pa.array(p))

    def first_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        return g[~g["h"].duplicated().to_numpy()].drop(columns=["p"])

    hashed = ds.map_batches(with_hash, batch_format="pyarrow")
    return hashed.groupby("p").map_groups(first_part, batch_format="pandas")


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------


def _shingle_hashes(text: str, n: int = 5) -> np.ndarray:
    """Sorted-distinct word-n-gram hashes of ONE text (thin wrapper over
    the batch kernel in :mod:`maskmypy_ray.text.grams` — per-token md5
    codes folded by position-salted mix32, SQL-mirrored)."""
    codes, bounds = token_codes_batch([text])
    grams, _ = gram_hashes_batch(codes, bounds, n, "single")
    return np.unique(grams)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """64 mix32-permutation minima of the shingle hash set."""
    if not len(shingles):
        return np.full(N_PERM, 0xFFFFFFFF, dtype=np.int64)
    perms = mix32(np.arange(N_PERM, dtype=np.int64) + _SALT)
    # (n_shingle, n_perm) -> min over shingles
    vals = mix32(np.bitwise_xor(shingles[:, None], perms[None, :]))
    return vals.min(axis=0)


def minhash_sig_batch(batch: pa.Table, text_col: str = "text",
                      ngram: int = 5) -> tuple:
    """``(doc_ids, (D, N_PERM) minima matrix)`` for one batch — the
    shared signature kernel behind the band-key exploder and the
    exact-tuple decontamination probe."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    codes, bounds = token_codes_batch(texts)
    grams, gb = gram_hashes_batch(codes, bounds, ngram, "single")
    grams, gb = distinct_per_doc(grams, gb)
    perms = mix32(np.arange(N_PERM, dtype=np.int64) + _SALT)
    return doc_ids, minhash_signatures(grams, gb, perms)


_TUPLE_VOID = f"V{4 * ROWS_PER_BAND}"


def _band_tuple_view(m: np.ndarray) -> np.ndarray:
    """(n, ROWS_PER_BAND) int64 minima (each < 2**32, mix32 range) ->
    (n,) void byte-view of the big-endian packed tuple. Byte equality
    IS tuple equality — a bijective packing, not a hash — so probing
    these views reproduces the SQL twin's minima-tuple join exactly."""
    return np.ascontiguousarray(m.astype(">u4")).view(_TUPLE_VOID).ravel()


def minhash_bands_batch(batch: pa.Table, text_col: str = "text",
                        ngram: int = 5) -> pa.Table:
    """Explode each doc into (band_id, band_key, doc_id) rows — the LSH
    bucket keys for the groupby shuffle. Fully batch-vectorized
    (VERDICT r03 #5): gram hashes from the shared kernel, signatures via
    one slab matmul-style reduceat, band keys a 64-bit mix32 fold of the
    band's minima (the shuffle proxy for the minima TUPLE the SQL twin
    joins on — false key collisions are removed by the Jaccard verify)."""
    doc_ids, sig = minhash_sig_batch(batch, text_col, ngram)
    keys = band_keys(sig, N_BANDS, ROWS_PER_BAND)
    D = len(doc_ids)
    return pa.table({
        "band_id": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), D),
                            type=pa.int32()),
        "band_key": pa.array(keys.reshape(-1), type=pa.int64()),
        "doc_id": pa.array(np.repeat(doc_ids, N_BANDS), type=pa.int64()),
    })


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    i = len(a & b)
    return i / (len(a) + len(b) - i)


def _shingle_rows(b: pa.Table, text_col: str, ngram: int) -> pa.Table:
    """(doc, distinct shingle hashes) of each row: the verify payload."""
    codes, bounds = token_codes_batch(b.column(text_col).to_pylist())
    grams, gb = gram_hashes_batch(codes, bounds, ngram, "single")
    grams, gb = distinct_per_doc(grams, gb)
    return pa.table({
        "doc": b.column("doc_id"),
        "shingles": pa.ListArray.from_arrays(
            pa.array(gb.astype(np.int32)), pa.array(grams, type=pa.int64())),
    })


def _jaccard_scores(pay: pa.Table, ia: np.ndarray, ib: np.ndarray):
    """Exact shingle Jaccard of the pairs (row ``ia``, row ``ib``) of the
    payload table, with NO per-pair Python loop or set objects: each
    side's (pair index, gram) packs into one int64 (grams are 32-bit,
    so the packing is bijective) and a single ``np.intersect1d`` over
    the whole gram mass counts every pair's intersection."""
    sh = pay.column("shingles").combine_chunks()
    off = sh.offsets.to_numpy().astype(np.int64)
    grams = sh.flatten().to_numpy()
    off -= off[0]
    n_pairs = len(ia)
    assert n_pairs < (1 << 31)  # packing headroom: pair_idx * 2^32
    la = off[ia + 1] - off[ia]
    lb = off[ib + 1] - off[ib]
    pid = np.arange(n_pairs, dtype=np.int64)
    pa_ = np.repeat(pid, la) * (1 << 32) + grams[flat_ranges(off[ia], la)]
    pb_ = np.repeat(pid, lb) * (1 << 32) + grams[flat_ranges(off[ib], lb)]
    inter = np.intersect1d(pa_, pb_, assume_unique=True)
    i_cnt = np.bincount(inter >> 32, minlength=n_pairs)
    union = la + lb - i_cnt
    # two empty shingle sets are identical documents (jaccard()=1.0)
    return np.divide(i_cnt, union, out=np.ones(n_pairs, dtype=np.float64),
                     where=union > 0)


def minhash_lsh_pairs(ds, threshold: float = 0.8, text_col: str = "text",
                      ngram: int = 5):
    """Candidate pairs from MinHash LSH buckets, verified with exact
    shingle Jaccard. Returns Dataset[(doc_a, doc_b, sim)] with
    doc_a < doc_b and sim >= ``threshold``.

    Each doc explodes into N_BANDS ``(band_id, band_key, doc_id)`` rows
    and :func:`maskmypy_ray.lsh.lsh_pairs` does the rest: in-bucket pairs
    from a ``segment_map`` on ``band_key``, pair dedup, then the exact
    verify over the docs' distinct shingle sets, tokenized only for
    docs that appear in some candidate pair. Candidates never visit the
    driver, and every fan-out follows the data's size, so the result
    does not depend on how the input is partitioned."""
    from ..lsh import lsh_pairs

    bands = ds.map_batches(minhash_bands_batch, fn_kwargs={
        "text_col": text_col, "ngram": ngram}, batch_format="pyarrow")
    payload = (ds.select_columns(["doc_id", text_col]), "doc_id",
               lambda b: _shingle_rows(b, text_col, ngram),
               pa.schema([("doc", pa.int64()),
                          ("shingles", pa.list_(pa.int64()))]))
    return lsh_pairs(bands, "band_key", "doc_id", ("doc_a", "doc_b"),
                     band="band_id", payload=payload,
                     score=_jaccard_scores, threshold=threshold)


# Hard guard for the exact all-pairs path: above this many documents the
# O(n^2) verification is the wrong tool — use minhash_lsh_pairs.
JACCARD_EXACT_MAX_DOCS = 100_000
# ... and the broadcast indicator matrix must stay object-store friendly.
JACCARD_EXACT_MAX_ELEMENTS = 500_000_000  # docs x vocab (float32 => 2 GB)


def _tokenize_for_jaccard(texts: list[str], use_shingles: bool, ngram: int):
    if use_shingles:
        codes, bounds = token_codes_batch(texts)
        grams, gb = gram_hashes_batch(codes, bounds, ngram, "single")
        return [grams[gb[i]:gb[i + 1]].tolist() for i in range(len(texts))]
    return [TOKEN_RE.findall(t.lower()) for t in texts]


def jaccard_pairs_exact(ds, threshold: float = 0.5, text_col: str = "text",
                        use_shingles: bool = False, ngram: int = 5):
    """Exact all-pairs token-set (or shingle) Jaccard >= threshold —
    the validation twin of :func:`minhash_lsh_pairs` (Jaccard is an
    integer ratio, so thresholding is bit-exact vs SQL).

    Distributed shape (VERDICT r02 #4 — the round-2 version was a
    driver-side O(n^2) Python double loop): one side is compiled in a
    Ray task into a (docs x vocab) float32 indicator matrix + set sizes
    and broadcast; each batch maps its tokens through the broadcast
    vocabulary and computes ALL its intersection counts with one matmul
    (integer-exact below 2^24). Each unordered pair is emitted exactly
    once, from the batch row of its smaller doc_id — no driver collect,
    no pair dedup shuffle. Still O(n^2) WORK by definition: a hard
    row-count guard (``JACCARD_EXACT_MAX_DOCS``) rejects inputs where
    only the LSH path makes sense.
    """
    import ray

    n_docs = ds.count()
    if n_docs > JACCARD_EXACT_MAX_DOCS:
        raise ValueError(
            f"jaccard_pairs_exact is the O(n^2) validation twin and refuses "
            f"{n_docs} docs (> {JACCARD_EXACT_MAX_DOCS}); use "
            "minhash_lsh_pairs for near-duplicate pairs at scale")

    @ray.remote(num_cpus=1)
    def compile_side(*blocks):
        tbl = pa.concat_tables([b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                                for b in blocks])
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        texts = tbl.column(text_col).to_pylist()
        toks = _tokenize_for_jaccard([texts[i] for i in order],
                                     use_shingles, ngram)
        sets = [sorted(set(t)) for t in toks]
        vocab = {}
        for s in sets:
            for t in s:
                if t not in vocab:
                    vocab[t] = len(vocab)
        nv = len(vocab)
        if len(ids) * max(nv, 1) > JACCARD_EXACT_MAX_ELEMENTS:
            raise ValueError(
                f"jaccard_pairs_exact broadcast matrix would be "
                f"{len(ids)} x {nv} elements; use minhash_lsh_pairs")
        mat = np.zeros((len(ids), nv), dtype=np.float32)
        for i, s in enumerate(sets):
            mat[i, [vocab[t] for t in s]] = 1.0
        sizes = np.array([len(s) for s in sets], dtype=np.int64)
        return ids, sizes, mat, vocab

    side_ref = compile_side.remote(*ds.select_columns(["doc_id", text_col])
                                   .to_arrow_refs())

    def score(batch: pa.Table) -> pa.Table:
        b_ids_all, b_sizes_all, b_mat, vocab = ray.get(side_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = _tokenize_for_jaccard(batch.column(text_col).to_pylist(),
                                     use_shingles, ngram)
        out_a, out_b, out_s = [], [], []
        chunk = max(1, int(8_000_000 / max(1, len(b_ids_all))))
        for c0 in range(0, len(ids), chunk):
            sl = slice(c0, min(c0 + chunk, len(ids)))
            rows = []
            la = []
            for t in toks[sl]:
                s = set(t)
                la.append(len(s))
                cols = [vocab[x] for x in s if x in vocab]
                row = np.zeros(b_mat.shape[1], dtype=np.float32)
                row[cols] = 1.0
                rows.append(row)
            if not rows:
                continue
            inter = (np.stack(rows) @ b_mat.T).astype(np.int64)  # (nb, n_side)
            la_arr = np.asarray(la, dtype=np.int64)
            union = la_arr[:, None] + b_sizes_all[None, :] - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                sim = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
            # emit each unordered pair once: from the smaller doc_id's row
            keep = (sim >= threshold) & (ids[sl][:, None] < b_ids_all[None, :])
            ii, jj = np.nonzero(keep)
            out_a.append(ids[sl][ii])
            out_b.append(b_ids_all[jj])
            out_s.append(sim[ii, jj])
        if not out_a:
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64()),
                             "sim": pa.array([], type=pa.float64())})
        return pa.table({
            "doc_a": pa.array(np.concatenate(out_a), type=pa.int64()),
            "doc_b": pa.array(np.concatenate(out_b), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


_SHIFTS64 = np.arange(64, dtype=np.uint64)


def simhash64_many(texts: list[str]) -> np.ndarray:
    """Vectorized 64-bit SimHash over token md5 hashes (unweighted).

    Batch kernel (VERDICT r02 #5 — the round-2 version ran a 64-element
    numpy shift/accumulate per token in Python): all docs' unique tokens
    are flattened, md5-hashed once per DISTINCT token across the batch,
    expanded to a (tokens, 64) sign matrix with one broadcast shift, and
    segment-summed per doc with a single ``np.add.reduceat``. Values are
    bit-identical to the old per-token loop (same unweighted
    unique-token semantics)."""
    flat: list[str] = []
    bounds = [0]
    for t in texts:
        s = set(TOKEN_RE.findall(t.lower()))
        flat.extend(s)
        bounds.append(len(flat))
    bounds = np.asarray(bounds, dtype=np.int64)
    out = np.zeros(len(texts), dtype=np.uint64)
    if not flat:
        return out
    codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
    uh = np.fromiter((int.from_bytes(md5(t.encode()).digest()[:8], "little")
                      for t in uniq), dtype=np.uint64, count=len(uniq))
    signs = (2 * ((uh[:, None] >> _SHIFTS64[None, :]) & np.uint64(1)).astype(np.int32)
             - 1)  # (U, 64)
    contrib = signs[codes]  # (T, 64)
    nonempty = np.nonzero(np.diff(bounds) > 0)[0]
    if len(nonempty):
        acc = np.add.reduceat(contrib, bounds[nonempty], axis=0)  # (NE, 64)
        bits = (acc > 0).astype(np.uint64)
        out[nonempty] = bits @ (np.uint64(1) << _SHIFTS64)
    return out


def simhash64(text: str) -> int:
    """64-bit SimHash of one text (thin wrapper over the batch kernel)."""
    return int(simhash64_many([text])[0])


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    hs = simhash64_many(batch.column(text_col).to_pylist())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "simhash": pa.array(hs, type=pa.uint64()),
    })


def simhash_pairs(ds, max_hamming: int = 3, text_col: str = "text"):
    """Near-dup pairs ``(doc_a, doc_b, hamming)`` with
    hamming(simhash) <= max_hamming, via 4x16-bit band blocking —
    pigeonhole-complete for max_hamming <= 3. The band rows carry the
    simhash, so :func:`maskmypy_ray.lsh.lsh_pairs` Hamming-filters every
    in-bucket pair where it is formed; no verify payload is needed."""
    from ..lsh import lsh_pairs

    def explode(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        h = simhash64_many(b.column(text_col).to_pylist())
        key = (h[None, :] >> (np.arange(4, dtype=np.uint64)[:, None]
                              * np.uint64(16))) & np.uint64(0xFFFF)
        return pa.table({
            "band": pa.array(np.repeat(np.arange(4, dtype=np.int32), len(d))),
            "key": pa.array(key.ravel().astype(np.int64)),
            "doc_id": pa.array(np.tile(d, 4), type=pa.int64()),
            "simhash": pa.array(np.tile(h, 4), type=pa.uint64()),
        })

    return lsh_pairs(ds.map_batches(explode, batch_format="pyarrow"), "key",
                     "doc_id", ("doc_a", "doc_b"), band="band",
                     hash_col="simhash", max_hamming=max_hamming)


# ---------------------------------------------------------------------------
# substring (duplicated-span) dedup — Lee et al. 2022, arXiv:2107.06499
# ---------------------------------------------------------------------------


def span_hashes_batch(batch: pa.Table, k: int = 15,
                      text_col: str = "text") -> pa.Table:
    """Distinct word-k-gram hashes per doc via the shared batch kernel
    (the same 32-bit mix32-fold-of-md5-token-codes convention as the
    winnow/minhash grams, SQL-mirrored by ``oracle.sql_gram_list_expr``).
    Docs shorter than ``k`` tokens contribute no spans."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    codes, bounds = token_codes_batch(batch.column(text_col).to_pylist())
    grams, gb = gram_hashes_batch(codes, bounds, k, "skip")
    grams, gb = distinct_per_doc(grams, gb)
    return pa.table({
        "doc_id": pa.array(np.repeat(doc_ids, np.diff(gb)), type=pa.int64()),
        "gram_hash": pa.array(grams, type=pa.int64()),
    })


def duplicated_spans(ds, k: int = 15, text_col: str = "text"):
    """Exact substring-level dedup signal: every word k-gram that occurs
    in >= 2 distinct documents, with its document count and the lowest
    containing doc_id. One explode + one COARSE ``groupby(gram_hash %
    64)`` with a vectorized per-partition count/min kernel (a
    fine-key ``groupby(gram_hash).aggregate`` pays Ray's per-distinct-
    key aggregation overhead on ~1 group per row — measured 8x slower
    at sf0.1) — the suffix-array-free approximation of Lee et al.'s
    ExactSubstr (fixed span length k instead of maximal matches; at
    100 TB the explode shuffles ~tokens-per-doc rows/doc, the same
    order as the MinHash band explode)."""
    grams = ds.map_batches(lambda b: span_hashes_batch(b, k, text_col),
                           batch_format="pyarrow")

    def with_pq(b: pa.Table) -> pa.Table:
        g = b.column("gram_hash").to_numpy(zero_copy_only=False)
        return b.append_column("pq", pa.array(g % 64, type=pa.int64()))

    def agg_part(g: pd.DataFrame) -> pd.DataFrame:
        # every row of a gram_hash is in this partition (pq is a
        # function of the key), so count/min/filter are complete here
        gr = g.groupby("gram_hash", sort=False)["doc_id"]
        out = gr.agg(["size", "min"]).reset_index()
        out.columns = ["gram_hash", "n_docs", "first_doc"]
        return out[out["n_docs"] >= 2]

    def to_arrow(d: pd.DataFrame) -> pa.Table:
        # arrow-normalize the map_groups pandas blocks (round-4 rule:
        # never hand pandas blocks to a downstream union/shuffle)
        return pa.table({
            "gram_hash": pa.array(d["gram_hash"].to_numpy(), type=pa.int64()),
            "n_docs": pa.array(d["n_docs"].to_numpy(), type=pa.int64()),
            "first_doc": pa.array(d["first_doc"].to_numpy(), type=pa.int64()),
        })

    return grams.map_batches(with_pq, batch_format="pyarrow") \
        .groupby("pq").map_groups(agg_part, batch_format="pandas") \
        .map_batches(to_arrow, batch_format="pandas")


# ---------------------------------------------------------------------------
# near-dup corpus helper (mutated copies for recall tests / demos)
# ---------------------------------------------------------------------------


def with_mutated_copies(ds, every: int = 10, id_offset: int = 1_000_000):
    """Union the corpus with near-duplicate copies of every ``every``-th doc
    (one trailing token appended) — deterministic; mirrored in SQL."""
    def mutate(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = d % every == 0
        sub = b.filter(pa.array(keep))
        texts = [t + " zz9" for t in sub.column("text").to_pylist()]
        cols = {}
        for name in b.column_names:
            if name == "doc_id":
                cols[name] = pa.array(
                    sub.column("doc_id").to_numpy(zero_copy_only=False) + id_offset,
                    type=pa.int64())
            elif name == "text":
                cols[name] = pa.array(texts, type=pa.string())
            else:
                cols[name] = sub.column(name)
        return pa.table(cols)

    return ds.union(ds.map_batches(mutate, batch_format="pyarrow"))


def _eval_band_set_refs(ds, every: int, text_col: str, ngram: int):
    """Per-band sorted void-view arrays of the EVAL slice's band minima
    TUPLES, compiled in a Ray task from a parallel signature stage —
    the driver holds only the ObjectRef (same shape as
    corpus._benchmark_grams_ref). Shipping the tuple itself (128-bit
    bijective packing, :func:`_band_tuple_view`) instead of the folded
    int64 key makes membership exact — no fold-collision residual."""
    import ray

    mcols = [f"m{r}" for r in range(ROWS_PER_BAND)]

    def eval_bands(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        m = ids % every == 0
        cols = {"band_id": np.empty(0, dtype=np.int32)}
        cols.update({c: np.empty(0, dtype=np.int64) for c in mcols})
        if m.any():
            _, sig = minhash_sig_batch(b.filter(pa.array(m)), text_col, ngram)
            per = sig.reshape(len(sig), N_BANDS, ROWS_PER_BAND)
            cols["band_id"] = np.tile(np.arange(N_BANDS, dtype=np.int32),
                                      len(sig))
            for r, c in enumerate(mcols):
                cols[c] = np.ascontiguousarray(per[:, :, r]).reshape(-1)
        return pa.table({k: pa.array(v) for k, v in cols.items()})

    bands = ds.select_columns(["doc_id", text_col]).map_batches(
        eval_bands, batch_format="pyarrow")

    @ray.remote(num_cpus=1)
    def union(*blocks):
        per_band = [[] for _ in range(N_BANDS)]
        for blk in blocks:
            t = blk if isinstance(blk, pa.Table) else pa.Table.from_pandas(blk)
            if "band_id" not in t.column_names or not t.num_rows:
                continue
            bid = t.column("band_id").to_numpy(zero_copy_only=False)
            m = np.stack([t.column(c).to_numpy(zero_copy_only=False)
                          for c in mcols], axis=1)
            for b in range(N_BANDS):
                k = m[bid == b]
                if len(k):
                    per_band[b].append(k)
        return [np.unique(_band_tuple_view(np.concatenate(ks))) if ks
                else np.empty(0, dtype=_TUPLE_VOID) for ks in per_band]

    return union.remote(*bands.to_arrow_refs())


def cross_corpus_flags(ds, every: int = 97, text_col: str = "text",
                       ngram: int = 5):
    """Train-vs-benchmark NEAR-duplicate decontamination: flag every
    non-benchmark doc that shares a MinHash LSH band bucket with any
    benchmark doc (doc_id % ``every`` == 0 — the fixture's eval slice).
    The n-gram twin of corpus.decontaminate: band collision ≈ shingle
    Jaccard >= the LSH threshold curve, catching paraphrased/partial
    leaks exact grams miss. Returns Dataset[(doc_id, contaminated)].

    Scale shape: the eval side is always small (a benchmark), so its
    16 per-band tuple arrays are compiled in a Ray task and broadcast;
    flagging is one signature computation + 16 ``searchsorted`` probes
    per batch — NO shuffle at any size. Membership is on the band's
    minima TUPLE itself (128-bit bijective packing, not a fold), so the
    engine reproduces the SQL twin's tuple join exactly — no residual.
    """
    import ray

    ref = _eval_band_set_refs(ds, every, text_col, ngram)

    def flag(batch: pa.Table) -> pa.Table:
        per_band = ray.get(ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % every != 0
        sub = batch.filter(pa.array(keep))
        sids = ids[keep]
        if not len(sids):
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "contaminated": pa.array([], type=pa.int64())})
        _, sig = minhash_sig_batch(sub, text_col, ngram)
        per = sig.reshape(len(sids), N_BANDS, ROWS_PER_BAND)
        hit = np.zeros(len(sids), dtype=bool)
        for b in range(N_BANDS):
            arr = per_band[b]
            if not len(arr):
                continue
            k = _band_tuple_view(per[:, b, :])
            pos = np.searchsorted(arr, k)
            pos = np.minimum(pos, len(arr) - 1)
            hit |= arr[pos] == k
        return pa.table({
            "doc_id": pa.array(sids, type=pa.int64()),
            "contaminated": pa.array(hit.astype(np.int64), type=pa.int64()),
        })

    return ds.select_columns(["doc_id", text_col]).map_batches(
        flag, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus-level source similarity (round-5 extension)
# ---------------------------------------------------------------------------


def source_minhash_similarity(ds, ngram: int = 5, text_col: str = "text",
                              source_col: str = "source"):
    """Pairwise estimated Jaccard similarity BETWEEN SOURCES via
    source-level MinHash: each source's signature is the 64
    permutation minima over the union of its docs' word-``ngram``
    shingle hashes (a MinHash of a union is the elementwise min of the
    parts, so per-batch partial minima + one tiny
    ``groupby(source, perm).min`` compute it with no doc-level state).

    Returns an Arrow table ``(source_a, source_b, n_match,
    jaccard_est)`` for every unordered source pair (a < b), where
    ``jaccard_est = n_match / 64`` estimates ``J(shingles_a,
    shingles_b)``. The driver-side pairwise step touches only
    ``n_sources x 64`` int64s — corpora have few sources even at
    100 TB, so this is bounded by design.

    The corpus-analysis tool for comparing crawl snapshots / provenance
    slices before mixing; SQL twin:
    :func:`maskmypy_ray.oracle.source_similarity_sql`."""
    from ray.data.aggregate import Min

    perms = mix32(np.arange(N_PERM, dtype=np.int64) + _SALT)

    def partial(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pylist()
        srcs = b.column(source_col).to_numpy(zero_copy_only=False)
        codes, bounds = token_codes_batch(texts)
        grams, gb = gram_hashes_batch(codes, bounds, ngram, "single")
        if not len(grams):
            e = pa.array([], type=pa.int64())
            return pa.table({"source": pa.array([], type=pa.string()),
                             "perm": e, "m": e})
        src_per_gram = np.repeat(srcs, np.diff(gb))
        order = np.argsort(src_per_gram, kind="stable")
        g_sorted = grams[order]
        uniq_src, first = np.unique(src_per_gram[order], return_index=True)
        sb = np.concatenate([first, [len(g_sorted)]]).astype(np.int64)
        sig = minhash_signatures(g_sorted, sb, perms)
        return pa.table({
            "source": pa.array(np.repeat(uniq_src, N_PERM),
                               type=pa.string()),
            "perm": pa.array(np.tile(np.arange(N_PERM, dtype=np.int64),
                                     len(uniq_src))),
            "m": pa.array(sig.ravel()),
        })

    mins = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["source", "perm"]).aggregate(Min("m", alias_name="m"))
    rows = mins.take_all()  # bounded: n_sources x N_PERM rows
    sigs: dict[str, np.ndarray] = {}
    for r in rows:
        sigs.setdefault(r["source"], np.zeros(N_PERM, dtype=np.int64))[
            int(r["perm"])] = int(r["m"])
    names = sorted(sigs)
    a_out, b_out, n_out = [], [], []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            a_out.append(a)
            b_out.append(b)
            n_out.append(int((sigs[a] == sigs[b]).sum()))
    n = np.asarray(n_out, dtype=np.int64)
    return pa.table({
        "source_a": pa.array(a_out, type=pa.string()),
        "source_b": pa.array(b_out, type=pa.string()),
        "n_match": pa.array(n),
        "jaccard_est": pa.array(n / float(N_PERM), type=pa.float64()),
    })


def novel_gram_fraction(ds, k: int = 8, text_col: str = "text",
                        partitions: int = 64):
    """Per-doc NOVELTY fraction: the share of a doc's distinct
    word-``k``-grams that this doc INTRODUCED to the corpus (global
    min doc_id over the gram's holders == this doc) ->
    ``(doc_id, n_grams, n_new, novel_frac)``. The ordered complement of
    :func:`dup_gram_fraction` — "how much new content does each doc
    contribute" (dedup-priority / crawl-value signal). Same scale shape
    (one gram-hash-partition shuffle, per-doc partials, coarse doc
    partitions); same SQL-mirrored gram kernel."""
    return _gram_fraction_impl(ds, k, text_col, partitions, "novel")


def dup_gram_fraction(ds, k: int = 8, text_col: str = "text",
                      partitions: int = 64):
    """Per-doc CROSS-document duplication fraction: the share of a
    doc's distinct word-``k``-grams that occur in >= 2 distinct docs ->
    ``(doc_id, n_grams, n_dup, dup_frac)`` (frac rounded 6 dp; docs
    shorter than k tokens score 0 with 0 grams). The corpus-level
    complement of the within-doc Gopher repetition signals — the
    RefinedWeb-style "how much of this page is boilerplate shared with
    other pages" filter input.

    Scale shape: one gram explode routed by ``gram_hash % P`` (every
    holder of a gram lands in one partition, so the >= 2-docs flag
    completes there); per-partition vectorized per-doc PARTIAL
    (n_grams, n_dup) counts; one ``groupby(doc_id)`` over partials
    (docs x partitions rows, not gram rows); gram-less docs complete
    via zero partials emitted from the original scan."""
    return _gram_fraction_impl(ds, k, text_col, partitions, "dup")


def _gram_fraction_impl(ds, k: int, text_col: str, partitions: int,
                        kind: str):
    cnt_col = "n_dup" if kind == "dup" else "n_new"
    frac_col = "dup_frac" if kind == "dup" else "novel_frac"
    grams = ds.map_batches(lambda b: span_hashes_batch(b, k, text_col),
                           batch_format="pyarrow")

    def with_pq(b: pa.Table) -> pa.Table:
        g = b.column("gram_hash").to_numpy(zero_copy_only=False)
        return b.append_column(
            "pq", pa.array(g % partitions, type=pa.int64()))

    def part_counts(g: pd.DataFrame) -> pd.DataFrame:
        # span_hashes_batch emits DISTINCT grams per doc, so group size
        # == distinct-doc count per gram (and min == first holder)
        grp = g.groupby("gram_hash", sort=False)["doc_id"]
        if kind == "dup":
            flag = (grp.transform("size") >= 2).to_numpy()
        else:  # novel: this doc introduced the gram
            flag = (grp.transform("min").to_numpy()
                    == g["doc_id"].to_numpy())
        out = pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                            "f": flag.astype(np.int64)})
        agg = out.groupby("doc_id", sort=False).agg(
            n_grams=("f", "size"), **{cnt_col: ("f", "sum")}) \
            .reset_index()
        return agg

    def to_arrow(d: pd.DataFrame) -> pa.Table:
        return pa.table({
            "doc_id": pa.array(d["doc_id"].to_numpy(), type=pa.int64()),
            "n_grams": pa.array(d["n_grams"].to_numpy(), type=pa.int64()),
            cnt_col: pa.array(d[cnt_col].to_numpy(), type=pa.int64()),
        })

    def zero_partials(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_grams": pa.array(np.zeros(n, dtype=np.int64)),
            cnt_col: pa.array(np.zeros(n, dtype=np.int64)),
        })

    partials = grams.map_batches(with_pq, batch_format="pyarrow") \
        .groupby("pq").map_groups(part_counts, batch_format="pandas") \
        .map_batches(to_arrow, batch_format="pandas")
    zeros = ds.select_columns(["doc_id"]).map_batches(
        zero_partials, batch_format="pyarrow")

    # final per-doc sum: distinct keys ~ row count, so a fine-key
    # groupby(doc_id).aggregate would pay Ray's per-distinct-key
    # machinery on every doc (round-5 rule) — coarse doc_id % P
    # partitions with one vectorized pandas sum each instead
    def with_dp(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.append_column(
            "dp", pa.array(d % partitions, type=pa.int64()))

    def sum_part(g: pd.DataFrame) -> pa.Table:
        s = g.groupby("doc_id", sort=False).agg(
            n_grams=("n_grams", "sum"), **{cnt_col: (cnt_col, "sum")}) \
            .reset_index()
        n = s["n_grams"].to_numpy(dtype=np.int64)
        d = s[cnt_col].to_numpy(dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(s["doc_id"].to_numpy(dtype=np.int64)),
            "n_grams": pa.array(n),
            cnt_col: pa.array(d),
            frac_col: pa.array(
                np.round(np.where(n > 0, d / np.maximum(n, 1), 0.0), 6),
                type=pa.float64()),
        })

    return partials.union(zeros) \
        .map_batches(with_dp, batch_format="pyarrow") \
        .groupby("dp").map_groups(sum_part, batch_format="pandas")
