"""Similarity search over an embedding column (list<float>).

* :func:`cosine_topk` — exact brute-force top-k: the query matrix is
  L2-normalized once, broadcast via ``ray.put``, and every batch does one
  float64 matmul against it. The baseline (and the oracle-checked path).
* :func:`cosine_pairs` — exact all-pairs cosine >= threshold (dedup-style
  similarity join; one side broadcast).
* :func:`lsh_topk` — random-hyperplane LSH variant: vectors are bucketed
  by sign-pattern; each query searches only its bucket and hamming-1
  neighbors. The scale path (buckets shard the matmul); recall measured
  against brute force in tests.

Hyperplanes draw from the engine's counter RNG — deterministic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rng import uniform01


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(n > 0, n, 1.0)


def _embeddings_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    emb = np.stack(batch.column("embedding").to_numpy(zero_copy_only=False))
    return ids, emb


class TopKScorer:
    """Scorer stage: normalized query matrix fetched per task (zero-copy)."""

    def __init__(self, queries_ref, k: int):
        import ray

        self.q_ids, self.q = (
            ray.get(queries_ref) if not isinstance(queries_ref, tuple) else queries_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _embeddings_matrix(batch)
        sims = _normalize(emb) @ self.q.T  # (batch, nq)
        out_q, out_n, out_s = [], [], []
        for j in range(len(self.q_ids)):
            out_q.append(np.full(len(ids), self.q_ids[j], dtype=np.int64))
            out_n.append(ids)
            out_s.append(sims[:, j])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(out_n), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


TOPK_SCHEMA = pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()),
                         ("sim", pa.float64()), ("rank", pa.int64())])


def _head_k_block(t: pa.Table, k: int, exclude_self: bool) -> pa.Table:
    """The ``k`` best rows of every query in one block sorted by
    ``query_id``: sim descending, then vec_id ascending, with a 1-based
    ``rank``; ``exclude_self`` drops each query's own vector first."""
    import pyarrow.compute as pc

    from ..util import run_local_ranks, segment_bounds

    if exclude_self:
        t = t.filter(pc.not_equal(t.column("vec_id"), t.column("query_id")))
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("query_id", "ascending"), ("sim", "descending"),
        ("vec_id", "ascending")]))
    starts, _ = segment_bounds(t.column("query_id").to_numpy())
    new = np.zeros(t.num_rows, dtype=bool)
    new[starts] = True
    rank = run_local_ranks(new)
    keep = rank < k
    return t.filter(pa.array(keep)).append_column(
        "rank", pa.array(rank[keep] + 1, type=pa.int64())).cast(TOPK_SCHEMA)


def _head_k(scores, k: int, exclude_self: bool = False):
    """Per-query head-k of a (query_id, vec_id, sim) score table: one
    ``segment_map`` on ``query_id`` with :func:`_head_k_block`."""
    from functools import partial

    from ..util import segment_map

    return segment_map(scores, "query_id", partial(
        _head_k_block, k=k, exclude_self=exclude_self), TOPK_SCHEMA)


def cosine_topk(ds, query_ids: list[int], k: int = 10, exclude_self: bool = True):
    """Exact top-k cosine neighbors of the given vec_ids.

    Per-batch partial top-k would cut the shuffle further; at driver
    scales the full score table is tiny, so one per-query head-k
    (:func:`_head_k`) suffices.
    """
    import ray

    qdf = ds.map_batches(
        lambda b: b.filter(pa.array(np.isin(
            b.column("vec_id").to_numpy(zero_copy_only=False), query_ids))),
        batch_format="pyarrow").to_pandas()
    q_ids = qdf["vec_id"].to_numpy()
    q = _normalize(np.stack(qdf["embedding"].to_numpy()))
    ref = ray.put((q_ids, q))
    # Task pool, not an actor pool: the only state is the broadcast
    # (q_ids, q) ref — a zero-copy plasma read per task — so plain
    # tasks reach full parallelism instantly, and unions of several
    # scorer stages can't deadlock a small ray.init on pool minima.
    scores = ds.map_batches(
        lambda b: TopKScorer(queries_ref=ref, k=k)(b),
        batch_format="pyarrow",
    )

    return _head_k(scores, k, exclude_self)


def _normalized_matrix_ref(ds):
    """Build the broadcast (ids, normalized matrix) in a Ray TASK from
    the dataset's block refs — the driver never materializes the
    embedding table; the compiled matrix lives only in the object store
    (same off-driver pattern as the k-anonymity address index)."""
    import ray

    @ray.remote(num_cpus=1)
    def compile_task(*blocks):
        tables = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                  for b in blocks]
        tbl = pa.concat_tables(tables)
        ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        m = _normalize(np.stack(tbl.column("embedding").to_numpy(zero_copy_only=False)))
        return ids, m

    refs = ds.select_columns(["vec_id", "embedding"]).to_arrow_refs()
    return compile_task.remote(*refs)


# Hard guards for the exact all-pairs path (VERDICT r04 #3 — mirrors
# text.dedup's JACCARD_EXACT_MAX_DOCS/MAX_ELEMENTS): above these, the
# broadcast matrix floods the object store and O(n^2) scoring is the
# wrong tool — use cosine_pairs_lsh.
COSINE_EXACT_MAX_ROWS = 200_000
COSINE_EXACT_MAX_ELEMENTS = 500_000_000  # rows x dim (float64 => 4 GB)


def cosine_pairs(ds, threshold: float = 0.4):
    """Exact all-pairs cosine similarity join: (vec_a, vec_b) with
    cosine >= threshold, vec_a < vec_b. One side broadcast; each batch
    multiplies against the full normalized matrix.

    O(n^2) validation twin of :func:`cosine_pairs_lsh`: a hard
    row/element guard rejects inputs where only the LSH path makes
    sense (the broadcast matrix must stay object-store friendly)."""
    import ray

    n_rows = ds.count()
    if n_rows > COSINE_EXACT_MAX_ROWS:
        raise ValueError(
            f"cosine_pairs is the O(n^2) validation twin and refuses "
            f"{n_rows} vectors (> {COSINE_EXACT_MAX_ROWS}); use "
            "cosine_pairs_lsh for similarity joins at scale")
    dim = len(ds.take(1)[0]["embedding"])
    if n_rows * dim > COSINE_EXACT_MAX_ELEMENTS:
        raise ValueError(
            f"cosine_pairs broadcast matrix would be {n_rows} x {dim} "
            f"elements (> {COSINE_EXACT_MAX_ELEMENTS}); use "
            "cosine_pairs_lsh")
    ref = _normalized_matrix_ref(ds)

    def score(batch: pa.Table) -> pa.Table:
        ids, emb = _embeddings_matrix(batch)
        bids, bm = ray.get(ref)
        sims = _normalize(emb) @ bm.T
        ii, jj = np.nonzero(sims >= threshold)
        a = ids[ii]
        b = bids[jj]
        keep = a < b
        return pa.table({
            "vec_a": pa.array(a[keep], type=pa.int64()),
            "vec_b": pa.array(b[keep], type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def auto_lsh_params(threshold: float, target_recall: float = 0.9,
                    max_bands: int = 64,
                    density_cap: float = 0.05) -> tuple[int, int]:
    """Pick (bits_per_band, n_bands) for banded sign-LSH from the
    (threshold, recall) operating point (VERDICT r04 #4 — the old fixed
    b=4/L=16 default produced 64% candidate density at threshold 0.4,
    i.e. the LSH did almost no filtering).

    Per-band collision at similarity s is ``p^b`` with
    ``p = 1 - arccos(s)/pi``; ``L`` bands give recall
    ``1 - (1 - p^b)^L``; a random (s~0) pair matches a band with
    ``2^-b``, so expected candidate density ~ ``1-(1-2^-b)^L``. The
    smallest ``b`` whose density meets ``density_cap`` under the
    ``max_bands`` budget wins; when no b qualifies (low thresholds are
    intrinsically coarse for ANY sign-LSH family) the most selective
    feasible point (largest b with L <= max_bands) is returned — and
    the caller should question whether a threshold that low wants LSH
    at all (blocked brute-force matmul does strictly less work once
    density approaches 1)."""
    p = 1.0 - np.arccos(np.clip(threshold, -1.0, 1.0)) / np.pi
    best = None
    for b in range(2, 25):
        pb = p ** b
        if pb >= 1.0:
            continue
        L = int(np.ceil(np.log(1.0 - target_recall) / np.log(1.0 - pb)))
        if L > max_bands:
            break
        density = 1.0 - (1.0 - 2.0 ** -b) ** L
        best = (b, L)
        if density <= density_cap:
            return best
    if best is None:  # threshold so low even b=2 blows the band budget
        return 2, max_bands
    return best


PERTURB_ID_OFFSET = 10_000_000


def with_perturbed_copies(ds, every: int = 10, target_cos: float = 0.95,
                          seed: int = 42):
    """Append a deterministic near-duplicate copy of every ``every``-th
    vector: unit(v) + eps*g with g from the counter RNG (streams
    10002/10003) and eps sized so E[cos(v, v')] ~ ``target_cos`` — the
    embedding-space twin of ``text.dedup.with_mutated_copies``, seeding
    the corpus with known near-dups for the high-threshold (SemDeDup
    regime) similarity-join queries. Copy ids are original +
    ``PERTURB_ID_OFFSET``."""
    def perturb(batch: pa.Table) -> pa.Table:
        ids, emb = _embeddings_matrix(batch)
        hit = np.nonzero(ids % every == 0)[0]
        if not len(hit):
            return batch.select(["vec_id", "embedding"])
        u = _normalize(emb[hit])
        dim = u.shape[1]
        eps = float(np.sqrt(max(1.0 / target_cos ** 2 - 1.0, 0.0) / dim))
        idx = (ids[hit][:, None] * dim
               + np.arange(dim, dtype=np.int64)[None, :]).ravel()
        ua = uniform01(idx, seed, 10_002)
        va = uniform01(idx, seed, 10_003)
        g = (np.sqrt(-2.0 * np.log1p(-ua)) * np.cos(2.0 * np.pi * va)) \
            .reshape(len(hit), dim)
        vp = u + eps * g
        out_ids = np.concatenate([ids, ids[hit] + PERTURB_ID_OFFSET])
        out_emb = list(emb.astype(np.float64)) + [r for r in vp]
        return pa.table({
            "vec_id": pa.array(out_ids, type=pa.int64()),
            "embedding": pa.array([list(r) for r in out_emb],
                                  type=pa.list_(pa.float64())),
        })

    return ds.map_batches(perturb, batch_format="pyarrow")


def _unit_rows(b: pa.Table) -> pa.Table:
    """(vec_id, L2-normalized float64 embedding): the verify payload."""
    ids, emb = _embeddings_matrix(b)
    m = _normalize(emb)
    n, dim = m.shape
    return pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            pa.array(np.arange(0, n * dim + 1, max(dim, 1), dtype=np.int32)),
            pa.array(m.ravel())),
    })


def _cosine_scores(pay: pa.Table, ia: np.ndarray, ib: np.ndarray):
    """Row-wise dot products of the pairs' unit vectors."""
    e = pay.column("embedding").combine_chunks()
    m = e.flatten().to_numpy().reshape(len(e), -1)
    return np.einsum("ij,ij->i", m[ia], m[ib])


def cosine_pairs_lsh(ds, threshold: float = 0.4,
                     bits_per_band: int | None = None,
                     n_bands: int | None = None, seed: int = 42):
    """Cosine-threshold similarity join via banded sign-LSH — the
    embedding twin of :func:`maskmypy_ray.text.dedup.minhash_lsh_pairs`
    and the scale path beside the broadcast all-pairs
    :func:`cosine_pairs`. Returns Dataset[(vec_a, vec_b, sim)] with
    vec_a < vec_b and sim >= ``threshold``.

    Every vector is hashed by ``n_bands`` independent groups of
    ``bits_per_band`` hyperplane signs and exploded into one
    ``(bucket, vec_id)`` row per band (``bucket`` packs the band and its
    sign key; the rows carry no embedding, which would push n_bands x
    the vector bytes through the shuffle).
    :func:`maskmypy_ray.lsh.lsh_pairs` pairs the vectors that share a
    bucket, dedups the pairs and verifies exact cosine over the unit
    vectors of the candidate members only.

    Recall at similarity s per band is ``p^b`` with
    ``p = 1 - arccos(s)/pi``; across bands ``1 - (1 - p^b)^L``.
    ``bits_per_band``/``n_bands`` default to :func:`auto_lsh_params`:
    the operating point scales with the threshold so the expected
    random-pair candidate density stays bounded — at the near-dup
    thresholds LSH exists for (s >= ~0.8, the SemDeDup regime) the auto
    point is highly selective (s=0.9 -> b=10, L=10, ~1% density); at low
    thresholds (s <= ~0.5) NO sign-LSH point filters well and the auto
    choice maximizes selectivity under the band budget while the logged
    candidate count flags the degradation — prefer the blocked
    brute-force :func:`cosine_pairs` there.
    """
    import logging

    from ..lsh import lsh_pairs

    if bits_per_band is None or n_bands is None:
        auto_b, auto_l = auto_lsh_params(threshold)
        bits_per_band = bits_per_band if bits_per_band is not None else auto_b
        n_bands = n_bands if n_bands is not None else auto_l
    nbits = bits_per_band * n_bands
    logging.getLogger(__name__).info(
        "cosine_pairs_lsh: threshold=%.2f, b=%d, L=%d", threshold,
        bits_per_band, n_bands)

    def explode(batch: pa.Table) -> pa.Table:
        # Hyperplanes are a deterministic counter-RNG function of
        # (dim, nbits, seed) — computed lazily from the first batch's
        # own width and memoized per process: no ds.take(1) probe
        # executing the upstream a second time, no broadcast.
        ids, emb = _embeddings_matrix(batch)
        if not len(ids):
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64())})
        pl = _planes_cached(emb.shape[1], nbits, seed)
        signs = (_normalize(emb) @ pl.T) > 0  # (n, b*L)
        weights = (1 << np.arange(bits_per_band, dtype=np.int64))
        key = signs.reshape(len(ids), n_bands, bits_per_band) \
            .astype(np.int64) @ weights  # (n, L)
        band = np.arange(n_bands, dtype=np.int64)
        return pa.table({
            "bucket": pa.array(((band[:, None] << np.int64(32)) | key.T)
                               .ravel(), type=pa.int64()),
            "vec_id": pa.array(np.tile(ids, n_bands), type=pa.int64()),
        })

    payload = (ds.select_columns(["vec_id", "embedding"]), "vec_id",
               _unit_rows, pa.schema([("vec_id", pa.int64()),
                                      ("embedding", pa.list_(pa.float64()))]))
    return lsh_pairs(ds.map_batches(explode, batch_format="pyarrow"),
                     "bucket", "vec_id", ("vec_a", "vec_b"),
                     payload=payload, score=_cosine_scores,
                     threshold=threshold)


def lsh_buckets_batch(batch: pa.Table, planes: np.ndarray) -> pa.Table:
    ids, emb = _embeddings_matrix(batch)
    signs = (_normalize(emb) @ planes.T) > 0  # (n, nbits)
    keys = np.zeros(len(ids), dtype=np.int64)
    for b in range(planes.shape[0]):
        keys |= signs[:, b].astype(np.int64) << b
    return pa.table({
        "bucket": pa.array(keys, type=pa.int64()),
        "vec_id": pa.array(ids, type=pa.int64()),
    })


_PLANES_CACHE: dict = {}


def _planes_cached(dim: int, nbits: int, seed: int) -> np.ndarray:
    """Per-process memo of :func:`random_hyperplanes` — the planes are a
    pure function of (dim, nbits, seed), so each worker derives them
    locally instead of reading a broadcast."""
    key = (dim, nbits, seed)
    pl = _PLANES_CACHE.get(key)
    if pl is None:
        pl = _PLANES_CACHE.setdefault(
            key, random_hyperplanes(dim, nbits, seed))
    return pl


def random_hyperplanes(dim: int, nbits: int = 8, seed: int = 42) -> np.ndarray:
    """Deterministic hyperplanes from the counter RNG (Box-Muller).

    Streams 10000/10001 — a high block reserved in the rng.py registry so
    the Ripley CSR range (300+2s) can never collide (ADVICE r01)."""
    idx = np.arange(dim * nbits, dtype=np.int64)
    u = uniform01(idx, seed, 10_000)
    v = uniform01(idx, seed, 10_001)
    g = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)
    return g.reshape(nbits, dim)


def _train_centroids_ref(ds, nlist: int, train_rows: int = 8192,
                         iters: int = 10):
    """Train spherical-kmeans centroids for IVF in a Ray TASK over the
    first ``train_rows`` rows (deterministic: parquet order; init =
    evenly spaced rows of the vec_id-sorted sample). The driver never
    holds the training matrix — only the tiny (nlist, dim) centroid
    matrix comes back."""
    import ray

    @ray.remote(num_cpus=1)
    def train(*blocks):
        tables = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                  for b in blocks]
        tbl = pa.concat_tables(tables)
        order = np.argsort(tbl.column("vec_id").to_numpy(zero_copy_only=False),
                           kind="stable")
        m = _normalize(np.stack(
            tbl.column("embedding").to_numpy(zero_copy_only=False)))[order]
        c = m[np.linspace(0, len(m) - 1, min(nlist, len(m))).astype(np.int64)]
        for _ in range(iters):
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c))[:, None]
            c = _normalize(np.where(counts > 0, sums / np.maximum(counts, 1), c))
        return c

    refs = ds.select_columns(["vec_id", "embedding"]).limit(train_rows) \
        .to_arrow_refs()
    return train.remote(*refs)


class IvfScorer:
    """Scorer stage for IVF top-k: centroids + queries + per-query
    probe-list table fetched per task (zero-copy plasma read). Each batch assigns its
    vectors to their nearest centroid (one (n, nlist) matmul), scores
    each query only against vectors in its ``nprobe`` probed lists, and
    emits a per-batch partial top-k — the inverted lists shard the
    matmul and the shuffle carries at most k rows per (query, batch)."""

    def __init__(self, state_ref, k: int):
        import ray

        self.q_ids, self.q, self.centroids, self.probe = (
            ray.get(state_ref) if not isinstance(state_ref, tuple) else state_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _embeddings_matrix(batch)
        m = _normalize(emb)
        assign = np.argmax(m @ self.centroids.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for j in range(len(self.q_ids)):
            sel = self.probe[j, assign]
            cand = np.nonzero(sel)[0]
            cand = cand[ids[cand] != self.q_ids[j]]  # exclude self pre-top-k
            if not len(cand):
                continue
            sims = m[cand] @ self.q[j]
            top = np.lexsort((ids[cand], -sims))[:self.k]
            out_q.append(np.full(len(top), self.q_ids[j], dtype=np.int64))
            out_v.append(ids[cand[top]])
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "sim": pa.array([], type=pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


def ivf_topk(ds, query_ids: list[int], k: int = 10, nlist: int = 32,
             nprobe: int = 4, train_rows: int = 8192):
    """IVF (inverted-file) approximate top-k — the classic
    cluster-then-probe ANN scale path beside :func:`lsh_topk`.

    Shape: spherical-kmeans centroids trained once in a Ray task (small,
    deterministic sample), broadcast with the normalized query matrix and
    a (nq, nlist) probe table (each query's ``nprobe`` nearest
    centroids); per-batch assignment is one matmul and each query scores
    only its probed lists; partial top-k caps the shuffle at k rows per
    (query, batch); one per-query head-k (:func:`_head_k`) finishes. The
    vector table never visits the driver. Recall vs brute force is
    pytest-measured (isotropic random vectors are the worst case for any
    space partitioner — real embedding corpora cluster far better)."""
    import ray

    qdf = ds.map_batches(
        lambda b: b.filter(pa.array(np.isin(
            b.column("vec_id").to_numpy(zero_copy_only=False), query_ids))),
        batch_format="pyarrow").to_pandas()
    q_ids = qdf["vec_id"].to_numpy()
    q = _normalize(np.stack(qdf["embedding"].to_numpy()))
    centroids = ray.get(_train_centroids_ref(ds, nlist, train_rows))
    qc = q @ centroids.T  # (nq, nlist)
    nprobe = min(nprobe, qc.shape[1])
    probe = np.zeros_like(qc, dtype=bool)
    top_lists = np.argsort(-qc, axis=1)[:, :nprobe]
    np.put_along_axis(probe, top_lists, True, axis=1)
    ref = ray.put((q_ids, q, centroids, probe))
    # Task pool (broadcast-ref state only; see cosine_topk note).
    scores = ds.map_batches(
        lambda b: IvfScorer(state_ref=ref, k=k)(b),
        batch_format="pyarrow",
    )

    return _head_k(scores, k)


class LshScorer:
    """Scorer stage: queries + hyperplanes + per-query probe-bucket
    lookup table fetched per task (zero-copy plasma read). Each vector batch hashes its
    vectors to buckets, scores each query ONLY against vectors whose
    bucket is in the query's multi-probe set, and emits a per-batch
    partial top-k — the bucketing shards the matmul and the shuffle
    carries at most k rows per (query, batch)."""

    def __init__(self, state_ref, k: int):
        import ray

        self.q_ids, self.q, self.planes, self.probe = (
            ray.get(state_ref) if not isinstance(state_ref, tuple) else state_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _embeddings_matrix(batch)
        m = _normalize(emb)
        signs = (m @ self.planes.T) > 0
        keys = np.zeros(len(ids), dtype=np.int64)
        for b in range(self.planes.shape[0]):
            keys |= signs[:, b].astype(np.int64) << b
        out_q, out_v, out_s = [], [], []
        for j in range(len(self.q_ids)):
            sel = self.probe[j, keys]
            if not sel.any():
                continue
            cand = np.nonzero(sel)[0]
            cand = cand[ids[cand] != self.q_ids[j]]  # exclude self pre-top-k
            if not len(cand):
                continue
            sims = m[cand] @ self.q[j]
            top = np.lexsort((ids[cand], -sims))[:self.k]
            out_q.append(np.full(len(top), self.q_ids[j], dtype=np.int64))
            out_v.append(ids[cand[top]])
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "sim": pa.array([], type=pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


def lsh_topk(ds, query_ids: list[int], k: int = 10, nbits: int = 6, seed: int = 42,
             probe_hamming: int = 2):
    """LSH-bucketed approximate top-k: each query scans its own bucket plus
    all buckets within ``probe_hamming`` sign flips (multi-probe). Returns
    the same schema as cosine_topk.

    Fully streaming (VERDICT r01 #7): the vector table never leaves the
    cluster — queries (small) are broadcast with a (nq, 2^nbits) probe
    lookup table; per-batch partial top-k caps the shuffle at k rows per
    (query, batch); one per-query head-k (:func:`_head_k`) finishes.
    Recall on isotropic random vectors is modest by construction
    (measured in tests)."""
    import ray

    qdf = ds.map_batches(
        lambda b: b.filter(pa.array(np.isin(
            b.column("vec_id").to_numpy(zero_copy_only=False), query_ids))),
        batch_format="pyarrow").to_pandas()
    q_ids = qdf["vec_id"].to_numpy()
    q = _normalize(np.stack(qdf["embedding"].to_numpy()))
    planes = random_hyperplanes(q.shape[1], nbits, seed)
    qsigns = (q @ planes.T) > 0
    qkeys = np.zeros(len(q_ids), dtype=np.int64)
    for b in range(nbits):
        qkeys |= qsigns[:, b].astype(np.int64) << b
    buckets = np.arange(1 << nbits, dtype=np.int64)
    pop = np.array([bin(v).count("1") for v in range(1 << nbits)], dtype=np.int64)
    probe = pop[np.bitwise_xor(qkeys[:, None], buckets[None, :])] <= probe_hamming
    ref = ray.put((q_ids, q, planes, probe))
    # Task pool (broadcast-ref state only; see cosine_topk note).
    scores = ds.map_batches(
        lambda b: LshScorer(state_ref=ref, k=k)(b),
        batch_format="pyarrow",
    )

    return _head_k(scores, k)


# ---------------------------------------------------------------------------
# Product quantization (PQ-accelerated scan + exact shortlist rerank)
# ---------------------------------------------------------------------------


def _train_pq_codebooks_ref(ds, m_sub: int, ksub: int,
                            train_rows: int = 8192, iters: int = 10):
    """Train per-subspace L2-kmeans codebooks in a Ray TASK over the
    first ``train_rows`` rows (deterministic: vec_id-sorted sample,
    evenly spaced init — the :func:`_train_centroids_ref` recipe per
    subspace). Only the (m_sub, ksub, dim/m_sub) codebook tensor comes
    back; the driver never holds the training matrix."""
    import ray

    @ray.remote(num_cpus=1)
    def train(*blocks):
        tables = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                  for b in blocks]
        tbl = pa.concat_tables(tables)
        order = np.argsort(tbl.column("vec_id").to_numpy(zero_copy_only=False),
                           kind="stable")
        m = _normalize(np.stack(
            tbl.column("embedding").to_numpy(zero_copy_only=False)))[order]
        n, dim = m.shape
        assert dim % m_sub == 0, f"dim {dim} not divisible by m_sub {m_sub}"
        dsub = dim // m_sub
        books = np.empty((m_sub, ksub, dsub), dtype=np.float64)
        for s in range(m_sub):
            x = m[:, s * dsub:(s + 1) * dsub]
            c = x[np.linspace(0, n - 1, min(ksub, n)).astype(np.int64)]
            for _ in range(iters):
                # L2 assign == argmax(x.c - |c|^2/2); one (n, ksub) matmul
                d2 = x @ c.T - 0.5 * (c * c).sum(axis=1)[None, :]
                assign = np.argmax(d2, axis=1)
                sums = np.zeros_like(c)
                np.add.at(sums, assign, x)
                counts = np.bincount(assign, minlength=len(c))[:, None]
                c = np.where(counts > 0, sums / np.maximum(counts, 1), c)
            books[s, :len(c)] = c
            if len(c) < ksub:  # tiny training set: pad with repeats
                books[s, len(c):] = c[np.zeros(ksub - len(c), dtype=np.int64)]
        return books

    refs = ds.select_columns(["vec_id", "embedding"]).limit(train_rows) \
        .to_arrow_refs()
    return train.remote(*refs)


class PqScorer:
    """Scorer stage for PQ top-k: codebooks + queries fetched per task
    (zero-copy); the tiny ADC (asymmetric-distance) tables rebuild locally. Each
    batch (a) encodes its vectors — m_sub small matmuls against the
    codebooks, argmax per subspace — then (b) scores every query
    against every vector with TABLE LOOKUPS ONLY (sum of m_sub gathered
    entries, no full-dim matmul), (c) takes the PQ top ``shortlist``
    per query and reranks just those with the exact dot product. The
    shuffle still carries at most k rows per (query, batch).

    This is the IVFADC compute shape (Jegou et al. 2011): at scale the
    scan cost per vector drops from ``dim`` multiplies to ``m_sub``
    table reads, and the codes (m_sub bytes/vector) can be cached in a
    fraction of the vectors' memory."""

    def __init__(self, state_ref, k: int, shortlist: int):
        import ray

        self.q_ids, self.q, self.books = (
            ray.get(state_ref) if not isinstance(state_ref, tuple)
            else state_ref)
        self.k = k
        self.shortlist = shortlist
        m_sub, ksub, dsub = self.books.shape
        # ADC tables: T[j, s, c] = q_j[sub s] . codebook[s, c]
        self.adc = np.einsum("qsd,scd->qsc",
                             self.q.reshape(len(self.q), m_sub, dsub),
                             self.books)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _embeddings_matrix(batch)
        m = _normalize(emb)
        m_sub, ksub, dsub = self.books.shape
        x = m.reshape(len(m), m_sub, dsub)
        # encode: per-subspace L2 argmin via the matmul identity
        codes = np.empty((len(m), m_sub), dtype=np.int64)
        for s in range(m_sub):
            d2 = x[:, s, :] @ self.books[s].T \
                - 0.5 * (self.books[s] * self.books[s]).sum(axis=1)[None, :]
            codes[:, s] = np.argmax(d2, axis=1)
        flat = codes + (np.arange(m_sub, dtype=np.int64) * ksub)[None, :]
        out_q, out_v, out_s = [], [], []
        for j in range(len(self.q_ids)):
            approx = self.adc[j].ravel()[flat].sum(axis=1)
            cand = np.argsort(-approx, kind="stable")[:self.shortlist]
            cand = cand[ids[cand] != self.q_ids[j]]
            if not len(cand):
                continue
            sims = m[cand] @ self.q[j]  # exact rerank of the shortlist
            top = np.lexsort((ids[cand], -sims))[:self.k]
            out_q.append(np.full(len(top), self.q_ids[j], dtype=np.int64))
            out_v.append(ids[cand[top]])
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "sim": pa.array([], type=pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


def pq_topk(ds, query_ids: list[int], k: int = 10, m_sub: int = 8,
            ksub: int = 16, shortlist: int = 64, train_rows: int = 8192):
    """Product-quantization approximate top-k — the memory-bound ANN
    scale path beside :func:`ivf_topk` / :func:`lsh_topk`.

    Shape: per-subspace codebooks trained once in a Ray task
    (deterministic sample), broadcast with the query matrix; per batch
    the scan is table lookups over m_sub-byte codes instead of a
    full-dim matmul, followed by an exact rerank of each query's
    ``shortlist`` PQ candidates (the standard ADC + rerank recipe, so
    recall is set by the shortlist, not the coarse 4-bit codes);
    partial top-k caps the shuffle at k rows per (query, batch). The
    vector table never visits the driver."""
    import ray

    qdf = ds.map_batches(
        lambda b: b.filter(pa.array(np.isin(
            b.column("vec_id").to_numpy(zero_copy_only=False), query_ids))),
        batch_format="pyarrow").to_pandas()
    q_ids = qdf["vec_id"].to_numpy()
    q = _normalize(np.stack(qdf["embedding"].to_numpy()))
    books = ray.get(_train_pq_codebooks_ref(ds, m_sub, ksub, train_rows))
    ref = ray.put((q_ids, q, books))
    # Task pool (broadcast-ref state only; the tiny per-query ADC
    # tables rebuild in microseconds per batch — see cosine_topk note).
    scores = ds.map_batches(
        lambda b: PqScorer(state_ref=ref, k=k, shortlist=shortlist)(b),
        batch_format="pyarrow",
    )

    return _head_k(scores, k)
