"""One banded-LSH candidate-pair join, shared by MinHash
(``text.dedup.minhash_lsh_pairs``), SimHash (``text.dedup.simhash_pairs``),
sign-LSH cosine (``sim.ann.cosine_pairs_lsh``) and perceptual-hash
(``multimodal.media.media_phash_pairs``) near-duplicate search.

Every caller explodes its rows into band rows ``(band, key, id)``, and
two ids whose rows share a bucket (a band and its key) are a candidate.
:func:`lsh_pairs` then runs the same pipeline for all of them:

1. buckets -> pairs: ``util.segment_map`` on the bucket key; each sorted
   block is lexsorted by (band, key, id) and every in-bucket pair comes
   from ``util.segmented_pair_indices``, optionally Hamming-filtered on
   a 64-bit hash carried by the band rows (SimHash, pHash);
2. pair dedup: ``segment_map`` on the pair's first id (a pair can
   collide in several bands);
3. exact verify, for callers with a payload (shingle sets, vectors):
   the payload table is semi-joined to the candidate ids
   (``util.pair_ids_ref``) before the caller's payload kernel runs, and
   the caller's ``score`` rates each pair from the two payload rows.

The verify step ships each payload once per destination, never once per
pair side (per-side copies cost 2.5M vector copies for 2,000 vectors on
the embedding fixture, whose low-threshold candidates far outnumber its
vectors): a pair lives in pair bucket ``hash(a, b) % B``, one
``cogroup_map`` on the id attaches each payload to the distinct
``(id, bucket)`` needs, and a second ``cogroup_map`` on the bucket hands
each bucket's pairs and the payloads they need to one verify call.
``B`` follows the pair table's size (``util.sort_fanout``), so no
caller picks a partition count. (A broadcast-payload verify was 1.19x
faster for MinHash and 1.32x for cosine at sf0.1, under the 1.3x a
second plan must earn, so there is one plan.)
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .util import (cogroup_map, pair_ids_ref, segment_map,
                   segmented_pair_indices, sort_fanout, sorted_member_mask)

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount via a byte-view lookup table."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POP8[x.view(np.uint8).reshape(-1, 8)].sum(
        axis=1, dtype=np.int64)


def _runs(cols):
    """Run-start indicator of rows already sorted by ``cols``."""
    new = np.ones(len(cols[0]), dtype=bool)
    if len(new) > 1:
        new[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in cols])
    return new


def _np(t: pa.Table, col: str) -> np.ndarray:
    return t.column(col).to_numpy(zero_copy_only=False)


def _bucket_pairs(t, bucket, id_col, names, hash_col, max_hamming, schema):
    """Every in-bucket id pair of one sorted block, ``a < b``."""
    t = _distinct(t, bucket + [id_col])
    ia, ib = segmented_pair_indices(_runs([_np(t, c) for c in bucket]))
    cols = {}
    if hash_col is not None:
        h = _np(t, hash_col).astype(np.uint64)
        ham = popcount64(np.bitwise_xor(h[ia], h[ib]))
        ok = ham <= max_hamming
        ia, ib, cols["hamming"] = ia[ok], ib[ok], ham[ok]
    ids = t.column(id_col)
    return pa.table({names[0]: ids.take(pa.array(ia)),
                     names[1]: ids.take(pa.array(ib)),
                     **cols}).cast(schema)


def _distinct(t, cols):
    """``t`` sorted by ``cols``, one row per distinct ``cols`` tuple."""
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending")
                                             for c in cols]))
    return t.filter(pa.array(_runs([_np(t, c) for c in cols])))


def _lookup(ids, want):
    """Positions of ``want`` in the sorted ``ids``, and which are there."""
    if not len(ids):
        return np.zeros(len(want), dtype=np.int64), \
            np.zeros(len(want), dtype=bool)
    pos = np.minimum(np.searchsorted(ids, want), len(ids) - 1)
    return pos, ids[pos] == want


def _payload_rows(payload, members_ref):
    """The payload table restricted to candidate ids BEFORE the caller's
    (expensive) payload kernel runs, so the verify's compute and
    shuffle follow the candidate count, not the corpus."""
    import ray

    ds, id_col, kernel, schema = payload

    def rows(b: pa.Table) -> pa.Table:
        keep = sorted_member_mask(ray.get(members_ref), _np(b, id_col))
        if not keep.any():
            return schema.empty_table()
        return kernel(b.filter(pa.array(keep))).cast(schema)

    return ds.map_batches(rows, batch_format="pyarrow")


def _verify(uniq, pays, pay_schema, score, threshold, names):
    """The exact verify as two co-groups: each distinct ``(id, pair
    bucket)`` need gets its payload attached on the id, then each pair
    bucket's pairs meet exactly the payloads they need and keep the
    pairs whose ``score`` is at least ``threshold`` (a pair missing a
    side's payload is dropped)."""
    n_buckets = sort_fanout(uniq)
    pid = pay_schema.names[0]
    i64 = pa.int64()
    need_schema = pa.schema([("id", i64), ("bucket", i64)])
    att_schema = pa.schema([("bucket", i64)] + list(pay_schema))
    pair_schema = pa.schema([("bucket", i64), (names[0], i64),
                             (names[1], i64)])
    schema = pa.schema([(names[0], i64), (names[1], i64),
                        ("sim", pa.float64())])

    def with_bucket(b: pa.Table) -> tuple:
        a, bb = _np(b, names[0]), _np(b, names[1])
        return a, bb, (a * 1_000_003 + bb) % n_buckets

    def needs(b: pa.Table) -> pa.Table:
        a, bb, bk = with_bucket(b)
        return _distinct(pa.table({"id": np.concatenate([a, bb]),
                                   "bucket": np.concatenate([bk, bk])}),
                         ["id", "bucket"])

    def pairs(b: pa.Table) -> pa.Table:
        a, bb, bk = with_bucket(b)
        return pa.table({"bucket": bk, names[0]: a, names[1]: bb})

    def attach(nd: pa.Table, pay: pa.Table) -> pa.Table:
        nd, pay = _distinct(nd, ["id", "bucket"]), _distinct(pay, [pid])
        pos, have = _lookup(_np(pay, pid), _np(nd, "id"))
        return pay.take(pa.array(pos[have])).add_column(
            0, "bucket", nd.column("bucket").filter(pa.array(have)))

    def verify(pr: pa.Table, att: pa.Table) -> pa.Table:
        pay = _distinct(att.drop_columns(["bucket"]), [pid])
        ids = _np(pay, pid)
        a, b = _np(pr, names[0]), _np(pr, names[1])
        (ia, ha), (ib, hb) = _lookup(ids, a), _lookup(ids, b)
        have = ha & hb
        if not have.any():
            return schema.empty_table()
        sim = score(pay, ia[have], ib[have])
        ok = sim >= threshold
        return pa.table({names[0]: a[have][ok], names[1]: b[have][ok],
                         "sim": sim[ok]})

    attached = cogroup_map(
        [(uniq.map_batches(needs, batch_format="pyarrow"), "id",
          need_schema),
         (pays, pid, pay_schema)], attach, att_schema)
    return cogroup_map(
        [(uniq.map_batches(pairs, batch_format="pyarrow"), "bucket",
          pair_schema),
         (attached, "bucket", att_schema)], verify, schema)


def lsh_pairs(bands, key: str, id_col: str, names: tuple, *,
              band: str | None = None, id_type=pa.int64(),
              hash_col: str | None = None, max_hamming: int = 0,
              payload=None, score=None, threshold: float = 0.0):
    """Deduplicated candidate pairs of the banded-LSH rows ``bands``.

    ``bands`` holds one row per (id, band): the bucket is ``(band,
    key)`` (``band=None``: ``key`` alone is the bucket). Returns
    ``Dataset[(names[0], names[1], ...)]`` with ``names[0] < names[1]``
    and one row per pair:

    * ``hash_col`` set (a uint64 hash on every band row): only pairs
      within ``max_hamming`` bits are kept, with their ``hamming``;
    * ``payload=(ds, ds_id_col, kernel, payload_schema)`` and ``score``
      set: pairs are verified exactly. ``kernel`` maps rows of ``ds``
      (already restricted to candidate ids) to ``payload_schema``, whose
      first column is the id; ``score(pay, ia, ib)`` returns float64
      scores of the pairs whose sides are rows ``ia`` and ``ib`` of the
      id-sorted payload table ``pay``. Pairs scoring at least
      ``threshold`` are returned with their ``sim``.
    """
    bucket = [band, key] if band else [key]
    cols = [(names[0], id_type), (names[1], id_type)]
    if hash_col is not None:
        cols.append(("hamming", pa.int64()))
    pair_schema = pa.schema(cols)

    cand = segment_map(bands, key, lambda t: _bucket_pairs(
        t, bucket, id_col, names, hash_col, max_hamming, pair_schema),
        pair_schema)
    uniq = segment_map(cand, names[0],
                       lambda t: _distinct(t, list(names)),
                       pair_schema)
    if payload is None:
        return uniq
    # Materialized: the pair list feeds the candidate-id semi-join and
    # the verify; re-running the band subtree per consumer would double
    # the LSH cost. Bounded by the candidate count (16 B per pair).
    uniq = uniq.materialize()
    logging.getLogger(__name__).info("lsh_pairs(%s): %d candidate pairs",
                                     id_col, uniq.count())
    return _verify(uniq, _payload_rows(payload, pair_ids_ref(uniq, *names)),
                   payload[3], score, threshold, names)
