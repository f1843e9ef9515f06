"""End-to-end corpus curation pipeline (the text-side flagship):

    quality filter -> exact dedup -> near-dup cluster dedup ->
    benchmark decontamination -> final verdict per doc

Each doc gets ONE status: ``too_short`` / ``repetitive`` /
``unnatural`` (quality reasons), ``exact_dup`` (a smaller quality-kept
doc has identical text), ``near_dup`` (non-minimum member of a
MinHash-LSH duplicate cluster among exact survivors), ``benchmark``
(member of the held-out slice, removed from training data),
``contaminated`` (shares a word 5-gram with the benchmark slice), or
``kept``. Stages run on the SURVIVORS of the previous stage — the
order every production curation pipeline uses (cheap doc-local gates
before expensive corpus-global ones) — so the status sets are disjoint
by construction and the final answer is a plain union.

The fixture corpus is enriched deterministically
(:func:`with_curation_fixture`) so every stage does real work: near-dup
mutated copies (text + ' zz9', ids +1M, every 10th doc) and exact
copies (identical text, ids +2M, every 17th doc).

Scale notes: stage flags are per-batch; exact dedup is a coarse
hash-partition kernel; the near-dup label attach is one
``util.cogroup_map`` on the doc id (a pyarrow left join per sorted
block); the LSH/cluster stage is the banded `minhash_lsh_pairs` +
`connected_components` composition; decontamination probes a
broadcast gram set. The chained branches re-derive their upstream
lazily (no full-corpus materialization); the per-stage survivor filter
is the only thing that flows forward.
"""

from __future__ import annotations

from hashlib import md5

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import cogroup_map
from .quality import quality_filter_batch

NEAR_EVERY = 10
NEAR_OFFSET = 1_000_000
EXACT_EVERY = 17
EXACT_OFFSET = 2_000_000
BENCH_MOD = 97


def curation_fixture_batch(b: pa.Table, text_col: str = "text") -> pa.Table:
    """One batch of :func:`with_curation_fixture`: the batch's rows, then
    per doc (in batch order) its near-dup copy before its exact copy."""
    import pyarrow.compute as pc

    ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    near = np.flatnonzero(ids % NEAR_EVERY == 0)
    exact = np.flatnonzero(ids % EXACT_EVERY == 0)
    src = np.concatenate([near, exact])
    is_near = np.arange(len(src)) < len(near)
    order = np.lexsort((~is_near, src))
    src, is_near = src[order], is_near[order]
    take = np.concatenate([np.arange(len(ids)), src])
    suffix = np.where(np.concatenate([np.zeros(len(ids), bool), is_near]),
                      " zz9", "")
    texts = pc.take(b.column(text_col), pa.array(take)).cast(pa.string())
    return pa.table({
        "doc_id": pa.array(np.concatenate([
            ids, ids[src] + np.where(is_near, NEAR_OFFSET, EXACT_OFFSET)])),
        text_col: pc.binary_join_element_wise(
            texts, pa.array(suffix, type=pa.string()), ""),
    })


def with_curation_fixture(ds, text_col: str = "text"):
    """documents ∪ near-dup mutated copies ∪ exact copies."""
    return ds.select_columns(["doc_id", text_col]).map_batches(
        curation_fixture_batch, fn_kwargs={"text_col": text_col},
        batch_format="pyarrow")


def _status_table(ids: np.ndarray, status) -> pa.Table:
    if np.isscalar(status) or isinstance(status, str):
        status = [status] * len(ids)
    return pa.table({
        "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
        "status": pa.array(list(status), type=pa.string()),
    })


def curate_corpus(ds, threshold: float = 0.8, partitions: int = 64,
                  text_col: str = "text"):
    """Run the full curation chain -> Dataset[(doc_id, status)] with
    exactly one row per doc of the enriched corpus. ``partitions``
    bounds the exact-dedup hash partitions; the near-dup stage attaches
    each survivor's cluster label with ``util.cogroup_map`` keyed on
    the doc id, so it has no partition count of its own."""
    from .clusters import LABEL_SCHEMA, connected_components
    from .corpus import decontaminate
    from .dedup import minhash_lsh_pairs

    corpus = with_curation_fixture(ds, text_col)

    # ---- stage 1: doc-local quality gates ------------------------------
    def flag_quality(b: pa.Table) -> pa.Table:
        f = quality_filter_batch(b)
        return pa.table({
            "doc_id": b.column("doc_id"),
            text_col: b.column(text_col),
            "keep": f.column("keep"),
            "reason": f.column("reason"),
        })

    flagged = corpus.map_batches(flag_quality, batch_format="pyarrow")
    dropped_q = flagged.filter(expr="keep == 0").map_batches(
        lambda b: _status_table(
            b.column("doc_id").to_numpy(zero_copy_only=False),
            b.column("reason").to_pylist()),
        batch_format="pyarrow")
    s1 = flagged.filter(expr="keep == 1") \
        .select_columns(["doc_id", text_col])

    # ---- stage 2: exact dedup among quality survivors ------------------
    def with_hash(b: pa.Table) -> pa.Table:
        h = [md5(t.encode()).hexdigest()
             for t in b.column(text_col).to_pylist()]
        p = np.array([int(x[:15], 16) % partitions for x in h],
                     dtype=np.int64)
        return pa.table({
            "doc_id": b.column("doc_id"), text_col: b.column(text_col),
            "h": pa.array(h, type=pa.string()), "p": pa.array(p),
        })

    def keeper_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        g["is_keeper"] = (~g["h"].duplicated()).to_numpy()
        return g[["doc_id", text_col, "is_keeper"]]

    def keeper_arrow(d: pd.DataFrame) -> pa.Table:
        return pa.table({
            "doc_id": pa.array(d["doc_id"].to_numpy(), type=pa.int64()),
            text_col: pa.array(d[text_col].to_numpy(dtype=object),
                               type=pa.string()),
            "is_keeper": pa.array(d["is_keeper"].to_numpy().astype(np.int64)),
        })

    exact = s1.map_batches(with_hash, batch_format="pyarrow") \
        .groupby("p").map_groups(keeper_part, batch_format="pandas") \
        .map_batches(keeper_arrow, batch_format="pandas").materialize()
    # ^ dual-consumer checkpoint ABOVE the keeper split: the dropped
    # branch and the survivor branch both read these blocks, so the
    # quality+hash+groupby shuffle runs exactly once (materializing
    # only the survivor side re-ran the whole chain for the dropped
    # rows). Size = survivors + dups, same order as the s2 checkpoint
    # this replaces.
    dropped_x = exact.filter(expr="is_keeper == 0").map_batches(
        lambda b: _status_table(
            b.column("doc_id").to_numpy(zero_copy_only=False),
            "exact_dup"), batch_format="pyarrow")
    s2 = exact.filter(expr="is_keeper == 1") \
        .select_columns(["doc_id", text_col]).materialize()

    # ---- stage 3: near-dup cluster dedup among exact survivors ---------
    edges = minhash_lsh_pairs(s2, threshold=threshold)
    nodes = s2.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}),
        batch_format="pyarrow")
    cc = connected_components(nodes, edges)

    def attach(rows: pa.Table, lab: pa.Table) -> pa.Table:
        j = rows.join(lab, "doc_id", "node")
        cl = j.column("cluster_id")
        # isolated nodes keep their own id as cluster
        is_min = pc.fill_null(pc.equal(cl, j.column("doc_id")), True)
        return pa.table({"doc_id": j.column("doc_id"),
                         text_col: j.column(text_col),
                         "is_min": pc.cast(is_min, pa.int64())})

    labeled = cogroup_map(
        [(s2, "doc_id", pa.schema([("doc_id", pa.int64()),
                                   (text_col, pa.string())])),
         (cc, "node", LABEL_SCHEMA)],
        attach, pa.schema([("doc_id", pa.int64()), (text_col, pa.string()),
                           ("is_min", pa.int64())])).materialize()
    # ^ checkpoint above the is_min split for the same reason as
    # `exact` above; also feeds the benchmark slice, the
    # decontamination probe AND the broadcast gram compile below.
    dropped_n = labeled.filter(expr="is_min == 0").map_batches(
        lambda b: _status_table(
            b.column("doc_id").to_numpy(zero_copy_only=False),
            "near_dup"), batch_format="pyarrow")
    s3 = labeled.filter(expr="is_min == 1") \
        .select_columns(["doc_id", text_col])

    # ---- stage 4: benchmark decontamination ----------------------------
    def bench_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return _status_table(ids[ids % BENCH_MOD == 0], "benchmark")

    bench = s3.map_batches(bench_rows, batch_format="pyarrow")
    flags = decontaminate(s3, n=5)
    verdict = flags.map_batches(
        lambda b: _status_table(
            b.column("doc_id").to_numpy(zero_copy_only=False),
            ["contaminated" if c else "kept" for c in
             b.column("contaminated").to_numpy(zero_copy_only=False)]),
        batch_format="pyarrow")

    out = dropped_q.union(dropped_x).union(dropped_n) \
        .union(bench).union(verdict)
    return out


def curate_corpus_sql(threshold: float = 0.8) -> str:
    """Self-contained DuckDB twin of :func:`curate_corpus` (same
    fixture, same stage order, same tie-breaks)."""
    from ..oracle import _minhash_edge_ctes

    return f"""WITH RECURSIVE docs3 AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {NEAR_OFFSET} AS doc_id, text || ' zz9' AS text
  FROM documents WHERE doc_id % {NEAR_EVERY} = 0
  UNION ALL
  SELECT doc_id + {EXACT_OFFSET} AS doc_id, text
  FROM documents WHERE doc_id % {EXACT_EVERY} = 0),
qt AS (SELECT doc_id, list_filter(string_split_regex(lower(text),
         '[^a-z0-9]+'), x -> x <> '') AS toks FROM docs3),
qw AS (SELECT doc_id, unnest(toks) AS tok FROM qt),
qwc AS (SELECT doc_id, tok, COUNT(*) AS c FROM qw GROUP BY doc_id, tok),
qws AS (SELECT doc_id, SUM(c) AS n, MAX(c) AS mxw FROM qwc GROUP BY doc_id),
qs AS (SELECT doc_id,
       CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT)
         AS n,
       CASE WHEN len(regexp_extract_all(lower(text), '[a-z0-9]+')) > 0
            THEN len(regexp_extract_all(lower(text),
                                        '\\b(the|a|and|of|to)\\b'))
                 / CAST(greatest(len(regexp_extract_all(lower(text),
                                                        '[a-z0-9]+')), 1)
                        AS DOUBLE)
            ELSE 0.0 END AS r
       FROM docs3),
q AS (
  SELECT qs.doc_id,
         CASE WHEN qs.n < 10 THEN 'too_short'
              WHEN COALESCE(qws.mxw / CAST(qws.n AS DOUBLE), 0.0) >= 0.5
                THEN 'repetitive'
              WHEN qs.r < 0.05 THEN 'unnatural'
              ELSE 'kept' END AS reason
  FROM qs LEFT JOIN qws ON qs.doc_id = qws.doc_id),
s1 AS (SELECT d.doc_id, d.text FROM docs3 d
       JOIN q ON q.doc_id = d.doc_id WHERE q.reason = 'kept'),
xh AS (SELECT doc_id, text, md5(text) AS h FROM s1),
xk AS (SELECT doc_id, text,
              CASE WHEN doc_id = min(doc_id) OVER (PARTITION BY h)
                   THEN 1 ELSE 0 END AS is_keeper FROM xh),
s2 AS (SELECT doc_id, text FROM xk WHERE is_keeper = 1),
docs AS (SELECT doc_id, text FROM s2),
{_minhash_edge_ctes(threshold)},
sym AS (SELECT doc_a AS a, doc_b AS b FROM mh_edges
        UNION ALL SELECT doc_b AS a, doc_a AS b FROM mh_edges),
reach(node, label) AS (
  SELECT doc_id, doc_id FROM s2
  UNION
  SELECT s.b, r.label FROM reach r JOIN sym s ON s.a = r.node),
cc AS MATERIALIZED (SELECT node AS doc_id, min(label) AS cluster
       FROM reach GROUP BY node),
s3 AS (SELECT s2.doc_id, s2.text FROM s2
       JOIN cc ON cc.doc_id = s2.doc_id WHERE cc.cluster = s2.doc_id),
dt AS (SELECT doc_id, list_filter(string_split_regex(lower(text),
         '[^a-z0-9]+'), x -> x <> '') AS toks FROM s3),
dz AS (SELECT doc_id, unnest(list_zip(toks, toks[2:], toks[3:],
         toks[4:], toks[5:])) AS z FROM dt),
dg AS (SELECT DISTINCT doc_id,
       struct_extract(z,1) || ' ' || struct_extract(z,2) || ' ' ||
       struct_extract(z,3) || ' ' || struct_extract(z,4) || ' ' ||
       struct_extract(z,5) AS gram
       FROM dz WHERE struct_extract(z,5) IS NOT NULL),
dbench AS (SELECT DISTINCT gram FROM dg WHERE doc_id % {BENCH_MOD} = 0),
dhits AS (SELECT dg.doc_id, COUNT(dbench.gram) AS nh
          FROM dg LEFT JOIN dbench USING (gram)
          WHERE dg.doc_id % {BENCH_MOD} <> 0 GROUP BY dg.doc_id)
SELECT doc_id, reason AS status FROM q WHERE reason <> 'kept'
UNION ALL
SELECT doc_id, 'exact_dup' AS status FROM xk WHERE is_keeper = 0
UNION ALL
SELECT s2.doc_id, 'near_dup' AS status FROM s2
  JOIN cc ON cc.doc_id = s2.doc_id WHERE cc.cluster <> s2.doc_id
UNION ALL
SELECT doc_id, 'benchmark' AS status FROM s3
  WHERE doc_id % {BENCH_MOD} = 0
UNION ALL
SELECT s3.doc_id,
       CASE WHEN COALESCE(dhits.nh, 0) > 0 THEN 'contaminated'
            ELSE 'kept' END AS status
FROM s3 LEFT JOIN dhits ON dhits.doc_id = s3.doc_id
WHERE s3.doc_id % {BENCH_MOD} <> 0"""
