"""Line-level corpus filtering (the C4 / RefinedWeb intra-document
stage): drop lines without terminal punctuation, lines with fewer than
3 words, and boilerplate lines ("javascript"/"cookie" notices), then
reassemble the cleaned document. This is the structural filter that
runs BETWEEN the doc-level quality gates and dedup in the standard
pretraining pipeline (C4: Raffel et al. 2020 §2.2).

The fixture corpus is single-line, so — like the PII and near-dup
fixtures (`text/pii.py:with_pii`, `text/dedup.py:with_mutated_copies`)
— :func:`with_lines` first derives a deterministic multi-line corpus:
8-token lines, counter-RNG (stream 916) terminal punctuation on ~2/3 of
lines, and a boilerplate line injected at ~1/17 — all reproduced
bit-for-bit by the SQL twin (:func:`line_filter_sql`).

Both stages are stateless ``map_batches`` passes: no shuffle, no
driver state, nothing corpus-global — the 100-TB shape is trivially
right (each doc transforms alone; pandas vectorized string kernels do
the per-line work batch-wide).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..rng import sql_substream, substream
from ..util import flat_ranges
from .grams import TOKEN_RE

LINES_STREAM = 916  # rng stream registry: line-structure derivation
WORDS_PER_LINE = 8
MIN_WORDS = 3
BOILERPLATE = "please enable javascript and cookies."
_BOILER_MOD = 17
_PUNCT_MOD = 3


def with_lines(ds, seed: int = 0, text_col: str = "text"):
    """Derive the multi-line fixture: split each doc's token stream
    into 8-token lines; line l of doc d gets h = substream(d*65536+l):
    the boilerplate line if h % 17 == 0, a terminal '.' if h % 3 != 0,
    no terminal punctuation otherwise. Lines joined by '\\n'."""

    def derive(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        out = []
        for d, t in zip(ids, b.column(text_col).to_pylist()):
            toks = TOKEN_RE.findall(t.lower())
            lines = []
            for l in range(0, (len(toks) + WORDS_PER_LINE - 1)
                           // WORDS_PER_LINE):
                h = int(substream(int(d) * 65536 + l, seed, LINES_STREAM))
                if h % _BOILER_MOD == 0:
                    lines.append(BOILERPLATE)
                    continue
                txt = " ".join(
                    toks[l * WORDS_PER_LINE:(l + 1) * WORDS_PER_LINE])
                lines.append(txt + "." if h % _PUNCT_MOD != 0 else txt)
            out.append("\n".join(lines))
        cols = {n: b.column(n) for n in b.column_names if n != text_col}
        cols[text_col] = pa.array(out, type=pa.string())
        return pa.table(cols)

    return ds.map_batches(derive, batch_format="pyarrow")


def line_filter(ds, text_col: str = "text"):
    """Per-doc line filter -> ``(doc_id, n_lines, n_kept, text)``:
    keep a line iff it ends with '.', has >= MIN_WORDS words, and
    contains neither 'javascript' nor 'cookie'; ``text`` is the kept
    lines rejoined by '\\n' ('' when none survive). One stateless
    vectorized batch pass (pandas string kernels over the exploded
    line array — never a Python loop per line)."""

    def filt(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        texts = b.column(text_col).to_pylist()
        n_lines_per = np.empty(len(ids), dtype=np.int64)
        all_lines: list[str] = []
        for i, t in enumerate(texts):
            ls = t.split("\n") if t else []
            n_lines_per[i] = len(ls)
            all_lines.extend(ls)
        s = pd.Series(all_lines, dtype=object)
        if len(s):
            keep = (s.str.endswith(".")
                    & (s.str.count(TOKEN_RE.pattern) >= MIN_WORDS)
                    & ~s.str.contains("javascript", regex=False)
                    & ~s.str.contains("cookie", regex=False)).to_numpy()
        else:
            keep = np.zeros(0, dtype=bool)
        bounds = np.concatenate([np.zeros(1, dtype=np.int64),
                                 np.cumsum(n_lines_per)])
        if len(keep):
            # clip: a zero-line doc's start offset may equal len(keep)
            starts = np.minimum(bounds[:-1], len(keep) - 1)
            n_kept = np.add.reduceat(keep.astype(np.int64), starts)
            n_kept = np.where(n_lines_per > 0, n_kept, 0)
        else:
            n_kept = np.zeros(len(ids), dtype=np.int64)
        arr = s.to_numpy()
        out_text = ["\n".join(arr[bounds[i]:bounds[i + 1]][
            keep[bounds[i]:bounds[i + 1]]]) for i in range(len(ids))]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_lines": pa.array(n_lines_per),
            "n_kept": pa.array(n_kept.astype(np.int64)),
            "text": pa.array(out_text, type=pa.string()),
        })

    return ds.map_batches(filt, batch_format="pyarrow")


LINE_KEY_BASE = 1 << 20  # occurrence key = doc_id * BASE + line_idx
# (assumes < 2^20 lines per doc and doc_id < 2^43 — both safe: a 1M-line
# web document does not exist, and doc ids are dense int64 row numbers)


def dedup_lines(ds, text_col: str = "text", partitions: int = 64):
    """Corpus-level EXACT line dedup (the RefinedWeb/FineWeb inter-
    document line stage, distinct from :func:`line_filter`'s per-doc
    structural rules): a line occurrence survives iff its
    ``(doc_id, line_idx)`` is the GLOBAL minimum over every occurrence
    of that exact line content — so boilerplate repeated across the
    corpus survives only in the first doc, and repeats *within* one doc
    collapse to their first occurrence too. Returns
    ``(doc_id, n_lines, n_kept, text)``; ``text`` is the surviving
    lines rejoined by ``'\\n'`` in original order ('' when none).

    Scale shape: explode lines once (vectorized offsets, no per-line
    Python); ONE content-hash-routed coarse shuffle (``hash % P`` only
    routes — the min-key decision inside a partition compares the
    actual strings, so hash collisions cannot flip a verdict); one
    coarse ``doc_id % P`` partition reassembles each doc with a single
    lexsort; zero-line docs complete via sentinel rows emitted from the
    original scan (the dup_gram_fraction zero-partial idiom). Nothing
    is corpus-global on the driver.
    """

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        texts = b.column(text_col).to_pylist()
        n_per = np.empty(len(ids), dtype=np.int64)
        all_lines: list[str] = []
        for j, t in enumerate(texts):
            ls = t.split("\n") if t else []
            n_per[j] = len(ls)
            all_lines.extend(ls)
        total = int(n_per.sum())
        doc = np.repeat(ids, n_per)
        idx = flat_ranges(np.zeros(len(ids), dtype=np.int64), n_per)
        arr = np.asarray(all_lines, dtype=object)
        pk = (pd.util.hash_array(arr).astype(np.int64)
              % partitions) if total else np.zeros(0, dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(doc, type=pa.int64()),
            "i": pa.array(idx),
            "line": pa.array(all_lines, type=pa.string()),
            "pk": pa.array(pk),
        })

    def min_flag(g: pd.DataFrame) -> pd.DataFrame:
        # global first occurrence of each exact line content: min
        # (doc_id, i) key per string — one vectorized transform
        key = (g["doc_id"].to_numpy(np.int64) * LINE_KEY_BASE
               + g["i"].to_numpy(np.int64))
        m = pd.Series(key).groupby(g["line"].to_numpy(), sort=False) \
            .transform("min").to_numpy()
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "i": g["i"].to_numpy(np.int64),
            "line": g["line"].to_numpy(),
            "keep": (key == m).astype(np.int64),
        })

    def flags_arrow(d: pd.DataFrame) -> pa.Table:
        return pa.table({
            "doc_id": pa.array(d["doc_id"].to_numpy(np.int64)),
            "i": pa.array(d["i"].to_numpy(np.int64)),
            "line": pa.array(d["line"].tolist(), type=pa.string()),
            "keep": pa.array(d["keep"].to_numpy(np.int64)),
        })

    def sentinels(b: pa.Table) -> pa.Table:
        # every doc contributes one i=-1 row so zero-line docs still
        # reassemble to (0, 0, '')
        n = len(b)
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "i": pa.array(np.full(n, -1, dtype=np.int64)),
            "line": pa.array([""] * n, type=pa.string()),
            "keep": pa.array(np.zeros(n, dtype=np.int64)),
        })

    def with_dk(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.append_column("dk", pa.array(d % partitions))

    def reassemble(g: pd.DataFrame) -> pa.Table:
        order = np.lexsort((g["i"].to_numpy(), g["doc_id"].to_numpy()))
        s = g.iloc[order]
        real = s[s["i"].to_numpy() >= 0]
        gb = real.groupby("doc_id", sort=True)
        n_lines = gb.size()
        kept = real[real["keep"].to_numpy() == 1]
        n_kept = kept.groupby("doc_id", sort=True).size()
        text = kept.groupby("doc_id", sort=True)["line"].agg("\n".join)
        ids = np.unique(s["doc_id"].to_numpy(np.int64))
        idx = pd.Index(ids)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_lines": pa.array(
                n_lines.reindex(idx, fill_value=0).to_numpy(np.int64)),
            "n_kept": pa.array(
                n_kept.reindex(idx, fill_value=0).to_numpy(np.int64)),
            "text": pa.array(
                text.reindex(idx, fill_value="").tolist(),
                type=pa.string()),
        })

    flags = ds.map_batches(explode, batch_format="pyarrow") \
        .repartition(32) \
        .groupby("pk").map_groups(min_flag, batch_format="pandas") \
        .map_batches(flags_arrow, batch_format="pandas")
    sent = ds.map_batches(sentinels, batch_format="pyarrow")
    return flags.union(sent) \
        .map_batches(with_dk, batch_format="pyarrow") \
        .repartition(32) \
        .groupby("dk").map_groups(reassemble, batch_format="pandas")


def _ln_prefix(seed: int, docs_cte: str) -> str:
    """Shared CTE prefix (docs -> tokens -> derived lines ``ln``) for
    the two line-stage SQL twins — same counter-RNG stream, bit-exact
    vs :func:`with_lines`."""
    sub = sql_substream(f"d.doc_id * 65536 + (t.i - 1)", seed, LINES_STREAM)
    return f"""WITH {docs_cte},
tl AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS l
       FROM docs),
ln AS (
  SELECT d.doc_id, t.i,
         CASE WHEN ({sub}) % {_BOILER_MOD} = 0 THEN '{BOILERPLATE}'
              WHEN ({sub}) % {_PUNCT_MOD} != 0 THEN
                array_to_string(list_slice(d.l, (t.i - 1) * {WORDS_PER_LINE} + 1,
                                           least(t.i * {WORDS_PER_LINE}, len(d.l))), ' ') || '.'
              ELSE
                array_to_string(list_slice(d.l, (t.i - 1) * {WORDS_PER_LINE} + 1,
                                           least(t.i * {WORDS_PER_LINE}, len(d.l))), ' ')
         END AS line
  FROM tl d, unnest(generate_series(1, CAST(ceil(len(d.l) / {WORDS_PER_LINE}.0) AS BIGINT))) AS t(i))"""


def dedup_lines_sql(seed: int = 0,
                    docs_cte: str =
                    "docs AS (SELECT doc_id, text FROM documents)") -> str:
    """DuckDB twin of ``dedup_lines(with_lines(ds, seed))``: global min
    ``doc_id * 2^20 + i`` per exact line content decides the surviving
    occurrence (SQL ``i`` is 1-based vs the engine's 0-based — a
    constant within-doc shift, so the lexicographic winner is
    identical)."""
    return f"""{_ln_prefix(seed, docs_cte)},
mn AS (SELECT line, min(doc_id * {LINE_KEY_BASE} + i) AS m
       FROM ln GROUP BY line),
kp AS (
  SELECT l.doc_id, l.i, l.line,
         (l.doc_id * {LINE_KEY_BASE} + l.i = mn.m) AS keep
  FROM ln l JOIN mn ON mn.line = l.line),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines,
         CAST(count(*) FILTER (WHERE keep) AS BIGINT) AS n_kept,
         coalesce(string_agg(line, chr(10) ORDER BY i)
                  FILTER (WHERE keep), '') AS text
  FROM kp GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.n_lines, 0) AS n_lines,
       coalesce(a.n_kept, 0) AS n_kept, coalesce(a.text, '') AS text
FROM docs d LEFT JOIN agg a ON a.doc_id = d.doc_id"""


def line_filter_sql(seed: int = 0,
                    docs_cte: str =
                    "docs AS (SELECT doc_id, text FROM documents)") -> str:
    """DuckDB twin of ``line_filter(with_lines(ds, seed))`` — derives
    the same multi-line fixture (same counter-RNG stream) and applies
    the same keep rules, bit-for-bit."""
    return f"""{_ln_prefix(seed, docs_cte)},
kp AS (
  SELECT doc_id, i, line,
         (ends_with(line, '.')
          AND len(regexp_extract_all(line, '[a-z0-9]+')) >= {MIN_WORDS}
          AND NOT contains(line, 'javascript')
          AND NOT contains(line, 'cookie')) AS keep
  FROM ln),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines,
         CAST(count(*) FILTER (WHERE keep) AS BIGINT) AS n_kept,
         coalesce(string_agg(line, chr(10) ORDER BY i)
                  FILTER (WHERE keep), '') AS text
  FROM kp GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.n_lines, 0) AS n_lines,
       coalesce(a.n_kept, 0) AS n_kept, coalesce(a.text, '') AS text
FROM docs d LEFT JOIN agg a ON a.doc_id = d.doc_id"""
