"""Deterministic benchmark inputs, derived only from (seed, size).

Every generator writes Parquet into a directory the caller owns; the
program under test only ever sees those files. Nothing is cached across
runs, so set-up time never depends on what an earlier run left behind.

* ``write_documents`` — a driver-testdata-shaped ``documents.parquet``
  (doc_id, text, lang, source, n_chars). ``replicas > 1`` appends copies
  with ``doc_id + r * 10**6``, the same replication rule as
  ``sources.webpages.read_webpages``.
* ``write_corpus`` — the physical web-pages corpus (doc_id, text) that
  ``sources.webpages.derive_webpages_batch`` makes from such documents,
  split over a fixed number of files.
* ``write_chain_points`` — a web-pages table whose coordinate sentences
  spell out a DBSCAN layout of fixed shape (see its docstring).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_WORDS = np.array(
    "the a fast slow key order sort table scan merge part window small big "
    "hash join batch stream spark value row column data query filter agg "
    "group line vector customer".split())
_LANGS = np.array(["en", "de", "fr", "es", "zh"])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def documents_table(n: int, seed: int, replicas: int = 1) -> pa.Table:
    """``n`` base documents (texts of 10-80 words), replicated."""
    r = _rng(seed, 1)
    counts = r.integers(10, 80, n)
    words = _WORDS[r.integers(0, len(_WORDS), int(counts.sum()))]
    ends = np.cumsum(counts)
    texts = [" ".join(words[e - c:e]) for c, e in zip(counts, ends)]
    langs = _LANGS[r.integers(0, len(_LANGS), n)]
    base_ids = np.arange(n, dtype=np.int64)
    ids = np.concatenate([base_ids + k * 1_000_000 for k in range(replicas)])
    idx = np.tile(base_ids, replicas)
    text_arr = pa.array(texts, type=pa.string()).take(pa.array(idx))
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": text_arr,
        "lang": pa.array(langs[idx]),
        "source": pa.array(np.char.add("src", (idx % 10).astype(str))),
        "n_chars": pa.array(np.array([len(t) for t in texts])[idx],
                            type=pa.int64()),
    })


def write_documents(out_dir: str, n: int, seed: int, replicas: int = 1) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "documents.parquet")
    pq.write_table(documents_table(n, seed, replicas), path)
    return path


def write_corpus(out_dir: str, n: int, seed: int, replicas: int,
                 files: int) -> pa.Table:
    """Write the (doc_id, text) web-pages corpus as ``files`` Parquet
    files; returns the table (the in-process references read it)."""
    from maskmypy_ray.sources.webpages import derive_webpages_batch

    docs = documents_table(n, seed, replicas)
    pages = derive_webpages_batch(docs, seed=seed, include_html=False) \
        .select(["doc_id", "text"])
    os.makedirs(out_dir, exist_ok=True)
    step = math.ceil(pages.num_rows / files)
    for i in range(files):
        pq.write_table(pages.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:03d}.parquet"))
    return pages


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


# --- DBSCAN layout ----------------------------------------------------------
#
# Uniform points (the driver testdata's shape) give an eps-graph whose
# diameter, and so the BSP round count, swings 3x from seed to seed. The
# chain layout keeps that shape fixed: each chain is ``chain_len`` points
# spaced 0.45 eps apart (jitter <= 8 m), so every point reaches its two
# neighbours on each side and no further. Interior points are core
# (degree 4-5 with self), the two ends are border points, and doc_ids
# rise along the chain, so the min-id core sits at one end and the
# core graph's depth from it is ceil((chain_len - 3) / 2) for every seed.
# Noise points sit on a jittered lattice far (> 1.5 eps) from everything.

SPACING = 0.45
JITTER_M = 8.0


def chain_points(seed: int, chains: int, chain_len: int, eps: float,
                 noise: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_id, x, y) in planar meters inside the fixture bbox."""
    from maskmypy_ray.constants import X_MAX, X_MIN, Y_MAX, Y_MIN

    r = _rng(seed, 2)
    cols = math.ceil(math.sqrt(chains * 1.3))
    rows = math.ceil(chains / cols)
    sw = (X_MAX - X_MIN) / cols
    sh = (Y_MAX - Y_MIN) / rows
    length = (chain_len - 1) * SPACING * eps
    assert length + 2 * eps < sw and 2 * eps < sh, "chain layout too dense"
    slots = r.permutation(cols * rows)[:chains]
    ids, xs, ys = [], [], []
    for c, slot in enumerate(slots):
        theta = r.uniform(-0.2, 0.2)
        # centre the chain in its slot, leaving >= eps to the slot edge
        cx = X_MIN + (slot % cols + 0.5) * sw
        cy = Y_MIN + (slot // cols + 0.5) * sh
        t = (np.arange(chain_len) - (chain_len - 1) / 2) * SPACING * eps
        jx, jy = r.uniform(-JITTER_M / 2, JITTER_M / 2, (2, chain_len))
        xs.append(cx + (t + jx) * math.cos(theta) - jy * math.sin(theta))
        ys.append(cy + (t + jx) * math.sin(theta) + jy * math.cos(theta))
        ids.append(c * 1000 + np.arange(chain_len))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    # noise: jittered lattice points at least 1.5 eps from chains and
    # 2.5 eps from each other
    step = 2.5 * eps
    gx, gy = np.meshgrid(np.arange(X_MIN + eps, X_MAX - eps, step),
                         np.arange(Y_MIN + eps, Y_MAX - eps, step))
    nx_, ny_ = gx.ravel(), gy.ravel()
    nx_ = nx_ + r.uniform(-0.1, 0.1, len(nx_)) * eps
    ny_ = ny_ + r.uniform(-0.1, 0.1, len(ny_)) * eps
    d2 = (nx_[:, None] - x[None, :]) ** 2 + (ny_[:, None] - y[None, :]) ** 2
    far = d2.min(axis=1) > (1.5 * eps) ** 2
    pick = r.permutation(np.flatnonzero(far))[:noise]
    assert len(pick) == noise, f"only {len(pick)} noise slots for {noise}"
    ids.append(900_000 + np.arange(len(pick)))
    return (np.concatenate(ids).astype(np.int64),
            np.concatenate([x, nx_[pick]]), np.concatenate([y, ny_[pick]]))


def write_chain_points(path: str, seed: int, chains: int, chain_len: int,
                       eps: float, noise: int) -> int:
    """Web-pages Parquet (doc_id, url, text) whose texts carry the chain
    layout as 6-dp coordinate sentences; returns the row count."""
    from maskmypy_ray.geokernels.geometry import xy_to_latlon

    ids, x, y = chain_points(seed, chains, chain_len, eps, noise)
    lat, lon = xy_to_latlon(x, y)
    text = [f"page {i} Located at {a:.6f}, {o:.6f}."
            for i, a, o in zip(ids, lat, lon)]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "url": pa.array([f"https://chain.example.org/page/{i}" for i in ids]),
        "text": pa.array(text),
    }), path)
    return len(ids)
