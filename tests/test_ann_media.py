"""ANN similarity search + multimodal plumbing."""

import numpy as np
import pandas as pd
import pytest


def test_cosine_topk_vs_numpy(ray_session, sf_dir):
    """Brute-force top-k matches a direct numpy computation."""
    import pyarrow.parquet as pq

    from maskmypy_ray.pipelines import q_ann_topk

    out = q_ann_topk(sf_dir).to_pandas()
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
    E = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    ids = emb["vec_id"].to_numpy()
    pos = {v: i for i, v in enumerate(ids)}
    for qid in (0, 7, 19):
        sims = E @ E[pos[qid]]
        sims[pos[qid]] = -np.inf
        order = np.lexsort((ids, -sims))[:10]
        expected = ids[order].tolist()
        got = out[out["query_id"] == qid].sort_values("rank")["vec_id"].tolist()
        assert got == expected, qid


def test_lsh_topk_recall(ray_session, sf_dir):
    """LSH-bucketed ANN achieves reasonable recall@10 vs brute force."""
    from maskmypy_ray.pipelines import q_ann_lsh, q_ann_topk

    exact = q_ann_topk(sf_dir).to_pandas()
    approx = q_ann_lsh(sf_dir).to_pandas()
    recalls = []
    for qid in range(20):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / max(1, len(e)))
    assert np.mean(recalls) > 0.25  # approximate by design on random vectors


def test_ivf_topk_recall(ray_session, sf_dir):
    """IVF cluster-then-probe ANN achieves reasonable recall@10 vs brute
    force, and is deterministic across runs."""
    from maskmypy_ray.pipelines import q_ann_ivf, q_ann_topk

    exact = q_ann_topk(sf_dir).to_pandas()
    approx = q_ann_ivf(sf_dir).to_pandas()
    recalls = []
    for qid in range(20):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / max(1, len(e)))
    assert np.mean(recalls) > 0.25  # isotropic vectors: ANN worst case
    again = q_ann_ivf(sf_dir).to_pandas()
    pd.testing.assert_frame_equal(
        approx.sort_values(["query_id", "rank"]).reset_index(drop=True),
        again.sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_embedding_pairs_symmetric_and_thresholded(ray_session, sf_dir):
    import pyarrow.parquet as pq

    # The registered query is a tagged union (pairs + gram + centroid,
    # the gram part carries the i == j diagonal); the pairwise invariant
    # applies to the per-operator surface.
    from maskmypy_ray.pipelines import FULL_QUERIES

    pairs = FULL_QUERIES["embedding_pairs"](sf_dir).to_pandas()
    assert (pairs["vec_a"] < pairs["vec_b"]).all()
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
    E = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    pos = {v: i for i, v in enumerate(emb["vec_id"].to_numpy())}
    for _, r in pairs.head(20).iterrows():
        assert E[pos[r["vec_a"]]] @ E[pos[r["vec_b"]]] >= 0.4


def test_cosine_pairs_lsh_recall(ray_session, sf_dir):
    """Banded sign-LSH pairs reach >= 0.9 recall vs the exact join at
    the registered threshold-0.9 near-dup operating point (VERDICT r04
    #4 done-criterion), with no false positives (every emitted pair is
    exact-cosine verified in-bucket)."""
    from maskmypy_ray.pipelines import _emb_ds, q_ann_pairs_lsh
    from maskmypy_ray.sim.ann import cosine_pairs, with_perturbed_copies

    exact = cosine_pairs(with_perturbed_copies(_emb_ds(sf_dir)),
                         threshold=0.9).to_pandas()
    approx = q_ann_pairs_lsh(sf_dir).to_pandas()
    e = set(zip(exact["vec_a"], exact["vec_b"]))
    a = set(zip(approx["vec_a"], approx["vec_b"]))
    assert len(e) >= 10  # the perturbed corpus must seed real near-dups
    assert not a - e  # verified candidates only — no false positives
    assert len(e & a) / max(1, len(e)) >= 0.9


def test_auto_lsh_params_operating_points():
    """The auto (b, L) point is selective at near-dup thresholds and
    stays within the band budget at coarse ones (VERDICT r04 #4)."""
    import numpy as np

    from maskmypy_ray.sim.ann import auto_lsh_params

    b, length = auto_lsh_params(0.9)
    p = 1.0 - np.arccos(0.9) / np.pi
    recall = 1.0 - (1.0 - p ** b) ** length
    density = 1.0 - (1.0 - 2.0 ** -b) ** length
    assert recall >= 0.9
    assert density <= 0.05
    b4, l4 = auto_lsh_params(0.4)
    assert l4 <= 64  # band budget respected even where LSH is coarse


def test_cosine_pairs_exact_guard(ray_session, sf_dir):
    """The O(n^2) exact cosine join refuses oversized inputs with a
    pointer at the LSH path (VERDICT r04 #3)."""
    import maskmypy_ray.sim.ann as ann
    from maskmypy_ray.pipelines import _emb_ds

    old = ann.COSINE_EXACT_MAX_ROWS
    ann.COSINE_EXACT_MAX_ROWS = 10
    try:
        with pytest.raises(ValueError, match="cosine_pairs_lsh"):
            ann.cosine_pairs(_emb_ds(sf_dir), threshold=0.4)
    finally:
        ann.COSINE_EXACT_MAX_ROWS = old


def test_jaccard_exact_guard(ray_session, sf_dir):
    """The O(n^2) exact-Jaccard twin refuses oversized inputs with a
    pointer at the LSH path (VERDICT r02 #4)."""
    import maskmypy_ray.text.dedup as dd
    from maskmypy_ray.pipelines import _docs_ds

    old = dd.JACCARD_EXACT_MAX_DOCS
    dd.JACCARD_EXACT_MAX_DOCS = 10
    try:
        with pytest.raises(ValueError, match="minhash_lsh_pairs"):
            dd.jaccard_pairs_exact(_docs_ds(sf_dir), threshold=0.9)
    finally:
        dd.JACCARD_EXACT_MAX_DOCS = old


def test_media_decode_stub_raises_without_fake(ray_session, sf_dir):
    """The decode stub must refuse to pretend codecs exist."""
    from maskmypy_ray.multimodal.media import MediaDecoder

    with pytest.raises(NotImplementedError):
        MediaDecoder(fake=False)._decode_one(b"\x00\x01")


def test_media_fake_decode_deterministic_and_shaped():
    import pyarrow as pa

    from maskmypy_ray.multimodal.media import MediaDecoder, frame_sample_batch, resize_batch

    batch = pa.table({
        "url": pa.array(["u1", "u2"]),
        "html": pa.array([b"payload-one", b"payload-two"], type=pa.binary()),
    })
    dec = MediaDecoder(fake=True, height=8, width=8)
    out1 = dec(batch)
    out2 = dec(batch)
    assert out1.equals(out2)
    assert len(out1.column("pixels")[0].as_py()) == 8 * 8 * 3
    rs = resize_batch(out1, 4, 4)
    assert len(rs.column("pixels")[0].as_py()) == 4 * 4 * 3
    fr = frame_sample_batch(out1, every=2)
    assert fr.num_rows == 2 * 4  # 8 rows / every-2 per image
    assert set(fr.column("frame_idx").to_pylist()) == {0, 2, 4, 6}


def test_media_metadata_matches_blob(ray_session, sf_dir):
    from hashlib import md5

    from maskmypy_ray.pipelines import FULL_QUERIES
    from maskmypy_ray.sources.webpages import read_webpages

    # the registered q_media_metadata is now a tagged union (meta +
    # phash + pairs parts) with non-unique urls; the per-operator base
    # query is the one whose rows mirror the blob 1:1
    meta = FULL_QUERIES["media_metadata"](sf_dir).to_pandas().set_index("url")
    pages = read_webpages(sf_dir, include_html=True).limit(20).to_pandas()
    for _, r in pages.iterrows():
        assert meta.loc[r["url"], "media_bytes"] == len(r["html"])
        assert meta.loc[r["url"], "media_md5"] == md5(r["html"]).hexdigest()


def test_semantic_dedup_invariants(ray_session, sf_dir):
    """SemDeDup keep/drop invariants: within a cluster, every dropped
    vector has cos >= threshold to some kept lower-id vector, and kept
    vectors are pairwise below threshold."""
    import pyarrow.parquet as pq

    from maskmypy_ray.sim.semdedup import semantic_dedup
    import ray.data

    thr = 0.4
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    out = semantic_dedup(ds, threshold=thr, nlist=8).to_pandas()
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
    E = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    pos = {v: i for i, v in enumerate(emb["vec_id"].to_numpy())}
    assert out["vec_id"].is_unique and len(out) == len(emb)
    assert out["kept"].sum() > 0 and (out["kept"] == 0).sum() > 0  # non-vacuous
    for cl, g in out.groupby("cluster"):
        g = g.sort_values("vec_id")
        M = E[[pos[v] for v in g["vec_id"]]]
        S = M @ M.T
        kept = g["kept"].to_numpy().astype(bool)
        for i in range(len(g)):
            earlier = S[i, :i][kept[:i]]
            if kept[i]:
                assert not (earlier >= thr).any()
            else:
                assert (earlier >= thr).any()


def test_semantic_dedup_single_cluster_matches_bruteforce(ray_session, sf_dir):
    """nlist=1 reduces to the global greedy keep-first in vec_id order."""
    import pyarrow.parquet as pq

    from maskmypy_ray.sim.semdedup import semantic_dedup
    import ray.data

    thr = 0.42
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    out = semantic_dedup(ds, threshold=thr, nlist=1).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    E = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    S = E @ E.T
    kept = np.zeros(len(E), dtype=bool)
    for i in range(len(E)):
        kept[i] = not (S[i, :i][kept[:i]] >= thr).any()
    assert (out["kept"].to_numpy().astype(bool) == kept).all()


def test_pq_topk_recall(ray_session, sf_dir):
    """PQ ADC scan + exact shortlist rerank: high recall@10 vs brute
    force (the rerank bounds the loss to shortlist misses), and
    deterministic across runs."""
    from maskmypy_ray.pipelines import q_ann_pq, q_ann_topk

    exact = q_ann_topk(sf_dir).to_pandas()
    approx = q_ann_pq(sf_dir).to_pandas()
    recalls = []
    for qid in range(20):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / max(1, len(e)))
    assert np.mean(recalls) > 0.6  # rerank recovers the coarse-code loss
    again = q_ann_pq(sf_dir).to_pandas()
    pd.testing.assert_frame_equal(
        approx.sort_values(["query_id", "rank"]).reset_index(drop=True),
        again.sort_values(["query_id", "rank"]).reset_index(drop=True))
