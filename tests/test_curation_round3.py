"""Round-3 curation operators: PII masking, chunk dedup, duplicate
clustering, exact quantiles, hopping windows, per-source top-k."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _docs(ray, rows):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "text": pa.array([r[1] for r in rows], type=pa.string()),
    }))


# ---------------------------------------------------------------------------
# PII
# ---------------------------------------------------------------------------


def test_pii_stats_and_redact(ray_session):
    from maskmypy_ray.text.pii import pii_redact, pii_stats

    ds = _docs(ray_session, [
        (0, "mail a@b.io and c.d+e@f-g.org at 10.0.0.1 call 555-123-4567"),
        (1, "nothing here"),
        (2, "1.2.3.4 5.6.7.8"),
    ])
    st = pii_stats(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert st["n_email"].tolist() == [2, 0, 0]
    assert st["n_ipv4"].tolist() == [1, 0, 2]
    assert st["n_phone"].tolist() == [1, 0, 0]

    red = pii_redact(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert red["text"].tolist() == [
        "mail <EMAIL> and <EMAIL> at <IP> call <PHONE>",
        "nothing here",
        "<IP> <IP>",
    ]
    assert red["n_redacted"].tolist() == [4, 0, 2]


def test_with_pii_injection_deterministic(ray_session):
    from maskmypy_ray.text.pii import pii_stats, with_pii

    ds = _docs(ray_session, [(i, f"doc {i}") for i in range(10)])
    st = pii_stats(with_pii(ds, every=5)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # docs 0 and 5 get exactly one of each PII kind
    assert st["n_email"].tolist() == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert st["n_ipv4"].tolist() == st["n_email"].tolist()
    assert st["n_phone"].tolist() == st["n_email"].tolist()


# ---------------------------------------------------------------------------
# Chunk dedup
# ---------------------------------------------------------------------------


def test_chunk_dedup_small(ray_session):
    from maskmypy_ray.text.chunks import chunk_dedup

    ds = _docs(ray_session, [
        (0, "a b c d e f"),
        (1, "c d e f g h"),
        (2, ""),
        (3, "a b c d e f x"),
    ])
    out = chunk_dedup(ds, size=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [0, 1, 2, 3]
    # doc 3's first chunk "a b c d" duplicates doc 0's; its tail survives
    assert out["clean_text"].tolist() == [
        "a b c d e f", "c d e f g h", "", "e f x"]
    assert out["n_chunks"].tolist() == [2, 2, 0, 2]
    assert out["n_dropped"].tolist() == [0, 0, 0, 1]


def test_chunk_dedup_within_doc(ray_session):
    from maskmypy_ray.text.chunks import chunk_dedup

    ds = _docs(ray_session, [(7, "x y x y")])
    out = chunk_dedup(ds, size=2).to_pandas()
    # second "x y" chunk inside the SAME doc is dropped too
    assert out["clean_text"].tolist() == ["x y"]
    assert out["n_dropped"].tolist() == [1]


# ---------------------------------------------------------------------------
# Connected components / duplicate clusters
# ---------------------------------------------------------------------------


def _union_find(n_nodes, edges):
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min-id representative per component
    comp = {}
    for i in range(n_nodes):
        r = find(i)
        comp.setdefault(r, min(comp.get(r, i), i))
    return [min(j for j in range(n_nodes) if find(j) == find(i))
            for i in range(n_nodes)]


def test_connected_components_random_graph(ray_session):
    from maskmypy_ray.text.clusters import connected_components

    rng = np.random.default_rng(11)
    n = 60
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (40, 2))
             if a != b]
    nodes = ray_session.data.from_arrow(
        pa.table({"node": pa.array(range(n), type=pa.int64())}))
    eds = ray_session.data.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in edges], type=pa.int64()),
        "doc_b": pa.array([b for _, b in edges], type=pa.int64()),
    }))
    got = connected_components(nodes, eds).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    want = _union_find(n, edges)
    assert got["cluster_id"].tolist() == want


def test_connected_components_chain(ray_session):
    """A long path graph exercises multi-round propagation."""
    from maskmypy_ray.text.clusters import connected_components

    n = 17
    nodes = ray_session.data.from_arrow(
        pa.table({"node": pa.array(range(n), type=pa.int64())}))
    eds = ray_session.data.from_arrow(pa.table({
        "doc_a": pa.array(range(n - 1), type=pa.int64()),
        "doc_b": pa.array(range(1, n), type=pa.int64()),
    }))
    got = connected_components(nodes, eds).to_pandas()
    assert set(got["cluster_id"]) == {0}
    assert len(got) == n


def _min_labels(nodes, edges):
    """Union-find twin over arbitrary int ids: node -> min node id of
    its component in the subgraph induced by ``nodes``."""
    parent = {int(x): int(x) for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        a, b = int(a), int(b)
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _scrambled_path(n):
    """Path ids i*2654435761 mod 2^40 (they wrap past ~414 nodes), with
    the min at one end: the worst case for label propagation."""
    ids = (np.arange(n, dtype=np.int64) * 2_654_435_761) % (1 << 40)
    ids[0] = 3
    return ids


def _cc_frames(ray, nodes, a, b):
    return (ray.data.from_arrow(pa.table({"node": pa.array(
                np.asarray(nodes, dtype=np.int64))})),
            ray.data.from_arrow(pa.table({
                "doc_a": pa.array(np.asarray(a, dtype=np.int64)),
                "doc_b": pa.array(np.asarray(b, dtype=np.int64))})))


def test_connected_components_induced_subgraph(ray_session):
    """An edge with an end outside ``nodes`` joins nothing: components
    are those of the induced subgraph (union-find twin), also where an
    outside node bridges two inside components."""
    from maskmypy_ray.text.clusters import connected_components

    rng = np.random.default_rng(5)
    members = rng.choice(np.arange(100, 200), 60, replace=False)
    a = rng.integers(100, 200, 70)
    b = rng.integers(100, 200, 70)
    # explicit bridges through outsiders 7 and 8: member-7-member, 8-8
    m0, m1 = int(members[0]), int(members[1])
    a = np.concatenate([a, [m0, 7, 8]])
    b = np.concatenate([b, [7, m1, 8]])
    nodes, eds = _cc_frames(ray_session, members, a, b)
    got = connected_components(nodes, eds).to_pandas()
    want = _min_labels(members, zip(a, b))
    assert len(got) == len(members)
    assert dict(zip(got["node"].tolist(), got["cluster_id"].tolist())) \
        == want
    assert {7, 8}.isdisjoint(got["node"].tolist())


def test_connected_components_partition_independent(ray_session,
                                                    monkeypatch):
    """The 600-node scrambled path, its nodes and edges in 8 blocks
    each, gives the union-find answer at two sort fan-outs
    (``util.PARTITION_BYTES`` at its default and at 4 KiB); the output
    block count, the label sort's fan-out, shows which ran."""
    from maskmypy_ray import util
    from maskmypy_ray.text import clusters

    ids = _scrambled_path(600)
    want = _min_labels(ids, zip(ids[:-1], ids[1:]))
    runs, blocks = [], []
    for value in (None, 4096):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        nodes, eds = _cc_frames(ray_session, ids, ids[:-1], ids[1:])
        out = clusters.connected_components(
            nodes.repartition(8), eds.repartition(8)).materialize()
        blocks.append(out.num_blocks())
        got = out.to_pandas().sort_values("node").reset_index(drop=True)
        assert dict(zip(got["node"].tolist(),
                        got["cluster_id"].tolist())) == want
        runs.append(got)
    assert blocks[0] < blocks[1]
    assert runs[0].equals(runs[1])


def test_connected_components_block_count_held(ray_session, monkeypatch):
    """The label sort's fan-out follows the state's size, not the
    round count or the input blocks: with 16 input blocks per side and
    2 KiB per partition, the labels of a many-round 120-node path sit in
    at most ceil((120 marks + 2 * 119 edge rows) * 24 bytes / 2048) = 5
    blocks (the state used to gain P blocks per round)."""
    from maskmypy_ray import util
    from maskmypy_ray.text.clusters import connected_components

    monkeypatch.setattr(util, "PARTITION_BYTES", 2048)
    ids = _scrambled_path(120)
    nodes, eds = _cc_frames(ray_session, ids, ids[:-1], ids[1:])
    out = connected_components(nodes.repartition(16),
                               eds.repartition(16)).materialize()
    assert out.num_blocks() <= 5
    assert (out.to_pandas()["cluster_id"] == ids.min()).all()


def test_connected_components_error_reports_rounds(ray_session):
    """Non-convergence names the changed-edge count of every round: on
    the 600-path, round 1 (large-star) relinks every edge (u, v > u)
    whose u has a smaller neighbour; round 2 (small-star) relinks all
    but the smallest of each node's smaller neighbours."""
    import re

    from maskmypy_ray.text.clusters import connected_components

    ids = _scrambled_path(600)
    nbr = {int(x): set() for x in ids}
    for a, b in zip(ids[:-1].tolist(), ids[1:].tolist()):
        nbr[a].add(b)
        nbr[b].add(a)
    m = {u: min(vs | {u}) for u, vs in nbr.items()}
    large = [(v, m[u]) for u, vs in nbr.items() for v in vs if v > u]
    smaller = {}
    for hi, lo in set(large):
        smaller.setdefault(hi, set()).add(lo)
    want = [sum(1 for u, vs in nbr.items() for v in vs
                if v > u and m[u] != u),
            sum(len(s) - 1 for s in smaller.values())]
    nodes, eds = _cc_frames(ray_session, ids, ids[:-1], ids[1:])
    with pytest.raises(RuntimeError, match="did not converge in 2 rounds") \
            as e:
        connected_components(nodes, eds, max_rounds=2)
    got = re.search(r"changed edges per round: \[(\d+), (\d+)\]",
                    str(e.value))
    assert got is not None, str(e.value)
    assert [int(got.group(1)), int(got.group(2))] == want


# ---------------------------------------------------------------------------
# Exact distributed quantiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arr", [
    np.random.default_rng(3).normal(0, 1, 4000),
    np.random.default_rng(4).integers(0, 20, 3000).astype(np.float64),
    np.full(500, 2.5),
])
def test_exact_quantiles_vs_numpy(ray_session, arr):
    from maskmypy_ray.analysis.aggregates import exact_quantiles_distributed

    ds = ray_session.data.from_pandas(pd.DataFrame({"v": arr})).repartition(4)
    qs = [0.0, 0.1, 0.5, 0.9, 1.0]
    got = exact_quantiles_distributed(ds, "v", qs, max_collect=32)
    fin = np.sort(arr)
    want = [float(fin[int(np.floor(q * (len(fin) - 1)))]) for q in qs]
    assert got == want


# ---------------------------------------------------------------------------
# Hopping window
# ---------------------------------------------------------------------------


def test_hopping_window_vs_pandas(ray_session, sf_dir):
    from maskmypy_ray.stages.events import hopping_window

    ev = ray_session.data.read_parquet(f"{sf_dir}/events.parquet",
                                       columns=["ts", "event_type", "value"])
    got = hopping_window(ev).to_pandas() \
        .sort_values(["window_start", "event_type"]).reset_index(drop=True)

    df = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    t = df["ts"].astype("datetime64[us]").astype(np.int64)
    frames = []
    for i in range(4):
        frames.append(pd.DataFrame({
            "window_start": (t // 900_000_000 - i) * 900_000_000,
            "event_type": df["event_type"],
            "value": df["value"],
        }))
    allw = pd.concat(frames)
    want = allw.groupby(["window_start", "event_type"]).agg(
        n_events=("value", "size"), sum_value=("value", "sum")).reset_index()
    want["sum_value"] = want["sum_value"].round(6)
    want = want.sort_values(["window_start", "event_type"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert np.allclose(got["sum_value"], want["sum_value"], atol=1e-6)
    # every event appears in exactly window/hop = 4 windows
    assert got["n_events"].sum() == 4 * len(df)


# ---------------------------------------------------------------------------
# Per-source top-k quality
# ---------------------------------------------------------------------------


def test_top_quality_per_source(ray_session, sf_dir):
    from maskmypy_ray.text.quality import quality_score, top_quality_per_source

    ds = ray_session.data.read_parquet(f"{sf_dir}/documents.parquet",
                                       columns=["doc_id", "text", "source"])
    got = top_quality_per_source(ds, k=3).to_pandas() \
        .sort_values(["source", "rank"]).reset_index(drop=True)

    scores = quality_score(
        ray_session.data.read_parquet(f"{sf_dir}/documents.parquet",
                                      columns=["doc_id", "text"])).to_pandas()
    src = pd.read_parquet(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "source"])
    full = scores.merge(src, on="doc_id")
    full = full.sort_values(["source", "quality_score", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
    want = full.groupby("source", sort=True).head(3).reset_index(drop=True)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert (got.groupby("source")["rank"].apply(
        lambda s: s.tolist() == list(range(1, len(s) + 1)))).all()


# ---------------------------------------------------------------------------
# Normalization / domain stats / unigram LM (round-3 part 2)
# ---------------------------------------------------------------------------


def test_normalize_text(ray_session):
    from maskmypy_ray.text.quality import normalize_text

    ds = _docs(ray_session, [
        (0, "  Hello,   WORLD!! 42 "),
        (1, "already clean"),
        (2, ""),
    ])
    out = normalize_text(ds).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert out["text"].tolist() == ["hello world 42", "already clean", ""]
    assert out["changed"].tolist() == [1, 0, 0]


def test_domain_stats(ray_session, sf_dir):
    from maskmypy_ray.sources.webpages import read_webpages
    from maskmypy_ray.text.corpus import domain_stats

    pages = read_webpages(sf_dir, seed=42, include_html=False) \
        .select_columns(["url", "text"])
    got = domain_stats(pages).to_pandas().sort_values("host") \
        .reset_index(drop=True)
    ref = pages.to_pandas()
    ref["host"] = ref["url"].str.extract(r"^https?://([^/]+)")
    want = ref.groupby("host").agg(
        n_pages=("url", "size"),
        n_chars=("text", lambda s: s.str.len().sum())).reset_index() \
        .sort_values("host").reset_index(drop=True)
    assert got["host"].tolist() == want["host"].tolist()
    assert got["n_pages"].tolist() == want["n_pages"].tolist()
    assert got["n_chars"].tolist() == want["n_chars"].tolist()


def test_unigram_logprob_hand_computed(ray_session):
    from maskmypy_ray.text.lm import unigram_logprob

    # corpus: "a a b" + "b c" -> counts a=2 b=2 c=1, N=5
    ds = _docs(ray_session, [(0, "a a b"), (1, "b c"), (2, "")])
    out = unigram_logprob(ds).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    q = 1_000_000
    l = {t: int(np.floor(q * np.log(c / 5.0)))
         for t, c in {"a": 2, "b": 2, "c": 1}.items()}
    want0 = -(l["a"] + l["a"] + l["b"]) / (q * 3)
    want1 = -(l["b"] + l["c"]) / (q * 2)
    assert out["n_tokens"].tolist() == [3, 2, 0]
    assert out["nll"].tolist() == [want0, want1, 0.0]
    # rarer tokens score worse
    assert out["nll"][1] > out["nll"][0]


def test_unigram_logprob_oov_floor(ray_session):
    from maskmypy_ray.text.lm import unigram_logprob

    # top_v=1 keeps only the most frequent token; the rest score as c=1
    ds = _docs(ray_session, [(0, "x x y")])
    out = unigram_logprob(ds, top_v=1).to_pandas()
    q = 1_000_000
    lx = int(np.floor(q * np.log(2 / 3.0)))
    ly = int(np.floor(q * np.log(1 / 3.0)))  # OOV floor c=1
    assert out["nll"].tolist() == [-(lx + lx + ly) / (q * 3)]


def test_window_distinct_users(ray_session, sf_dir):
    from maskmypy_ray.stages.events import window_distinct_users

    ev = ray_session.data.read_parquet(f"{sf_dir}/events.parquet",
                                       columns=["user_id", "ts"])
    got = window_distinct_users(ev).to_pandas() \
        .sort_values("window_id").reset_index(drop=True)
    df = pd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    w = df["ts"].astype("datetime64[us]").astype(np.int64) // 3_600_000_000
    want = df.assign(window_id=w).groupby("window_id")["user_id"].nunique() \
        .rename("n_users").reset_index()
    assert got["window_id"].tolist() == want["window_id"].tolist()
    assert got["n_users"].tolist() == want["n_users"].tolist()


def test_window_top_types(ray_session, sf_dir):
    from maskmypy_ray.stages.events import window_top_types

    ev = ray_session.data.read_parquet(f"{sf_dir}/events.parquet",
                                       columns=["event_type", "ts"])
    got = window_top_types(ev, k=2).to_pandas() \
        .sort_values(["window_id", "rank"]).reset_index(drop=True)
    df = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    w = df["ts"].astype("datetime64[us]").astype(np.int64) // 3_600_000_000
    c = df.assign(window_id=w).groupby(["window_id", "event_type"]) \
        .size().rename("n_events").reset_index()
    c = c.sort_values(["window_id", "n_events", "event_type"],
                      ascending=[True, False, True], kind="mergesort")
    want = c.groupby("window_id", sort=False).head(2).reset_index(drop=True)
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert (got.groupby("window_id")["rank"].min() == 1).all()


# ---------------------------------------------------------------------------
# Relational Q1/Q3 shapes (integer fixed-point money)
# ---------------------------------------------------------------------------


def test_pricing_summary_vs_pandas(ray_session, sf_dir):
    from maskmypy_ray.relational import Q1_CUTOFF_US, pricing_summary

    li = ray_session.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax",
                 "l_returnflag", "l_linestatus", "l_shipdate"])
    got = pricing_summary(li).to_pandas() \
        .sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    df = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    ts = df["l_shipdate"].astype("datetime64[us]").astype(np.int64)
    df = df[ts <= Q1_CUTOFF_US]
    want = df.groupby(["l_returnflag", "l_linestatus"]).agg(
        sum_qty=("l_quantity", "sum"), count_order=("l_quantity", "size"),
        avg_disc=("l_discount", "mean")).reset_index() \
        .sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    assert got["count_order"].tolist() == want["count_order"].tolist()
    assert np.allclose(got["sum_qty"], want["sum_qty"])
    assert np.allclose(got["avg_disc"], want["avg_disc"])


def test_top_orders_vs_pandas(ray_session, sf_dir):
    import pyarrow.parquet as pq

    from maskmypy_ray.relational import Q3_CUTOFF_US, top_orders

    li = ray_session.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    od = ray_session.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    got = top_orders(li, od, cust, k=5).to_pandas()

    ldf = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    odf = pd.read_parquet(f"{sf_dir}/orders.parquet")
    cdf = pq.read_table(f"{sf_dir}/customer.parquet").to_pandas()
    odf = odf[odf["o_custkey"].isin(
        cdf.loc[cdf["c_mktsegment"] == "BUILDING", "c_custkey"])]
    odf = odf[odf["o_orderdate"].astype("datetime64[us]").astype(np.int64)
              < Q3_CUTOFF_US]
    ldf = ldf[ldf["l_shipdate"].astype("datetime64[us]").astype(np.int64)
              > Q3_CUTOFF_US]
    rev = (np.round(ldf["l_extendedprice"] * 100).astype(np.int64)
           * (100 - np.round(ldf["l_discount"] * 100).astype(np.int64)))
    agg = ldf.assign(rev=rev).groupby("l_orderkey")["rev"].sum().reset_index()
    m = agg.merge(odf, left_on="l_orderkey", right_on="o_orderkey")
    m = m.sort_values(["rev", "l_orderkey"], ascending=[False, True],
                      kind="mergesort").head(5)
    assert got["l_orderkey"].tolist() == m["l_orderkey"].tolist()
    assert np.allclose(got["revenue"], m["rev"].to_numpy() / 10_000.0)


def test_filter_by_nll_drops_worst_tail(ray_session):
    from maskmypy_ray.text.lm import filter_by_nll, unigram_logprob

    rows = [(i, "common words here") for i in range(18)]
    rows += [(100, "zzz qqq xxx"), (101, "rare rare rare")]
    ds = _docs(ray_session, rows)
    scored = unigram_logprob(ds).to_pandas()
    kept = filter_by_nll(ds, q=0.9).to_pandas()
    # exactly the docs at/below the 0.9-quantile NLL survive
    fin = np.sort(scored["nll"].to_numpy())
    thr = fin[int(np.floor(0.9 * (len(fin) - 1)))]
    want = set(scored.loc[scored["nll"] <= thr, "doc_id"])
    assert set(kept["doc_id"]) == want
    # the gibberish doc scores in the dropped tail
    assert 100 not in set(kept["doc_id"])


def test_sample_fixed_k_deterministic(ray_session, sf_dir):
    from maskmypy_ray.text.corpus import sample_fixed_k

    ds = ray_session.data.read_parquet(f"{sf_dir}/documents.parquet",
                                       columns=["doc_id"])
    a = sample_fixed_k(ds, k=17).to_pandas()
    b = sample_fixed_k(ds.repartition(7), k=17).to_pandas()
    # same sample regardless of partitioning; exactly k rows; u ranks it
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert len(a) == 17
    assert (a["u"].to_numpy() == np.sort(a["u"].to_numpy())).all()


def test_geo_scrub(ray_session, sf_dir):
    from maskmypy_ray.sources.webpages import read_webpages
    from maskmypy_ray.stages.geoparse import geo_scrub, geoparse

    pages = read_webpages(sf_dir, seed=42, include_html=False) \
        .select_columns(["url", "text"]).materialize()
    n_geo = geoparse(pages).count()  # pages that carry a coordinate
    out = geo_scrub(pages).to_pandas()
    assert len(out) == pages.count()
    assert out["n_scrubbed"].sum() == n_geo
    # no coordinate pair survives scrubbing
    assert not out["text"].str.contains(
        r"-?[0-9]{1,3}\.[0-9]{6}, -?[0-9]{1,3}\.[0-9]{6}", regex=True).any()
    assert (out.loc[out["n_scrubbed"] > 0, "text"].str.contains("<GEO>")).all()


def _cosine_pairs_lsh(sf_dir):
    from maskmypy_ray.pipelines import _emb_ds
    from maskmypy_ray.sim.ann import cosine_pairs_lsh, with_perturbed_copies

    return cosine_pairs_lsh(with_perturbed_copies(_emb_ds(sf_dir)),
                            threshold=0.9)


@pytest.mark.parametrize("op", ["dedup_minhash", "dedup_simhash", None,
                                "media_phash_pairs"],
                         ids=["minhash", "simhash", "cosine", "phash"])
def test_lsh_fanout_independence(ray_session, sf_dir, monkeypatch, op):
    """Each banded-LSH caller returns the identical sorted pairs at three
    sort fan-outs (``util.PARTITION_BYTES`` at its default, at 4096
    bytes and at 1 byte, which sorts into one partition per block and
    so spreads the MinHash and cosine verify over several pair
    buckets)."""
    from maskmypy_ray import pipelines as P
    from maskmypy_ray import util

    run = P.FULL_QUERIES[op] if op else _cosine_pairs_lsh
    runs = []
    for value in (None, 4096, 1):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        df = run(sf_dir).to_pandas()
        runs.append(df.sort_values(list(df.columns[:2]))
                    .reset_index(drop=True))
    assert len(runs[0]) > 0
    for other in runs[1:]:
        pd.testing.assert_frame_equal(runs[0], other)


def test_chunk_dedup_partition_count_independence(ray_session):
    from maskmypy_ray.text.chunks import chunk_dedup

    rows = [(i, f"a b c d common tail {i % 3}") for i in range(12)]
    ds = _docs(ray_session, rows)
    a = chunk_dedup(ds, size=4).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    b = chunk_dedup(ds, size=4, partitions=5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a["clean_text"].tolist() == b["clean_text"].tolist()
    assert a["n_dropped"].tolist() == b["n_dropped"].tolist()


def test_source_quantiles_vs_pandas(ray_session, sf_dir):
    from maskmypy_ray.text.quality import source_quantiles

    ds = ray_session.data.read_parquet(f"{sf_dir}/documents.parquet",
                                       columns=["source", "n_chars"])
    got = source_quantiles(ds).to_pandas().sort_values("source") \
        .reset_index(drop=True)
    df = pd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "n_chars"])
    for _, row in got.iterrows():
        v = np.sort(df.loc[df["source"] == row["source"], "n_chars"].to_numpy())
        for q in (0.25, 0.5, 0.75):
            assert row[f"q{int(q*100)}"] == float(v[int(np.floor(q * (len(v) - 1)))])


def test_keyed_quantiles_hot_key(ray_session):
    """Keyed distributed quantiles stay exact when ONE key holds ~90%
    of the rows (VERDICT r04 #2 done-criterion) — the regime where the
    old per-group map_groups sort would materialize most of the corpus
    in one task. Also exercises multi-pass refinement (max_collect far
    below the hot group's size)."""
    import ray.data

    from maskmypy_ray.analysis.aggregates import keyed_quantiles_distributed

    rng = np.random.default_rng(7)
    n_hot, n_cold = 90_000, 10_000
    src = np.array(["hot"] * n_hot + ["c0"] * (n_cold // 2)
                   + ["c1"] * (n_cold // 2))
    vals = np.concatenate([rng.normal(1000.0, 250.0, n_hot),
                           rng.uniform(0, 10, n_cold // 2),
                           rng.uniform(50, 60, n_cold // 2)])
    ds = ray.data.from_arrow(pa.table({"source": src, "v": vals})) \
        .repartition(16)
    qs = [0.25, 0.5, 0.75]
    got = keyed_quantiles_distributed(ds, "source", "v", qs, max_collect=512)
    for key in ("hot", "c0", "c1"):
        v = np.sort(vals[src == key])
        for qi, q in enumerate(qs):
            exp = float(v[int(np.floor(q * (len(v) - 1)))])
            assert got[key][qi] == exp, (key, q)


def test_host_of_sentinel_for_unmatched_urls(ray_session):
    """URLs without a scheme/host bucket under <no-host> instead of
    crashing on null dictionary indices (ADVICE r04)."""
    from maskmypy_ray.text.corpus import _host_of

    b = pa.table({"url": ["https://a.example/x", "garbage-no-scheme",
                          "http://b.example/"]})
    idx, hosts = _host_of(b)
    assert len(idx) == 3
    assert "<no-host>" in hosts
    assert hosts[idx[1]] == "<no-host>"


def test_sequence_pack_bruteforce(ray_session):
    """sequence_pack's (seq_id, offset) equals the brute-force prefix
    sum over doc_id order, across range boundaries and at any
    partitioning."""
    import ray.data

    from maskmypy_ray.text.corpus import sequence_pack

    rng = np.random.default_rng(3)
    n = 1000
    texts = [" ".join(f"w{j}" for j in range(rng.integers(1, 40)))
             for _ in range(n)]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })).repartition(13)
    got = sequence_pack(ds, seq_len=64, range_rows=37).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    counts = np.array([len(t.split()) for t in texts], dtype=np.int64)
    before = np.concatenate([[0], np.cumsum(counts)[:-1]])
    assert (got["n_tokens"].to_numpy() == counts).all()
    assert (got["seq_id"].to_numpy() == before // 64).all()
    assert (got["offset"].to_numpy() == before % 64).all()


def test_media_size_quantiles(ray_session, sf_dir):
    from maskmypy_ray.pipelines import q_media_size_quantiles
    from maskmypy_ray.sources.webpages import read_webpages

    got = q_media_size_quantiles(sf_dir).to_pandas()
    pages = read_webpages(sf_dir, seed=42, include_html=True).to_pandas()
    sizes = np.sort(pages["html"].str.len().to_numpy())
    for q, v in zip(got["q"], got["value"]):
        assert v == float(sizes[int(np.floor(q * (len(sizes) - 1)))])


# ---------------------------------------------------------------------------
# Round-4: weighted sampling, per-host caps, blocklist filter.
# ---------------------------------------------------------------------------


def test_weighted_sample_proportions(ray_session):
    import ray.data

    from maskmypy_ray.text.corpus import weighted_sample

    n = 4000
    w = np.where(np.arange(n) % 2 == 0, 100, 1000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "n_chars": pa.array(w, type=pa.int64()),
    }))
    out = weighted_sample(ds, seed=7).to_pandas()
    light = (out["n_chars"] == 100).sum()
    heavy = (out["n_chars"] == 1000).sum()
    # keep probabilities 0.1 and 1.0: all heavy rows kept, ~10% of light
    assert heavy == n // 2
    assert 0.05 * n / 2 < light < 0.15 * n / 2
    # determinism + partition independence
    out2 = weighted_sample(ds.repartition(7), seed=7).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_host_cap_sample_cap_and_invariance(ray_session, monkeypatch):
    import ray.data

    from maskmypy_ray import util
    from maskmypy_ray.text.corpus import host_cap_sample

    n = 600
    urls = [f"https://h{i % 6}.example.org/p/{i}" for i in range(n)]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "url": pa.array(urls),
    }))
    out = host_cap_sample(ds, k=10, seed=3).to_pandas()
    counts = out.groupby("host").size()
    assert (counts == 10).all() and len(counts) == 6
    for value in (None, 4096):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        out2 = host_cap_sample(ds.repartition(9), k=10, seed=3).to_pandas()
        assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_host_blocklist_filter_exact(ray_session):
    import ray.data

    from maskmypy_ray.text.corpus import host_blocklist_filter

    # host h0 carries far more chars than the others -> blocked
    rows = []
    for i in range(90):
        h = f"h{i % 3}"
        rows.append((i, f"https://{h}.example.org/p/{i}",
                     "x" * (2000 if h == "h0" else 10)))
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "url": pa.array([r[1] for r in rows]),
        "text": pa.array([r[2] for r in rows]),
    })
    out = host_blocklist_filter(ray.data.from_arrow(t)).to_pandas()
    assert set(out["host"]) == {"h1.example.org", "h2.example.org"}
    assert len(out) == 60


def test_bigram_lm_context_sensitivity(ray_session):
    """A doc whose bigrams all appear in training scores strictly
    better (lower NLL) than a doc of the same tokens in a shuffled
    order that creates unseen bigrams (the context signal the unigram
    LM cannot express)."""
    import ray.data

    from maskmypy_ray.text.lm import bigram_logprob

    common = "the quick brown fox jumps over the lazy dog"
    rows = [{"doc_id": i, "text": common} for i in range(8)]
    rows.append({"doc_id": 100, "text": common})                  # fluent
    rows.append({"doc_id": 101,
                 "text": "dog the over quick lazy fox brown jumps the"})
    out = bigram_logprob(ray.data.from_items(rows)).to_pandas() \
        .set_index("doc_id")
    assert out.loc[100, "nll"] < out.loc[101, "nll"]
    assert out.loc[100, "n_tokens"] == 8  # bigram count


def test_bigram_lm_partition_independent(ray_session, sf_dir):
    import ray.data

    from maskmypy_ray.text.lm import bigram_logprob

    def run(nb):
        ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"],
                                   override_num_blocks=nb)
        return bigram_logprob(ds).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

    assert run(1).equals(run(6))


def test_bigram_lm_oracle_parity(ray_session, sf_dir):
    import duckdb
    import ray.data

    from maskmypy_ray.pipelines import _bigram_lm_sql
    from maskmypy_ray.text.lm import bigram_logprob

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    eng = bigram_logprob(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(_bigram_lm_sql()).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert eng["doc_id"].tolist() == orc["doc_id"].tolist()
    assert eng["n_tokens"].tolist() == orc["n_tokens"].tolist()
    assert eng["nll"].tolist() == orc["nll"].tolist()


def test_sample_fixed_k_per_source(ray_session, sf_dir):
    from maskmypy_ray.rng import uniform01
    from maskmypy_ray.text.corpus import (SAMPLE_K_SRC_STREAM,
                                          sample_fixed_k_per_source)

    ds = ray_session.data.read_parquet(f"{sf_dir}/documents.parquet",
                                       columns=["doc_id", "source"])
    a = sample_fixed_k_per_source(ds, k=3, seed=42).to_pandas() \
        .sort_values(["source", "u", "doc_id"]).reset_index(drop=True)
    b = sample_fixed_k_per_source(ds.repartition(7), k=3, seed=42) \
        .to_pandas().sort_values(["source", "u", "doc_id"]) \
        .reset_index(drop=True)
    # partition-independent
    assert a.equals(b)
    # brute-force oracle: k smallest (u, doc_id) per source
    df = ds.to_pandas()
    df["u"] = uniform01(df["doc_id"].to_numpy(), 42, SAMPLE_K_SRC_STREAM)
    want = df.sort_values(["u", "doc_id"]).groupby("source").head(3)
    assert len(a) == len(want)
    assert set(map(tuple, a[["source", "doc_id"]].to_numpy())) == \
        set(map(tuple, want[["source", "doc_id"]].to_numpy()))
    # every source capped at k
    assert a.groupby("source").size().max() <= 3


def test_source_mix_weights(ray_session, sf_dir):
    import duckdb
    from maskmypy_ray import pipelines as p
    from maskmypy_ray.text.corpus import source_mix_weights

    # skewed synthetic corpus: one head source with 90% of the docs
    import pyarrow as pa
    n = 1000
    srcs = ["head"] * 900 + ["mid"] * 90 + ["tail"] * 10
    ds = ray_session.data.from_arrow(
        pa.table({"source": pa.array(srcs, type=pa.string())})
    ).repartition(7)
    t = source_mix_weights(ds).to_pandas().set_index("source")
    assert t["n_docs"].to_dict() == {"head": 900, "mid": 90, "tail": 10}
    # alpha=1/2 smoothing: head share drops below its 90% mass,
    # tail share rises above its 1% mass
    assert t.loc["head", "w_ppm"] < 900_000
    assert t.loc["tail", "w_ppm"] > 10_000
    # exact integer rational against Python-int brute force
    import math
    q = {s: math.floor(1e9 * math.sqrt(c))
         for s, c in t["n_docs"].items()}
    den = sum(q.values())
    for s in q:
        assert t.loc[s, "w_ppm"] == q[s] * 1_000_000 // den
    assert t["w_ppm"].sum() <= 1_000_000  # floor division never oversums

    # oracle parity on the real fixture
    eng = p.FULL_QUERIES["source_mix_weights"](sf_dir).to_pandas() \
        .sort_values("source").reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(p.full_oracle_queries()["source_mix_weights"]).df() \
        .sort_values("source").reset_index(drop=True)
    assert eng.astype("int64", errors="ignore").equals(
        orc.astype(eng.dtypes.to_dict()))


def test_source_budget_alloc(ray_session, sf_dir):
    import duckdb
    import pyarrow as pa
    from maskmypy_ray import pipelines as p
    from maskmypy_ray.text.corpus import source_budget_alloc

    # skewed corpus: head would eat the whole budget proportionally
    srcs = ["head"] * 900 + ["mid"] * 90 + ["tail"] * 10
    ds = ray_session.data.from_arrow(
        pa.table({"source": pa.array(srcs, type=pa.string())})
    ).repartition(5)
    t = source_budget_alloc(ds, budget=300).to_pandas() \
        .set_index("source")
    # tail (10) and mid (90) fit under the fair share; head gets the
    # floor threshold of the remaining budget: (300 - 100) // 1 = 200
    assert t.loc["tail", "alloc"] == 10
    assert t.loc["mid", "alloc"] == 90
    assert t.loc["head", "alloc"] == 200
    assert t["alloc"].sum() <= 300
    # budget >= corpus: everyone fully kept
    t2 = source_budget_alloc(ds, budget=10_000).to_pandas() \
        .set_index("source")
    assert t2["alloc"].equals(t2["n_docs"])
    # tiny budget: uniform floor split, nobody satisfied
    t3 = source_budget_alloc(ds, budget=8).to_pandas()
    assert set(t3["alloc"]) == {8 // 3}

    # oracle parity on the real fixture (budget = total//2 rule)
    eng = p.FULL_QUERIES["source_budget_alloc"](sf_dir).to_pandas() \
        .sort_values("source").reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(p.full_oracle_queries()["source_budget_alloc"]) \
        .df().sort_values("source").reset_index(drop=True)
    assert eng.equals(orc.astype(eng.dtypes.to_dict()))


def test_source_kl(ray_session, sf_dir):
    import duckdb
    import pandas as pd
    import pyarrow as pa
    from maskmypy_ray.text.lm import source_kl
    from maskmypy_ray import pipelines as p

    # a source whose vocabulary diverges from the mix scores higher
    rows = (["alpha beta gamma delta"] * 50
            + ["zeta eta theta iota"] * 50
            + ["qqq www eee rrr"] * 4)
    srcs = ["a"] * 50 + ["b"] * 50 + ["weird"] * 4
    ds = ray_session.data.from_arrow(pa.table({
        "source": pa.array(srcs, type=pa.string()),
        "text": pa.array(rows, type=pa.string()),
    })).repartition(5)
    t = source_kl(ds).to_pandas().set_index("source")
    assert t.loc["weird", "kl"] > t.loc["a", "kl"]
    assert t.loc["weird", "kl"] > t.loc["b", "kl"]
    assert (t["kl"] >= 0).all()
    # partition independence (integer sums are order-independent)
    t2 = source_kl(ds.repartition(11)).to_pandas().set_index("source")
    pd.testing.assert_frame_equal(t.sort_index(), t2.sort_index())

    # oracle parity on the real fixture
    eng = p.FULL_QUERIES["source_kl"](sf_dir).to_pandas() \
        .sort_values("source").reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(p.full_oracle_queries()["source_kl"]).df() \
        .sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(eng, orc.astype(eng.dtypes.to_dict()))


def test_media_phash(ray_session, sf_dir):
    import duckdb
    import pandas as pd
    from maskmypy_ray import pipelines as p

    eng = p.FULL_QUERIES["media_phash"](sf_dir).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    assert (eng["phash"].str.len() == 64).all()
    assert eng["phash"].str.fullmatch("[01]{64}").all()
    # identical payloads hash identically; the md5-derived fake decode
    # makes phash groups match exact-payload groups on the fixture
    meta = p.FULL_QUERIES["media_metadata"](sf_dir).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    j = eng.merge(meta, on="url")
    g1 = j.groupby("media_md5")["phash"].nunique()
    assert (g1 == 1).all()

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(p.full_oracle_queries()["media_phash"]).df() \
        .sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(eng, orc)


def test_media_phash_kernel():
    import pyarrow as pa
    from maskmypy_ray.multimodal.media import media_phash_batch

    b1 = pa.table({"url": pa.array(["u1", "u2", "u3"], type=pa.string()),
                   "html": pa.array([b"payload-a", b"payload-a",
                                     b"payload-b"], type=pa.binary())})
    t = media_phash_batch(b1)
    ph = t.column("phash").to_pylist()
    assert ph[0] == ph[1]          # identical payloads -> identical hash
    assert ph[0] != ph[2]          # different payloads -> different hash
    assert all(len(x) == 64 and set(x) <= {"0", "1"} for x in ph)
    # empty batch keeps the schema
    e = media_phash_batch(b1.slice(0, 0))
    assert e.schema.field("phash").type == pa.string() and len(e) == 0


def test_media_phash_pairs(ray_session, sf_dir):
    import duckdb
    import pandas as pd
    from maskmypy_ray import pipelines as p

    eng = p.FULL_QUERIES["media_phash_pairs"](sf_dir).to_pandas() \
        .sort_values(["url_a", "url_b"]).reset_index(drop=True)
    assert len(eng) > 0
    assert (eng["hamming"] <= 4).all()
    # every seeded perturbed copy is found paired with ITS original (a
    # copy may ALSO match other originals whose base hash collides —
    # the stub decode has period-16 bit patterns — but the self-pair
    # is guaranteed: <= 3 flips leave >= 1 of the 4 bands intact)
    seeded = eng[eng["url_b"].str.endswith("#p")]
    assert len(seeded) > 0
    self_pairs = seeded[seeded["url_b"].str[:-2] == seeded["url_a"]]
    copies = set(seeded["url_b"])
    assert set(self_pairs["url_b"]) == copies
    # 3 XOR flips -> hamming 3, or 1 if two flip positions collided
    assert set(self_pairs["hamming"]) <= {1, 3}

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(p.full_oracle_queries()["media_phash_pairs"]).df() \
        .sort_values(["url_a", "url_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(eng, orc.astype(eng.dtypes.to_dict()))


def test_cluster_best_survivors_argmax(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from maskmypy_ray.text.clusters import cluster_best_survivors

    # 3 clusters; quality argmax differs from min-id in cluster 10
    cc = ray.data.from_arrow(pa.table({
        "node": [1, 2, 3, 10, 11, 20],
        "cluster_id": [1, 1, 1, 10, 10, 20],
    })).repartition(3)
    q = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 10, 11, 20, 99],
        "quality_score": [0.5, 0.9, 0.9, 0.1, 0.8, 0.3, 1.0],
    })).repartition(2)
    got = cluster_best_survivors(cc, q).to_pandas() \
        .sort_values("cluster_id").reset_index(drop=True)
    assert got["cluster_id"].tolist() == [1, 10, 20]
    assert got["doc_id"].tolist() == [2, 11, 20]  # tie 2 vs 3 -> min id
    assert np.allclose(got["quality_score"].to_numpy(), [0.9, 0.8, 0.3])


def test_kmeans_oracle_parity(ray_session, sf_dir):
    """Distributed k-means equals the unrolled relational DuckDB twin
    bit-for-bit (assignments, clusters and integer distances)."""
    import duckdb
    import pandas as pd
    import ray.data

    from maskmypy_ray.sim.kmeans import kmeans, kmeans_sql

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"],
                               override_num_blocks=7)
    eng = kmeans(ds, k=5, iters=2).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf_dir}/embeddings.parquet')")
    orc = con.execute(kmeans_sql(k=5, iters=2)).df() \
        .sort_values("vec_id").reset_index(drop=True)[
        ["vec_id", "cluster", "dist2"]]
    pd.testing.assert_frame_equal(eng, orc.astype(eng.dtypes.to_dict()))
    # all k clusters are populated on the fixture
    assert eng["cluster"].nunique() == 5


def test_kmeans_converges_and_partition_invariant(ray_session, sf_dir):
    """More iterations never increase total inertia, and the result is
    invariant to the input block layout."""
    import numpy as np
    import ray.data

    from maskmypy_ray.sim.kmeans import kmeans

    def run(nb, iters):
        ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"],
                                   override_num_blocks=nb)
        return kmeans(ds, k=4, iters=iters).to_pandas() \
            .sort_values("vec_id").reset_index(drop=True)

    a = run(3, 2)
    b = run(11, 2)
    assert a.equals(b)
    inertia1 = run(5, 1)["dist2"].sum()
    inertia3 = run(5, 3)["dist2"].sum()
    assert inertia3 <= inertia1
