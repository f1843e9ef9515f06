"""Host-level PageRank (text/rank.py): oracle parity, sort fan-out
independence, and fast-path/distributed-path agreement."""

from __future__ import annotations

import numpy as np
import pytest


def _pages(sf_dir, nb=None):
    from maskmypy_ray.sources.webpages import read_webpages

    return read_webpages(sf_dir, seed=42)


def test_host_rank_oracle_parity(ray_session, sf_dir):
    import duckdb

    from maskmypy_ray import oracle
    from maskmypy_ray.text.rank import host_rank

    eng = host_rank(_pages(sf_dir)).to_pandas() \
        .sort_values("host").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(oracle.host_rank_sql(42)).df() \
        .sort_values("host").reset_index(drop=True)
    assert eng["host"].tolist() == orc["host"].tolist()
    assert eng["rank_micro"].tolist() == orc["rank_micro"].tolist()
    # the quadratic link rule must actually skew the ranks
    r = eng["rank_micro"].to_numpy()
    assert r.max() > 2 * r.min()


def _edge_blocks(monkeypatch):
    """Record the block count of every ``_host_edges`` table: it is a
    ``segment_map`` output, so its block count is that sort's fan-out."""
    from maskmypy_ray.text import rank as rank_mod

    blocks = []
    host_edges = rank_mod._host_edges

    def spy(*args):
        ew = host_edges(*args)
        blocks.append(ew.num_blocks())
        return ew

    monkeypatch.setattr(rank_mod, "_host_edges", spy)
    return blocks


def test_host_rank_partition_independent(ray_session, sf_dir, monkeypatch):
    """Identical ranks at two sort fan-outs (``util.PARTITION_BYTES`` at
    its default and at 2 KiB); the edge table's block count shows that
    two different fan-outs ran."""
    from maskmypy_ray import util
    from maskmypy_ray.text.rank import host_rank

    blocks = _edge_blocks(monkeypatch)
    runs = []
    for value in (None, 2048):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        runs.append(host_rank(_pages(sf_dir)).to_pandas()
                    .sort_values("host").reset_index(drop=True))
    assert blocks[0] < blocks[1]
    assert runs[0].equals(runs[1])


def test_host_rank_paths_agree(ray_session, sf_dir, monkeypatch):
    """The driver-local small-graph loop and the distributed
    edge-streaming rounds compute the identical int64 ranks."""
    from maskmypy_ray.text import rank as rank_mod

    fast = rank_mod.host_rank(_pages(sf_dir)).to_pandas() \
        .sort_values("host").reset_index(drop=True)
    monkeypatch.setattr(rank_mod, "SMALL_EDGES", 0)
    dist = rank_mod.host_rank(_pages(sf_dir)).to_pandas() \
        .sort_values("host").reset_index(drop=True)
    assert fast.equals(dist)


def test_host_rank_mass_bounded(ray_session, sf_dir):
    """Truncating integer division only LOSES mass: total rank stays
    at or below the initial total, and every rank >= the teleport
    floor (15% of the initial share)."""
    from maskmypy_ray.text.rank import RANK_SCALE, host_rank

    r = host_rank(_pages(sf_dir)).to_pandas()["rank_micro"].to_numpy()
    H = len(r)
    init = RANK_SCALE // H
    assert r.sum() <= H * init
    assert (r >= (15 * init) // 100).all()


def test_host_components_oracle_parity(ray_session, sf_dir):
    """host_components equals the recursive-CTE DuckDB twin bit-for-bit
    (63-bit hash labels — exercises the int64-exact BSP update path)."""
    import duckdb

    from maskmypy_ray.oracle import host_components_sql
    from maskmypy_ray.sources.webpages import read_webpages
    from maskmypy_ray.text.rank import host_components

    mine = host_components(
        read_webpages(sf_dir, seed=42, include_html=False)).to_pandas() \
        .sort_values("host").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    orc = con.execute(host_components_sql(42)).df() \
        .sort_values("host").reset_index(drop=True)
    assert mine["host"].tolist() == orc["host"].tolist()
    assert mine["component"].tolist() == orc["component"].tolist()


def test_connected_components_labels_above_2_53(ray_session):
    """Regression: BSP label propagation must stay int64-exact for
    labels above 2^53 (the old left-merge + fmin path silently rounded
    through float64 — fine for doc_ids, wrong for 63-bit hashes)."""
    import pyarrow as pa
    import ray.data

    from maskmypy_ray.text.clusters import connected_components

    base = (1 << 62) + 12345678901234567  # not float64-representable
    ids = [base + i for i in (0, 1, 2, 3, 10, 11)]
    edges = pa.table({
        "doc_a": pa.array([ids[0], ids[1], ids[2], ids[4]],
                          type=pa.int64()),
        "doc_b": pa.array([ids[1], ids[2], ids[3], ids[5]],
                          type=pa.int64()),
    })
    nodes = pa.table({"node": pa.array(ids, type=pa.int64())})
    out = connected_components(ray.data.from_arrow(nodes),
                               ray.data.from_arrow(edges)).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    # chain 0-1-2-3 collapses to min = ids[0]; pair 10-11 to ids[4]
    assert out["cluster_id"].tolist() == [ids[0]] * 4 + [ids[4]] * 2
    assert out["node"].tolist() == ids


def test_host_degrees_brute_force(ray_session, monkeypatch):
    """host_degrees matches a python brute force on a tiny two-host
    page set (incl. reciprocal self-host edges), in four blocks, at two
    sort fan-outs (``util.PARTITION_BYTES`` at its default and at 1
    byte, which sorts into one partition per block)."""
    import collections

    import numpy as np
    import pyarrow as pa
    import ray.data

    from maskmypy_ray import util
    from maskmypy_ray.text.rank import LINKS_PER_DOC, host_degrees

    n = 8
    hosts = ["a.example.org" if i % 2 == 0 else "b.example.org"
             for i in range(n)]
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "url": pa.array([f"https://{h}/page/{i}"
                         for i, h in enumerate(hosts)]),
    })
    edges = collections.Counter()
    for i in range(n):
        for j in range(LINKS_PER_DOC):
            dst = ((i * i) % n * 7 + i * 31 + 97 * j + 1) % n
            if dst != i:
                edges[(hosts[i], hosts[dst])] += 1
    exp = collections.Counter()
    for (s, d), w in edges.items():
        exp[(s, "out_d")] += 1
        exp[(s, "out_w")] += w
        exp[(d, "in_d")] += 1
        exp[(d, "in_w")] += w
        if (d, s) in edges:
            exp[(s, "recip")] += 1
    blocks = _edge_blocks(monkeypatch)
    for value in (None, 1):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        got = host_degrees(ray.data.from_arrow(t).repartition(4)).to_pandas()
        gotd = {(r.host, r.metric): r.v for r in got.itertuples()}
        assert gotd == dict(exp)
    assert blocks[0] < blocks[1]


def _brute_triangles(edges):
    """O(n^3)-ish reference: adjacency sets over the simple graph."""
    import itertools

    adj = {}
    for a, b in edges:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = {n: 0 for n in adj}
    for x, y, z in itertools.combinations(sorted(adj), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            tri[x] += 1
            tri[y] += 1
            tri[z] += 1
    out = {}
    for n in adj:
        d = len(adj[n])
        cm = (2_000_000 * tri[n]) // (d * (d - 1)) if d >= 2 else 0
        out[n] = (d, tri[n], cm)
    return out


def test_host_triangles_oracle_parity(ray_session, sf_dir):
    import duckdb

    from maskmypy_ray import pipelines

    res = pipelines.FULL_QUERIES["host_triangles"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    ora = con.execute(
        pipelines.full_oracle_queries()["host_triangles"]).fetchdf()
    a = res.sort_values("host").reset_index(drop=True)
    b = ora.sort_values("host").reset_index(drop=True)[list(a.columns)]
    assert len(a) == len(b) and (a.values == b.values).all()
    assert a["n_tri"].sum() % 3 == 0 and a["n_tri"].sum() > 0


def test_host_triangles_brute_force_parity(ray_session, sf_dir):
    """The distributed wedge plan vs an independent adjacency-set
    counter over the SAME host edge list."""
    from maskmypy_ray.sources.webpages import read_webpages
    from maskmypy_ray.text.rank import (_hash63, _host_edges,
                                        host_triangles)

    pages = read_webpages(sf_dir, seed=42, include_html=False)
    raw = _host_edges(pages, pages.count(), 3).to_pandas()
    hs = _hash63(raw["src"].tolist())
    hd = _hash63(raw["dst"].tolist())
    h2n = dict(zip(raw["src"], hs))
    h2n.update(zip(raw["dst"], hd))
    exp = _brute_triangles(zip(hs.tolist(), hd.tolist()))

    got = host_triangles(pages).to_pandas()
    assert len(got) == len(exp)
    for _, r in got.iterrows():
        d, t, cm = exp[h2n[r["host"]]]
        assert (r["deg"], r["n_tri"], r["clust_micro"]) == (d, t, cm)


def test_host_triangles_partition_independent(ray_session, sf_dir,
                                              monkeypatch):
    """The same rows at two sort fan-outs (``util.PARTITION_BYTES`` at
    its default and at 2 KiB); the output block count, the final
    co-group's fan-out, shows that two different fan-outs ran."""
    from maskmypy_ray import util
    from maskmypy_ray.sources.webpages import read_webpages
    from maskmypy_ray.text.rank import host_triangles

    pages = read_webpages(sf_dir, seed=42, include_html=False)
    runs, blocks = [], []
    for value in (None, 2048):
        monkeypatch.setattr(util, "PARTITION_BYTES", value)
        out = host_triangles(pages).materialize()
        blocks.append(out.num_blocks())
        runs.append(out.to_pandas().sort_values("host")
                    .reset_index(drop=True))
    assert blocks[0] < blocks[1]
    assert (runs[0].values == runs[1].values).all()


def test_connected_components_long_path_pointer_jumping(ray_session):
    """A 600-node path graph has diameter 599: plain min-label BSP
    needs ~600 rounds (far beyond max_rounds), so convergence inside
    64 rounds both pins correctness on the worst-diameter shape AND
    proves the pointer-jumping accelerator is doing the work."""
    import pyarrow as pa

    from maskmypy_ray.text.clusters import connected_components

    n = 600
    ids = (np.arange(n, dtype=np.int64) * 2_654_435_761) % (1 << 40)
    ids[0] = 3  # make the chain's min sit at one END (worst case)
    nodes = ray_session.data.from_arrow(pa.table({"node": pa.array(ids)}))
    edges = ray_session.data.from_arrow(pa.table({
        "doc_a": pa.array(ids[:-1]), "doc_b": pa.array(ids[1:])}))
    cc = connected_components(nodes, edges, max_rounds=64).to_pandas()
    assert len(cc) == n
    assert (cc["cluster_id"] == ids.min()).all()
