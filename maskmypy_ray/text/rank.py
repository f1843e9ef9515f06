"""Host-level PageRank over the crawl link graph — the classic
host-quality signal for web-corpus curation (seed/domain ranking à la
Common Crawl host ranks; damping 0.85, fixed iteration count).

Fixture link rule (FIXTURES-style deterministic synthesis, like the
messy-URL refetches and mutated near-dup copies): page ``doc_id``
links to pages ``((doc_id%n)^2 % n * 7 + doc_id*31 + 97*j + 1) % n``
for ``j < L`` (exact self-links dropped; the quadratic term makes the
host in-degree distribution SKEWED — quadratic residues are uneven
across the ``doc_id % n_sources`` host classes — so the fixture ranks
genuinely separate and the oracle check is not vacuous), and the
graph is projected to hosts.

Scale shape:

* **Edge-host resolution** is ONE keyed join: a link row is emitted by
  its source page, so it already carries src_host; link rows keyed by
  dst doc and ``(doc_id, host)`` rows keyed by their own doc_id form
  one tagged dataset, and one ``util.segment_map`` on that key joins
  them per sorted block. The corpus-sized doc→host map is never
  broadcast and never visits the driver.
* **Multi-side merges** (the host-component labels, triangle
  orientation, the closing probe and the per-host assembly) are
  ``util.cogroup_map`` calls: every row of a key, from every side,
  meets in one pyarrow kernel, so 63-bit host hashes stay int64.
* **The host graph is aggregated per src** (one ``segment_map`` on
  ``src`` puts every edge of a src host in one sorted block, so
  weights AND out-degrees are exact from two pyarrow group-bys) and
  materialized — bounded by distinct (src_host, dst_host) pairs, the
  same mass every iteration must read anyway.
* **Every single-side shuffle is a ``util.segment_map`` on the real
  key** with a pyarrow kernel: no route column, no pandas block, and
  the sort fan-out is ``segment_map``'s, from the input's size.
* **Iterations stream the edge table**: the rank vector (one int64
  per host — bounded; ~80 MB at 10^7 hosts) is broadcast each round,
  one ``map_batches`` over the edges emits integer contributions, and
  a small ``groupby(dst).sum`` (few distinct keys — the pre-combined-
  partials regime) plus a driver-side H-row collect closes the round.

Exactness: ranks are int64 micro-units (scale 10^12). Per round,
``r' (h) = (15*INIT)//100 + (85 * Σ_in (r(src) // outdeg(src)) * w)
// 100`` — every operation is integer, so sums are order-independent
and the DuckDB oracle (10 unrolled CTE rounds of the same arithmetic)
matches bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import cogroup_map, segment_map, segmented_pair_indices

LINKS_PER_DOC = 3
RANK_SCALE = 10**12
DAMP_PCT = 85  # damping d = 0.85 as the exact rational 85/100
RANK_ITERS = 10
MAX_HOSTS = 50_000_000  # driver-side rank-vector bound (~400 MB)
SMALL_EDGES = 1 << 22  # host-graph edges below this iterate driver-side
HOST_SCHEMA = pa.schema([("host", pa.string())])
EW_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                       ("w", pa.int64()), ("ow", pa.int64())])

from .corpus import HOST_RE  # noqa: E402  (shared host extraction)


def _host_of_url(batch: pa.Table) -> np.ndarray:
    import pyarrow.compute as pc

    ex = pc.extract_regex(batch.column("url"), HOST_RE)
    h = pc.fill_null(pc.struct_field(ex, "host"), "<no-host>")
    return np.asarray(h.to_pylist(), dtype=object)


def _host_edges(pages_ds, n_docs: int, links: int):
    """Dataset[(src, dst, w, ow)] — the aggregated host graph with
    exact per-src out-degrees. ONE keyed join (a link row originates
    from its src page, so it carries src_host locally; only the dst
    side needs the doc→host resolution): link rows keyed by dst doc and
    host rows keyed by their own doc_id form one tagged dataset, and
    one ``segment_map`` on that key joins them per sorted block — the
    corpus-sized doc→host map is never broadcast and never visits the
    driver. A second ``segment_map`` on ``src`` then holds every edge
    of a src host in one block, so weights and out-degrees are exact
    from two pyarrow group-bys."""

    def tag_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        hosts = _host_of_url(b)
        # host rows keyed by own doc_id (the dst-resolution side)
        key = [ids]
        hh = [hosts]
        tag = [np.ones(len(ids), dtype=np.int8)]
        # link rows keyed by dst_doc, already carrying src_host
        for j in range(links):
            dn = ids % n_docs
            dst = ((dn * dn) % n_docs * 7 + ids * 31 + 97 * j + 1) % n_docs
            keep = dst != ids  # drop exact self-links
            key.append(dst[keep])
            hh.append(hosts[keep])
            tag.append(np.zeros(int(keep.sum()), dtype=np.int8))
        return pa.table({
            "key": pa.array(np.concatenate(key), type=pa.int64()),
            "host": pa.array(np.concatenate(hh), type=pa.string()),
            "is_host": pa.array(np.concatenate(tag)),
        })

    tagged = pages_ds.select_columns(["doc_id", "url"]) \
        .map_batches(tag_rows, batch_format="pyarrow")

    def resolve_dst(b: pa.Table) -> pa.Table:
        is_host = pc.equal(b.column("is_host"), 1)
        hosts = b.filter(is_host).select(["key", "host"]) \
            .rename_columns(["key", "dst"])
        lnk = b.filter(pc.invert(is_host)).select(["key", "host"]) \
            .rename_columns(["key", "src"])
        m = lnk.join(hosts, "key", join_type="inner")
        return pa.table({"src": m.column("src"), "dst": m.column("dst")})

    edges = segment_map(tagged, "key", resolve_dst,
                        pa.schema([("src", pa.string()),
                                   ("dst", pa.string())]))

    def agg_part(b: pa.Table) -> pa.Table:
        """Weights per (src, dst) + exact out-degree per src — every
        edge of a src host is in this block."""
        w = b.group_by(["src", "dst"]).aggregate([("src", "count")])
        ow = w.group_by("src").aggregate([("src_count", "sum")])
        j = w.join(ow, "src", join_type="inner")
        return pa.table({"src": j.column("src"), "dst": j.column("dst"),
                         "w": j.column("src_count"),
                         "ow": j.column("src_count_sum")})

    # Materialized: T iterations re-read this table (dual-consumer
    # rule); bounded by distinct (src_host, dst_host) pairs.
    return segment_map(edges, "src", agg_part, EW_SCHEMA).materialize()


def host_rank(pages_ds, iters: int = RANK_ITERS,
              links: int = LINKS_PER_DOC):
    """Dataset[(host, rank_micro)] — integer-exact PageRank over the
    synthesized host link graph after ``iters`` rounds."""
    import ray

    n_docs = max(int(pages_ds.count()), 1)
    ew = _host_edges(pages_ds, n_docs, links)

    # bounded host list: distinct hosts of the graph + isolated hosts
    def hosts_part(b: pa.Table) -> pa.Table:
        hosts = np.unique(_host_of_url(b))
        return pa.table({"host": pa.array(hosts, type=pa.string())})

    hosts = segment_map(
        pages_ds.select_columns(["doc_id", "url"])
        .map_batches(hosts_part, batch_format="pyarrow"), "host",
        lambda b: b.group_by("host").aggregate([]), HOST_SCHEMA).take_all()
    hl = np.sort(np.asarray([r["host"] for r in hosts], dtype=object))
    H = len(hl)
    assert H <= MAX_HOSTS, f"{H} hosts exceed the rank-vector bound"
    init = RANK_SCALE // max(H, 1)
    base = (15 * init) // 100
    ranks = np.full(H, init, dtype=np.int64)

    # Small-graph fast path: below the bound, collect the aggregated
    # host graph ONCE and run the identical integer loop locally —
    # 10 Ray rounds on a tiny edge table are pure job overhead. The
    # distributed rounds below are the >5M-edge scale path; both
    # compute the exact same int64 arithmetic.
    n_edges = ew.count()
    if n_edges <= SMALL_EDGES:
        edf = ew.to_pandas()
        si = np.searchsorted(hl, edf["src"].to_numpy(dtype=object))
        di = np.searchsorted(hl, edf["dst"].to_numpy(dtype=object))
        w = edf["w"].to_numpy(dtype=np.int64)
        ow = edf["ow"].to_numpy(dtype=np.int64)
        for _ in range(iters):
            c = (ranks[si] // ow) * w
            insum = np.zeros(H, dtype=np.int64)
            np.add.at(insum, di, c)
            ranks = base + (DAMP_PCT * insum) // 100
    else:
        for _ in range(iters):
            ref = ray.put((hl, ranks))

            def contrib(b: pa.Table, ref=ref) -> pa.Table:
                hl_, r_ = ray.get(ref)  # zero-copy plasma read per task
                src = np.asarray(b.column("src").to_pylist(), dtype=object)
                idx = np.searchsorted(hl_, src)
                w = b.column("w").to_numpy(zero_copy_only=False)
                ow = b.column("ow").to_numpy(zero_copy_only=False)
                c = (r_[idx] // ow) * w
                return pa.table({"dst": b.column("dst"),
                                 "c": pa.array(c, type=pa.int64())})

            from ray.data.aggregate import Sum

            rows = ew.map_batches(contrib, batch_format="pyarrow") \
                .groupby("dst").aggregate(Sum("c", alias_name="c")) \
                .take_all()
            new = np.full(H, base, dtype=np.int64)
            if rows:
                dsts = np.asarray([r["dst"] for r in rows], dtype=object)
                cs = np.asarray([int(r["c"]) for r in rows],
                                dtype=np.int64)
                new[np.searchsorted(hl, dsts)] = \
                    base + (DAMP_PCT * cs) // 100
            ranks = new

    out = pa.table({"host": pa.array(hl, type=pa.string()),
                    "rank_micro": pa.array(ranks, type=pa.int64())})
    import ray.data

    return ray.data.from_arrow(out)


# ---------------------------------------------------------------------------
# Host connected components (web-graph communities over the same graph)
# ---------------------------------------------------------------------------

_H63 = (1 << 63) - 1
NODE_SCHEMA = pa.schema([("node", pa.int64())])
DEG_SCHEMA = pa.schema([("node", pa.int64()), ("deg", pa.int64())])
EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
EDGE_DA_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("da", pa.int64())])
ORIENTED_SCHEMA = pa.schema([(c, pa.int64()) for c in ("u", "v", "du", "dv")])
WEDGE_SCHEMA = pa.schema([(c, pa.int64()) for c in ("x", "y", "z")])
HOST_NODE_SCHEMA = pa.schema([("node", pa.int64()), ("host", pa.string())])
KV_SCHEMA = pa.schema([("key", pa.string()), ("v", pa.int64())])


def _node_map(b: pa.Table) -> pa.Table:
    """(node, host) for the distinct hosts of one edge block; a host
    seen in several blocks repeats, so consumers group by node."""
    hosts = sorted(set(b.column("src").to_pylist())
                   | set(b.column("dst").to_pylist()))
    return pa.table({"node": pa.array(_hash63(hosts), type=pa.int64()),
                     "host": pa.array(hosts, type=pa.string())})


def _hash63(hosts) -> np.ndarray:
    """First 8 md5 bytes per host masked to 63 bits — int64-safe on
    both sides (SQL: ``md5_number_upper(host) & (2^63 - 1)``), so the
    component minima agree bit-for-bit."""
    from .corpus import _host_hash64

    return (_host_hash64(list(hosts))
            & np.uint64(_H63)).astype(np.int64)


def host_components(pages_ds, links: int = LINKS_PER_DOC):
    """Connected components of the host link graph ->
    ``(host, component)`` with component = min 63-bit host hash in the
    component — the web-graph community labeling that pairs with
    :func:`host_rank` (same synthesized edge rule, same one-join
    resolution).

    Scale shape: hosts enter the large-star/small-star rounds
    (:func:`maskmypy_ray.text.clusters.connected_components` — one
    sort on the real key per round over the edge set) as content
    hashes, so no driver-side host dictionary exists at any point; the
    final hash->host attachment is one ``util.cogroup_map`` on the
    63-bit hash over the (host, hash) map rows and the labels, a
    pyarrow inner join per sorted block, so the hashes stay int64."""
    from .clusters import LABEL_SCHEMA, connected_components

    n_docs = pages_ds.count()
    edges = _host_edges(pages_ds, n_docs, links)

    def edge_ids(b: pa.Table) -> pa.Table:
        src = b.column("src").to_pylist()
        dst = b.column("dst").to_pylist()
        return pa.table({
            "doc_a": pa.array(_hash63(src)),
            "doc_b": pa.array(_hash63(dst)),
        })

    eid = edges.map_batches(edge_ids, batch_format="pyarrow")
    nmap = edges.map_batches(_node_map, batch_format="pyarrow")

    # connected_components needs UNIQUE node rows: the least host per
    # node hash; the same rows feed the final attach merge.
    def dedupe(b: pa.Table) -> pa.Table:
        m = b.group_by("node").aggregate([("host", "min")])
        return pa.table({"node": m.column("node"),
                         "host": m.column("host_min")})

    uniq = segment_map(nmap, "node", dedupe, HOST_NODE_SCHEMA).materialize()
    nodes = uniq.map_batches(
        lambda b: pa.table({"node": b.column("node")}),
        batch_format="pyarrow")
    cc = connected_components(nodes, eid, node_col="node")

    def attach(m: pa.Table, c: pa.Table) -> pa.Table:
        j = m.join(c, "node", join_type="inner")
        return pa.table({"host": j.column("host"),
                         "component": j.column("cluster_id")})

    return cogroup_map(
        [(uniq, "node", HOST_NODE_SCHEMA), (cc, "node", LABEL_SCHEMA)],
        attach, pa.schema([("host", pa.string()),
                           ("component", pa.int64())]))


def host_degrees(pages_ds, links: int = LINKS_PER_DOC):
    """Dataset[(host, metric, v)] — per-host link-graph degree profile
    over the SAME synthesized edge table host_rank streams (and that
    :mod:`maskmypy_ray.text.html`'s extract_links recovers from the
    html column): metrics ``out_d``/``in_d`` (distinct out/in
    neighbors), ``out_w``/``in_w`` (link counts), ``recip`` (edges
    whose reverse edge exists).

    Long form so consumers (and the merged panel row) need one value
    slot. Reciprocity pairs (a,b)/(b,a) inside ONE sorted block via a
    symmetric key (the xor of the two host hashes); degree partials
    stream off the bounded aggregated edge table; the final sum is a
    fused-key groupby over hosts x 5 rows (few distinct keys — plain
    aggregate is right)."""
    from ray.data.aggregate import Sum

    n_docs = max(int(pages_ds.count()), 1)
    ew = _host_edges(pages_ds, n_docs, links)

    def add_sym(b: pa.Table) -> pa.Table:
        sym = _hash63(b.column("src").to_pylist()) \
            ^ _hash63(b.column("dst").to_pylist())
        return b.select(["src", "dst"]).append_column("sym", pa.array(sym))

    def recip_part(b: pa.Table) -> pa.Table:
        # the edges whose reverse exists, counted per src
        rev = b.select(["dst", "src"]).rename_columns(["src", "dst"])
        c = b.select(["src", "dst"]).join(rev, ["src", "dst"],
                                          join_type="inner") \
            .group_by("src").aggregate([("src", "count")])
        return pa.table({
            "key": pc.binary_join_element_wise("recip", c.column("src"),
                                               "\t"),
            "v": c.column("src_count")})

    recip = segment_map(ew.map_batches(add_sym, batch_format="pyarrow"),
                        "sym", recip_part, KV_SCHEMA)

    def deg_partials(b: pa.Table) -> pa.Table:
        src = b.column("src").to_numpy(zero_copy_only=False)
        dst = b.column("dst").to_numpy(zero_copy_only=False)
        w = b.column("w").to_numpy(zero_copy_only=False)
        one = np.ones(len(src), dtype=np.int64)
        key = np.concatenate([
            np.char.add("out_d\t", src.astype("U")),
            np.char.add("out_w\t", src.astype("U")),
            np.char.add("in_d\t", dst.astype("U")),
            np.char.add("in_w\t", dst.astype("U"))])
        v = np.concatenate([one, w, one, w])
        return pa.table({"key": pa.array(key.astype(object),
                                         type=pa.string()),
                         "v": pa.array(v, type=pa.int64())})

    longrows = ew.map_batches(deg_partials, batch_format="pyarrow") \
        .union(recip)

    def split(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = pc.split_pattern(b.column("key"), "\t", max_splits=1)
        return pa.table({
            "host": pc.list_element(parts, 1),
            "metric": pc.list_element(parts, 0),
            "v": b.column("sum(v)"),
        })

    return longrows.groupby("key").aggregate(Sum("v")) \
        .map_batches(split, batch_format="pyarrow")


def host_triangles(pages_ds, links: int = LINKS_PER_DOC):
    """Dataset[(host, deg, n_tri, clust_micro)] — per-host triangle
    counts and local clustering coefficients over the simple undirected
    host graph (same synthesized link rule as :func:`host_rank` /
    :func:`host_components`): ``n_tri`` = triangles containing the
    host, ``deg`` = simple-graph degree, ``clust_micro`` = the
    all-integer ``(2_000_000 * n_tri) // (deg * (deg - 1))`` (0 for
    deg < 2) — no floats anywhere, so the SQL twin is bit-exact.

    Scale shape — the standard degree-ordered node-iterator plan
    (Schank & Wagner 2005; each triangle is counted exactly once on
    its lowest-(deg, id) vertex, which bounds wedge fan-out by graph
    arboricity instead of max degree, taming hub skew):

    1. canonical simple edges (a < b): one ``util.segment_map`` on
       a, deduplicating (a, b) per sorted block;
    2. degrees: endpoint explode + one ``segment_map`` on the node,
       counting per sorted block;
    3. orientation: two ``util.cogroup_map`` joins with the degree
       rows (keyed on a, then on b) attach (deg_a, deg_b); each edge
       points from the lexicographically smaller (deg, id);
    4. wedges: one ``segment_map`` on the source u; each sorted block
       is ordered by (u, deg_v, v) and emits every out-neighbor pair
       of a source as one segmented triu (no per-source loop), so each
       wedge comes ordered by the same total order;
    5. closing probe: one ``cogroup_map`` of the wedges (x; y, z),
       keyed on y, with the oriented edges, keyed on their source u —
       a wedge whose edge y -> z exists is a triangle, counted on all
       3 members;
    6. final: host map + degree + triangle counts meet in one
       ``cogroup_map`` on the node hash, a pyarrow join per sorted
       block (int64 throughout). Nothing visits the driver at any
       size.
    """
    n_docs = pages_ds.count()
    edges = _host_edges(pages_ds, n_docs, links)

    # -- 1. canonical undirected simple edges + host/node map rows --------
    def canon(b: pa.Table) -> pa.Table:
        hs = _hash63(b.column("src").to_pylist())
        hd = _hash63(b.column("dst").to_pylist())
        keep = hs != hd
        return pa.table({"a": np.minimum(hs, hd)[keep],
                         "b": np.maximum(hs, hd)[keep]})

    def distinct(b: pa.Table) -> pa.Table:
        return b.group_by(["a", "b"]).aggregate([]).select(["a", "b"])

    # bounded checkpoint (distinct host pairs); 2 consumers: degrees
    # and orientation
    uedges = segment_map(edges.map_batches(canon, batch_format="pyarrow"),
                         "a", distinct, EDGE_SCHEMA).materialize()

    nmap = edges.map_batches(_node_map, batch_format="pyarrow")

    # -- 2. degrees ---------------------------------------------------------
    def endpoints(b: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [b.column(c).combine_chunks() for c in ("a", "b")])})

    def count_part(b: pa.Table) -> pa.Table:
        c = b.group_by("node").aggregate([("node", "count")])
        return pa.table({"node": c.column("node"),
                         "deg": c.column("node_count")})

    deg = segment_map(uedges.map_batches(endpoints, batch_format="pyarrow"),
                      "node", count_part, DEG_SCHEMA).materialize()

    # -- 3. orientation: attach deg to both ends (two keyed joins) ---------
    deg_side = (deg, "node", DEG_SCHEMA)

    def attach_da(e: pa.Table, d: pa.Table) -> pa.Table:
        j = e.join(d, "a", "node", join_type="inner")
        return pa.table({"a": j.column("a"), "b": j.column("b"),
                         "da": j.column("deg")})

    ed_a = cogroup_map([(uedges, "a", EDGE_SCHEMA), deg_side], attach_da,
                       EDGE_DA_SCHEMA)

    def attach_db_orient(e: pa.Table, d: pa.Table) -> pa.Table:
        j = e.join(d, "b", "node", join_type="inner")
        a, b, da, db = (j.column(c).to_numpy(zero_copy_only=False)
                        for c in ("a", "b", "da", "deg"))
        fwd = (da < db) | ((da == db) & (a < b))  # (deg, id) lex order
        return pa.table({
            "u": np.where(fwd, a, b), "v": np.where(fwd, b, a),
            "du": np.where(fwd, da, db), "dv": np.where(fwd, db, da)})

    # bounded checkpoint (|E| rows); 2 consumers: wedges + closing probe
    oriented = cogroup_map([(ed_a, "b", EDGE_DA_SCHEMA), deg_side],
                           attach_db_orient, ORIENTED_SCHEMA).materialize()

    # -- 4. wedges per source, ordered by the same (deg, id) total order ---
    def wedge_part(b: pa.Table) -> pa.Table:
        u, v, dv = (b.column(c).to_numpy(zero_copy_only=False)
                    for c in ("u", "v", "dv"))
        order = np.lexsort((v, dv, u))
        u, v = u[order], v[order]
        # (dv, v)-sorted within each source: y before z
        i, j = segmented_pair_indices(np.r_[True, u[1:] != u[:-1]])
        return pa.table({"x": u[i], "y": v[i], "z": v[j]})

    wedges = segment_map(oriented, "u", wedge_part, WEDGE_SCHEMA)

    # -- 5. closing-edge probe: triangles ----------------------------------
    # a wedge (x; y, z) closes iff the oriented edge y -> z exists, so
    # wedges keyed by y meet the edges keyed by their source u
    def close_part(w: pa.Table, e: pa.Table) -> pa.Table:
        j = w.join(e, ["y", "z"], ["u", "v"], join_type="inner")
        return pa.table({"node": pa.concat_arrays(
            [j.column(c).combine_chunks() for c in ("x", "y", "z")])})

    members = cogroup_map(
        [(wedges, "y", WEDGE_SCHEMA),
         (oriented, "u", pa.schema([("u", pa.int64()), ("v", pa.int64())]))],
        close_part, NODE_SCHEMA)

    # -- 6. final co-group: host map + deg + triangle counts ---------------
    def finalize(m: pa.Table, d: pa.Table, tri: pa.Table) -> pa.Table:
        m = m.group_by("node").aggregate([("host", "min")])
        tc = tri.group_by("node").aggregate([("node", "count")])
        j = d.join(m, "node", join_type="inner").join(tc, "node")
        degv = j.column("deg").to_numpy(zero_copy_only=False)
        ntri = pc.fill_null(j.column("node_count"), 0) \
            .to_numpy(zero_copy_only=False)
        cm = np.zeros(len(j), dtype=np.int64)
        ok = degv >= 2
        cm[ok] = (2_000_000 * ntri[ok]) // (degv[ok] * (degv[ok] - 1))
        return pa.table({"host": j.column("host_min"), "deg": degv,
                         "n_tri": ntri, "clust_micro": cm})

    return cogroup_map(
        [(nmap, "node", HOST_NODE_SCHEMA), deg_side, (members, "node", NODE_SCHEMA)],
        finalize, pa.schema([("host", pa.string()), ("deg", pa.int64()),
                             ("n_tri", pa.int64()),
                             ("clust_micro", pa.int64())]))
