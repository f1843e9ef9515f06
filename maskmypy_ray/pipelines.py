"""Driver-facing query registry: one table of operators, one of rows.

``OPS`` holds every per-operator query once, as an :class:`Op`: its
engine function (``sf_dir`` -> Ray Dataset, pyarrow Table or pandas
frame) and the builder of its DuckDB oracle SQL. The builder is ``None``
for the rows-only operators, whose outputs are not SQL-expressible
(approximate search, fake media decode, layout passes). ``FULL_QUERIES``
and :func:`full_oracle_queries` are this table.

``ROWS`` holds the 50 rows the driver checks (``QUERIES`` and
:func:`oracle_queries`). A row is one of:

- the name of a single operator;
- a tagged union, :class:`Row` ``(schema, parts)``: a typed ``pa.Schema``
  plus a list of :class:`Part` ``(tag, op, cols)``. Each part projects
  one operator's output onto the schema, column by column: a source
  column name, a :class:`Const` or an exact int64 :class:`Pack`. Both
  sides of the union are generated from that one spec: the engine
  projection (:func:`_project`) and the SQL ``SELECT '<tag>' AS part,
  CAST(<src> AS <type>) AS <out>`` (:func:`_part_sql`), so both are cast
  to the declared schema. A part whose result is not a plain projection
  of its operator brings its own engine function and/or oracle;
- a hand-written ``Row(fn=..., sql=...)`` pair: ``geoparse`` through the
  full flagship pipeline and the horizontal joins ``evaluate`` and
  ``text_signals``.

Adding an operator is one ``OPS`` entry; putting it on the driver panel
is one ``Part`` in an existing row. Column names match between both
sides — the driver sorts columns by name before value-hashing.

Ray is assumed to be initialised by the caller (driver/test fixture);
nothing here calls ``ray.init``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from datetime import datetime

import numpy as np
import pyarrow as pa

from . import oracle
from .analysis.aggregates import summarize_k
from .analysis.displacement import displacement, summarize_displacement
from .analysis.k_anonymity import calculate_k
from .analysis.nnd import nnd
from .constants import DEFAULT_SEED, X_MAX, X_MIN, Y_MAX, Y_MIN
from .rng import sql_substream, sql_uniform01
from .sim.kmeans import kmeans_sql
from .sketches import cms_sql, hll_sql, int_histogram_sql, source_token_hll_sql
from .sources.boundary import boundary_polygon_set
from .sources.webpages import read_addresses, read_webpages
from .stages.donut import donut, donut_contained
from .stages.events import LATE_ARRIVAL_STREAM, LATE_DELAY_US, window_anomaly_sql
from .stages.geoparse import geoparse
from .stages.raster import RASTER_H, RASTER_W
from .stages.suppress import suppress
from .text.corpus import SAMPLE_K_SRC_STREAM
from .text.curate import curate_corpus_sql
from .text.dsir import dsir_sql
from .text.lines import dedup_lines_sql, line_filter_sql
from .text.lm import bm25_search_sql, zipf_fit_sql
from .text.quality import trimmed_source_stats_sql
from .text.rank import LINKS_PER_DOC
from .text.snapshots import snapshot_delta_sql


SEED = DEFAULT_SEED
LOW, HIGH = 100.0, 500.0


def points_ds(sf_dir: str, include_html: bool = False):
    return geoparse(read_webpages(sf_dir, seed=SEED, include_html=include_html))


def masked_ds(sf_dir: str, distribution: str = "uniform"):
    return donut(points_ds(sf_dir), LOW, HIGH, SEED, distribution)


def contained_ds(sf_dir: str):
    return donut_contained(points_ds(sf_dir), boundary_polygon_set(), LOW, HIGH, SEED)


def flagship(sf_dir: str):
    """read -> derive webpages -> geoparse -> contained donut ->
    displacement; the headline mask->verify pipeline (BASELINE.md §3)."""
    return displacement(contained_ds(sf_dir))


def k_ds(sf_dir: str):
    return calculate_k(flagship(sf_dir), read_addresses(sf_dir, seed=SEED))


# ---------------------------------------------------------------------------
# Per-operator queries: each ``q_*`` maps sf_dir -> Dataset | pandas |
# pyarrow, each ``_*_sql`` builds the matching DuckDB oracle.
# ---------------------------------------------------------------------------


def q_webpages(sf_dir: str):
    return read_webpages(sf_dir, seed=SEED, include_html=False).select_columns(
        ["url", "warc_ts", "text", "lang"])


def q_geoparse(sf_dir: str):
    return points_ds(sf_dir).select_columns(["url", "lat", "lon", "x", "y", "cell"])


def q_text_byte_identity(sf_dir: str):
    """text per url AFTER the full mask pipeline — must equal the pages
    derivation byte-for-byte (core invariant)."""
    return flagship(sf_dir).select_columns(["url", "text"])


def q_donut_uniform(sf_dir: str):
    return masked_ds(sf_dir, "uniform").select_columns(["url", "mx", "my"])


def q_donut_areal(sf_dir: str):
    return masked_ds(sf_dir, "areal").select_columns(["url", "mx", "my"])


def q_donut_gaussian(sf_dir: str):
    """Gaussian donut mask, coordinates rounded to 4 dp: DuckDB's
    ln/cos drift from numpy by <= 1 ulp (~1e-13 m here), so the oracle
    compares at sub-millimeter precision instead of rows-only
    (VERDICT r02 #10)."""
    import pyarrow.compute as pc

    def rounded(b: pa.Table) -> pa.Table:
        return pa.table({
            "url": b.column("url"),
            "mx": pc.round(b.column("mx"), 4),
            "my": pc.round(b.column("my"), 4),
        })

    return masked_ds(sf_dir, "gaussian").map_batches(rounded, batch_format="pyarrow")


def q_donut_contained(sf_dir: str):
    return contained_ds(sf_dir).select_columns(["url", "mx", "my", "UNMASKED"])


def q_displacement(sf_dir: str):
    return displacement(masked_ds(sf_dir)).select_columns(["url", "_distance"])


def q_displacement_summary(sf_dir: str):
    s = summarize_displacement(flagship(sf_dir))
    return pa.table({k: pa.array([v], type=pa.float64()) for k, v in s.items()})


def q_central_drift(sf_dir: str):
    from .analysis.aggregates import central_drift

    return pa.table({"central_drift": pa.array([central_drift(masked_ds(sf_dir))],
                                               type=pa.float64())})


def q_k_anonymity(sf_dir: str):

    k = k_ds(sf_dir)
    # attach url for the driver compare (doc_id is engine-internal)
    return k.map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "k_anonymity": b.column("k_anonymity"),
        }), batch_format="pyarrow")


def q_k_satisfaction(sf_dir: str):
    """All three satisfaction thresholds in ONE streaming pass: per-batch
    partial counters (n, n>=5, n>=25, n>=50) -> one scalar Sum
    (VERDICT r03 #8 — was materialize + three aggregate scans). Same
    round-3dp arithmetic as analysis.aggregates.k_satisfaction."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        k = b.column("k_anonymity").to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([len(k)], type=pa.int64()),
            "ge5": pa.array([int((k >= 5).sum())], type=pa.int64()),
            "ge25": pa.array([int((k >= 25).sum())], type=pa.int64()),
            "ge50": pa.array([int((k >= 50).sum())], type=pa.int64()),
        })

    agg = k_ds(sf_dir).map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("ge5", alias_name="ge5"),
        Sum("ge25", alias_name="ge25"), Sum("ge50", alias_name="ge50"))
    n = float(agg["n"])
    return pa.table({
        f"k_sat_{m}": pa.array([round(float(agg[f"ge{m}"]) / n, 3)],
                               type=pa.float64())
        for m in (5, 25, 50)})


def q_k_summary(sf_dir: str):
    s = summarize_k(k_ds(sf_dir))
    return pa.table({
        "k_min": pa.array([s["k_min"]], type=pa.int64()),
        "k_max": pa.array([s["k_max"]], type=pa.int64()),
        "k_med": pa.array([s["k_med"]], type=pa.float64()),
        "k_mean": pa.array([s["k_mean"]], type=pa.float64()),
    })


def q_nnd(sf_dir: str):
    s = nnd(points_ds(sf_dir))
    return pa.table({
        "nnd_min": pa.array([round(s["nnd_min"], 6)], type=pa.float64()),
        "nnd_max": pa.array([round(s["nnd_max"], 6)], type=pa.float64()),
        "nnd_mean": pa.array([round(s["nnd_mean"], 6)], type=pa.float64()),
    })


def q_addresses(sf_dir: str):
    return read_addresses(sf_dir, seed=SEED)


def q_suppress(sf_dir: str):
    """Suppression flags at min_k=50: one fused streaming chain — the
    broadcast k plan appends ``k_anonymity`` per batch (no driver-side
    re-join; VERDICT r01 #1). Materialized once because suppress needs a
    global mean-center aggregate before its conditional overwrite."""
    with_k = calculate_k(flagship(sf_dir), read_addresses(sf_dir, seed=SEED),
                         cell_m=HIGH, mode="broadcast", append=True).materialize()
    return suppress(with_k, min_k=50).select_columns(["url", "SUPPRESSED"])


def q_locationswap(sf_dir: str):
    from .sources.webpages import addresses_table
    from .stages.locationswap import locationswap

    addr = addresses_table(sf_dir, seed=SEED)
    return locationswap(points_ds(sf_dir), addr, LOW, HIGH, SEED).select_columns(
        ["url", "mx", "my", "UNMASKED"])


def q_street(sf_dir: str):
    """Street mask with SQL-checkable invariants (VERDICT r01 #2): the
    snap node IS SQL-expressible (argmin over the deterministic node
    table with one-round peel validity), and on_node verifies the walk
    output lies on the graph by independent exact coordinate membership.
    The Dijkstra walk's node choice itself stays pytest-verified."""
    import ray

    from .sources.roadgraph import synth_road_graph
    from .stages.street import street

    g = synth_road_graph()
    masked = street(points_ds(sf_dir), g, low=5, high=10, seed=SEED)
    ref = ray.put(g.node_x + 1j * g.node_y)

    def check(b: pa.Table) -> pa.Table:
        nc = ray.get(ref)
        c = b.column("mx").to_numpy(zero_copy_only=False) \
            + 1j * b.column("my").to_numpy(zero_copy_only=False)
        on = np.isin(c, nc).astype(np.int64)
        return pa.table({"url": b.column("url"),
                         "snap_node": b.column("snap_node"),
                         "on_node": pa.array(on, type=pa.int64())})

    return masked.map_batches(check, batch_format="pyarrow")


def q_street_sharded(sf_dir: str):
    """Street mask through the SHARDED graph loader (VERDICT r03 #7 —
    one graph shard per region, per-batch routing, actor-side LRU shard
    cache; the graph-exceeds-object-store regime of SURVEY §2.1 M3).
    The fixture domain is one region, so the shard graph is bit-identical
    to the broadcast graph and the street_mask SQL oracle applies
    unchanged — the routing layer itself is what this query gates.
    A two-region pytest (tests/test_street.py) covers true sharding."""
    import ray

    from .constants import X_MAX, X_MIN, Y_MAX, Y_MIN
    from .stages.street import make_street_shards, street_sharded

    shards = make_street_shards([(X_MIN, X_MAX, Y_MIN, Y_MAX)],
                                max_length=1000.0, seed=42)
    masked = street_sharded(points_ds(sf_dir), shards, low=5, high=10,
                            seed=SEED)
    g = ray.get(shards[0].graph_ref)
    ref = ray.put(g.node_x + 1j * g.node_y)

    def check(b: pa.Table) -> pa.Table:
        nc = ray.get(ref)
        c = b.column("mx").to_numpy(zero_copy_only=False) \
            + 1j * b.column("my").to_numpy(zero_copy_only=False)
        on = np.isin(c, nc).astype(np.int64)
        return pa.table({"url": b.column("url"),
                         "snap_node": b.column("snap_node"),
                         "on_node": pa.array(on, type=pa.int64())})

    return masked.map_batches(check, batch_format="pyarrow")


def q_snap_to_streets(sf_dir: str):
    """Donut mask + snap-to-streets post-pass. Full value-level oracle:
    nearest node = argmin-distance join against the deterministic node
    table (VERDICT r01 #2)."""
    from .sources.roadgraph import synth_road_graph
    from .stages.street import snap_to_streets

    return snap_to_streets(masked_ds(sf_dir), synth_road_graph()).select_columns(
        ["url", "mx", "my"])


def q_street_k(sf_dir: str):
    """Iterative street_k (M4, ref `maskmypy/masks/street.py:82-192`):
    driver loop {street mask -> fused k -> satisfaction} escalating depth
    until satisfied, then suppress sub-k points.

    The Dijkstra walk itself isn't SQL, so like `q_voronoi` this is
    verified by per-row invariants the oracle pins to 1 (exact output
    values are pytest-pinned, `tests/test_streetk_tools.py`):
    ``on_node`` — every non-suppressed output point sits EXACTLY on a
    road-graph node (or on its original coords, the no-valid-node
    fallback; suppressed points move to the mean center by contract);
    ``sup_ok`` — the SUPPRESSED label equals (k_anonymity < min_k)
    row-for-row."""
    import ray

    from .sources.roadgraph import synth_road_graph
    from .stages.street import street_k

    min_k = 3
    graph = synth_road_graph()
    out = street_k(points_ds(sf_dir), graph,
                   read_addresses(sf_dir, seed=SEED),
                   min_k=min_k, start=5, stop=60, spread=2, increment=4,
                   suppression=0.8, seed=SEED)
    nodes_ref = ray.put(np.sort(graph.node_x + 1j * graph.node_y))

    def check(b: pa.Table) -> pa.Table:
        nodes = ray.get(nodes_ref)
        mx = b.column("mx").to_numpy(zero_copy_only=False)
        my = b.column("my").to_numpy(zero_copy_only=False)
        x = b.column("x").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        k = b.column("k_anonymity").to_numpy(zero_copy_only=False)
        sup = np.asarray(b.column("SUPPRESSED").to_pylist()) == "TRUE"
        q = mx + 1j * my
        pos = np.minimum(np.searchsorted(nodes, q), len(nodes) - 1)
        is_node = nodes[pos] == q
        on_node = (is_node | sup | ((mx == x) & (my == y))).astype(np.int64)
        sup_ok = (sup == (k < min_k)).astype(np.int64)
        return pa.table({"url": b.column("url"),
                         "on_node": pa.array(on_node, type=pa.int64()),
                         "sup_ok": pa.array(sup_ok, type=pa.int64())})

    return out.map_batches(check, batch_format="pyarrow")


def q_voronoi(sf_dir: str):
    """Voronoi mask via the celled (10^12-row) shuffle path (VERDICT r01
    #4), verified by an independent invariant: every masked point must
    lie ON the Voronoi diagram — equidistant (within float tolerance)
    from its own site and the nearest other site, with no site strictly
    closer. The nearest other site is the first of the point's two
    nearest sites (the kNN kernel at k=2 over a site index) that is not
    its own site. The oracle pins on_boundary = 1 per url; the
    celled==broadcast value equality is pytest-checked."""
    import ray

    from .analysis.knn import DEFAULT_KNN_CELL_M, _knn_batch, knn_index
    from .stages.voronoi import voronoi_celled

    pts = points_ds(sf_dir).materialize()
    masked = voronoi_celled(pts, cell_m=1000.0, carry=("url",))
    sites = pts.select_columns(["doc_id", "x", "y"]).to_pandas().sort_values("doc_id")
    sk, sx, sy = (sites[c].to_numpy() for c in ("doc_id", "x", "y"))
    ref = ray.put((sk, sx, sy, knn_index(sx, sy, sk, DEFAULT_KNN_CELL_M)))

    def check(b: pa.Table) -> pa.Table:
        sk, sx, sy, idx = ray.get(ref)
        keys = b.column("doc_id").to_numpy(zero_copy_only=False)
        mx = b.column("mx").to_numpy(zero_copy_only=False)
        my = b.column("my").to_numpy(zero_copy_only=False)
        own = np.searchsorted(sk, keys)
        r = np.hypot(mx - sx[own], my - sy[own])
        row, _, site, d2 = _knn_batch(idx, mx, my, np.arange(len(keys)), 2)
        other = site != keys[row]
        dmin2 = np.full(len(keys), np.inf)
        np.minimum.at(dmin2, row[other], d2[other])
        dmin = np.sqrt(dmin2)
        on = (np.abs(r - dmin) <= 1e-6 + 1e-9 * r).astype(np.int64)
        return pa.table({"url": b.column("url"),
                         "on_boundary": pa.array(on, type=pa.int64())})

    return masked.map_batches(check, batch_format="pyarrow")


def _masked_sql(dist: str = "uniform") -> str:
    return oracle.donut_cte(SEED, LOW, HIGH, dist)


def _contained_with_distance() -> str:
    """Contained-mask CTE + _distance (the flagship's verify columns)."""
    return (f"{oracle.donut_contained_cte(SEED, LOW, HIGH)},\n"
            "flag AS (\n"
            "  SELECT *, sqrt((mx - x)*(mx - x) + (my - y)*(my - y)) AS _distance\n"
            "  FROM masked\n)")


def _k_sql() -> str:
    """k-anonymity CTE chain: flagship mask + addresses + exact-circle
    count join (predicate identical to the engine's)."""
    return (f"{_contained_with_distance()},\n"
            f"{oracle.addresses_cte(SEED)},\n"
            "kvals AS (\n"
            "  SELECT f.doc_id,\n"
            "         CAST(count(a.addr_id) + 1 AS BIGINT) AS k_anonymity\n"
            "  FROM flag f LEFT JOIN addr_xy a\n"
            "    ON (a.ax - f.mx)*(a.ax - f.mx) + (a.ay - f.my)*(a.ay - f.my)\n"
            "       <= f._distance * f._distance\n"
            "  GROUP BY f.doc_id\n)")


def _webpages_sql() -> str:
    return f"WITH {oracle.pages_cte(SEED)} SELECT url, warc_ts, text, lang FROM pages"


def _geoparse_sql() -> str:
    return f"WITH {oracle.points_cte(SEED)} SELECT url, lat, lon, x, y, cell FROM points"


def _text_byte_identity_sql() -> str:
    return f"WITH {oracle.points_cte(SEED)} SELECT url, text FROM points"


def _donut_sql(dist: str) -> str:
    return f"WITH {_masked_sql(dist)} SELECT url, mx, my FROM masked"


def _donut_gaussian_sql() -> str:
    # DuckDB's ln/cos drift <= 1 ulp from numpy, so the compare rounds
    # to 4 dp on BOTH sides (drift ~1e-13 m).
    return (f"WITH {_masked_sql('gaussian')} SELECT url, "
            "round(mx, 4) AS mx, round(my, 4) AS my FROM masked")


def _donut_contained_sql() -> str:
    return (f"WITH {oracle.donut_contained_cte(SEED, LOW, HIGH)} "
            "SELECT url, mx, my, UNMASKED FROM masked")


def _displacement_sql() -> str:
    return (f"WITH {_masked_sql('uniform')} SELECT url, "
            "sqrt((mx - x)*(mx - x) + (my - y)*(my - y)) AS _distance FROM masked")


def _displacement_summary_sql() -> str:
    return (f"WITH {_contained_with_distance()} SELECT "
            "round(min(_distance), 6) AS displacement_min, "
            "round(max(_distance), 6) AS displacement_max, "
            "round(median(_distance), 6) AS displacement_med, "
            "round(avg(_distance), 6) AS displacement_mean FROM flag")


def _central_drift_sql() -> str:
    return (f"WITH {_masked_sql('uniform')} SELECT "
            "round(sqrt((avg(mx) - avg(x))*(avg(mx) - avg(x)) "
            "+ (avg(my) - avg(y))*(avg(my) - avg(y))), 6) AS central_drift FROM masked")


def _k_anonymity_sql() -> str:
    return f"WITH {_k_sql()} SELECT doc_id, k_anonymity FROM kvals"


def _k_satisfaction_sql() -> str:
    return (
        f"WITH {_k_sql()} SELECT "
        "round(count(CASE WHEN k_anonymity >= 5 THEN 1 END) / CAST(count(*) AS DOUBLE), 3) AS k_sat_5, "
        "round(count(CASE WHEN k_anonymity >= 25 THEN 1 END) / CAST(count(*) AS DOUBLE), 3) AS k_sat_25, "
        "round(count(CASE WHEN k_anonymity >= 50 THEN 1 END) / CAST(count(*) AS DOUBLE), 3) AS k_sat_50 "
        "FROM kvals")


def _k_summary_sql() -> str:
    return (
        f"WITH {_k_sql()} SELECT "
        "CAST(min(k_anonymity) AS BIGINT) AS k_min, "
        "CAST(max(k_anonymity) AS BIGINT) AS k_max, "
        "round(median(k_anonymity), 2) AS k_med, "
        "round(avg(k_anonymity), 2) AS k_mean FROM kvals")


def _nnd_sql() -> str:
    return (
        f"WITH {oracle.points_cte(SEED)}, nn AS (\n"
        "  SELECT p.doc_id, min(sqrt((p.x - q.x)*(p.x - q.x) + (p.y - q.y)*(p.y - q.y))) AS nnd\n"
        "  FROM points p JOIN points q ON p.doc_id <> q.doc_id GROUP BY p.doc_id\n)"
        " SELECT round(min(nnd), 6) AS nnd_min, round(max(nnd), 6) AS nnd_max, "
        "round(avg(nnd), 6) AS nnd_mean FROM nn")


def _addresses_sql() -> str:
    return f"WITH {oracle.addresses_cte(SEED)} SELECT addr_id, lat, lon FROM addresses"


def _locationswap_sql() -> str:
    return (f"WITH {oracle.locationswap_cte(SEED, LOW, HIGH)} "
            "SELECT url, mx, my, UNMASKED FROM swapped")


def _suppress_sql() -> str:
    return (f"WITH {_k_sql()} SELECT f.url, "
            "CASE WHEN k.k_anonymity < 50 THEN 'TRUE' ELSE 'FALSE' END AS SUPPRESSED "
            "FROM flag f JOIN kvals k ON f.doc_id = k.doc_id")


def _street_k_sql() -> str:
    # like voronoi, the driver pins the engine's per-row invariants
    # (output on a graph node unless suppressed/fallback; SUPPRESSED ==
    # k < min_k) to 1 — the walk itself is pytest-pinned.
    return (f"WITH {oracle.points_cte(SEED)} "
            "SELECT url, CAST(1 AS BIGINT) AS on_node, "
            "CAST(1 AS BIGINT) AS sup_ok FROM points")


def _street_mask_sql() -> str:
    # snap-node assignment is fully SQL (node table + validity peel +
    # argmin join); on_node pins the engine's independent
    # output-on-graph membership check to 1. The single-region sharded
    # loader equals the broadcast graph, so both share this oracle.
    return (f"WITH {oracle.points_cte(SEED)},\n{oracle.road_nodes_cte(SEED)},\n"
            f"{oracle.street_snap_cte(SEED)} "
            "SELECT url, snap_node, CAST(1 AS BIGINT) AS on_node FROM street_snap")


def _snap_to_streets_sql() -> str:
    # full value oracle: argmin-distance join of the donut-masked
    # points against the node table
    return (
        f"WITH {oracle.donut_cte(SEED, LOW, HIGH, 'uniform')},\n"
        f"{oracle.road_nodes_cte(SEED)},\n"
        "msk AS MATERIALIZED (SELECT url, mx, my FROM masked),\n"
        "sn AS (\n"
        "  SELECT m.url, n.x, n.y,\n"
        "         row_number() OVER (\n"
        "           PARTITION BY m.url\n"
        "           ORDER BY (n.x - m.mx)*(n.x - m.mx) + (n.y - m.my)*(n.y - m.my), n.node_id\n"
        "         ) AS rk\n"
        "  FROM msk m CROSS JOIN nodes n\n"
        ") SELECT url, x AS mx, y AS my FROM sn WHERE rk = 1")


def _voronoi_sql() -> str:
    # invariant oracle: the engine's independent brute-force on-diagram
    # check must hold for every point
    return (f"WITH {oracle.points_cte(SEED)} "
            "SELECT url, CAST(1 AS BIGINT) AS on_boundary FROM points")


# ---------------------------------------------------------------------------
# Training-data operators (text analysis, dedup, similarity, multimodal)
# ---------------------------------------------------------------------------

_TOKEN_RE_SQL = "[a-z0-9]+"
_STOP_RE_SQL = r"\b(the|a|and|of|to)\b"


def _docs_ds(sf_dir: str):
    import ray.data

    # 16 blocks: the fixture table is tiny, and Ray's default split
    # would make every downstream shuffle pay quadratic per-object cost
    # on near-empty blocks (see bench.py SMALL_NB)
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)


def _emb_ds(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding"],
                                 override_num_blocks=16)


def q_token_stats(sf_dir: str):
    from .text.quality import token_stats

    return token_stats(_docs_ds(sf_dir))


def q_quality_score(sf_dir: str):
    from .text.quality import quality_score

    return quality_score(_docs_ds(sf_dir))


def q_lang_id(sf_dir: str):
    from .text.quality import lang_id

    return lang_id(_docs_ds(sf_dir))


def q_fingerprint(sf_dir: str):
    from .text.quality import fingerprint

    return fingerprint(_docs_ds(sf_dir))


def q_dedup_exact(sf_dir: str):
    from .text.dedup import exact_dedup_groups

    return exact_dedup_groups(_docs_ds(sf_dir))


def q_dedup_jaccard(sf_dir: str):
    from .text.dedup import jaccard_pairs_exact

    return jaccard_pairs_exact(_docs_ds(sf_dir), threshold=0.9)


def q_dedup_jaccard_ngram(sf_dir: str):
    """Exact all-pairs word-5-gram-shingle Jaccard >= 0.8 over the
    corpus + mutated copies — the n-gram flavor of dedup_jaccard and the
    exact superset twin of dedup_minhash (value-checked; the minhash
    recall pytest compares against this same pair set)."""
    from .text.dedup import jaccard_pairs_exact, with_mutated_copies

    return jaccard_pairs_exact(with_mutated_copies(_docs_ds(sf_dir)),
                               threshold=0.8, use_shingles=True)


def q_token_count(sf_dir: str):
    """Whitespace + BPE-ish-regex token counts per doc — the two standard
    corpus-size estimators for training-data budgeting (value-checked:
    both engines run RE2, so match counts are identical)."""
    from .text.quality import token_count

    return token_count(_docs_ds(sf_dir))


def q_fingerprint_winnow(sf_dir: str):
    """Winnowing document sketch (Schleimer et al. 2003): distinct
    sliding-window minima over positional 5-gram hashes, window 4
    (value-checked via oracle.winnow_sql)."""
    from .text.quality import winnow_fingerprint

    return winnow_fingerprint(_docs_ds(sf_dir))


def q_dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup pairs over the corpus + mutated copies
    (value-checked: oracle.minhash_pairs_sql reproduces the banded
    bucket join + exact-Jaccard verify bit-for-bit; recall vs exact is
    also pytest-checked)."""
    from .text.dedup import minhash_lsh_pairs, with_mutated_copies

    return minhash_lsh_pairs(with_mutated_copies(_docs_ds(sf_dir)),
                             threshold=0.8)


def q_dedup_simhash(sf_dir: str):
    """SimHash hamming<=3 pairs (value-checked: band blocking is
    pigeonhole-complete, so oracle.simhash_pairs_sql's direct
    bit_count(xor) join is the exact same pair set)."""
    from .text.dedup import simhash_pairs, with_mutated_copies

    return simhash_pairs(with_mutated_copies(_docs_ds(sf_dir)))


def q_embedding_pairs(sf_dir: str):
    from .sim.ann import cosine_pairs

    return cosine_pairs(_emb_ds(sf_dir), threshold=0.4)


def q_ann_topk(sf_dir: str):
    from .sim.ann import cosine_topk

    out = cosine_topk(_emb_ds(sf_dir), query_ids=list(range(20)), k=10)
    return out.select_columns(["query_id", "rank", "vec_id"])


def q_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate top-k (rows-only oracle; recall vs brute
    force is pytest-checked)."""
    from .sim.ann import lsh_topk

    out = lsh_topk(_emb_ds(sf_dir), query_ids=list(range(20)), k=10)
    return out.select_columns(["query_id", "rank", "vec_id"])


def q_ann_ivf(sf_dir: str):
    """IVF cluster-then-probe approximate top-k (rows-only oracle;
    recall vs brute force is pytest-checked)."""
    from .sim.ann import ivf_topk

    out = ivf_topk(_emb_ds(sf_dir), query_ids=list(range(20)), k=10)
    return out.select_columns(["query_id", "rank", "vec_id"])


def q_ann_pairs_lsh(sf_dir: str):
    """Banded sign-LSH cosine-threshold pairs — the scale path beside
    the broadcast all-pairs ``embedding_pairs`` (rows-only oracle;
    recall vs brute force is pytest-checked >= 0.9).

    Registered at the SemDeDup near-dup operating point (VERDICT r04
    #4): threshold 0.9 over the corpus + deterministic perturbed
    near-dup copies (the fixture's natural max cosine is ~0.48, so the
    high-threshold regime needs seeded near-dups, exactly like
    ``with_mutated_copies`` seeds the text dedup queries). At this
    point :func:`auto_lsh_params` gives b=10/L=10 with ~1% expected
    candidate density — the regime LSH exists for — instead of the old
    fixed b=4/L=16 at threshold 0.4 whose 64% density degraded the
    join to near-O(n^2)."""
    from .sim.ann import cosine_pairs_lsh, with_perturbed_copies

    out = cosine_pairs_lsh(with_perturbed_copies(_emb_ds(sf_dir)),
                           threshold=0.9)
    return out.select_columns(["vec_a", "vec_b"])


def q_repetition(sf_dir: str):
    """Gopher-style per-doc repetition signals (dup-word / top-word /
    top-bigram fractions) — value-checked against a DuckDB unnest+window
    twin."""
    from .text.quality import repetition

    return repetition(_docs_ds(sf_dir))


def q_source_stats(sf_dir: str):
    """Per-source corpus stats with partial sums combined inside
    map_batches before the groupby (shuffle volume = sources x blocks)."""
    import ray.data

    from .text.quality import source_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])
    return source_stats(ds)


def q_ngram_topk(sf_dir: str):
    """Corpus-wide top-20 word bigrams: partial counts per batch, one
    groupby sum, deterministic (count desc, gram asc) top-k."""
    from .text.quality import ngram_topk

    return ngram_topk(_docs_ds(sf_dir), k=20)


def q_sample_mix(sf_dir: str):
    """Stratified data-mix sampling: counter-RNG keyed on doc_id vs a
    per-source keep fraction — deterministic at any parallelism, and the
    RNG mirrors into SQL so the oracle is bit-exact."""
    import ray.data

    from .text.corpus import stratified_sample

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])
    return stratified_sample(ds, seed=SEED)


def q_dedup_spans(sf_dir: str):
    """Substring-level dedup signal (Lee et al. 2022 ExactSubstr,
    fixed-k variant): word 15-grams occurring in >= 2 distinct docs."""
    from .text.dedup import duplicated_spans

    return duplicated_spans(_docs_ds(sf_dir), k=15)


def q_quality_filter(sf_dir: str):
    """Fused single-pass curation decision: length + repetition +
    stopword gates with a per-doc drop reason."""
    from .text.quality import quality_filter

    return quality_filter(_docs_ds(sf_dir))


def q_decontaminate(sf_dir: str):
    """Benchmark n-gram decontamination: broadcast benchmark gram set,
    vectorized membership per batch (text/corpus.py)."""
    from .text.corpus import decontaminate

    return decontaminate(_docs_ds(sf_dir), n=5)


def q_dedup_semantic(sf_dir: str):
    """SemDeDup: spherical-kmeans clusters + within-cluster greedy
    cosine dedup (rows-only oracle — kmeans is iterative, not SQL;
    the keep/drop invariant is pinned by pytest). Threshold 0.4 matches
    the fixture's cosine range (the paper's ~0.95 would be vacuous on
    synthetic gaussian-mixture embeddings whose max neighbor cos ~0.48)."""
    from .sim.semdedup import semantic_dedup

    return semantic_dedup(_emb_ds(sf_dir), threshold=0.4, nlist=16)


def q_media_metadata(sf_dir: str):
    from .multimodal.media import media_metadata

    return media_metadata(read_webpages(sf_dir, seed=SEED, include_html=True))


def q_media_decode(sf_dir: str):
    """Decode-stub plumbing over the binary column (rows-only oracle)."""
    from .multimodal.media import decode_media, resize_media

    decoded = decode_media(read_webpages(sf_dir, seed=SEED, include_html=True),
                           fake=True, height=8, width=8)
    return resize_media(decoded, out_h=4, out_w=4).select_columns(
        ["url", "height", "width"])


def _token_count_sql() -> str:
    from .text.quality import BPE_RE, WS_RE

    bpe = BPE_RE.replace("'", "''")
    return (f"SELECT doc_id, "
            f"CAST(len(regexp_extract_all(text, '{WS_RE}')) AS BIGINT) AS n_ws_tokens, "
            f"CAST(len(regexp_extract_all(text, '{bpe}')) AS BIGINT) AS n_bpe_tokens "
            "FROM documents")


_TOKS_LIST_SQL = ("list_filter(string_split_regex(lower(text), '[^a-z0-9]+'), "
                  "x -> x <> '')")


def _repetition_sql() -> str:
    return (
        f"WITH t AS (SELECT doc_id, {_TOKS_LIST_SQL} AS toks FROM documents), "
        "w AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
        "wc AS (SELECT doc_id, tok, COUNT(*) AS c FROM w GROUP BY doc_id, tok), "
        "ws AS (SELECT doc_id, SUM(c) AS n, COUNT(*) AS d, MAX(c) AS mxw "
        "FROM wc GROUP BY doc_id), "
        "zz AS (SELECT doc_id, unnest(list_zip(toks, toks[2:])) AS z FROM t), "
        "bg AS (SELECT doc_id, struct_extract(z,1) AS a, struct_extract(z,2) AS b "
        "FROM zz WHERE struct_extract(z,2) IS NOT NULL), "
        "bgc AS (SELECT doc_id, a, b, COUNT(*) AS c FROM bg GROUP BY doc_id, a, b), "
        "bgs AS (SELECT doc_id, SUM(c) AS nb, MAX(c) AS mxb FROM bgc GROUP BY doc_id) "
        "SELECT t.doc_id, "
        "CASE WHEN ws.n > 0 THEN (ws.n - ws.d) / CAST(ws.n AS DOUBLE) ELSE 0.0 END "
        "AS dup_word_frac, "
        "CASE WHEN ws.n > 0 THEN ws.mxw / CAST(ws.n AS DOUBLE) ELSE 0.0 END "
        "AS top_word_frac, "
        "CASE WHEN bgs.nb > 0 THEN bgs.mxb / CAST(bgs.nb AS DOUBLE) ELSE 0.0 END "
        "AS top_bigram_frac "
        "FROM t LEFT JOIN ws ON t.doc_id = ws.doc_id "
        "LEFT JOIN bgs ON t.doc_id = bgs.doc_id")


def _quality_filter_sql(min_tokens: int = 10, max_top_word: float = 0.5,
                        min_stop: float = 0.05) -> str:
    tok = f"regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}')"
    stop = f"regexp_extract_all(lower(text), '{_STOP_RE_SQL}')"
    ratio = ("CASE WHEN len(" + tok + ") > 0 THEN len(" + stop
             + ") / CAST(greatest(len(" + tok + "), 1) AS DOUBLE) ELSE 0.0 END")
    return (
        f"WITH t AS (SELECT doc_id, {_TOKS_LIST_SQL} AS toks FROM documents), "
        "w AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
        "wc AS (SELECT doc_id, tok, COUNT(*) AS c FROM w GROUP BY doc_id, tok), "
        "ws AS (SELECT doc_id, SUM(c) AS n, MAX(c) AS mxw FROM wc GROUP BY doc_id), "
        f"s AS (SELECT doc_id, CAST(len({tok}) AS BIGINT) AS n, {ratio} AS r "
        "FROM documents) "
        "SELECT s.doc_id, "
        f"CAST(CASE WHEN s.n >= {min_tokens} "
        f"AND COALESCE(ws.mxw / CAST(ws.n AS DOUBLE), 0.0) < {max_top_word} "
        f"AND s.r >= {min_stop} THEN 1 ELSE 0 END AS BIGINT) AS keep, "
        f"CASE WHEN s.n < {min_tokens} THEN 'too_short' "
        f"WHEN COALESCE(ws.mxw / CAST(ws.n AS DOUBLE), 0.0) >= {max_top_word} "
        "THEN 'repetitive' "
        f"WHEN s.r < {min_stop} THEN 'unnatural' ELSE 'kept' END AS reason "
        "FROM s LEFT JOIN ws ON s.doc_id = ws.doc_id")


def _dedup_spans_sql(k: int = 15) -> str:
    from .oracle import SQL_TOKEN_CODES, sql_gram_list_expr

    return (
        "WITH tl AS (SELECT doc_id, "
        f"regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}') AS l FROM documents), "
        f"tc AS (SELECT doc_id, {SQL_TOKEN_CODES} AS c FROM tl), "
        "gr AS (SELECT DISTINCT doc_id, gram_hash FROM (SELECT doc_id, "
        f"unnest({sql_gram_list_expr(k, 'skip')}) AS gram_hash FROM tc)) "
        "SELECT gram_hash, CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "MIN(doc_id) AS first_doc "
        "FROM gr GROUP BY gram_hash HAVING COUNT(*) >= 2")


def _ngram_topk_sql(k: int = 20) -> str:
    return (
        f"WITH t AS (SELECT doc_id, {_TOKS_LIST_SQL} AS toks FROM documents), "
        "zz AS (SELECT doc_id, unnest(list_zip(toks, toks[2:])) AS z FROM t), "
        "bg AS (SELECT struct_extract(z,1) || ' ' || struct_extract(z,2) AS gram "
        "FROM zz WHERE struct_extract(z,2) IS NOT NULL) "
        "SELECT gram, CAST(COUNT(*) AS BIGINT) AS n FROM bg GROUP BY gram "
        f"ORDER BY n DESC, gram ASC LIMIT {k}")


def _sample_mix_sql(seed: int) -> str:
    from .rng import sql_uniform01
    from .text.corpus import SAMPLE_STREAM

    u = sql_uniform01("doc_id", seed, SAMPLE_STREAM)
    # NULLIF/COALESCE: a digitless source parses to 0 on both sides
    # (engine: int('' or 0); bare CAST('' AS BIGINT) would error)
    frac = ("(1 + CAST(COALESCE(NULLIF("
            "regexp_replace(source, '[^0-9]', '', 'g'), ''), '0') AS BIGINT) "
            "% 4) / 5.0")
    return (f"SELECT doc_id, source FROM documents WHERE {u} < {frac}")


def _source_stats_sql() -> str:
    return (
        "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
        f"CAST(SUM(len(regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}'))) "
        "AS BIGINT) AS n_tokens, "
        "CAST(SUM(len(text)) AS BIGINT) AS n_chars, "
        "CAST(SUM(len(text)) AS DOUBLE) / COUNT(*) AS avg_chars "
        "FROM documents GROUP BY source")


def _decontaminate_sql(n: int = 5, mod: int = 97) -> str:
    zips = ", ".join(["toks"] + [f"toks[{i}:]" for i in range(2, n + 1)])
    gram = " || ' ' || ".join(f"struct_extract(z,{i})" for i in range(1, n + 1))
    return (
        f"WITH t AS (SELECT doc_id, {_TOKS_LIST_SQL} AS toks FROM documents), "
        f"zz AS (SELECT doc_id, unnest(list_zip({zips})) AS z FROM t), "
        f"g AS (SELECT DISTINCT doc_id, {gram} AS gram FROM zz "
        f"WHERE struct_extract(z,{n}) IS NOT NULL), "
        f"bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % {mod} = 0), "
        f"hits AS (SELECT g.doc_id, COUNT(bench.gram) AS nh FROM g "
        f"LEFT JOIN bench USING (gram) WHERE g.doc_id % {mod} <> 0 "
        "GROUP BY g.doc_id) "
        "SELECT t.doc_id, CAST(COALESCE(hits.nh, 0) AS BIGINT) AS n_hit_grams, "
        "CAST(CASE WHEN COALESCE(hits.nh, 0) > 0 THEN 1 ELSE 0 END AS BIGINT) "
        "AS contaminated "
        "FROM t LEFT JOIN hits ON t.doc_id = hits.doc_id "
        f"WHERE t.doc_id % {mod} <> 0")


def _lang_sql() -> str:
    from .text.quality import LANG_MARKERS

    counts = ", ".join(
        f"len(regexp_extract_all(lower(text), '{pat}')) AS c_{code}"
        for code, pat in LANG_MARKERS)
    codes = [code for code, _ in LANG_MARKERS]
    whens = []
    for i, code in enumerate(codes):
        conds = " AND ".join(f"c_{code} >= c_{other}" for other in codes[i + 1:])
        whens.append(f"WHEN {conds or 'TRUE'} THEN '{code}'")
    case = ("CASE WHEN " + " + ".join(f"c_{c}" for c in codes) + " = 0 "
            "THEN 'und' " + " ".join(whens) + " END")
    return (f"WITH c AS (SELECT doc_id, {counts} FROM documents) "
            f"SELECT doc_id, {case} AS lang_pred FROM c")


_TOK_SQL = f"regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}')"
_STOP_SQL = f"regexp_extract_all(lower(text), '{_STOP_RE_SQL}')"
_STOP_RATIO_SQL = ("CASE WHEN len(" + _TOK_SQL + ") > 0 THEN len(" + _STOP_SQL
                   + ") / CAST(greatest(len(" + _TOK_SQL + "), 1) AS DOUBLE) ELSE 0.0 END")
_QUALITY_SQL = (f"least(len({_TOK_SQL}) / 50.0, 1.0) * 0.5 "
                f"+ least(({_STOP_RATIO_SQL}) * 5.0, 1.0) * 0.5")


def _token_stats_sql() -> str:
    return (f"SELECT doc_id, CAST(len({_TOK_SQL}) AS BIGINT) AS n_tokens, "
            f"CAST(len({_STOP_SQL}) AS BIGINT) AS n_stopwords, "
            f"{_STOP_RATIO_SQL} AS stop_ratio FROM documents")


def _quality_score_sql() -> str:
    return f"SELECT doc_id, {_QUALITY_SQL} AS quality_score FROM documents"


def _fingerprint_sql() -> str:
    return (f"SELECT doc_id, md5(array_to_string(list_sort(list_distinct({_TOK_SQL})), ' ')) "
            "AS fingerprint FROM documents")


def _dedup_exact_sql() -> str:
    return ("SELECT md5(text) AS h, min(doc_id) AS keeper FROM documents "
            "GROUP BY md5(text)")


def _dedup_jaccard_sql() -> str:
    return (
        f"WITH tk AS (SELECT doc_id, list_distinct({_TOK_SQL}) AS t FROM documents), "
        "p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "len(list_intersect(a.t, b.t)) AS i, len(a.t) AS la, len(b.t) AS lb "
        "FROM tk a JOIN tk b ON a.doc_id < b.doc_id) "
        "SELECT doc_a, doc_b, i / CAST(la + lb - i AS DOUBLE) AS sim FROM p "
        "WHERE i / CAST(la + lb - i AS DOUBLE) >= 0.9")


def _embedding_pairs_sql() -> str:
    return ("SELECT a.vec_id AS vec_a, b.vec_id AS vec_b FROM embeddings a "
            "JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4")


def _ann_topk_sql() -> str:
    return (
        "WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 20), "
        "s AS (SELECT q.vec_id AS query_id, e.vec_id, "
        "list_cosine_similarity(q.embedding, e.embedding) AS sim "
        "FROM q JOIN embeddings e ON e.vec_id <> q.vec_id), "
        "r AS (SELECT query_id, vec_id, CAST(row_number() OVER "
        "(PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank "
        "FROM s) SELECT query_id, rank, vec_id FROM r WHERE rank <= 10")


_MEDIA_HTML_SQL = "'<html><body>' || text || '</body></html>'"


def _media_metadata_sql() -> str:
    return (f"WITH {oracle.pages_cte(SEED)} SELECT url, "
            f"CAST(octet_length(encode({_MEDIA_HTML_SQL})) AS BIGINT) "
            "AS media_bytes, "
            f"md5({_MEDIA_HTML_SQL}) AS media_md5 FROM pages")


# ---------------------------------------------------------------------------
# Analysis queries: areal k, Ripley's K, evaluate(), checkpointed runs
# ---------------------------------------------------------------------------


def q_estimate_k_areal(sf_dir: str):
    """Polygon-population (areal) k-anonymity over the boundary grid
    (A4; exact circle∩polygon Green's-theorem kernel — rows-only)."""
    from .analysis.k_anonymity import estimate_k

    return estimate_k(flagship(sf_dir), boundary_polygon_set())


def q_ripley(sf_dir: str):
    """Ripley's K of the sensitive pattern (A11): support + K̂ + p-value
    per band with 19 seeded CSR simulations (value-checked:
    oracle.ripley_sql replays the counter-RNG CSR draws and pair-count
    bands in SQL; flagged slow in the reference, `analysis.py:40-43`)."""
    from .analysis.ripley import ripleys_k

    r = ripleys_k(points_ds(sf_dir), simulations=19, seed=SEED)
    return pa.table({
        "band": pa.array(np.arange(1, len(r.support) + 1), type=pa.int64()),
        "support": pa.array(np.round(r.support, 6), type=pa.float64()),
        "k_stat": pa.array(np.round(r.statistic, 6), type=pa.float64()),
        "pvalue": pa.array(np.round(r.pvalue, 6), type=pa.float64()),
    })


def _evaluate_sql() -> str:
    """One-row SQL twin of q_evaluate: every scalar in the evaluate()
    stats dict (central drift, displacement summary, nnd deltas on both
    patterns, k summary + satisfaction) assembled from the same CTEs the
    component oracles use — value-checked, not rows-only."""
    return f"""WITH {_k_sql()},
nnb AS (
  SELECT p.doc_id, min(sqrt((p.x - q.x)*(p.x - q.x) + (p.y - q.y)*(p.y - q.y))) AS nnd
  FROM flag p JOIN flag q ON p.doc_id <> q.doc_id GROUP BY p.doc_id),
nna AS (
  SELECT p.doc_id, min(sqrt((p.mx - q.mx)*(p.mx - q.mx) + (p.my - q.my)*(p.my - q.my))) AS nnd
  FROM flag p JOIN flag q ON p.doc_id <> q.doc_id GROUP BY p.doc_id),
nb AS (SELECT min(nnd) AS mn, max(nnd) AS mx, avg(nnd) AS me FROM nnb),
na AS (SELECT min(nnd) AS mn, max(nnd) AS mx, avg(nnd) AS me FROM nna),
disp AS (
  SELECT round(min(_distance), 6) AS displacement_min,
         round(max(_distance), 6) AS displacement_max,
         round(median(_distance), 6) AS displacement_med,
         round(avg(_distance), 6) AS displacement_mean FROM flag),
cd AS (
  SELECT round(sqrt((avg(mx) - avg(x))*(avg(mx) - avg(x))
             + (avg(my) - avg(y))*(avg(my) - avg(y))), 6) AS central_drift FROM flag),
ks AS (
  SELECT CAST(min(k_anonymity) AS DOUBLE) AS k_min,
         CAST(max(k_anonymity) AS DOUBLE) AS k_max,
         round(median(k_anonymity), 2) AS k_med,
         round(avg(k_anonymity), 2) AS k_mean,
         round(count(CASE WHEN k_anonymity >= 5 THEN 1 END) / CAST(count(*) AS DOUBLE), 3) AS k_satisfaction_5,
         round(count(CASE WHEN k_anonymity >= 25 THEN 1 END) / CAST(count(*) AS DOUBLE), 3) AS k_satisfaction_25,
         round(count(CASE WHEN k_anonymity >= 50 THEN 1 END) / CAST(count(*) AS DOUBLE), 3) AS k_satisfaction_50
  FROM kvals)
SELECT cd.central_drift,
       disp.displacement_min, disp.displacement_max, disp.displacement_med,
       disp.displacement_mean,
       round(na.mn - nb.mn, 6) AS nnd_min_delta,
       round(na.mx - nb.mx, 6) AS nnd_max_delta,
       round(na.me - nb.me, 6) AS nnd_mean_delta,
       ks.k_min, ks.k_max, ks.k_med, ks.k_mean,
       ks.k_satisfaction_5, ks.k_satisfaction_25, ks.k_satisfaction_50
FROM cd, disp, na, nb, ks"""


def q_evaluate(sf_dir: str):
    """Full evaluate() stats dict (A13) over the flagship mask + address
    population — one row of scalars (value-checked via _evaluate_sql)."""
    from .analysis.evaluate import evaluate

    stats = evaluate(contained_ds(sf_dir), population=read_addresses(sf_dir, seed=SEED))
    return pa.table({k: pa.array([float(v)], type=pa.float64())
                     for k, v in sorted(stats.items())})


def q_checkpointed_flagship(sf_dir: str):
    """Flagship via the per-shard checkpoint/resume runner (writes
    partitioned parquet + manifests to /tmp, then reads back; rows-only).
    Proves the resumable path produces the same rows as the direct one."""
    import shutil
    import tempfile

    from .checkpoint import read_checkpointed, run_checkpointed

    out = tempfile.mkdtemp(prefix="ckpt_flagship_")

    def pipeline(ds):
        from .analysis.displacement import displacement
        from .stages.donut import donut_contained
        from .stages.geoparse import geoparse

        return displacement(donut_contained(geoparse(ds), boundary_polygon_set(),
                                            LOW, HIGH, SEED))

    run_checkpointed(sf_dir, pipeline, out, {"mask": "donut_contained",
                                             "low": LOW, "high": HIGH},
                     num_shards=4, seed=SEED)
    res = read_checkpointed(out).select_columns(["url", "mx", "my"]).to_pandas()
    shutil.rmtree(out, ignore_errors=True)
    return res


def _estimate_k_areal_sql() -> str:
    # the SQL mirrors the engine's Green's-theorem edge kernel
    # case-for-case (the fixture polygons ARE rectangles, so 4 edges each)
    return (f"WITH {_contained_with_distance()},\n{oracle.areal_k_cte(SEED)} "
            "SELECT doc_id, k_anonymity FROM areal")


def _checkpointed_flagship_sql() -> str:
    # the checkpointed run equals the direct contained mask
    return (f"WITH {oracle.donut_contained_cte(SEED, LOW, HIGH)} "
            "SELECT url, mx, my FROM masked")


# ---------------------------------------------------------------------------
# Stream-shaped operators over the events table (windowed aggregate,
# as-of join, range join) — exact DuckDB oracles.
# ---------------------------------------------------------------------------


def q_tumbling_window(sf_dir: str):
    import ray.data

    from .stages.events import tumbling_window

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "value"])
    return tumbling_window(ev)


def q_asof_join(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from .stages.events import asof_join_orders

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return asof_join_orders(ev, orders)


def q_range_join(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from .stages.events import range_join_parts

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_retailprice"])
    return range_join_parts(ev, part)


def q_sessionize(sf_dir: str):
    import ray.data

    from .stages.events import sessionize

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    return sessionize(ev)


def _tumbling_window_sql() -> str:
    return ("SELECT user_id, epoch_us(ts) // 3600000000 AS window_id, "
            "CAST(count(*) AS BIGINT) AS n_events, "
            "round(sum(value), 6) AS sum_value "
            "FROM events GROUP BY user_id, epoch_us(ts) // 3600000000")


def _asof_join_sql() -> str:
    return ("SELECT e.event_id, COALESCE((SELECT o.o_orderkey FROM orders o "
            "WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts "
            "ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1), -1) "
            "AS last_orderkey FROM events e")


def _range_join_sql() -> str:
    return ("SELECT e.event_id, CAST((SELECT count(*) FROM part p "
            "WHERE p.p_retailprice >= 900.0 + e.value / 5.0 - 10.0 "
            "AND p.p_retailprice <= 900.0 + e.value / 5.0 + 10.0) AS BIGINT) "
            "AS n_parts FROM events e")


def _sessionize_sql() -> str:
    return ("SELECT event_id, user_id, CAST(SUM(CASE WHEN prev IS NOT NULL "
            "AND epoch_us(ts) - epoch_us(prev) > 1800000000 THEN 1 ELSE 0 END) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq "
            "FROM (SELECT event_id, user_id, ts, lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS prev FROM events)")


# ---------------------------------------------------------------------------
# Round-3 curation additions: PII masking, chunk dedup, duplicate
# clustering, exact quantiles, hopping window, per-source top-k.
# ---------------------------------------------------------------------------


def _docs_with_source(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "source"])


def q_pii_stats(sf_dir: str):
    """PII match counts per doc over the deterministically-seeded
    corpus (text.pii; the masking engine's string-space twin)."""
    from .text.pii import pii_stats, with_pii

    return pii_stats(with_pii(_docs_ds(sf_dir)))


def q_pii_redact(sf_dir: str):
    """Redacted corpus: emails/IPs/phones replaced by typed tokens."""
    from .text.pii import pii_redact, with_pii

    return pii_redact(with_pii(_docs_ds(sf_dir)))


def q_chunk_dedup(sf_dir: str):
    """Cross-document duplicate 16-token chunks removed; docs
    reassembled from surviving chunks (text.chunks)."""
    from .text.chunks import chunk_dedup
    from .text.dedup import with_mutated_copies

    return chunk_dedup(with_mutated_copies(_docs_ds(sf_dir)))


_DUP_CLUSTERS_CACHE: dict = {}


def _dup_clusters_materialized(sf_dir: str):
    """duplicate_clusters over the mutated corpus, materialized once per
    (Ray session, sf_dir) — dup_clusters and dedup_survivors share the
    same label-propagation result instead of re-running it. Keyed on the
    Ray session id (ADVICE r03): a materialized Dataset's object refs die
    with the session, so a plain sf_dir key would hand out lost objects
    after ray.shutdown()/re-init in the same process."""
    import ray

    session = ray.get_runtime_context().get_job_id() \
        if ray.is_initialized() else None
    key = (session, sf_dir)
    if key not in _DUP_CLUSTERS_CACHE:
        from .text.clusters import duplicate_clusters

        _DUP_CLUSTERS_CACHE.clear()  # refs from dead sessions are useless
        _DUP_CLUSTERS_CACHE[key] = duplicate_clusters(
            _docs_ds(sf_dir), threshold=0.8, ngram=5).materialize()
    return _DUP_CLUSTERS_CACHE[key]


def q_dup_clusters(sf_dir: str):
    """Connected-component cluster id per doc over banded MinHash-LSH
    near-dup pair edges verified at 5-gram-Jaccard >= 0.8
    (text.clusters large-star/small-star over minhash_lsh_pairs —
    the composition that scales past the O(n^2) exact-pairs guard)."""
    return _dup_clusters_materialized(sf_dir)


_QUANTILE_QS = [0.01, 0.25, 0.5, 0.75, 0.99]


def q_quantiles(sf_dir: str):
    """Exact lower-order-statistic quantiles of lineitem extendedprice
    via the distributed histogram-refinement kernel — the column never
    reaches the driver."""
    import ray.data

    from .analysis.aggregates import exact_quantiles_distributed

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])
    vals = exact_quantiles_distributed(li, "l_extendedprice", _QUANTILE_QS,
                                       max_collect=4096)
    return pa.table({
        "q": pa.array(_QUANTILE_QS, type=pa.float64()),
        "value": pa.array(vals, type=pa.float64()),
    })


def q_hopping_window(sf_dir: str):
    import ray.data

    from .stages.events import hopping_window

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type", "value"])
    return hopping_window(ev)


def q_top_quality_per_source(sf_dir: str):
    from .text.quality import top_quality_per_source

    return top_quality_per_source(_docs_with_source(sf_dir), k=3)


def _quantiles_sql() -> str:
    return ("WITH s AS (SELECT l_extendedprice AS v, "
            "row_number() OVER (ORDER BY l_extendedprice) - 1 AS r, "
            "count(*) OVER () AS n FROM lineitem), "
            "qs AS (SELECT unnest([0.01, 0.25, 0.5, 0.75, 0.99]) AS q) "
            "SELECT qs.q, s.v AS value FROM qs "
            "JOIN s ON s.r = CAST(floor(qs.q * (s.n - 1)) AS BIGINT)")


def _hopping_window_sql() -> str:
    return ("SELECT (epoch_us(ts) // 900000000 - t.i) * 900000000 AS window_start, "
            "event_type, CAST(count(*) AS BIGINT) AS n_events, "
            "round(sum(value), 6) AS sum_value "
            "FROM events, unnest(generate_series(0, 3)) AS t(i) "
            "GROUP BY 1, 2")


def _top_quality_per_source_sql() -> str:
    return (
        "WITH tok AS (SELECT doc_id, source, "
        f"len(regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}')) AS nt, "
        f"len(regexp_extract_all(lower(text), '{_STOP_RE_SQL}')) AS ns "
        "FROM documents), "
        "sc AS (SELECT doc_id, source, least(nt / 50.0, 1.0) * 0.5 "
        "+ least((CASE WHEN nt > 0 THEN ns / CAST(greatest(nt, 1) AS DOUBLE) "
        "ELSE 0.0 END) * 5.0, 1.0) * 0.5 AS quality_score FROM tok), "
        "rk AS (SELECT source, doc_id, quality_score, "
        "CAST(row_number() OVER (PARTITION BY source "
        "ORDER BY quality_score DESC, doc_id) AS BIGINT) AS rank FROM sc) "
        "SELECT source, doc_id, quality_score, rank FROM rk WHERE rank <= 3")


# ---------------------------------------------------------------------------
# Round-3 additions, part 2: normalization, domain stats, unigram-LM
# quality scoring.
# ---------------------------------------------------------------------------


def q_normalize_text(sf_dir: str):
    """Canonical normalization pass (lowercase, collapse punct runs,
    trim) with a changed flag — the standard pre-dedup cleanup."""
    from .text.quality import normalize_text

    return normalize_text(_docs_ds(sf_dir))


def q_domain_stats(sf_dir: str):
    """Per-URL-host page counts/bytes over the derived web corpus —
    the domain-blocklist / per-site-cap aggregation."""
    from .text.corpus import domain_stats

    return domain_stats(read_webpages(sf_dir, seed=SEED, include_html=False)
                        .select_columns(["url", "text"]))


def q_unigram_logprob(sf_dir: str):
    """Per-doc unigram-LM negative log-likelihood (model-based quality
    filter): corpus-trained token counts, broadcast vocab, quantized
    integer log-sums for bit-exact SQL parity."""
    from .text.lm import unigram_logprob

    return unigram_logprob(_docs_ds(sf_dir))


_NORM_SQL = "trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'), ' ')"


def _normalize_text_sql() -> str:
    return (f"SELECT doc_id, {_NORM_SQL} AS text, "
            f"CAST(CASE WHEN {_NORM_SQL} <> text THEN 1 ELSE 0 END AS BIGINT) "
            "AS changed FROM documents")


def _domain_stats_sql() -> str:
    return (f"WITH {oracle.pages_cte(SEED)} "
            "SELECT regexp_extract(url, '^https?://([^/]+)', 1) AS host, "
            "CAST(count(*) AS BIGINT) AS n_pages, "
            "CAST(sum(length(text)) AS BIGINT) AS n_chars "
            "FROM pages GROUP BY 1")


def _unigram_logprob_sql() -> str:
    return f"""WITH docs AS (SELECT doc_id, text FROM documents),
tl AS (SELECT doc_id, regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}') AS l FROM docs),
tok AS (SELECT doc_id, unnest(l) AS tok FROM tl),
cnt AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY tok),
tot AS (SELECT greatest(sum(c), 1) AS N FROM cnt),
vocab AS (SELECT tok, c FROM cnt ORDER BY c DESC, tok LIMIT 4096),
per AS (
  SELECT t.doc_id,
    CAST(floor(1000000 * ln(CAST(COALESCE(v.c, 1) AS DOUBLE)
                            / CAST((SELECT N FROM tot) AS DOUBLE)))
         AS BIGINT) AS li
  FROM tok t LEFT JOIN vocab v ON t.tok = v.tok),
agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, sum(li) AS s
        FROM per GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.n_tokens, 0) AS n_tokens,
  CASE WHEN a.n_tokens > 0
       THEN (-CAST(a.s AS DOUBLE)) / (1000000.0 * a.n_tokens)
       ELSE 0.0 END AS nll
FROM docs d LEFT JOIN agg a ON d.doc_id = a.doc_id"""


def q_dedup_survivors(sf_dir: str):
    """End-to-end near-dup removal: cluster by exact-Jaccard edges, keep
    ONE doc per duplicate cluster (the min doc_id). Production dedup
    keeps per-cluster survivors, not per-pair drops — this is the
    composition of dup_clusters + keep node == cluster_id."""
    cc = _dup_clusters_materialized(sf_dir)
    return cc.filter(expr="node == cluster_id").map_batches(
        lambda b: pa.table({"doc_id": b.column("node")}),
        batch_format="pyarrow")


def _dedup_survivors_sql() -> str:
    return (f"SELECT node AS doc_id FROM ({oracle.dup_clusters_sql(0.8, 5)}) "
            "WHERE node = cluster_id")


def q_window_distinct_users(sf_dir: str):
    import ray.data

    from .stages.events import window_distinct_users

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return window_distinct_users(ev)


def _window_distinct_users_sql() -> str:
    return ("SELECT epoch_us(ts) // 3600000000 AS window_id, "
            "CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
            "FROM events GROUP BY 1")


def q_window_top_types(sf_dir: str):
    import ray.data

    from .stages.events import window_top_types

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])
    return window_top_types(ev)


def _window_top_types_sql() -> str:
    return ("WITH c AS (SELECT epoch_us(ts) // 3600000000 AS window_id, "
            "event_type, CAST(count(*) AS BIGINT) AS n_events "
            "FROM events GROUP BY 1, 2), "
            "r AS (SELECT window_id, event_type, n_events, "
            "CAST(row_number() OVER (PARTITION BY window_id "
            "ORDER BY n_events DESC, event_type) AS BIGINT) AS rank FROM c) "
            "SELECT window_id, event_type, n_events, rank FROM r "
            "WHERE rank <= 3")


# ---------------------------------------------------------------------------
# Relational analytics over the TPC-H-shaped tables (Q1/Q3 shapes,
# integer fixed-point money so Ray partials == SQL aggregates exactly).
# ---------------------------------------------------------------------------


def q_pricing_summary(sf_dir: str):
    import ray.data

    from .relational import pricing_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax",
                 "l_returnflag", "l_linestatus", "l_shipdate"])
    return pricing_summary(li)


def q_top_orders(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from .relational import top_orders

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    return top_orders(li, od, cust)


def _cents_sql(col: str) -> str:
    return f"CAST(round({col} * 100) AS BIGINT)"


def _pricing_summary_sql() -> str:
    q, e, d, t = (_cents_sql(c) for c in
                  ("l_quantity", "l_extendedprice", "l_discount", "l_tax"))
    return f"""WITH f AS (
  SELECT l_returnflag, l_linestatus, {q} AS qc, {e} AS ec, {d} AS dc, {t} AS tc
  FROM lineitem WHERE epoch_us(l_shipdate) <= 991353600000000),
a AS (
  SELECT l_returnflag, l_linestatus,
    sum(qc) AS qty_c, sum(ec) AS ext_c, sum(dc) AS disc_c,
    sum(ec * (100 - dc)) AS dp_e4,
    sum(ec * (100 - dc) * (100 + tc)) AS ch_e6,
    CAST(count(*) AS BIGINT) AS n
  FROM f GROUP BY 1, 2)
SELECT l_returnflag, l_linestatus,
  qty_c / 100.0 AS sum_qty,
  ext_c / 100.0 AS sum_base_price,
  dp_e4 / 10000.0 AS sum_disc_price,
  ch_e6 / 1000000.0 AS sum_charge,
  qty_c / (100.0 * n) AS avg_qty,
  ext_c / (100.0 * n) AS avg_price,
  disc_c / (100.0 * n) AS avg_disc,
  n AS count_order
FROM a"""


def _top_orders_sql() -> str:
    e, d = _cents_sql("l.l_extendedprice"), _cents_sql("l.l_discount")
    return f"""WITH f AS (
  SELECT l.l_orderkey, sum({e} * (100 - {d})) AS rev_e4,
         epoch_us(o.o_orderdate) AS o_orderdate, o.o_orderpriority
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  WHERE c.c_mktsegment = 'BUILDING'
    AND epoch_us(o.o_orderdate) < 959817600000000
    AND epoch_us(l.l_shipdate) > 959817600000000
  GROUP BY 1, 3, 4)
SELECT l_orderkey, rev_e4 / 10000.0 AS revenue, o_orderdate, o_orderpriority
FROM f ORDER BY rev_e4 DESC, l_orderkey LIMIT 10"""


def q_filter_by_nll(sf_dir: str):
    """Perplexity-percentile quality cut: keep docs at or below the
    corpus 0.9-quantile unigram NLL (drop the worst 10%)."""
    from .text.lm import filter_by_nll

    return filter_by_nll(_docs_ds(sf_dir), q=0.9)


def _filter_by_nll_sql() -> str:
    return (
        f"WITH scored AS ({_unigram_logprob_sql()}), "
        "thr AS (SELECT nll FROM scored ORDER BY nll "
        "LIMIT 1 OFFSET CAST(floor(0.9 * ((SELECT count(*) FROM scored) - 1)) AS BIGINT)) "
        "SELECT doc_id, n_tokens, nll FROM scored "
        "WHERE nll <= (SELECT nll FROM thr)")


def q_sample_fixed_k(sf_dir: str):
    """Fixed-size deterministic uniform sample (k=100) by counter-RNG
    rank — the take-an-eval-sample-from-anything primitive."""
    import ray.data

    from .text.corpus import sample_fixed_k

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    return sample_fixed_k(ds, k=100, seed=SEED)


def _sample_fixed_k_sql() -> str:
    u = sql_uniform01("doc_id", SEED, 911)
    return (f"SELECT doc_id, u FROM (SELECT doc_id, {u} AS u FROM documents) "
            "ORDER BY u, doc_id LIMIT 100")


def q_geo_scrub(sf_dir: str):
    """Coordinate-mention scrubbing over the web corpus: the text-space
    completion of the geometry masks (the displaced point is useless if
    the prose still says "49.123456, -123.456789")."""
    from .stages.geoparse import geo_scrub

    return geo_scrub(read_webpages(sf_dir, seed=SEED, include_html=False)
                     .select_columns(["url", "text"]))


def _geo_scrub_sql() -> str:
    pat = r"(-?[0-9]{1,3}\.[0-9]{6}), (-?[0-9]{1,3}\.[0-9]{6})"
    return (f"WITH {oracle.pages_cte(SEED)} "
            f"SELECT url, regexp_replace(text, '{pat}', '<GEO>', 'g') AS text, "
            f"CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) "
            "AS n_scrubbed FROM pages")


def q_source_quantiles(sf_dir: str):
    """Per-source exact doc-length quartiles (grouped order statistics)."""
    import ray.data

    from .text.quality import source_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "n_chars"])
    return source_quantiles(ds)


def _source_quantiles_sql() -> str:
    cells = ", ".join(
        f"max(CASE WHEN r = CAST(floor({q} * (n - 1)) AS BIGINT) "
        f"THEN v END) AS q{int(q * 100)}" for q in (0.25, 0.5, 0.75))
    return ("WITH s AS (SELECT source, CAST(n_chars AS DOUBLE) AS v, "
            "row_number() OVER (PARTITION BY source ORDER BY n_chars) - 1 AS r, "
            "count(*) OVER (PARTITION BY source) AS n FROM documents) "
            f"SELECT source, {cells} FROM s GROUP BY source")


def q_media_size_quantiles(sf_dir: str):
    """Exact payload-size quantiles over the binary media column —
    the distributed multi-rank quantile kernel composed onto
    media_metadata (corpus profiling for batch/block sizing of
    multimodal stages)."""
    from .analysis.aggregates import exact_quantiles_distributed
    from .multimodal.media import media_metadata

    meta = media_metadata(read_webpages(sf_dir, seed=SEED, include_html=True))
    vals = exact_quantiles_distributed(meta, "media_bytes", _QUANTILE_QS,
                                       max_collect=65536)
    return pa.table({
        "q": pa.array(_QUANTILE_QS, type=pa.float64()),
        "value": pa.array(vals, type=pa.float64()),
    })


def _media_size_quantiles_sql() -> str:
    return (
        f"WITH {oracle.pages_cte(SEED)}, "
        "s AS (SELECT CAST(octet_length(encode('<html><body>' || text || "
        "'</body></html>')) AS DOUBLE) AS v, "
        "row_number() OVER (ORDER BY octet_length(encode('<html><body>' "
        "|| text || '</body></html>'))) - 1 AS r, "
        "count(*) OVER () AS n FROM pages), "
        "qs AS (SELECT unnest([0.01, 0.25, 0.5, 0.75, 0.99]) AS q) "
        "SELECT qs.q, s.v AS value FROM qs "
        "JOIN s ON s.r = CAST(floor(qs.q * (s.n - 1)) AS BIGINT)")


# ---------------------------------------------------------------------------
# Round-4 additions: session aggregates, conversion funnel.
# ---------------------------------------------------------------------------


def q_session_stats(sf_dir: str):
    """Per-session aggregates (duration, event count, value sum) over
    the gap-based sessions — sessionize and its aggregate fused into
    one coarse user-partition pass."""
    import ray.data

    from .stages.events import session_stats

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts", "value"])
    return session_stats(ev)


def q_event_funnel(sf_dir: str):
    """view -> purchase conversion funnel within 24 hours: per user the
    first view and the first qualifying purchase after it."""
    import ray.data

    from .stages.events import event_funnel

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_type"])
    return event_funnel(ev)


def _session_stats_sql() -> str:
    return (
        "WITH s AS (SELECT user_id, ts, value, "
        "SUM(CASE WHEN prev IS NOT NULL AND epoch_us(ts) - epoch_us(prev) "
        "> 1800000000 THEN 1 ELSE 0 END) OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS session_seq "
        "FROM (SELECT event_id, user_id, ts, value, lag(ts) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS prev FROM events)) "
        "SELECT user_id, CAST(session_seq AS BIGINT) AS session_seq, "
        "CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(max(epoch_us(ts)) - min(epoch_us(ts)) AS BIGINT) AS duration_us, "
        "round(sum(value), 6) AS sum_value "
        "FROM s GROUP BY user_id, session_seq")


def _event_funnel_sql() -> str:
    return (
        "WITH a AS (SELECT user_id, min(epoch_us(ts)) AS a_ts "
        "FROM events WHERE event_type = 'view' GROUP BY user_id) "
        "SELECT a.user_id, a.a_ts, min(epoch_us(e.ts)) AS b_ts "
        "FROM a JOIN events e ON e.user_id = a.user_id "
        "AND e.event_type = 'purchase' AND epoch_us(e.ts) > a.a_ts "
        "AND epoch_us(e.ts) <= a.a_ts + 86400000000 "
        "GROUP BY a.user_id, a.a_ts")


def q_hll_users(sf_dir: str):
    """HyperLogLog-256 distinct-user sketch per event type — the
    mergeable-sketch path for count-distinct at 100 TB (exact twin:
    window_distinct_users). Registers, zero-count and the integer
    denominator are hash-exact vs SQL; the estimate shares the same
    one-division arithmetic."""
    import ray.data

    from .sketches import hll_distinct

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    return hll_distinct(ev, "user_id", "event_type")


def q_weighted_sample(sf_dir: str):
    """Length-weighted Bernoulli sample of the documents table —
    all-integer keep rule, bit-exact in SQL."""
    import ray.data

    from .text.corpus import weighted_sample

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "n_chars"])
    return weighted_sample(ds, seed=SEED)


def q_host_cap_sample(sf_dir: str):
    """Per-host page cap (k=10 by counter-RNG rank) over the web
    corpus — the per-domain cap that stops single-site dominance."""
    from .text.corpus import host_cap_sample

    return host_cap_sample(
        read_webpages(sf_dir, seed=SEED, include_html=False)
        .select_columns(["doc_id", "url"]), k=10, seed=SEED)


def q_host_blocklist_filter(sf_dir: str):
    """Survivors of the data-derived host blocklist (above-mean total
    chars), applied via broadcast bloom + exact-verify membership."""
    from .text.corpus import host_blocklist_filter

    return host_blocklist_filter(
        read_webpages(sf_dir, seed=SEED, include_html=False)
        .select_columns(["doc_id", "url", "text"]))


_HOST_SQL = "regexp_extract(url, '^https?://([^/]+)', 1)"


def _weighted_sample_sql() -> str:
    sub = sql_substream("doc_id", SEED, 913)
    return (f"SELECT doc_id, n_chars FROM documents "
            f"WHERE ({sub}) * (SELECT max(n_chars) FROM documents) "
            f"< n_chars * 4294967296")


def _host_cap_sample_sql() -> str:
    u = sql_uniform01("doc_id", SEED, 912)
    return (f"WITH {oracle.pages_cte(SEED)}, "
            f"h AS (SELECT doc_id, {_HOST_SQL} AS host, {u} AS u FROM pages), "
            "rk AS (SELECT doc_id, host, row_number() OVER "
            "(PARTITION BY host ORDER BY u, doc_id) AS rk FROM h) "
            "SELECT doc_id, host FROM rk WHERE rk <= 10")


def _host_blocklist_filter_sql() -> str:
    return (f"WITH {oracle.pages_cte(SEED)}, "
            f"ph AS (SELECT doc_id, {_HOST_SQL} AS host, "
            "CAST(length(text) AS BIGINT) AS nc FROM pages), "
            "hs AS (SELECT host, CAST(sum(nc) AS BIGINT) AS c "
            "FROM ph GROUP BY 1), "
            "tot AS (SELECT CAST(count(*) AS BIGINT) AS nh, "
            "CAST(sum(c) AS BIGINT) AS t FROM hs), "
            "blk AS (SELECT host FROM hs, tot WHERE c * nh > t) "
            "SELECT doc_id, host FROM ph "
            "WHERE host NOT IN (SELECT host FROM blk)")


def q_cross_corpus_dedup(sf_dir: str):
    """Near-duplicate train-vs-benchmark decontamination (MinHash band
    membership against the eval slice) over corpus + mutated copies —
    the paraphrase-robust complement of the exact-gram decontaminate."""
    from .text.dedup import cross_corpus_flags, with_mutated_copies

    return cross_corpus_flags(with_mutated_copies(_docs_ds(sf_dir)))


def q_media_frames(sf_dir: str):
    """Frame-sampling layout over the (stub-)decoded media column: one
    output row per kept frame — the video-style expansion stage
    (rows-only: the fake decode has no SQL meaning; the row-count
    contract is pinned by pytest)."""
    from .multimodal.media import decode_media, frame_sample

    decoded = decode_media(read_webpages(sf_dir, seed=SEED,
                                         include_html=True), fake=True)
    return frame_sample(decoded, every=2).select_columns(
        ["url", "frame_idx"])


_CMS_PROBES = ["the", "merge", "join", "sort", "batch", "spark", "window",
               "data", "table", "row", "column", "value", "key", "query",
               "scan", "filter"]


def q_cms_counts(sf_dir: str):
    """Count-min sketch (4x1024, mix32 rows) estimates of corpus-wide
    occurrence counts for a fixed probe-token set — the heavy-hitter
    sketch twin of the exact ngram_topk."""
    from .sketches import cms_token_counts

    return cms_token_counts(_docs_ds(sf_dir), _CMS_PROBES)


# ---------------------------------------------------------------------------
# Round-4 additions, part 2: URL dedup, TF-IDF keywords, outlier flags.
# ---------------------------------------------------------------------------


def q_url_dedup(sf_dir: str):
    """Crawl-refetch URL dedup: canonicalize raw fetch URLs (lowercase
    scheme+host, strip query/fragment/trailing slash), keep the first
    fetch per canonical URL — the CommonCrawl-style URL-level dedup
    that precedes any content dedup."""
    from .text.corpus import url_dedup

    return url_dedup(read_webpages(sf_dir, seed=SEED, include_html=False))


def q_tfidf_topk(sf_dir: str):
    """Top-3 TF-IDF keywords per doc (quantized-integer idf, broadcast
    df vocabulary) — the per-doc feature-extraction stage."""
    from .text.lm import tfidf_topk

    return tfidf_topk(_docs_ds(sf_dir))


def q_outlier_flags(sf_dir: str):
    """Per-source Tukey-fence length outliers over documents.n_chars —
    exact integer fences from per-source quartile order statistics."""
    import ray.data

    from .text.quality import source_outlier_flags

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "n_chars"])
    return source_outlier_flags(ds)


def _url_dedup_sql() -> str:
    utm = "?utm_source=feed&utm_medium=rss"
    pfx = "regexp_extract(raw_url, '(?i)^https?://[^/]+')"
    rest = "regexp_replace(raw_url, '(?i)^https?://[^/]+', '')"
    messy = (
        "CASE {m} % 4 "
        f"WHEN 0 THEN url || '{utm}' "
        "WHEN 1 THEN upper(regexp_extract(url, '^https?://[^/]+')) || "
        "regexp_replace(url, '^https?://[^/]+', '') || '#top' "
        "WHEN 2 THEN url || '/' ELSE url END")
    return (
        f"WITH {oracle.pages_cte(SEED)}, "
        "fetches AS ("
        f"SELECT doc_id * 2 AS fetch_id, doc_id, "
        f"{messy.format(m='doc_id')} AS raw_url FROM pages "
        "UNION ALL "
        f"SELECT doc_id * 2 + 1, doc_id, "
        f"{messy.format(m='(doc_id + 1)')} AS raw_url FROM pages "
        "WHERE doc_id % 5 = 0), "
        "canon AS (SELECT fetch_id, doc_id, "
        f"lower({pfx}) || regexp_replace(regexp_replace({rest}, "
        "'[?#].*$', ''), '/+$', '') AS canonical_url FROM fetches) "
        "SELECT canonical_url, min(fetch_id) AS kept_fetch_id, "
        "min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS n_fetches "
        "FROM canon GROUP BY canonical_url")


def _tfidf_topk_sql() -> str:
    return f"""WITH tl AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}') AS l
  FROM documents),
tok AS (SELECT doc_id, unnest(l) AS tok FROM tl),
df AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok GROUP BY tok),
vocab AS (SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT 4096),
n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
tf AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
       FROM tok GROUP BY doc_id, tok),
sc AS (
  SELECT t.doc_id, t.tok,
    t.tf * CAST(floor(1000000 * ln(CAST((SELECT n FROM n) AS DOUBLE)
                                   / CAST(COALESCE(v.df, 1) AS DOUBLE)))
                AS BIGINT) AS score_micro
  FROM tf t LEFT JOIN vocab v ON t.tok = v.tok),
rk AS (SELECT *, row_number() OVER
         (PARTITION BY doc_id ORDER BY score_micro DESC, tok) AS rank
       FROM sc)
SELECT doc_id, CAST(rank AS BIGINT) AS rank, tok AS token, score_micro
FROM rk WHERE rank <= 3"""


def _outlier_flags_sql() -> str:
    return """WITH r AS (
  SELECT source, n_chars,
    row_number() OVER (PARTITION BY source ORDER BY n_chars) - 1 AS rk,
    count(*) OVER (PARTITION BY source) AS n
  FROM documents),
q AS (
  SELECT source,
    max(CASE WHEN rk = CAST(floor(0.25 * (n - 1)) AS BIGINT)
        THEN n_chars END) AS q25,
    max(CASE WHEN rk = CAST(floor(0.75 * (n - 1)) AS BIGINT)
        THEN n_chars END) AS q75
  FROM r GROUP BY source)
SELECT d.doc_id, d.source, d.n_chars,
  CAST(CASE WHEN 2 * d.n_chars < 5 * q.q25 - 3 * q.q75 THEN -1
            WHEN 2 * d.n_chars > 5 * q.q75 - 3 * q.q25 THEN 1
            ELSE 0 END AS BIGINT) AS flag
FROM documents d JOIN q USING (source)"""


# ---------------------------------------------------------------------------
# Round-5 operators: decontamination, retrieval, DSIR, host graph,
# source mixing, media hashes, embeddings, layout, spatial extensions.
# ---------------------------------------------------------------------------


def q_ann_pq(sf_dir: str):
    """Product-quantization ADC scan + exact shortlist rerank (rows-only
    oracle; recall vs brute force is pytest-checked)."""
    from .sim.ann import pq_topk

    out = pq_topk(_emb_ds(sf_dir), query_ids=list(range(20)), k=10)
    return out.select_columns(["query_id", "rank", "vec_id"])


def q_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle -> dataloader shards: (doc_id,
    shard, pos) via the keyed distributed prefix sum (counter-RNG
    stream 914; n_shards=8, buckets=64 so the fixture exercises many
    cells per shard)."""
    from .text.corpus import shuffle_shards

    return shuffle_shards(_docs_ds(sf_dir).select_columns(["doc_id"]),
                          n_shards=8, seed=SEED, buckets=64)


def q_sequence_pack(sf_dir: str):
    """Token-budget sequence packing (seq_len=512 so the fixture yields
    multi-sequence output; range_rows=100 forces many ranges,
    exercising the cross-range offset arithmetic)."""
    from .text.corpus import sequence_pack

    return sequence_pack(_docs_ds(sf_dir), seq_len=512, range_rows=100)


def _sequence_pack_sql() -> str:
    """Twin of ``sequence_pack``: each doc's sequence and offset from the
    token prefix sum in doc_id order."""
    return (
        "WITH t AS (SELECT doc_id, CAST(len(regexp_extract_all("
        f"lower(text), '{_TOKEN_RE_SQL}')) AS BIGINT) AS n_tokens "
        "FROM documents), "
        "c AS (SELECT doc_id, n_tokens, CAST(COALESCE(SUM(n_tokens) "
        "OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
        "1 PRECEDING), 0) AS BIGINT) AS before_n FROM t) "
        "SELECT doc_id, n_tokens, before_n // 512 AS seq_id, "
        "before_n % 512 AS \"offset\" FROM c")


def _shuffle_shards_sql(n_shards: int = 8) -> str:
    """Twin of ``text.corpus.shuffle_shards``: the engine's keyed prefix
    sum equals a plain windowed rank over the identical counter-RNG key
    (stream 914)."""
    sub = sql_substream("doc_id", SEED, 914)
    return (
        f"WITH keyed AS (SELECT doc_id, {sub} AS skey FROM documents) "
        f"SELECT doc_id, skey % {n_shards} AS shard, "
        f"CAST(row_number() OVER (PARTITION BY skey % {n_shards} "
        "ORDER BY skey, doc_id) - 1 AS BIGINT) AS pos FROM keyed")


def q_decontaminate_bloom(sf_dir: str):
    """Bloom-filter decontamination: fixed-size broadcast bitset probe
    (bounded side-structure at any benchmark size); deterministic false
    positives reproduced exactly by the SQL oracle."""
    from .text.corpus import decontaminate_bloom

    return decontaminate_bloom(_docs_ds(sf_dir), n=5)


def q_bm25_topk(sf_dir: str):
    """Top-3 Okapi-BM25 keywords per doc — TF-IDF with document-length
    normalization, scored as one exact int64 rational (text/lm.py)."""
    from .text.lm import bm25_topk

    return bm25_topk(_docs_ds(sf_dir))


def q_host_rank(sf_dir: str):
    """Integer-exact host PageRank over the synthesized link graph:
    two coarse partition joins resolve edge hosts, 10 edge-streaming
    iterations with a broadcast rank vector (text/rank.py)."""
    from .text.rank import host_rank

    return host_rank(read_webpages(sf_dir, seed=SEED))


def _bm25_sql(k: int = 3, top_v: int = 4096) -> str:
    """DuckDB twin of text.lm.bm25_topk: same capped-df vocabulary,
    idf quantized per distinct token, and the all-integer tfnorm
    rational 22*tf*S / (10*tf*S + 3*S + 9*dl*N) (k1=1.2, b=0.75)."""
    return f"""WITH tl AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}') AS l
  FROM documents),
tot AS (SELECT CAST(sum(len(l)) AS BIGINT) AS s,
               CAST(count(*) AS BIGINT) AS n FROM tl),
tok AS (SELECT doc_id, unnest(l) AS tok FROM tl),
df AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok GROUP BY tok),
vocab AS (SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT {top_v}),
tf AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
       FROM tok GROUP BY doc_id, tok),
dl AS (SELECT doc_id, CAST(len(l) AS BIGINT) AS dl FROM tl),
sc AS (
  SELECT t.doc_id, t.tok,
    (CAST(floor(1000000 * ln(1 + (tot.n - COALESCE(v.df, 1) + 0.5)
                                 / (COALESCE(v.df, 1) + 0.5))) AS BIGINT)
     * 22 * t.tf * tot.s)
    // (10 * t.tf * tot.s + 3 * tot.s + 9 * d.dl * tot.n) AS score_micro
  FROM tf t JOIN dl d USING (doc_id) CROSS JOIN tot
  LEFT JOIN vocab v ON t.tok = v.tok),
rk AS (SELECT *, row_number() OVER
         (PARTITION BY doc_id ORDER BY score_micro DESC, tok) AS rank
       FROM sc)
SELECT doc_id, CAST(rank AS BIGINT) AS rank, tok AS token, score_micro
FROM rk WHERE rank <= {k}"""


def q_bigram_logprob(sf_dir: str):
    """Bigram-LM NLL with stupid backoff — the context-aware upgrade of
    the unigram perplexity filter (text/lm.py)."""
    from .text.lm import bigram_logprob

    return bigram_logprob(_docs_ds(sf_dir))


def _bigram_lm_sql(top_v: int = 4096) -> str:
    """DuckDB twin of text.lm.bigram_logprob: same capped unigram and
    bigram vocabularies (ties broken on the joined ``w1 || ' ' || w2``
    key), terms quantized per distinct bigram, stupid-backoff constant
    mirrored verbatim."""
    from .text.lm import BACKOFF_MICRO

    return f"""WITH docs AS (SELECT doc_id, text FROM documents),
tl AS (SELECT doc_id, regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}') AS l FROM docs),
tok AS (SELECT doc_id, unnest(l) AS tok FROM tl),
cnt AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY tok),
tot AS (SELECT greatest(sum(c), 1) AS N FROM cnt),
vu AS (SELECT tok, c FROM cnt ORDER BY c DESC, tok LIMIT {top_v}),
bgz AS (SELECT doc_id, unnest(list_zip(l, l[2:])) AS z FROM tl
        WHERE len(l) >= 2),
bg AS (SELECT doc_id, struct_extract(z, 1) AS w1, struct_extract(z, 2) AS w2
       FROM bgz WHERE struct_extract(z, 2) IS NOT NULL),
cb AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c FROM bg GROUP BY 1, 2),
vb AS (SELECT w1, w2, c FROM cb ORDER BY c DESC, w1 || ' ' || w2
       LIMIT {top_v}),
per AS (
  SELECT bg.doc_id,
    CASE WHEN vb.c IS NOT NULL THEN
      CAST(floor(1000000 * ln(CAST(vb.c AS DOUBLE)
                              / CAST(COALESCE(v1.c, 1) AS DOUBLE)))
           AS BIGINT)
    ELSE {BACKOFF_MICRO}
         + CAST(floor(1000000 * ln(CAST(COALESCE(v2.c, 1) AS DOUBLE)
                                   / CAST((SELECT N FROM tot) AS DOUBLE)))
                AS BIGINT)
    END AS li
  FROM bg LEFT JOIN vb ON vb.w1 = bg.w1 AND vb.w2 = bg.w2
          LEFT JOIN vu v1 ON v1.tok = bg.w1
          LEFT JOIN vu v2 ON v2.tok = bg.w2),
agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, sum(li) AS s
        FROM per GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.n_tokens, 0) AS n_tokens,
  CASE WHEN a.n_tokens > 0
       THEN (-CAST(a.s AS DOUBLE)) / (1000000.0 * a.n_tokens)
       ELSE 0.0 END AS nll
FROM docs d LEFT JOIN agg a ON d.doc_id = a.doc_id"""


def _docs_lang_ds(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "lang"],
                                 override_num_blocks=16)


def q_dsir_weights(sf_dir: str):
    """DSIR log importance weights + Gumbel keys (Xie et al. 2023) with
    the `lang='en'` slice as the target distribution — bit-exact int64
    scores (text/dsir.py)."""
    from .text.dsir import dsir_weights

    return dsir_weights(_docs_lang_ds(sf_dir), target_lang="en", seed=SEED)


def q_dsir_sample(sf_dir: str):
    """Gumbel top-100 importance resample toward the English target —
    a without-replacement sample proportional to the DSIR weights."""
    from .text.dsir import dsir_sample

    return dsir_sample(_docs_lang_ds(sf_dir), k=100, target_lang="en",
                       seed=SEED)


def q_source_similarity(sf_dir: str):
    """Pairwise source-level MinHash Jaccard estimates — the corpus
    snapshot/provenance comparison matrix (text/dedup.py)."""
    import ray.data

    from .text.dedup import source_minhash_similarity

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"],
                               override_num_blocks=16)
    return source_minhash_similarity(ds)


def q_line_filter(sf_dir: str):
    """C4-style line-level filter over the derived multi-line corpus
    (text/lines.py): per-doc line counts + cleaned reassembled text."""
    from .text.lines import line_filter, with_lines

    return line_filter(with_lines(_docs_ds(sf_dir), seed=SEED))


def q_bm25_search(sf_dir: str):
    """BM25 retrieval: top-10 docs per fixed query over the corpus —
    the serving twin of the bm25_topk keyword extractor (text/lm.py)."""
    from .text.lm import bm25_search

    return bm25_search(_docs_ds(sf_dir), k=10)


def q_snapshot_delta(sf_dir: str):
    """Per-URL cross-snapshot delta (0 unchanged / 1 changed / 2 added
    / 3 removed) over the derived recrawl (text/snapshots.py)."""
    from .text.snapshots import snapshot_delta

    return snapshot_delta(read_webpages(sf_dir, seed=SEED,
                                        include_html=False))


def q_snapshot_delta_stats(sf_dir: str):
    """Per-(host, status) recrawl health counts."""
    from .text.snapshots import snapshot_delta_stats

    return snapshot_delta_stats(read_webpages(sf_dir, seed=SEED,
                                              include_html=False))


def q_host_components(sf_dir: str):
    """Connected components of the host link graph (min-63-bit-hash
    labels via large-star/small-star rounds — text/rank.py)."""
    from .text.rank import host_components

    return host_components(read_webpages(sf_dir, seed=SEED,
                                         include_html=False))


def q_window_anomaly(sf_dir: str):
    """Per-(event_type, window) anomaly z-scores over the events table
    (stages/events.py:window_anomaly)."""
    import ray.data

    from .stages.events import window_anomaly

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"],
                               override_num_blocks=16)
    return window_anomaly(ev)


def q_zipf_fit(sf_dir: str):
    """Zipf exponent over the top-V token frequency curve — the
    corpus-health diagnostic (text/lm.py:zipf_fit)."""
    from .text.lm import zipf_fit

    return zipf_fit(_docs_ds(sf_dir))


def q_trimmed_source_stats(sf_dir: str):
    """Robust per-source trimmed mean (drop outside exact [q10, q90])
    — text/quality.py:trimmed_source_stats."""
    import ray.data

    from .text.quality import trimmed_source_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "n_chars"],
                               override_num_blocks=16)
    return trimmed_source_stats(ds)


def q_source_token_hll(sf_dir: str):
    """Per-source distinct-token HLL (vocabulary richness profile) —
    sketches.py:source_token_hll."""
    import ray.data

    from .sketches import source_token_hll

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"],
                               override_num_blocks=16)
    return source_token_hll(ds)


def q_dup_gram_fraction(sf_dir: str):
    """Per-doc cross-document duplicate-gram fraction (the RefinedWeb
    shared-boilerplate filter input — text/dedup.py)."""
    from .text.dedup import dup_gram_fraction

    return dup_gram_fraction(_docs_ds(sf_dir), k=8)


def q_curate_corpus(sf_dir: str):
    """End-to-end curation pipeline verdicts: quality -> exact dedup ->
    near-dup clusters -> decontamination (text/curate.py)."""
    from .text.curate import curate_corpus

    return curate_corpus(_docs_ds(sf_dir))


def q_sample_fixed_k_per_source(sf_dir: str):
    """The k=5 counter-RNG-smallest docs of EVERY source (ties ->
    smaller doc_id) — stratified eval sampling; per-batch segmented
    partial top-k caps the shuffle at k rows per (source, batch)."""
    import ray.data

    from .text.corpus import sample_fixed_k_per_source

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])
    return sample_fixed_k_per_source(ds, k=5, seed=SEED)


def _sample_fixed_k_per_source_sql() -> str:
    u = sql_uniform01("doc_id", SEED, SAMPLE_K_SRC_STREAM)
    return ("SELECT source, doc_id, u FROM ("
            "SELECT source, doc_id, u, row_number() OVER ("
            "PARTITION BY source ORDER BY u, doc_id) AS rn FROM ("
            f"SELECT source, doc_id, {u} AS u FROM documents)) WHERE rn <= 5")


def q_source_mix_weights(sf_dir: str):
    """alpha=1/2 multinomial mixing weights per source: q_sqrt =
    floor(1e9*sqrt(n_docs)) and the exact integer rational w_ppm =
    q_sqrt*1e6 // sum(q_sqrt) — bit-reproducible in SQL (sqrt and one
    multiply are each a single correctly-rounded IEEE op)."""
    import ray.data

    from .text.corpus import source_mix_weights

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source"])
    return source_mix_weights(ds)


def _source_mix_weights_sql() -> str:
    return ("WITH mixc AS (SELECT source, count(*) AS n_docs FROM documents "
            "GROUP BY source), "
            "mixq AS (SELECT source, n_docs, CAST(floor(1000000000.0 * "
            "sqrt(CAST(n_docs AS DOUBLE))) AS BIGINT) AS q_sqrt FROM mixc) "
            "SELECT source, n_docs, q_sqrt, "
            "CAST(CAST(q_sqrt AS HUGEINT) * 1000000 // "
            "(SELECT sum(CAST(q_sqrt AS HUGEINT)) FROM mixq) AS BIGINT) "
            "AS w_ppm FROM mixq")


def q_source_budget_alloc(sf_dir: str):
    """Water-filling allocation of a total_docs//2 budget across
    sources: ascending-count pass, fully keep sources under the fair
    share, floor threshold for the rest — all-integer, bit-exact in
    SQL via window-function prefix sums."""
    import ray.data

    from .text.corpus import source_budget_alloc

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source"])
    return source_budget_alloc(ds)


def _source_budget_alloc_sql() -> str:
    return ("WITH ac AS (SELECT source, count(*) AS n_docs FROM documents "
            "GROUP BY source), "
            "atot AS (SELECT CAST(sum(n_docs) // 2 AS BIGINT) AS b FROM ac), "
            "aw AS (SELECT source, n_docs, "
            "coalesce(sum(n_docs) OVER (ORDER BY n_docs, source "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS pp, "
            "row_number() OVER (ORDER BY n_docs, source) AS rn, "
            "count(*) OVER () AS m, (SELECT b FROM atot) AS b FROM ac), "
            "af AS (SELECT *, (n_docs * (m - rn + 1) + pp <= b) AS sat "
            "FROM aw), "
            "aagg AS (SELECT coalesce(sum(CASE WHEN sat THEN n_docs END), 0) "
            "AS sk, count(*) FILTER (sat) AS k FROM af) "
            "SELECT af.source, af.n_docs, "
            "CAST(CASE WHEN af.sat THEN af.n_docs "
            "ELSE (af.b - aagg.sk) // greatest(af.m - aagg.k, 1) END "
            "AS BIGINT) AS alloc, af.b AS budget FROM af, aagg")


def q_source_kl(sf_dir: str):
    """KL(P_source || P_corpus) over the global top-4096 unigram vocab
    plus one OOV bucket — int64-quantized log-ratio terms summed per
    source, one exact float division (bit-reproducible in SQL)."""
    import ray.data

    from .text.lm import source_kl

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"],
                               override_num_blocks=16)
    return source_kl(ds)


def _source_kl_sql() -> str:
    return f"""WITH kdocs AS (SELECT source, text FROM documents),
ktl AS (SELECT source, regexp_extract_all(lower(text), '{_TOKEN_RE_SQL}') AS l FROM kdocs),
ktok AS (SELECT source, unnest(l) AS tok FROM ktl),
kcnt AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM ktok GROUP BY tok),
ktot AS (SELECT greatest(sum(c), 1) AS N FROM kcnt),
kvocab AS (SELECT tok, c FROM kcnt ORDER BY c DESC, tok LIMIT 4096),
kvtok AS (SELECT t.source, COALESCE(v.tok, '<oov>') AS vt
          FROM ktok t LEFT JOIN kvocab v ON t.tok = v.tok),
kgv AS (SELECT tok AS vt, c FROM kvocab
        UNION ALL
        SELECT '<oov>', (SELECT N FROM ktot) - (SELECT sum(c) FROM kvocab)),
ksc AS (SELECT source, vt, CAST(count(*) AS BIGINT) AS cs
        FROM kvtok GROUP BY 1, 2),
kns AS (SELECT source, CAST(sum(cs) AS BIGINT) AS n_s FROM ksc GROUP BY source),
kterm AS (SELECT s.source,
  s.cs * CAST(floor(1000000.0 * ln(
      (CAST(s.cs AS DOUBLE) * CAST((SELECT N FROM ktot) AS DOUBLE))
      / (CAST(n.n_s AS DOUBLE) * CAST(g.c AS DOUBLE)))) AS BIGINT) AS t
  FROM ksc s JOIN kgv g USING (vt) JOIN kns n USING (source))
SELECT n.source, n.n_s AS n_tokens, CAST(sum(t.t) AS BIGINT) AS s_q,
  CAST(sum(t.t) AS DOUBLE) / (1000000.0 * n.n_s) AS kl
FROM kterm t JOIN kns n USING (source) GROUP BY n.source, n.n_s"""


def q_media_phash(sf_dir: str):
    """64-bit blockhash per media payload as a '0'/'1' string: integer
    luma vs image mean (luma*64 > total), bit-exact in SQL over the
    md5 hex digest of the payload (the deterministic fake decode)."""
    from .multimodal.media import media_phash

    return media_phash(read_webpages(sf_dir, seed=SEED, include_html=True))


def _phash_luma_sql(c: int) -> str:
    """Integer luma byte term: digest byte (3*i + c) % 16 from the md5
    hex string h (two hex chars per byte, strpos-decoded)."""
    j = f"((3 * i + {c}) % 16)"
    hv1 = (f"(strpos('0123456789abcdef', "
           f"substr(h, 2 * {j} + 1, 1)) - 1)")
    hv2 = (f"(strpos('0123456789abcdef', "
           f"substr(h, 2 * {j} + 2, 1)) - 1)")
    return f"(16 * {hv1} + {hv2})"


def _phash_bits_sql() -> str:
    """CTEs phh (payload md5 per url), phpx (luma per pixel), phtot and
    phbits (one blockhash bit per pixel)."""
    luma = (f"(299 * {_phash_luma_sql(0)} + 587 * {_phash_luma_sql(1)} "
            f"+ 114 * {_phash_luma_sql(2)})")
    return f"""WITH {oracle.pages_cte(SEED)},
phh AS (SELECT url, md5('<html><body>' || text || '</body></html>') AS h
        FROM pages),
phpx AS (SELECT url, i, {luma} AS luma
         FROM phh, (SELECT unnest(range(64)) AS i) idx),
phtot AS (SELECT url, sum(luma) AS t FROM phpx GROUP BY url),
phbits AS (SELECT p.url, p.i,
           CASE WHEN p.luma * 64 > t.t THEN '1' ELSE '0' END AS b
           FROM phpx p JOIN phtot t USING (url))"""


def _media_phash_sql() -> str:
    return f"""{_phash_bits_sql()}
SELECT url, string_agg(b, '' ORDER BY i) AS phash
FROM phbits GROUP BY url"""


def q_media_phash_pairs(sf_dir: str):
    """Image near-duplicate pairs (url_a, url_b, hamming<=4) via 4x16
    bit banded LSH over the blockhash; ~10% of payloads get a seeded
    3-bit-flip copy (pure function of the payload md5) so the fixture
    has pairs to find — exact SQL twin reproduces flips and bands."""
    from .multimodal.media import media_phash_pairs

    return media_phash_pairs(
        read_webpages(sf_dir, seed=SEED, include_html=True))


def _phash_hv_sql(k: str) -> str:
    """Hex nibble value at 1-based position k of the md5 string h."""
    return f"(strpos('0123456789abcdef', substr(h, {k}, 1)) - 1)"


def _media_phash_pairs_sql() -> str:
    byte15 = f"(16 * {_phash_hv_sql('31')} + {_phash_hv_sql('32')})"
    bytej = f"(16 * {_phash_hv_sql('2 * j + 1')} + {_phash_hv_sql('2 * j + 2')})"
    return f"""{_phash_bits_sql()},
phs AS (SELECT url, string_agg(b, '' ORDER BY i) AS phash
        FROM phbits GROUP BY url),
pflag AS (SELECT url, h FROM phh WHERE {byte15} % 10 = 0),
ppos AS (SELECT url, {bytej} % 64 AS p
         FROM pflag, (SELECT unnest(range(3)) AS j) jj),
pfc AS (SELECT url, p, count(*) AS c FROM ppos GROUP BY url, p),
pper AS (SELECT f.url || '#p' AS url, pb.i,
         CASE WHEN fc.c IS NOT NULL AND fc.c % 2 = 1
              THEN CASE pb.b WHEN '1' THEN '0' ELSE '1' END
              ELSE pb.b END AS b
         FROM pflag f JOIN phbits pb ON pb.url = f.url
         LEFT JOIN pfc fc ON fc.url = f.url AND fc.p = pb.i),
pphs AS (SELECT url, string_agg(b, '' ORDER BY i) AS phash
         FROM pper GROUP BY url),
pallh AS (SELECT * FROM phs UNION ALL SELECT * FROM pphs),
pbnd AS (SELECT url, phash, bb.b AS band,
         substr(phash, 16 * bb.b + 1, 16) AS val
         FROM pallh, (SELECT unnest(range(4)) AS b) bb),
pcand AS (SELECT DISTINCT a.url AS url_a, a.phash AS pa,
          c.url AS url_b, c.phash AS pb
          FROM pbnd a JOIN pbnd c
          ON a.band = c.band AND a.val = c.val AND a.url < c.url),
pham AS (SELECT url_a, url_b,
         sum(CASE WHEN substr(pa, ii.i + 1, 1) <> substr(pb, ii.i + 1, 1)
             THEN 1 ELSE 0 END) AS hamming
         FROM pcand, (SELECT unnest(range(64)) AS i) ii
         GROUP BY url_a, url_b)
SELECT url_a, url_b, CAST(hamming AS BIGINT) AS hamming
FROM pham WHERE hamming <= 4"""


def q_token_budget_cut(sf_dir: str):
    """Keep docs while the cumulative token count over (quality_score
    DESC, doc_id) stays within half the corpus's total tokens — keep
    flags for every doc, boundary found without any global sort."""
    import ray.data

    from .text.corpus import token_budget_cut

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=16)
    return token_budget_cut(ds)


def _token_budget_cut_sql() -> str:
    return (
        f"WITH tb AS (SELECT doc_id, {_QUALITY_SQL} AS quality_score, "
        f"CAST(len({_TOK_SQL}) AS BIGINT) AS n_tokens FROM documents), "
        "tc AS (SELECT doc_id, quality_score, n_tokens, "
        "sum(n_tokens) OVER (ORDER BY quality_score DESC, doc_id) AS cum, "
        "(SELECT sum(n_tokens) // 2 FROM tb) AS b FROM tb) "
        "SELECT doc_id, quality_score, n_tokens, "
        "CAST(cum <= b AS BIGINT) AS keep FROM tc")


def q_weighted_quantiles(sf_dir: str):
    """Token-mass-weighted quality-score percentiles over documents —
    all targets descend together through shared weighted histogram
    passes (`analysis/aggregates.py:weighted_quantiles_distributed`)."""
    import ray.data

    from .text.corpus import token_weighted_quality_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=16)
    return token_weighted_quality_quantiles(ds)


def _weighted_quantiles_sql() -> str:
    return (
        "WITH tb AS (SELECT quality_score AS v, n_tokens AS w FROM ("
        + _token_budget_cut_sql() + ")), "
        "tot AS (SELECT sum(w) AS W FROM tb WHERE w > 0), "
        "c AS (SELECT v, sum(w) OVER (ORDER BY v) AS cum FROM tb "
        "WHERE w > 0), "
        "r AS (SELECT CAST(num AS DOUBLE) / den AS q, "
        "((SELECT W FROM tot) - 1) * num // den AS rk FROM (VALUES "
        "(1, 10), (1, 4), (1, 2), (3, 4), (9, 10)) AS t(num, den)) "
        "SELECT r.q, min(c.v) AS value FROM r JOIN c ON c.cum > r.rk "
        "GROUP BY r.q")


def q_perplexity_buckets(sf_dir: str):
    """Label every doc with its NLL tercile (0 head / 1 middle / 2
    tail) — all docs kept, exact thresholds, one labeling pass."""
    from .text.lm import perplexity_buckets

    return perplexity_buckets(_docs_ds(sf_dir))


def _perplexity_buckets_sql() -> str:
    return (
        "WITH u AS (" + _unigram_logprob_sql() + "), "
        "s AS (SELECT nll, row_number() OVER (ORDER BY nll) - 1 AS r, "
        "count(*) OVER () AS n FROM u), "
        "t AS (SELECT "
        "max(CASE WHEN r = CAST(floor((CAST(1 AS DOUBLE) / 3) * (n - 1)) "
        "AS BIGINT) THEN nll END) AS t1, "
        "max(CASE WHEN r = CAST(floor((CAST(2 AS DOUBLE) / 3) * (n - 1)) "
        "AS BIGINT) THEN nll END) AS t2 FROM s) "
        "SELECT u.doc_id, u.n_tokens, u.nll, "
        "CAST(CASE WHEN u.nll <= (SELECT t1 FROM t) THEN 0 "
        "WHEN u.nll <= (SELECT t2 FROM t) THEN 1 ELSE 2 END AS BIGINT) "
        "AS bucket FROM u")


def q_embedding_gram(sf_dir: str):
    """Exact upper-triangle Gram matrix of the 1e-6-quantized embedding
    column — d(d+1)/2 int64 rows; the one-pass input to distributed
    PCA (`sim/pca.py`)."""
    from .sim.pca import embedding_gram

    return embedding_gram(_emb_ds(sf_dir))


def q_embedding_pca(sf_dir: str):
    """Top-2 principal-component projection of every embedding
    (mean-centered, deterministic component signs)."""
    from .sim.pca import embedding_pca

    return embedding_pca(_emb_ds(sf_dir), k=2)


def _embedding_gram_sql() -> str:
    return ("WITH u AS (SELECT vec_id, "
            "CAST(floor(1000000 * CAST(unnest(embedding) AS DOUBLE)) "
            "AS BIGINT) AS q, "
            "generate_subscripts(embedding, 1) - 1 AS idx FROM embeddings) "
            "SELECT CAST(a.idx AS BIGINT) AS i, CAST(b.idx AS BIGINT) AS j, "
            "CAST(sum(a.q * b.q) AS BIGINT) AS v "
            "FROM u a JOIN u b ON a.vec_id = b.vec_id AND a.idx <= b.idx "
            "GROUP BY 1, 2")


def q_label_centroid_sim(sf_dir: str):
    """Pairwise centroid cosine between embedding labels — one pass of
    per-label quantized coordinate sums, exact-int driver matrix."""
    import ray.data

    from .sim.pca import label_centroid_sim

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding", "label"],
                               override_num_blocks=16)
    return label_centroid_sim(ds)


def _label_centroid_sim_sql() -> str:
    return ("WITH u AS (SELECT CAST(label AS BIGINT) AS label, "
            "generate_subscripts(embedding, 1) - 1 AS idx, "
            "CAST(floor(1000000 * CAST(unnest(embedding) AS DOUBLE)) "
            "AS BIGINT) AS q FROM embeddings), "
            "s AS (SELECT label, idx, sum(q) AS sq FROM u GROUP BY 1, 2), "
            "d AS (SELECT a.label AS la, b.label AS lb, sum(a.sq * b.sq) "
            "AS dot FROM s a JOIN s b ON a.idx = b.idx AND a.label <= b.label "
            "GROUP BY 1, 2), "
            "n AS (SELECT la AS l, dot AS nn FROM d WHERE la = lb) "
            "SELECT d.la AS label_a, d.lb AS label_b, "
            "CAST(floor(1000000 * (CAST(d.dot AS DOUBLE) "
            "/ sqrt(CAST(na.nn AS DOUBLE) * CAST(nb.nn AS DOUBLE)))) "
            "AS BIGINT) AS cos_micro "
            "FROM d JOIN n na ON na.l = d.la JOIN n nb ON nb.l = d.lb")


def q_embedding_outliers(sf_dir: str):
    """Flag vectors whose exact int64 centroid distance exceeds the
    corpus p95 (`sim/pca.py:embedding_outliers`)."""
    from .sim.pca import embedding_outliers

    return embedding_outliers(_emb_ds(sf_dir))


def _embedding_outliers_sql() -> str:
    return ("WITH u AS (SELECT vec_id, "
            "generate_subscripts(embedding, 1) - 1 AS idx, "
            "CAST(floor(1000000 * CAST(unnest(embedding) AS DOUBLE)) "
            "AS BIGINT) AS q FROM embeddings), "
            "m AS (SELECT idx, CAST(sum(q) AS BIGINT) // count(*) AS mi "
            "FROM u GROUP BY idx), "
            "d AS (SELECT vec_id, "
            "CAST(sum((u.q - m.mi) * (u.q - m.mi)) AS BIGINT) AS dist2 "
            "FROM u JOIN m USING (idx) GROUP BY vec_id), "
            "s AS (SELECT dist2, row_number() OVER (ORDER BY dist2) - 1 AS r, "
            "count(*) OVER () AS n FROM d), "
            "t AS (SELECT dist2 AS thr FROM s WHERE r = "
            "CAST(floor((CAST(95 AS DOUBLE) / 100) * (n - 1)) AS BIGINT)) "
            "SELECT vec_id, dist2, "
            "CAST(dist2 > (SELECT thr FROM t) AS BIGINT) AS outlier FROM d")


def q_train_split(sf_dir: str):
    """Per-doc (bucket, split) assignment — one stateless hash pass."""
    import ray.data

    from .text.corpus import train_split

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"],
                               override_num_blocks=16)
    return train_split(ds, seed=SEED)


def _train_split_sql() -> str:
    sub = sql_substream("doc_id", SEED, 918)
    return (f"SELECT doc_id, ({sub}) % 1000 AS bucket, "
            "CASE WHEN bucket < 10 THEN 'test' "
            "WHEN bucket < 20 THEN 'val' ELSE 'train' END AS split "
            "FROM documents")


def q_column_histogram(sf_dir: str):
    """64-bin exact integer histogram of documents.n_chars
    (`sketches.py:int_histogram`)."""
    import ray.data

    from .sketches import int_histogram

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["n_chars"],
                               override_num_blocks=16)
    return int_histogram(ds, "n_chars")


def q_novel_gram_fraction(sf_dir: str):
    """(doc_id, n_grams, n_new, novel_frac) per doc
    (`text/dedup.py:novel_gram_fraction`, k=8)."""
    from .text.dedup import novel_gram_fraction

    return novel_gram_fraction(_docs_ds(sf_dir), k=8)


def q_dedup_survivors_quality(sf_dir: str):
    """(cluster_id, doc_id, quality_score) of each cluster's best
    member (`text/clusters.py:cluster_best_survivors` over the shared
    materialized clustering + the token-stat quality signals)."""
    from .text.clusters import cluster_best_survivors
    from .text.corpus import quality_signals_batch

    cc = _dup_clusters_materialized(sf_dir)
    quality = _docs_ds(sf_dir).map_batches(
        lambda b: quality_signals_batch(b).select(
            ["doc_id", "quality_score"]),
        batch_format="pyarrow")
    return cluster_best_survivors(cc, quality)


def _dedup_survivors_quality_sql() -> str:
    return ("WITH c AS (" + oracle.dup_clusters_sql(0.8, 5) + "), "
            "q AS (SELECT doc_id, quality_score FROM ("
            + _token_budget_cut_sql() + ")), "
            "r AS (SELECT c.cluster_id, c.node AS doc_id, q.quality_score, "
            "row_number() OVER (PARTITION BY c.cluster_id "
            "ORDER BY q.quality_score DESC, c.node) AS rn "
            "FROM c JOIN q ON q.doc_id = c.node) "
            "SELECT cluster_id, doc_id, quality_score FROM r WHERE rn = 1")


def q_dedup_lines(sf_dir: str):
    """(doc_id, n_lines, n_kept, text) after corpus-level exact line
    dedup over the derived multi-line corpus
    (`text/lines.py:dedup_lines`)."""
    from .text.lines import dedup_lines, with_lines

    return dedup_lines(with_lines(_docs_ds(sf_dir), seed=SEED))


def q_pmi_topk(sf_dir: str):
    """(gram, n, pmi_micro) top-20 collocations
    (`text/quality.py:pmi_topk`, min_count=5, top_v=4096)."""
    from .text.quality import pmi_topk

    return pmi_topk(_docs_ds(sf_dir), k=20, min_count=5)


def _pmi_topk_sql(k: int = 20, min_count: int = 5,
                  top_v: int = 4096) -> str:
    """HUGEINT-product twin of pmi_topk: identical single IEEE
    division + ln + 1e-6 floor quantization."""
    return (
        f"WITH t AS (SELECT doc_id, {_TOKS_LIST_SQL} AS toks "
        "FROM documents), "
        "uni AS (SELECT unnest(toks) AS tok FROM t), "
        "uc AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM uni "
        "GROUP BY tok), "
        "nu AS (SELECT CAST(count(*) AS BIGINT) AS n FROM uni), "
        f"voc AS (SELECT tok, c FROM uc ORDER BY c DESC, tok ASC "
        f"LIMIT {top_v}), "
        "zz AS (SELECT unnest(list_zip(toks, toks[2:])) AS z FROM t), "
        "bg AS (SELECT struct_extract(z,1) AS a, struct_extract(z,2) AS b "
        "FROM zz WHERE struct_extract(z,2) IS NOT NULL), "
        "nb AS (SELECT CAST(count(*) AS BIGINT) AS n FROM bg), "
        "bc AS (SELECT a, b, CAST(count(*) AS BIGINT) AS cab FROM bg "
        "GROUP BY a, b), "
        "cand AS (SELECT bc.a, bc.b, bc.cab, va.c AS ca, vb.c AS cb "
        "FROM bc JOIN voc va ON va.tok = bc.a "
        "JOIN voc vb ON vb.tok = bc.b "
        f"WHERE bc.cab >= {min_count}) "
        "SELECT a || ' ' || b AS gram, cab AS n, "
        "CAST(floor(1000000.0 * ln("
        "CAST(CAST(cab AS HUGEINT) * nu.n * nu.n AS DOUBLE) "
        "/ CAST(CAST(nb.n AS HUGEINT) * ca * cb AS DOUBLE))) AS BIGINT) "
        "AS pmi_micro "
        "FROM cand, nu, nb "
        f"ORDER BY pmi_micro DESC, gram ASC LIMIT {k}")


def q_kmeans_clusters(sf_dir: str):
    """(vec_id, cluster, dist2) after 3 Lloyd's rounds, k=8
    (`sim/kmeans.py:kmeans`)."""
    from .sim.kmeans import kmeans

    return kmeans(_emb_ds(sf_dir), k=8, iters=3)


def _n_docs(sf_dir: str) -> int:
    import pyarrow.parquet as _pq

    return max(int(_pq.read_metadata(
        f"{sf_dir}/documents.parquet").num_rows), 1)


def q_html_extract(sf_dir: str):
    """(doc_id, text, identical) — text re-extracted from the rich
    html; identical == 1 everywhere (`text/html.py:html_extract`)."""
    from .text.html import html_extract

    return html_extract(read_webpages(sf_dir, seed=SEED,
                                      include_html=False), _n_docs(sf_dir))


def q_extract_links(sf_dir: str):
    """(doc_id, slot, dst_doc) — hrefs recovered from the nav anchors
    (`text/html.py:extract_links`)."""
    from .text.html import extract_links

    return extract_links(read_webpages(sf_dir, seed=SEED,
                                       include_html=False), _n_docs(sf_dir))


def _html_extract_sql() -> str:
    # round-trip identity: the extraction output IS the pages text
    return (f"WITH {oracle.pages_cte(SEED)} SELECT doc_id, text, "
            "CAST(1 AS TINYINT) AS identical FROM pages")


_LINK_SLOTS_SQL = ", ".join(str(j) for j in range(LINKS_PER_DOC))
_LINK_DST_SQL = ("((((d.doc_id % nn.n) * (d.doc_id % nn.n)) % nn.n) * 7 "
                 " + d.doc_id * 31 + 97 * j.j + 1) % nn.n")


def _extract_links_sql() -> str:
    return ("WITH nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents) "
            "SELECT d.doc_id, CAST(j.j AS BIGINT) AS slot, "
            f"{_LINK_DST_SQL} AS dst_doc "
            "FROM documents d CROSS JOIN nn "
            f"CROSS JOIN (SELECT unnest([{_LINK_SLOTS_SQL}]) AS j) j")


def q_late_events(sf_dir: str):
    """(event_id, user_id, is_late, lateness_us) — Beam/Flink
    allowed-lateness accounting, arrival order = event_id
    (`stages/events.py:late_events`)."""
    import ray.data

    from .stages.events import late_events

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    return late_events(ev, seed=SEED)


def q_host_degrees(sf_dir: str):
    """(host, metric, v) long-form degree profile
    (`text/rank.py:host_degrees`)."""
    from .text.rank import host_degrees

    return host_degrees(read_webpages(sf_dir, seed=SEED,
                                      include_html=False))


def _late_events_sql() -> str:
    arr = sql_uniform01("event_id", SEED, LATE_ARRIVAL_STREAM)
    return ("WITH w AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us, "
            "max(epoch_us(ts)) OVER (PARTITION BY user_id "
            f"ORDER BY {arr}, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
            f"- {LATE_DELAY_US} AS wm FROM events) "
            "SELECT event_id, user_id, "
            "CAST(CASE WHEN wm IS NOT NULL AND ts_us < wm THEN 1 ELSE 0 END "
            "AS BIGINT) AS is_late, "
            "CAST(CASE WHEN wm IS NULL THEN 0 ELSE greatest(wm - ts_us, 0) "
            "END AS BIGINT) AS lateness_us FROM w")


def _host_degrees_sql() -> str:
    return ("WITH nn AS (SELECT CAST(count(*) AS BIGINT) AS n "
            "FROM documents), "
            "hh AS (SELECT doc_id, source || '.example.org' AS host "
            "FROM documents), "
            f"l AS (SELECT d.doc_id AS s, {_LINK_DST_SQL} AS t "
            "FROM documents d CROSS JOIN nn "
            f"CROSS JOIN (SELECT unnest([{_LINK_SLOTS_SQL}]) AS j) j), "
            "lf AS (SELECT * FROM l WHERE t <> s), "
            "e AS (SELECT a.host AS src, b.host AS dst, "
            "CAST(count(*) AS BIGINT) AS w FROM lf "
            "JOIN hh a ON a.doc_id = lf.s JOIN hh b ON b.doc_id = lf.t "
            "GROUP BY 1, 2) "
            "SELECT src AS host, 'out_d' AS metric, "
            "CAST(count(*) AS BIGINT) AS v FROM e GROUP BY 1 "
            "UNION ALL SELECT src, 'out_w', CAST(sum(w) AS BIGINT) FROM e GROUP BY 1 "
            "UNION ALL SELECT dst, 'in_d', CAST(count(*) AS BIGINT) "
            "FROM e GROUP BY 1 "
            "UNION ALL SELECT dst, 'in_w', CAST(sum(w) AS BIGINT) FROM e GROUP BY 1 "
            "UNION ALL SELECT e.src, 'recip', CAST(count(*) AS BIGINT) "
            "FROM e JOIN e m ON m.src = e.dst AND m.dst = e.src GROUP BY 1")


def q_rasterize_points(sf_dir: str):
    """(cell_row, cell_col, n) density raster of the uniform-donut
    masked points (`stages/raster.py:rasterize_points`)."""
    from .stages.raster import rasterize_points

    return rasterize_points(masked_ds(sf_dir, "uniform"))


def q_zonal_stats(sf_dir: str):
    """(poly_id, n_cells, n_points) — the masked-point raster
    aggregated onto the census polygons
    (`stages/raster.py:zonal_stats`)."""
    from .stages.raster import rasterize_points, zonal_stats

    return zonal_stats(rasterize_points(masked_ds(sf_dir, "uniform")),
                       seed=SEED)


def _rasterize_points_sql() -> str:
    rw = (X_MAX - X_MIN) / RASTER_W
    rh = (Y_MAX - Y_MIN) / RASTER_H
    return (
        f"WITH {oracle.donut_cte(SEED, LOW, HIGH, 'uniform')}, "
        "rr AS (SELECT "
        f"least(greatest(CAST(floor((my - {Y_MIN!r}::DOUBLE) / "
        f"{rh!r}::DOUBLE) AS BIGINT), 0), {RASTER_H - 1}) AS cell_row, "
        f"least(greatest(CAST(floor((mx - {X_MIN!r}::DOUBLE) / "
        f"{rw!r}::DOUBLE) AS BIGINT), 0), {RASTER_W - 1}) AS cell_col "
        "FROM masked) "
        "SELECT cell_row, cell_col, CAST(count(*) AS BIGINT) AS n "
        "FROM rr GROUP BY 1, 2")


def _zonal_stats_sql() -> str:
    rw = (X_MAX - X_MIN) / RASTER_W
    rh = (Y_MAX - Y_MIN) / RASTER_H
    cx = f"({X_MIN!r}::DOUBLE + (cell_col + 0.5) * {rw!r}::DOUBLE)"
    cy = f"({Y_MIN!r}::DOUBLE + (cell_row + 0.5) * {rh!r}::DOUBLE)"
    return ("SELECT pid AS poly_id, CAST(count(*) AS BIGINT) AS n_cells, "
            "CAST(sum(n) AS BIGINT) AS n_points FROM ("
            f"SELECT {oracle.grid_pid(cx, cy)} AS pid, n "
            f"FROM ({_rasterize_points_sql()})) GROUP BY 1")


def q_knn_join(sf_dir: str):
    """(doc_id, rank, addr_id, dist2) — 3 nearest addresses per
    uniform-donut-masked point (`analysis/knn.py:knn_join`)."""
    from .analysis.knn import knn_join

    return knn_join(masked_ds(sf_dir, "uniform"),
                    read_addresses(sf_dir, seed=SEED), k=3)


def _knn_join_sql() -> str:
    return (f"WITH {oracle.donut_cte(SEED, LOW, HIGH, 'uniform')}, "
            f"{oracle.addresses_cte(SEED)}, "
            "dd AS (SELECT m.doc_id, a.addr_id, "
            "(m.mx - a.ax) * (m.mx - a.ax) + (m.my - a.ay) * (m.my - a.ay) "
            "AS dist2 FROM masked m CROSS JOIN addr_xy a), "
            "rk AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY dist2, addr_id) AS rank FROM dd) "
            "SELECT doc_id, CAST(rank AS BIGINT) AS rank, addr_id, dist2 "
            "FROM rk WHERE rank <= 3")


DBSCAN_EPS_M = 300.0
DBSCAN_MIN_PTS = 4


def q_dbscan_clusters(sf_dir: str):
    """(url, cluster, is_core) — DBSCAN over the geoparsed points at
    eps=300 m / min_pts=4 (`analysis/dbscan.py:dbscan`; cluster = min
    core doc_id in the eps-connected core component, border points take
    the min neighbor-core label, noise = -1)."""
    from .analysis.dbscan import dbscan

    return dbscan(points_ds(sf_dir), eps=DBSCAN_EPS_M,
                  min_pts=DBSCAN_MIN_PTS).select_columns(
        ["url", "cluster", "is_core"])


def _dbscan_sql(eps: float, min_pts: int) -> str:
    """Mirror of analysis.dbscan.dbscan over the geoparsed points:
    grid-bucketed eps-neighbor join (cell = floor(coord/eps), 3x3 ring
    via BETWEEN, exact squared-distance filter — the identical IEEE
    (dx*dx + dy*dy) <= eps^2 predicate the engine kernel evaluates), a
    recursive-CTE min-label closure over core-core edges, and the min
    border rule."""
    return f"""WITH RECURSIVE {oracle.points_cte(SEED)},
pt AS (
  SELECT doc_id, url, x, y,
    CAST(floor(x / {eps!r}) AS BIGINT) AS cx,
    CAST(floor(y / {eps!r}) AS BIGINT) AS cy
  FROM points),
nb AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM pt a JOIN pt b
    ON b.cx BETWEEN a.cx - 1 AND a.cx + 1
   AND b.cy BETWEEN a.cy - 1 AND a.cy + 1
   AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
       <= {eps * eps!r}),
deg AS (SELECT a AS doc_id, count(*) AS deg FROM nb GROUP BY a),
core AS (SELECT doc_id FROM deg WHERE deg >= {min_pts}),
ce AS (
  SELECT n.a, n.b FROM nb n
  JOIN core ca ON ca.doc_id = n.a
  JOIN core cb ON cb.doc_id = n.b
  WHERE n.a <> n.b),
reach(node, label) AS (
  SELECT doc_id, doc_id FROM core
  UNION
  SELECT ce.b, r.label FROM reach r JOIN ce ON ce.a = r.node),
lab AS (SELECT node AS doc_id, min(label) AS cluster FROM reach
        GROUP BY node),
bor AS (
  SELECT n.a AS doc_id, min(l.cluster) AS cluster
  FROM nb n JOIN lab l ON l.doc_id = n.b
  WHERE n.a NOT IN (SELECT doc_id FROM core)
  GROUP BY n.a)
SELECT p.url,
  CAST(coalesce(l.cluster, bor.cluster, -1) AS BIGINT) AS cluster,
  CAST(CASE WHEN l.doc_id IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
    AS is_core
FROM pt p
LEFT JOIN lab l ON l.doc_id = p.doc_id
LEFT JOIN bor ON bor.doc_id = p.doc_id"""


def q_hotspot_cells(sf_dir: str):
    """(cell_row, cell_col, nbr_sum, w_nbrs, gi_micro) — Gi* z-scores
    (floor(1e6*z), 3x3 self-inclusive binary weights) over the
    uniform-donut masked-point raster
    (`stages/raster.py:hotspot_cells`)."""
    from .stages.raster import hotspot_cells, rasterize_points

    return hotspot_cells(rasterize_points(masked_ds(sf_dir, "uniform")))


def _hotspot_cells_sql() -> str:
    n_cells = RASTER_W * RASTER_H
    nm1 = float(n_cells - 1)
    # identical IEEE op order as the engine kernel: mean = double(T)/N,
    # S = sqrt(double(S2)/N - mean*mean), var = int(N*w - w*w)/(N-1),
    # z = (double(nbr) - mean*double(w)) / (S * sqrt(var))
    return (
        "WITH x AS ("
        "SELECT g1.r AS cell_row, g2.c AS cell_col, coalesce(b.n, 0) AS v "
        f"FROM generate_series(0, {RASTER_H - 1}) g1(r) "
        f"CROSS JOIN generate_series(0, {RASTER_W - 1}) g2(c) "
        "LEFT JOIN (" + _rasterize_points_sql() + ") b "
        "ON b.cell_row = g1.r AND b.cell_col = g2.c), "
        "tot AS (SELECT CAST(sum(v) AS BIGINT) AS t, "
        "CAST(sum(v * v) AS BIGINT) AS s2 FROM x), "
        "nb AS (SELECT a.cell_row, a.cell_col, "
        "CAST(sum(bb.v) AS BIGINT) AS nbr_sum, "
        "CAST(count(*) AS BIGINT) AS w_nbrs "
        "FROM x a JOIN x bb "
        "ON bb.cell_row BETWEEN a.cell_row - 1 AND a.cell_row + 1 "
        "AND bb.cell_col BETWEEN a.cell_col - 1 AND a.cell_col + 1 "
        "GROUP BY 1, 2), "
        "st AS (SELECT "
        f"CAST(t AS DOUBLE) / {n_cells} AS mean, "
        f"sqrt(CAST(s2 AS DOUBLE) / {n_cells} "
        f"- (CAST(t AS DOUBLE) / {n_cells}) "
        f"* (CAST(t AS DOUBLE) / {n_cells})) AS s FROM tot) "
        "SELECT nb.cell_row, nb.cell_col, nb.nbr_sum, nb.w_nbrs, "
        "CAST(CASE WHEN st.s * sqrt("
        f"CAST({n_cells} * nb.w_nbrs - nb.w_nbrs * nb.w_nbrs AS BIGINT) "
        f"/ {nm1!r}) = 0 THEN 0 ELSE floor(1000000.0 * "
        "((CAST(nb.nbr_sum AS DOUBLE) - st.mean "
        "* CAST(nb.w_nbrs AS DOUBLE)) / (st.s * sqrt("
        f"CAST({n_cells} * nb.w_nbrs - nb.w_nbrs * nb.w_nbrs AS BIGINT) "
        f"/ {nm1!r})))) END AS BIGINT) AS gi_micro "
        "FROM nb, st")


def q_host_triangles(sf_dir: str):
    """(host, deg, n_tri, clust_micro) — per-host triangle counts and
    all-integer local clustering coefficients
    (`text/rank.py:host_triangles`)."""
    from .text.rank import host_triangles

    return host_triangles(read_webpages(sf_dir, seed=SEED,
                                        include_html=False))


def _host_triangles_sql(links: int = 3) -> str:
    """Mirror of text.rank.host_triangles: same link rule as
    host_components_sql, canonical simple edges, (deg, id)-ordered
    orientation, wedge join for triangles, and the bit-exact integer
    clustering coefficient (2e6 * n_tri) // (deg * (deg - 1))."""
    return f"""WITH {oracle.pages_cte(SEED)},
hosts AS (SELECT doc_id,
          regexp_extract(url, '^https?://([^/]+)', 1) AS host FROM pages),
n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM pages),
links AS (
  SELECT p.doc_id AS src_doc,
         (((p.doc_id % nn.n) * (p.doc_id % nn.n)) % nn.n * 7
          + p.doc_id * 31 + 97 * j.i + 1) % nn.n AS dst_doc
  FROM pages p, n nn, unnest(generate_series(0, {links - 1})) AS j(i)
  WHERE (((p.doc_id % nn.n) * (p.doc_id % nn.n)) % nn.n * 7
         + p.doc_id * 31 + 97 * j.i + 1) % nn.n <> p.doc_id),
e AS (
  SELECT hs.host AS src, hd.host AS dst
  FROM links l JOIN hosts hs ON hs.doc_id = l.src_doc
               JOIN hosts hd ON hd.doc_id = l.dst_doc),
hh AS (SELECT DISTINCT host FROM hosts),
hid AS (SELECT host,
        CAST(md5_number_upper(host) & 9223372036854775807 AS BIGINT)
          AS node FROM hh),
ed AS (SELECT DISTINCT least(s.node, d.node) AS a,
              greatest(s.node, d.node) AS b
       FROM e JOIN hid s ON s.host = e.src
              JOIN hid d ON d.host = e.dst
       WHERE s.node <> d.node),
dg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM (
         SELECT a AS node FROM ed UNION ALL SELECT b AS node FROM ed)
       GROUP BY node),
o AS (
  SELECT CASE WHEN (da.deg, ed.a) < (db.deg, ed.b)
              THEN ed.a ELSE ed.b END AS u,
         CASE WHEN (da.deg, ed.a) < (db.deg, ed.b)
              THEN ed.b ELSE ed.a END AS v,
         CASE WHEN (da.deg, ed.a) < (db.deg, ed.b)
              THEN db.deg ELSE da.deg END AS dv
  FROM ed JOIN dg da ON da.node = ed.a
          JOIN dg db ON db.node = ed.b),
tri AS (
  SELECT w1.u AS x, w1.v AS y, w2.v AS z
  FROM o w1 JOIN o w2 ON w2.u = w1.u
                     AND (w1.dv, w1.v) < (w2.dv, w2.v)
            JOIN o c ON c.u = w1.v AND c.v = w2.v),
tc AS (SELECT node, CAST(count(*) AS BIGINT) AS n_tri FROM (
         SELECT x AS node FROM tri UNION ALL
         SELECT y AS node FROM tri UNION ALL
         SELECT z AS node FROM tri) GROUP BY node)
SELECT h.host, d.deg, coalesce(tc.n_tri, 0) AS n_tri,
  CASE WHEN d.deg >= 2
       THEN (2000000 * coalesce(tc.n_tri, 0)) // (d.deg * (d.deg - 1))
       ELSE 0 END AS clust_micro
FROM dg d JOIN hid h ON h.node = d.node
LEFT JOIN tc ON tc.node = d.node"""


# ---------------------------------------------------------------------------
# Hand-written pairs: rows and parts that are not a plain projection of
# one operator's output.
# ---------------------------------------------------------------------------


def q_geoparse_full(sf_dir: str):
    """Geoparse values AND the text-byte-identity invariant through the
    FULL flagship pipeline (the ``geoparse`` and ``text_byte_identity``
    operators in one row): the parsed coordinates/cell and the
    byte-exact text must both survive mask + verify untouched."""
    return flagship(sf_dir).select_columns(
        ["url", "lat", "lon", "x", "y", "cell", "text"])


def _geoparse_full_sql(base: dict) -> str:
    return (f"WITH {oracle.points_cte(SEED)} "
            "SELECT url, lat, lon, x, y, cell, text FROM points")


def q_evaluate_full(sf_dir: str):
    """evaluate() scalar stats + the absolute NND summary in ONE row
    (the evaluate and nnd operators; evaluate already subsumes
    displacement_summary, central_drift, k_summary and k_satisfaction —
    the reference composes them the same way, `analysis.py:49-79`)."""
    ev = q_evaluate(sf_dir)
    nd = q_nnd(sf_dir)
    cols = {n: ev.column(n) for n in ev.column_names}
    cols.update({n: nd.column(n) for n in nd.column_names})
    return pa.table(cols)


def _evaluate_full_sql(base: dict) -> str:
    return f"SELECT * FROM ({base['evaluate']}) CROSS JOIN ({base['nnd']})"


def q_text_signals(sf_dir: str):
    """ALL stateless per-doc text signals in one fused scan (the
    token_stats, quality_score, lang_id, fingerprint, token_count,
    repetition, quality_filter and normalize_text operators; its oracle
    joins their eight oracles on doc_id): one read, one map
    stage, 15 per-doc columns — the single-pass shape the standalone
    operators compose into at scale."""
    from .text.quality import text_signals

    return text_signals(_docs_ds(sf_dir))


def _text_signals_sql(base: dict) -> str:
    components = {
        "t0": base["token_stats"],
        "t1": base["quality_score"],
        "t2": base["lang_id"],
        "t3": base["fingerprint"],
        "t4": base["token_count"],
        "t5": base["repetition"],
        "t6": base["quality_filter"],
        "t7": ("SELECT doc_id, text AS norm_text, changed FROM ("
               + base["normalize_text"] + ")"),
    }
    with_ = ",\n".join(f"{k} AS ({v})" for k, v in components.items())
    return (
        f"WITH {with_}\n"
        "SELECT t0.doc_id, t0.n_tokens, t0.n_stopwords, t0.stop_ratio,\n"
        "  t1.quality_score, t2.lang_pred, t3.fingerprint,\n"
        "  t4.n_ws_tokens, t4.n_bpe_tokens,\n"
        "  t5.dup_word_frac, t5.top_word_frac, t5.top_bigram_frac,\n"
        "  t6.keep, t6.reason, t7.norm_text, t7.changed\n"
        "FROM t0 JOIN t1 USING (doc_id) JOIN t2 USING (doc_id)\n"
        "  JOIN t3 USING (doc_id) JOIN t4 USING (doc_id)\n"
        "  JOIN t5 USING (doc_id) JOIN t6 USING (doc_id)\n"
        "  JOIN t7 USING (doc_id)")


def _k_salted(sf_dir: str):
    """The hot-cell salting shuffle plan (salt=4); it must reproduce the
    unsalted k_anonymity oracle bit-for-bit."""
    return calculate_k(flagship(sf_dir), read_addresses(sf_dir, seed=SEED),
                       mode="shuffle", salt=4)


def _pii_fused(sf_dir: str):
    """pii_stats + pii_redact fused in one scan over the injected corpus."""
    from .text.pii import pii_redact_batch, pii_stats_batch, with_pii

    def both(b: pa.Table) -> pa.Table:
        s = pii_stats_batch(b)
        r = pii_redact_batch(b)
        return pa.table({
            "doc_id": s.column("doc_id"),
            "n_email": s.column("n_email"),
            "n_ipv4": s.column("n_ipv4"),
            "n_phone": s.column("n_phone"),
            "text": r.column("text"),
            "n_redacted": r.column("n_redacted"),
        })

    return with_pii(_docs_ds(sf_dir)).map_batches(both, batch_format="pyarrow")


def _pii_fused_sql(base: dict) -> str:
    return (f"WITH s AS ({base['pii_stats']}),\n"
            f"r AS ({base['pii_redact']})\n"
            "SELECT s.doc_id, s.n_email, s.n_ipv4, s.n_phone, "
            "r.text, r.n_redacted FROM s JOIN r USING (doc_id)")


def _with_column(res, name: str, fn: Callable):
    """``res`` as a Dataset with ``name`` = fn(batch) appended."""
    return _as_ds(res).map_batches(
        lambda b: b.append_column(name, fn(b)), batch_format="pyarrow")


def _source_similarity_keyed(sf_dir: str):
    """source_similarity keyed by the pair 'source_a|source_b'."""
    import pyarrow.compute as pc

    return _with_column(q_source_similarity(sf_dir), "key", lambda b: (
        pc.binary_join_element_wise(b.column("source_a"), b.column("source_b"),
                                    "|")))


def _source_similarity_keyed_sql(base: dict) -> str:
    return ("SELECT *, source_a || '|' || source_b AS key FROM ("
            + base["source_similarity"] + ")")


def _bm25_search_termed(sf_dir: str):
    """bm25_search with the query carried as the term 'q<query_id>'."""
    import pyarrow.compute as pc

    return _with_column(q_bm25_search(sf_dir), "term", lambda b: (
        pc.binary_join_element_wise(
            pa.array(["q"] * len(b), type=pa.string()),
            pc.cast(b.column("query_id"), pa.string()), "")))


def _bm25_search_termed_sql(base: dict) -> str:
    return "SELECT *, 'q' || query_id AS term FROM (" + base["bm25_search"] + ")"


def _zipf_long(sf_dir: str):
    """zipf_fit's one row as two (key, n_tokens_fit, value) rows."""
    zf = q_zipf_fit(sf_dir)
    keys = ["slope", "intercept"]
    return pa.table({
        "key": pa.array(keys, type=pa.string()),
        "n_tokens_fit": pa.array([zf.column("n_tokens_fit")[0].as_py()] * 2,
                                 type=pa.int64()),
        "value": pa.array([zf.column(k)[0].as_py() for k in keys],
                          type=pa.float64()),
    })


def _zipf_long_sql(base: dict) -> str:
    return ("SELECT u.key, z.n_tokens_fit, CASE u.key WHEN 'slope' "
            "THEN z.slope ELSE z.intercept END AS value "
            "FROM (" + base["zipf_fit"] + ") z, "
            "(SELECT unnest(['slope', 'intercept']) AS key) u")


def _dup_clusters_survivor(sf_dir: str):
    """dup_clusters with survivor = (node is its cluster's min id)."""
    import pyarrow.compute as pc

    return _with_column(_dup_clusters_materialized(sf_dir), "survivor",
                        lambda b: pc.cast(pc.equal(b.column("node"),
                                                   b.column("cluster_id")),
                                          pa.int64()))


def _dup_clusters_survivor_sql(base: dict) -> str:
    return ("SELECT node, cluster_id, "
            "CAST(node = cluster_id AS BIGINT) AS survivor "
            "FROM (" + base["dup_clusters"] + ")")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One per-operator query: engine function + oracle SQL builder."""

    fn: Callable                           # sf_dir -> Dataset | Table | frame
    sql: Callable[[], str] | None = None   # None: rows-only


@dataclass(frozen=True)
class Const:
    """A constant column of a union part."""

    value: object

    def engine(self, b: pa.Table, typ: pa.DataType):
        return pa.array([self.value] * len(b), type=typ)

    def sql(self) -> str:
        v = self.value
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        if isinstance(v, datetime):
            return f"TIMESTAMP '{v:%Y-%m-%d %H:%M:%S}'"
        return repr(v)


@dataclass(frozen=True)
class Pack:
    """Exact int64 ``a * k + b * kb`` of two integer source columns."""

    a: str
    k: int
    b: str
    kb: int = 1

    def engine(self, b: pa.Table, typ: pa.DataType):
        import pyarrow.compute as pc

        i64 = pa.int64()
        return pc.add_checked(
            pc.multiply_checked(b.column(self.a).cast(i64), self.k),
            pc.multiply_checked(b.column(self.b).cast(i64), self.kb)).cast(typ)

    def sql(self) -> str:
        return f'"{self.a}" * {self.k} + "{self.b}" * {self.kb}'


@dataclass(frozen=True)
class Col:
    """A source column of a union part (``Part.cols`` takes its name)."""

    name: str

    def engine(self, b: pa.Table, typ: pa.DataType):
        return b.column(self.name).cast(typ)

    def sql(self) -> str:
        return f'"{self.name}"'


@dataclass(frozen=True)
class Part:
    """One operator's output projected onto a union row's schema.

    ``cols`` gives, per schema field, a source column name, a ``Const``
    or a ``Pack`` (default: the schema's own names); ``where`` keeps the
    rows whose column equals a value. ``fn`` (sf_dir -> result) and
    ``sql`` (full per-op oracle map -> SQL) replace the operator's own
    engine function and oracle where the part is not a plain projection.
    """

    tag: str
    op: str
    cols: Sequence | None = None
    where: tuple | None = None
    fn: Callable | None = None
    sql: Callable[[dict], str] | None = None

    def columns(self, schema: pa.Schema) -> list:
        return [Col(c) if isinstance(c, str) else c
                for c in (self.cols or schema.names)]

    def has_oracle(self) -> bool:
        return self.sql is not None or OPS[self.op].sql is not None


@dataclass(frozen=True)
class Row:
    """A registered row: a tagged union (``schema`` + ``parts``) or a
    hand-written ``fn``/``sql`` pair (sql takes the per-op oracle map)."""

    schema: pa.Schema | None = None
    parts: Sequence[Part] = ()
    fn: Callable | None = None
    sql: Callable[[dict], str] | None = None


_SQL_TYPES = {"string": "VARCHAR", "int64": "BIGINT", "double": "DOUBLE",
              "timestamp[us]": "TIMESTAMP"}


def _as_ds(res):
    import pandas as pd
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res
    if isinstance(res, pd.DataFrame):
        res = pa.Table.from_pandas(res, preserve_index=False)
    return ray.data.from_arrow(res)


def _project(part: Part, schema: pa.Schema, sf_dir: str):
    """Engine side of one union part: the operator's result, filtered by
    ``where``, projected and cast onto ``schema`` behind a ``part`` tag."""
    import pyarrow.compute as pc

    tag, where, cols = part.tag, part.where, part.columns(schema)
    res = (part.fn or OPS[part.op].fn)(sf_dir)

    def project(b: pa.Table) -> pa.Table:
        if where:
            b = b.filter(pc.equal(b.column(where[0]), where[1]))
        out = {"part": pa.array([tag] * len(b), type=pa.string())}
        for f, c in zip(schema, cols):
            out[f.name] = c.engine(b, f.type)
        return pa.table(out)

    return _as_ds(res).map_batches(project, batch_format="pyarrow")


def _part_sql(part: Part, schema: pa.Schema, base: dict) -> str:
    """Oracle side of one union part, cast onto ``schema``."""
    src = part.sql(base) if part.sql else base[part.op]
    cols = ", ".join(
        f'CAST({c.sql()} AS {_SQL_TYPES[str(f.type)]}) AS "{f.name}"'
        for f, c in zip(schema, part.columns(schema)))
    where = (f' WHERE "{part.where[0]}" = {Const(part.where[1]).sql()}'
             if part.where else "")
    return f"SELECT '{part.tag}' AS part, {cols} FROM ({src}){where}"


def _row_fn(row) -> Callable:
    if isinstance(row, str):
        return OPS[row].fn
    if row.fn:
        return row.fn

    def union(sf_dir: str):
        dss = [_project(p, row.schema, sf_dir) for p in row.parts]
        return dss[0].union(*dss[1:])

    return union


def _row_sql(row, base: dict) -> str | None:
    """The row's oracle, or None for a rows-only row."""
    if isinstance(row, str):
        return base.get(row)
    if row.fn:
        return row.sql(base)
    if not any(p.has_oracle() for p in row.parts):
        return None
    return "\nUNION ALL\n".join(_part_sql(p, row.schema, base)
                                for p in row.parts)


OPS: dict[str, Op] = {
    # geospatial reference surface (SURVEY §2.1-2.4)
    "webpages": Op(q_webpages, _webpages_sql),
    "geoparse": Op(q_geoparse, _geoparse_sql),
    "text_byte_identity": Op(q_text_byte_identity, _text_byte_identity_sql),
    "donut_uniform": Op(q_donut_uniform, lambda: _donut_sql("uniform")),
    "donut_areal": Op(q_donut_areal, lambda: _donut_sql("areal")),
    "donut_gaussian": Op(q_donut_gaussian, _donut_gaussian_sql),
    "donut_contained": Op(q_donut_contained, _donut_contained_sql),
    "displacement": Op(q_displacement, _displacement_sql),
    "displacement_summary": Op(q_displacement_summary,
                               _displacement_summary_sql),
    "central_drift": Op(q_central_drift, _central_drift_sql),
    "k_anonymity": Op(q_k_anonymity, _k_anonymity_sql),
    "k_satisfaction": Op(q_k_satisfaction, _k_satisfaction_sql),
    "k_summary": Op(q_k_summary, _k_summary_sql),
    "nnd": Op(q_nnd, _nnd_sql),
    "addresses": Op(q_addresses, _addresses_sql),
    "suppress": Op(q_suppress, _suppress_sql),
    "locationswap": Op(q_locationswap, _locationswap_sql),
    "street_mask": Op(q_street, _street_mask_sql),
    "street_mask_sharded": Op(q_street_sharded, _street_mask_sql),
    "street_k": Op(q_street_k, _street_k_sql),
    "snap_to_streets": Op(q_snap_to_streets, _snap_to_streets_sql),
    "voronoi": Op(q_voronoi, _voronoi_sql),
    # text signals, dedup, similarity, multimodal (SURVEY §2.6)
    "token_stats": Op(q_token_stats, _token_stats_sql),
    "quality_score": Op(q_quality_score, _quality_score_sql),
    "lang_id": Op(q_lang_id, _lang_sql),
    "fingerprint": Op(q_fingerprint, _fingerprint_sql),
    "dedup_exact": Op(q_dedup_exact, _dedup_exact_sql),
    "dedup_jaccard": Op(q_dedup_jaccard, _dedup_jaccard_sql),
    "dedup_jaccard_ngram": Op(q_dedup_jaccard_ngram,
                              lambda: oracle.jaccard_ngram_sql(threshold=0.8)),
    "token_count": Op(q_token_count, _token_count_sql),
    "repetition": Op(q_repetition, _repetition_sql),
    "source_stats": Op(q_source_stats, _source_stats_sql),
    "quality_filter": Op(q_quality_filter, _quality_filter_sql),
    "ngram_topk": Op(q_ngram_topk, lambda: _ngram_topk_sql(k=20)),
    "sample_mix": Op(q_sample_mix, lambda: _sample_mix_sql(SEED)),
    "dedup_spans": Op(q_dedup_spans, lambda: _dedup_spans_sql(k=15)),
    "decontaminate": Op(q_decontaminate,
                        lambda: _decontaminate_sql(n=5, mod=97)),
    "fingerprint_winnow": Op(q_fingerprint_winnow,
                             lambda: oracle.winnow_sql(k=5, w=4)),
    "dedup_minhash": Op(q_dedup_minhash,
                        lambda: oracle.minhash_pairs_sql(threshold=0.8)),
    "dedup_simhash": Op(q_dedup_simhash,
                        lambda: oracle.simhash_pairs_sql(max_hamming=3)),
    "embedding_pairs": Op(q_embedding_pairs, _embedding_pairs_sql),
    "ann_topk": Op(q_ann_topk, _ann_topk_sql),
    "ann_lsh": Op(q_ann_lsh),
    "ann_ivf": Op(q_ann_ivf),
    "ann_pairs_lsh": Op(q_ann_pairs_lsh),
    "dedup_semantic": Op(q_dedup_semantic),
    "media_metadata": Op(q_media_metadata, _media_metadata_sql),
    "media_decode": Op(q_media_decode),
    # analysis
    "estimate_k_areal": Op(q_estimate_k_areal, _estimate_k_areal_sql),
    "ripleys_k": Op(q_ripley,
                    lambda: oracle.ripley_sql(SEED, simulations=19, steps=10)),
    "evaluate": Op(q_evaluate, _evaluate_sql),
    "checkpointed_flagship": Op(q_checkpointed_flagship,
                                _checkpointed_flagship_sql),
    # events
    "tumbling_window": Op(q_tumbling_window, _tumbling_window_sql),
    "asof_join": Op(q_asof_join, _asof_join_sql),
    "range_join": Op(q_range_join, _range_join_sql),
    "sessionize": Op(q_sessionize, _sessionize_sql),
    # curation
    "pii_stats": Op(q_pii_stats, lambda: oracle.pii_stats_sql(every=5)),
    "pii_redact": Op(q_pii_redact, lambda: oracle.pii_redact_sql(every=5)),
    "chunk_dedup": Op(q_chunk_dedup, lambda: oracle.chunk_dedup_sql(size=16)),
    "dup_clusters": Op(q_dup_clusters,
                       lambda: oracle.dup_clusters_sql(threshold=0.8, ngram=5)),
    "quantiles": Op(q_quantiles, _quantiles_sql),
    "hopping_window": Op(q_hopping_window, _hopping_window_sql),
    "top_quality_per_source": Op(q_top_quality_per_source,
                                 _top_quality_per_source_sql),
    "normalize_text": Op(q_normalize_text, _normalize_text_sql),
    "domain_stats": Op(q_domain_stats, _domain_stats_sql),
    "unigram_logprob": Op(q_unigram_logprob, _unigram_logprob_sql),
    "dedup_survivors": Op(q_dedup_survivors, _dedup_survivors_sql),
    "window_distinct_users": Op(q_window_distinct_users,
                                _window_distinct_users_sql),
    "window_top_types": Op(q_window_top_types, _window_top_types_sql),
    "pricing_summary": Op(q_pricing_summary, _pricing_summary_sql),
    "top_orders": Op(q_top_orders, _top_orders_sql),
    "filter_by_nll": Op(q_filter_by_nll, _filter_by_nll_sql),
    "sample_fixed_k": Op(q_sample_fixed_k, _sample_fixed_k_sql),
    "geo_scrub": Op(q_geo_scrub, _geo_scrub_sql),
    "source_quantiles": Op(q_source_quantiles, _source_quantiles_sql),
    "media_size_quantiles": Op(q_media_size_quantiles,
                               _media_size_quantiles_sql),
    "session_stats": Op(q_session_stats, _session_stats_sql),
    "event_funnel": Op(q_event_funnel, _event_funnel_sql),
    "hll_distinct": Op(q_hll_users,
                       lambda: hll_sql("events", "user_id", "event_type")),
    "weighted_sample": Op(q_weighted_sample, _weighted_sample_sql),
    "host_cap_sample": Op(q_host_cap_sample, _host_cap_sample_sql),
    "host_blocklist_filter": Op(q_host_blocklist_filter,
                                _host_blocklist_filter_sql),
    "cross_corpus_dedup": Op(q_cross_corpus_dedup, oracle.cross_corpus_sql),
    "media_frames": Op(q_media_frames),
    "cms_counts": Op(q_cms_counts, lambda: cms_sql("documents", _CMS_PROBES)),
    "url_dedup": Op(q_url_dedup, _url_dedup_sql),
    "tfidf_topk": Op(q_tfidf_topk, _tfidf_topk_sql),
    "outlier_flags": Op(q_outlier_flags, _outlier_flags_sql),
    # round 5
    "sequence_pack": Op(q_sequence_pack),
    "shuffle_shards": Op(q_shuffle_shards),
    "decontaminate_bloom": Op(
        q_decontaminate_bloom,
        lambda: oracle.decontaminate_bloom_sql(n=5, mod=97)),
    "bm25_topk": Op(q_bm25_topk, lambda: _bm25_sql(k=3, top_v=4096)),
    "ann_pq": Op(q_ann_pq),
    "host_rank": Op(q_host_rank, lambda: oracle.host_rank_sql(SEED)),
    "bigram_logprob": Op(q_bigram_logprob,
                         lambda: _bigram_lm_sql(top_v=4096)),
    "dsir_weights": Op(q_dsir_weights,
                       lambda: dsir_sql(target_lang="en", seed=SEED)),
    "dsir_sample": Op(q_dsir_sample,
                      lambda: dsir_sql(target_lang="en", seed=SEED, k=100)),
    "source_similarity": Op(q_source_similarity, oracle.source_similarity_sql),
    "line_filter": Op(q_line_filter, lambda: line_filter_sql(seed=SEED)),
    "bm25_search": Op(q_bm25_search, lambda: bm25_search_sql(k=10)),
    "snapshot_delta": Op(q_snapshot_delta,
                         lambda: snapshot_delta_sql(oracle.pages_cte(SEED))),
    "snapshot_delta_stats": Op(
        q_snapshot_delta_stats,
        lambda: snapshot_delta_sql(oracle.pages_cte(SEED), per_host=True)),
    "host_components": Op(q_host_components,
                          lambda: oracle.host_components_sql(SEED)),
    "window_anomaly": Op(q_window_anomaly, window_anomaly_sql),
    "zipf_fit": Op(q_zipf_fit, zipf_fit_sql),
    "trimmed_source_stats": Op(q_trimmed_source_stats,
                               trimmed_source_stats_sql),
    "source_token_hll": Op(q_source_token_hll, source_token_hll_sql),
    "dup_gram_fraction": Op(q_dup_gram_fraction,
                            lambda: oracle.dup_gram_fraction_sql(k=8)),
    "curate_corpus": Op(q_curate_corpus, curate_corpus_sql),
    "sample_fixed_k_per_source": Op(q_sample_fixed_k_per_source,
                                    _sample_fixed_k_per_source_sql),
    "source_mix_weights": Op(q_source_mix_weights, _source_mix_weights_sql),
    "source_budget_alloc": Op(q_source_budget_alloc,
                              _source_budget_alloc_sql),
    "source_kl": Op(q_source_kl, _source_kl_sql),
    "media_phash": Op(q_media_phash, _media_phash_sql),
    "media_phash_pairs": Op(q_media_phash_pairs, _media_phash_pairs_sql),
    "token_budget_cut": Op(q_token_budget_cut, _token_budget_cut_sql),
    "weighted_quantiles": Op(q_weighted_quantiles, _weighted_quantiles_sql),
    "perplexity_buckets": Op(q_perplexity_buckets, _perplexity_buckets_sql),
    "embedding_gram": Op(q_embedding_gram, _embedding_gram_sql),
    "embedding_pca": Op(q_embedding_pca),
    "label_centroid_sim": Op(q_label_centroid_sim, _label_centroid_sim_sql),
    "embedding_outliers": Op(q_embedding_outliers, _embedding_outliers_sql),
    "train_split": Op(q_train_split, _train_split_sql),
    "column_histogram": Op(q_column_histogram,
                           lambda: int_histogram_sql("documents", "n_chars")),
    "novel_gram_fraction": Op(q_novel_gram_fraction,
                              lambda: oracle.novel_gram_fraction_sql(k=8)),
    "dedup_survivors_quality": Op(q_dedup_survivors_quality,
                                  _dedup_survivors_quality_sql),
    "dedup_lines": Op(q_dedup_lines, lambda: dedup_lines_sql(seed=SEED)),
    "pmi_topk": Op(q_pmi_topk, lambda: _pmi_topk_sql(k=20, min_count=5)),
    "kmeans_clusters": Op(q_kmeans_clusters, lambda: kmeans_sql(k=8, iters=3)),
    "html_extract": Op(q_html_extract, _html_extract_sql),
    "extract_links": Op(q_extract_links, _extract_links_sql),
    "late_events": Op(q_late_events, _late_events_sql),
    "host_degrees": Op(q_host_degrees, _host_degrees_sql),
    "rasterize_points": Op(q_rasterize_points, _rasterize_points_sql),
    "zonal_stats": Op(q_zonal_stats, _zonal_stats_sql),
    "knn_join": Op(q_knn_join, _knn_join_sql),
    "dbscan_clusters": Op(q_dbscan_clusters,
                          lambda: _dbscan_sql(DBSCAN_EPS_M, DBSCAN_MIN_PTS)),
    "hotspot_cells": Op(q_hotspot_cells, _hotspot_cells_sql),
    "host_triangles": Op(q_host_triangles, _host_triangles_sql),
}

S, I64, F64 = pa.string(), pa.int64(), pa.float64()
EPOCH = datetime(1970, 1, 1)

# The driver's correctness panel records at most 50 rows per round, so
# every operator's values ride one of these 50 checked rows.
ROWS: dict[str, str | Row] = {
    # geospatial reference surface (SURVEY §2.1-2.4)
    "webpages": Row(pa.schema({"url": S, "warc_ts": pa.timestamp("us"),
                               "text": S, "lang": S, "a": I64, "b": I64}), [
        Part("pages", "webpages",
             ("url", "warc_ts", "text", "lang", Const(0), Const(0))),
        # text re-extracted from the rich html: byte-identical recovery
        Part("extract", "html_extract", (Const(""), Const(EPOCH), "text",
                                         Const(""), "doc_id", "identical")),
        # hrefs recovered against the closed-form host-graph arithmetic
        Part("links", "extract_links",
             (Const(""), Const(EPOCH), Const(""), Const(""),
              Pack("doc_id", 4, "slot"), "dst_doc")),
        Part("degrees", "host_degrees",
             ("host", Const(EPOCH), "metric", Const(""), "v", Const(0)))]),
    "geoparse": Row(fn=q_geoparse_full, sql=_geoparse_full_sql),
    "donut_masks": Row(pa.schema({"url": S, "mx": F64, "my": F64}), [
        Part("uniform", "donut_uniform"), Part("areal", "donut_areal"),
        Part("gaussian", "donut_gaussian")]),
    "containment": Row(pa.schema({"url": S, "mx": F64, "my": F64,
                                  "UNMASKED": I64}), [
        Part("contained", "donut_contained"),
        Part("locationswap", "locationswap")]),
    "displacement": "displacement",
    "evaluate": Row(fn=q_evaluate_full, sql=_evaluate_full_sql),
    "k_anonymity": Row(pa.schema({"doc_id": I64, "k_anonymity": I64}), [
        Part("addresses", "k_anonymity"),
        Part("salted", "k_anonymity", fn=_k_salted),
        Part("areal", "estimate_k_areal"),
        Part("raster", "rasterize_points",
             (Pack("cell_row", 1_000_000, "cell_col"), "n")),
        Part("zonal", "zonal_stats",
             ("poly_id", Pack("n_cells", 1_000_000_000, "n_points"))),
        # the quantized z-score; nbr_sum/w_nbrs are checked per operator
        Part("hotspot", "hotspot_cells",
             (Pack("cell_row", 1_000_000, "cell_col"), "gi_micro"))]),
    "suppress": "suppress",
    "addresses": Row(pa.schema({"addr_id": I64, "lat": F64, "lon": F64,
                                "a": I64}), [
        Part("table", "addresses", ("addr_id", "lat", "lon", Const(0))),
        Part("knn", "knn_join", ("addr_id", "dist2", "rank", "doc_id"))]),
    "street_masks": Row(pa.schema({"url": S, "snap_node": I64,
                                   "on_node": I64}), [
        Part("broadcast", "street_mask"),
        Part("sharded", "street_mask_sharded")]),
    "graph_masks": Row(pa.schema({"url": S, "v1": F64, "v2": F64}), [
        Part("street_k", "street_k", ("url", "on_node", "sup_ok")),
        Part("snap", "snap_to_streets", ("url", "mx", "my")),
        Part("voronoi", "voronoi", ("url", "on_boundary", Const(1.0))),
        Part("dbscan", "dbscan_clusters", ("url", "cluster", "is_core"))]),
    "ripleys_k": "ripleys_k",
    "checkpointed_flagship": "checkpointed_flagship",
    # text signals / corpus curation (SURVEY §2.6)
    "text_signals": Row(fn=q_text_signals, sql=_text_signals_sql),
    "corpus_stats": Row(pa.schema({"key": S, "n_rows": I64, "n_tokens": I64,
                                   "n_chars": I64, "avg_chars": F64}), [
        Part("source", "source_stats",
             ("source", "n_docs", "n_tokens", "n_chars", "avg_chars")),
        Part("host", "domain_stats",
             ("host", "n_pages", Const(0), "n_chars", Const(0.0))),
        # the Jaccard estimate is an exact dyadic n/64
        Part("similarity", "source_similarity",
             ("key", "n_match", Const(0), Const(0), "jaccard_est"),
             fn=_source_similarity_keyed, sql=_source_similarity_keyed_sql),
        Part("zipf", "zipf_fit",
             ("key", "n_tokens_fit", Const(0), Const(0), "value"),
             fn=_zipf_long, sql=_zipf_long_sql),
        Part("mix", "source_mix_weights",
             ("source", "n_docs", "q_sqrt", "w_ppm", Const(0.0))),
        Part("alloc", "source_budget_alloc",
             ("source", "n_docs", "alloc", "budget", Const(0.0))),
        Part("kl", "source_kl",
             ("source", "n_tokens", "s_q", Const(0), "kl"))]),
    "topk_terms": Row(pa.schema({"doc_id": I64, "rank": I64, "term": S,
                                 "score": I64}), [
        Part("corpus_bigram", "ngram_topk",
             (Const(-1), Const(0), "gram", "n")),
        Part("tfidf", "tfidf_topk", ("doc_id", "rank", "token", "score_micro")),
        Part("bm25", "bm25_topk", ("doc_id", "rank", "token", "score_micro")),
        Part("search", "bm25_search", ("doc_id", "rank", "term", "score_micro"),
             fn=_bm25_search_termed, sql=_bm25_search_termed_sql),
        Part("pmi", "pmi_topk", (Const(-1), "n", "gram", "pmi_micro"))]),
    "fingerprint_winnow": "fingerprint_winnow",
    "lm_scores": Row(pa.schema({"doc_id": I64, "n_tokens": I64,
                                "nll": F64}), [
        Part("scored", "unigram_logprob"),
        Part("kept", "filter_by_nll"),
        # n_tokens counts adjacent bigrams
        Part("bigram", "bigram_logprob"),
        # the int64 Gumbel key casts to double exactly (|key| << 2^53)
        Part("dsir", "dsir_weights", ("doc_id", "n_feats", "key_micro")),
        Part("bucket", "perplexity_buckets", ("doc_id", "n_tokens", "bucket"))]),
    "samples": Row(pa.schema({"doc_id": I64}), [
        Part("mix", "sample_mix"),
        Part("weighted", "weighted_sample"),
        Part("fixed_k", "sample_fixed_k"),
        Part("dsir", "dsir_sample"),
        Part("per_source", "sample_fixed_k_per_source"),
        Part("budget", "token_budget_cut", where=("keep", 1)),
        # train is the exact complement of test and val
        Part("split_test", "train_split", where=("split", "test")),
        Part("split_val", "train_split", where=("split", "val"))]),
    "host_filters": Row(pa.schema({"doc_id": I64, "host": S, "v": I64}), [
        Part("cap", "host_cap_sample", ("doc_id", "host", Const(0))),
        Part("blocklist", "host_blocklist_filter",
             ("doc_id", "host", Const(0))),
        Part("rank", "host_rank", (Const(-1), "host", "rank_micro")),
        Part("components", "host_components",
             (Const(-1), "host", "component")),
        # clust_micro < 10^7; deg is checked per operator
        Part("triangles", "host_triangles",
             (Const(-1), "host", Pack("n_tri", 10_000_000, "clust_micro")))]),
    "url_dedup": Row(pa.schema({"canonical_url": S, "kept_fetch_id": I64,
                                "doc_id": I64, "n_fetches": I64}), [
        Part("canonical", "url_dedup"),
        Part("delta", "snapshot_delta",
             ("url", "status", Const(-1), Const(-1))),
        Part("delta_hosts", "snapshot_delta_stats",
             ("host", "status", Const(-1), "n"))]),
    "pii": Row(pa.schema({"doc_id": I64, "n_email": I64, "n_ipv4": I64,
                          "n_phone": I64, "text": S, "n_redacted": I64}), [
        Part("pii", "pii_stats", fn=_pii_fused, sql=_pii_fused_sql),
        Part("lines", "line_filter",
             ("doc_id", "n_lines", "n_kept", Const(0), "text",
              Pack("n_lines", 1, "n_kept", -1))),
        # each doc's curation verdict rides the text column
        Part("curation", "curate_corpus",
             ("doc_id", Const(0), Const(0), Const(0), "status", Const(0))),
        Part("linededup", "dedup_lines",
             ("doc_id", "n_lines", "n_kept", Const(0), "text",
              Pack("n_lines", 1, "n_kept", -1)))]),
    "geo_scrub": "geo_scrub",
    "quantile_report": Row(pa.schema({"q": F64, "value": F64}), [
        Part("lineitem_price", "quantiles"),
        Part("media_bytes", "media_size_quantiles"),
        Part("token_weighted", "weighted_quantiles")]),
    "source_quantiles": Row(pa.schema({"source": S, "a": F64, "b": F64,
                                       "c": F64}), [
        Part("quartiles", "source_quantiles", ("source", "q25", "q50", "q75")),
        Part("trimmed", "trimmed_source_stats",
             ("source", "n_kept", "trimmed_mean", Const(0.0)))]),
    "outlier_flags": Row(pa.schema({"doc_id": I64, "source": S,
                                    "n_chars": I64, "flag": I64}), [
        Part("chars", "outlier_flags"),
        Part("embedding", "embedding_outliers",
             ("vec_id", Const("embedding"), "dist2", "outlier")),
        Part("kmeans", "kmeans_clusters",
             ("vec_id", Const("kmeans"), "dist2", "cluster"))]),
    "decontaminate": Row(pa.schema({"doc_id": I64, "n_hit_grams": I64,
                                    "contaminated": I64}), [
        Part("exact", "decontaminate"), Part("bloom", "decontaminate_bloom")]),
    "cross_corpus_dedup": "cross_corpus_dedup",
    # dedup family
    "dedup_exact": "dedup_exact",
    "jaccard_pairs": Row(pa.schema({"doc_a": I64, "doc_b": I64,
                                    "sim": F64}), [
        Part("token", "dedup_jaccard"), Part("ngram", "dedup_jaccard_ngram")]),
    "dedup_minhash": "dedup_minhash",
    "dedup_simhash": "dedup_simhash",
    "dup_clusters": Row(pa.schema({"node": I64, "cluster_id": I64,
                                   "survivor": F64}), [
        Part("clusters", "dup_clusters", fn=_dup_clusters_survivor,
             sql=_dup_clusters_survivor_sql),
        Part("best", "dedup_survivors_quality",
             ("doc_id", "cluster_id", "quality_score"))]),
    "dedup_spans": Row(pa.schema({"k": I64, "a": I64, "b": I64, "v": F64}), [
        Part("spans", "dedup_spans",
             ("gram_hash", "n_docs", "first_doc", Const(0.0))),
        Part("fraction", "dup_gram_fraction",
             ("doc_id", "n_grams", "n_dup", "dup_frac")),
        Part("novelty", "novel_gram_fraction",
             ("doc_id", "n_grams", "n_new", "novel_frac"))]),
    "chunk_dedup": "chunk_dedup",
    # similarity / ANN
    "embedding_pairs": Row(pa.schema({"vec_a": I64, "vec_b": I64,
                                      "v": I64}), [
        Part("pairs", "embedding_pairs", ("vec_a", "vec_b", Const(0))),
        Part("gram", "embedding_gram", ("i", "j", "v")),
        Part("centroid", "label_centroid_sim",
             ("label_a", "label_b", "cos_micro"))]),
    "ann_topk": "ann_topk",
    "ann_approx": Row(pa.schema({"query_id": I64, "rank": I64,
                                 "vec_id": I64}), [
        Part("lsh", "ann_lsh"), Part("ivf", "ann_ivf"), Part("pq", "ann_pq"),
        # one row per vector; the values are pinned vs numpy PCA by pytest
        Part("pca", "embedding_pca", ("vec_id", Const(2), "vec_id"))]),
    "ann_pairs_lsh": "ann_pairs_lsh",
    "dedup_semantic": "dedup_semantic",
    # multimodal
    "media_metadata": Row(pa.schema({"url": S, "media_bytes": I64,
                                     "media_md5": S}), [
        Part("meta", "media_metadata"),
        Part("phash", "media_phash", ("url", Const(0), "phash")),
        Part("pairs", "media_phash_pairs", ("url_a", "hamming", "url_b"))]),
    "media_pipeline": Row(pa.schema({"url": S, "v1": I64, "v2": I64}), [
        Part("decode", "media_decode", ("url", "height", "width")),
        Part("frames", "media_frames", ("url", "frame_idx", Const(0)))]),
    # sketches
    "sketch_counts": Row(pa.schema({"key": S, "n1": I64, "n2": I64,
                                    "est": F64}), [
        Part("hll", "hll_distinct",
             ("grp", "n_zero", "inv_sum_num", "estimate")),
        Part("cms", "cms_counts",
             ("token", "est_count", Const(0), Const(0.0))),
        Part("token_hll", "source_token_hll",
             ("grp", "n_zero", "inv_sum_num", "estimate")),
        Part("hist", "column_histogram",
             ("bin", "lo_edge", "count", Const(0.0)))]),
    # events / windows
    "windows": Row(pa.schema({"k1": I64, "k2": S, "n": I64, "v": F64}), [
        Part("tumbling", "tumbling_window",
             ("window_id", "user_id", "n_events", "sum_value")),
        Part("hopping", "hopping_window",
             ("window_start", "event_type", "n_events", "sum_value")),
        Part("distinct_users", "window_distinct_users",
             ("window_id", Const(""), "n_users", Const(0.0))),
        Part("top_types", "window_top_types",
             ("window_id", "event_type", "n_events", "rank")),
        Part("anomaly", "window_anomaly",
             ("window_id", "event_type", "n_events", "z"))]),
    "sessions": Row(pa.schema({"k1": I64, "k2": I64, "n": I64, "v": F64,
                               "v2": F64}), [
        Part("assign", "sessionize",
             ("event_id", "user_id", "session_seq", Const(0.0), Const(0.0))),
        Part("stats", "session_stats",
             ("user_id", "session_seq", "n_events", "sum_value",
              "duration_us")),
        Part("funnel", "event_funnel",
             ("user_id", Const(0), Const(0), "a_ts", "b_ts")),
        Part("late", "late_events",
             ("event_id", "user_id", "is_late", "lateness_us", Const(0.0)))]),
    "temporal_joins": Row(pa.schema({"event_id": I64, "val": I64}), [
        Part("asof", "asof_join", ("event_id", "last_orderkey")),
        Part("range", "range_join", ("event_id", "n_parts"))]),
    # the two per-doc layout passes between a curated corpus and a
    # training dataloader
    "sequence_pack": Row(pa.schema({"doc_id": I64, "a": I64, "b": I64,
                                    "c": I64}), [
        Part("pack", "sequence_pack", ("doc_id", "n_tokens", "seq_id",
                                       "offset"),
             sql=lambda base: _sequence_pack_sql()),
        Part("shuffle", "shuffle_shards", ("doc_id", "shard", "pos",
                                           Const(0)),
             sql=lambda base: _shuffle_shards_sql(n_shards=8))]),
    # relational
    "pricing_summary": "pricing_summary",
    "top_orders": "top_orders",
    "top_quality_per_source": "top_quality_per_source",
}

FULL_QUERIES = {name: op.fn for name, op in OPS.items()}
QUERIES = {name: _row_fn(row) for name, row in ROWS.items()}


def full_oracle_queries() -> dict[str, str]:
    """The per-operator oracle map (every ``OPS`` entry with a builder)."""
    return {name: op.sql() for name, op in OPS.items() if op.sql}


def oracle_queries() -> dict[str, str]:
    """The driver's oracle map: one SQL per oracle-gated row."""
    base = full_oracle_queries()
    out = {name: _row_sql(row, base) for name, row in ROWS.items()}
    return {name: sql for name, sql in out.items() if sql is not None}
