"""The three benchmark workloads and the DBSCAN probe.

Each workload has the same life cycle, driven by ``run.py``:

1. ``generate`` (a child process, while Ray starts): write the inputs
   from (seed, size) and compute the independent reference outputs;
2. ``setup`` (timed as ``setup_s``, with one warm-up ``rep``): load
   the inputs, build broadcast state, materialise;
3. ``prepare_check`` (untimed): references that need Ray;
4. ``rep`` (timed): one call into the public ``maskmypy_ray`` API;
   ``check`` compares its output with the reference (untimed);
5. ``layers`` (traced runs only): the per-layer probes.

The ``check_*`` functions are pure, so ``selftest.py`` can feed them
corrupted outputs without Ray.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import (dir_bytes, documents_table, write_chain_points,
                    write_corpus, write_documents)

LOW, HIGH = 100.0, 500.0       # donut radii (m)
MIN_K = 5                      # k-satisfaction threshold
CELL_M = 500.0                 # k-anonymity cell = donut high radius
FILES = 8                      # corpus files = read blocks
CHUNK = 8192                   # rows per in-process kernel slice
KNN_K, KNN_CELL_M = 3, 100.0
EPS, MIN_PTS = 300.0, 4        # registered DBSCAN operating point


@dataclass
class Rep:
    seconds: float
    items: int
    out: object
    parts: dict = field(default_factory=dict)
    traced: bool = False


def _median_part(reps: list[Rep], key: str) -> float:
    return statistics.median(r.parts[key] for r in reps)


class Workload:
    name = ""

    def __init__(self, work: str, seed: int, tracer):
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.ref: dict = {}
        # output-check results of probes run by ``layers``
        self.probe_errors: list[str | None] = []

    def p(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def save_ref(self, ref: dict, **arrays) -> None:
        with open(self.p("ref.json"), "w") as f:
            json.dump(ref, f)
        if arrays:
            np.savez(self.p("ref.npz"), **arrays)

    def load_ref(self) -> None:
        with open(self.p("ref.json")) as f:
            self.ref = json.load(f)
        if os.path.exists(self.p("ref.npz")):
            with np.load(self.p("ref.npz")) as z:
                self.ref.update({k: z[k] for k in z.files})

    def input_info(self) -> dict:
        return {"rows": self.ref["input_rows"],
                "bytes": dir_bytes(self.p("input"))}

    def prepare_check(self) -> None:
        pass


# --- mask_verify -------------------------------------------------------------


def check_k_stats(out: dict, ref: dict) -> str | None:
    want = {k: ref[k] for k in ("rows", "k_sat", "k_mean")}
    if out != want:
        return f"fused_mask_k_stats {out} != in-process FusedMaskKSat {want}"
    return None


def _k_stats(partials) -> dict:
    """The scalars fused_mask_k_stats derives from its partial sums."""
    rows = int(sum(partials.column("rows").to_pylist()))
    n_sat = sum(partials.column("n_sat").to_pylist())
    sum_k = sum(partials.column("sum_k").to_pylist())
    return {"rows": rows, "k_sat": round(float(n_sat) / rows, 3),
            "k_mean": round(float(sum_k) / rows, 2)}


class MaskVerify(Workload):
    """Streaming read -> geoparse -> contained donut -> k-count, no shuffle."""

    name = "mask_verify"
    BASE_DOCS, REPLICAS = 5000, 20

    def generate(self) -> None:
        from maskmypy_ray.analysis.k_anonymity import _compile_index_from_table
        from maskmypy_ray.flagship import FusedMaskKSat
        from maskmypy_ray.sources.boundary import boundary_polygon_set
        from maskmypy_ray.sources.webpages import addresses_table

        write_documents(self.p("input", "docs"), self.BASE_DOCS, self.seed)
        pages = write_corpus(self.p("input", "corpus"), self.BASE_DOCS,
                             self.seed, self.REPLICAS, FILES)
        addr = addresses_table(self.p("input", "docs"), seed=self.seed)
        idx = _compile_index_from_table(addr, CELL_M, dtype=np.float32)
        stats = _k_stats(FusedMaskKSat(boundary_polygon_set(), idx, LOW, HIGH,
                                       self.seed, MIN_K)(pages))
        self.save_ref({**stats, "input_rows": pages.num_rows})

    def setup(self) -> None:
        from maskmypy_ray.sources.boundary import boundary_polygon_set
        from maskmypy_ray.sources.webpages import addresses_table

        self.addr = addresses_table(self.p("input", "docs"), seed=self.seed)
        self.ps = boundary_polygon_set()

    def rep(self) -> Rep:
        import ray.data

        from maskmypy_ray.flagship import fused_mask_k_stats

        t0 = time.perf_counter()
        with self.tracer.span("flagship.fused_mask_k_stats"):
            pages = ray.data.read_parquet(
                self.p("input", "corpus"), columns=["doc_id", "text"],
                override_num_blocks=FILES)
            out = fused_mask_k_stats(pages, self.ps, self.addr, LOW, HIGH,
                                     self.seed, min_k=MIN_K, cell_m=CELL_M)
        return Rep(time.perf_counter() - t0, self.ref["rows"], out)

    def check(self, out) -> str | None:
        return check_k_stats(out, self.ref)

    def layers(self, reps: list[Rep], rep_s: float) -> dict:
        import pyarrow.parquet as pq

        from maskmypy_ray.analysis.k_anonymity import (
            _compile_index_from_table, count_in_circles)
        from maskmypy_ray.flagship import FusedMaskKSat
        from maskmypy_ray.stages.donut import contained_mask_arrays
        from maskmypy_ray.stages.geoparse import parse_points_arrays

        t = self.tracer
        with t.span("sources.read_parquet"):
            pages = pq.read_table(self.p("input", "corpus"),
                                  columns=["doc_id", "text"])
        idx = _compile_index_from_table(self.addr, CELL_M, dtype=np.float32)
        n = unmasked = retries = k_sat = 0
        for i in range(0, pages.num_rows, CHUNK):
            batch = pages.slice(i, CHUNK)
            with t.span("stages.geoparse.parse"):
                doc, x, y = parse_points_arrays(batch, dtype=np.float32)
            with t.span("stages.donut.contained_mask"):
                mx, my, r, pending = contained_mask_arrays(
                    self.ps, doc & 0xFFFFFFFF, x, y, LOW, HIGH, self.seed)
            dx, dy = mx - x, my - y
            d = np.sqrt(dx * dx + dy * dy)
            with t.span("analysis.k_anonymity.count_in_circles"):
                k = count_in_circles(idx, mx, my, d) + 1
            n += len(doc)
            unmasked += len(pending)
            retries += int(r.sum())
            k_sat += int((k >= MIN_K).sum())
        with t.span("flagship.kernel"):
            FusedMaskKSat(self.ps, idx, LOW, HIGH, self.seed, MIN_K)(pages)
        kernel = t.total("flagship.kernel")
        return {
            "sources.read_parquet_s": t.total("sources.read_parquet"),
            "stages.geoparse.parse_s": t.total("stages.geoparse.parse"),
            "stages.donut.contained_mask_s":
                t.total("stages.donut.contained_mask"),
            "analysis.k_anonymity.count_in_circles_s":
                t.total("analysis.k_anonymity.count_in_circles"),
            "flagship.kernel_s": kernel,
            "ray.overhead_frac": 1.0 - kernel / rep_s,
            "stages.geoparse.points": n,
            "stages.donut.unmasked": unmasked,
            "stages.donut.retries_sum": retries,
            "analysis.k_anonymity.k_sat_n": k_sat,
        }


# --- mask_checkpoint -----------------------------------------------------------


def read_manifests(out_dir: str) -> dict[int, dict]:
    mans = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name, "_MANIFEST.json")
        if name.startswith("part=") and os.path.exists(path):
            with open(path) as f:
                mans[int(name.split("=")[1])] = json.load(f)
    return mans


def check_checkpoint(full: dict, before: dict, resumed: dict, after: dict,
                     ref: dict) -> str | None:
    """Full pass matches the in-process per-shard reference; the resume
    recomputes exactly the dropped shards and reproduces every manifest's
    rows and checksum."""
    rows, sums = ref["shard_rows"], ref["shard_checksums"]
    if full["rows"] != sum(rows):
        return f"full pass wrote {full['rows']} rows, reference {sum(rows)}"
    for s in range(len(rows)):
        m = before.get(s)
        if m is None or (m["rows"], m["checksum"]) != (rows[s], sums[s]):
            return f"shard {s} manifest {m and (m['rows'], m['checksum'])} " \
                   f"!= reference {(rows[s], sums[s])}"
    redone = sorted(x["shard"] for x in resumed["shards"]
                    if x["status"] == "computed")
    if redone != ref["dropped"]:
        return f"resume recomputed shards {redone}, dropped {ref['dropped']}"
    for s in range(len(rows)):
        a, b = after.get(s), before[s]
        if a is None or (a["rows"], a["checksum"]) != (b["rows"], b["checksum"]):
            return f"shard {s} manifest after resume " \
                   f"{a and (a['rows'], a['checksum'])} != full pass " \
                   f"{(b['rows'], b['checksum'])}"
    return None


class MaskCheckpoint(Workload):
    """Composable float64 chain through the checkpointed Parquet sink,
    then a simulated crash and a resume."""

    name = "mask_checkpoint"
    BASE_DOCS, REPLICAS = 500, 24
    SHARDS, DROP = 4, 1
    PARAMS = {"mask": "donut_contained", "low": LOW, "high": HIGH}

    def generate(self) -> None:
        import pyarrow.compute as pc

        from maskmypy_ray.analysis.displacement import displacement_batch
        from maskmypy_ray.checksum import checksum
        from maskmypy_ray.sources.boundary import boundary_polygon_set
        from maskmypy_ray.sources.webpages import derive_webpages_batch
        from maskmypy_ray.stages.donut import DonutContainedMasker
        from maskmypy_ray.stages.geoparse import geoparse_batch

        write_documents(self.p("input"), self.BASE_DOCS, self.seed,
                        self.REPLICAS)
        docs = documents_table(self.BASE_DOCS, self.seed, self.REPLICAS)
        pages = derive_webpages_batch(docs, seed=self.seed, include_html=False)
        masked = displacement_batch(DonutContainedMasker(
            boundary_polygon_set(), LOW, HIGH, self.seed)(geoparse_batch(pages)))
        shard = pc.bit_wise_and(masked.column("doc_id"), self.SHARDS - 1)
        rows, sums = [], []
        for s in range(self.SHARDS):
            part = masked.filter(pc.equal(shard, s))
            rows.append(part.num_rows)
            sums.append(checksum(part.select(["url", "mx", "my"]))
                        if part.num_rows else "empty")
        dropped = np.random.default_rng([self.seed, 3]).choice(
            self.SHARDS, self.DROP, replace=False)
        self.save_ref({"input_rows": docs.num_rows, "shard_rows": rows,
                       "shard_checksums": sums,
                       "dropped": sorted(int(s) for s in dropped)})

    def setup(self) -> None:
        from maskmypy_ray.analysis.displacement import displacement
        from maskmypy_ray.sources.boundary import boundary_polygon_set
        from maskmypy_ray.stages.donut import donut_contained
        from maskmypy_ray.stages.geoparse import geoparse

        self.ps = ps = boundary_polygon_set()
        self.chain = lambda ds: displacement(
            donut_contained(geoparse(ds), ps, LOW, HIGH, self.seed))

    def _run(self, out_dir: str) -> dict:
        from maskmypy_ray.checkpoint import run_checkpointed

        return run_checkpointed(self.p("input"), self.chain, out_dir,
                                self.PARAMS, num_shards=self.SHARDS,
                                seed=self.seed)

    def rep(self) -> Rep:
        out = self.p("out")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        with self.tracer.span("checkpoint.full_pass"):
            full = self._run(out)
        full_s = time.perf_counter() - t0
        before = read_manifests(out)
        for s in self.ref["dropped"]:
            shutil.rmtree(os.path.join(out, f"part={s:04d}"))
        t0 = time.perf_counter()
        with self.tracer.span("checkpoint.resume"):
            resumed = self._run(out)
        resume_s = time.perf_counter() - t0
        after = read_manifests(out)
        rows = self.ref["shard_rows"]
        items = sum(rows) + sum(rows[s] for s in self.ref["dropped"])
        return Rep(full_s + resume_s, items, (full, before, resumed, after),
                   {"full_s": full_s, "resume_s": resume_s})

    def check(self, out) -> str | None:
        return check_checkpoint(*out, self.ref)

    def layers(self, reps: list[Rep], rep_s: float) -> dict:
        import pyarrow.parquet as pq

        from maskmypy_ray.checkpoint import _shard_ds, read_checkpointed
        from maskmypy_ray.sources.webpages import derive_webpages_batch
        from maskmypy_ray.stages.donut import contained_mask_arrays
        from maskmypy_ray.stages.geoparse import geoparse_batch

        t = self.tracer
        seed = self.seed
        # the same per-shard read + chain run_checkpointed runs, no sink
        with t.span("stages.mask_chain"):
            for s in range(self.SHARDS):
                self.chain(_shard_ds(self.p("input"), s, self.SHARDS,
                                     seed)).materialize()
        docs = pq.read_table(self.p("input", "documents.parquet"))
        with t.span("sources.derive_webpages"):
            pages = derive_webpages_batch(docs, seed=seed, include_html=False)
        with t.span("stages.geoparse.parse"):
            pts = geoparse_batch(pages)
        x = pts.column("x").to_numpy()
        y = pts.column("y").to_numpy()
        keys = pts.column("doc_id").to_numpy() & 0xFFFFFFFF
        with t.span("stages.donut.contained_mask"):
            _, _, r, pending = contained_mask_arrays(self.ps, keys, x, y,
                                                     LOW, HIGH, seed)
        with t.span("checkpoint.read_back"):
            n_back = read_checkpointed(self.p("out")).count()
        full_s = _median_part(reps, "full_s")
        chain_s = t.total("stages.mask_chain")
        kernel = sum(t.total(n) for n in (
            "sources.derive_webpages", "stages.geoparse.parse",
            "stages.donut.contained_mask"))
        written = dir_bytes(self.p("out"))
        return {
            "checkpoint.full_pass_s": full_s,
            "checkpoint.resume_s": _median_part(reps, "resume_s"),
            "stages.mask_chain_s": chain_s,
            "checkpoint.sink_frac": 1.0 - chain_s / full_s,
            "sources.derive_webpages_s": t.total("sources.derive_webpages"),
            "stages.geoparse.parse_s": t.total("stages.geoparse.parse"),
            "stages.donut.contained_mask_s":
                t.total("stages.donut.contained_mask"),
            "checkpoint.read_back_s": t.total("checkpoint.read_back"),
            "checkpoint.bytes_written": written,
            "checkpoint.bytes_per_row": written / max(n_back, 1),
            "checkpoint.shards_recomputed": sum(
                x["status"] == "computed" for x in reps[-1].out[2]["shards"]),
            "stages.geoparse.points": pts.num_rows,
            "stages.donut.unmasked": len(pending),
            "stages.donut.retries_sum": int(r.sum()),
            "ray.overhead_frac": 1.0 - kernel / full_s,
        }


# --- halo_join -----------------------------------------------------------------


def check_halo(k_df, knn_df, ref: dict) -> str | None:
    """Shuffle-plan k equals the broadcast plan's k per doc_id; the kNN
    rows of the sampled points equal a brute-force numpy kNN."""
    k_df = k_df.sort_values("doc_id", kind="stable")
    if not (np.array_equal(k_df["doc_id"].to_numpy(), ref["k_doc_id"])
            and np.array_equal(k_df["k_anonymity"].to_numpy(), ref["k"])):
        bad = int((k_df["k_anonymity"].to_numpy() != ref["k"]).sum()) \
            if len(k_df) == len(ref["k"]) else "row count"
        return f"calculate_k shuffle != broadcast ({bad} differ)"
    if len(knn_df) != KNN_K * len(ref["k"]):
        return f"knn_join emitted {len(knn_df)} rows, want {KNN_K * len(ref['k'])}"
    s = knn_df[knn_df["doc_id"].isin(ref["sample"])] \
        .sort_values(["doc_id", "rank"], kind="stable")
    got = (s["doc_id"].to_numpy(), s["addr_id"].to_numpy(),
           s["dist2"].to_numpy())
    want = (np.repeat(ref["sample"], KNN_K), ref["nn_addr"].ravel(),
            ref["nn_d2"].ravel())
    if not all(len(g) == len(w) and np.array_equal(g, w)
               for g, w in zip(got, want)):
        return "knn_join differs from brute force on the sampled points"
    return None


class HaloJoin(Workload):
    """Cell-keyed halo shuffles (k-anonymity) and the kNN join over
    masked points materialised during set-up; no geoparse or PIP is
    timed. Traced runs also probe DBSCAN (see ``DbscanProbe``)."""

    name = "halo_join"
    BASE_DOCS, REPLICAS, SAMPLE = 5000, 7, 256

    def generate(self) -> None:
        from maskmypy_ray.analysis.displacement import displacement_batch
        from maskmypy_ray.geokernels.geometry import latlon_to_xy
        from maskmypy_ray.sources.boundary import boundary_polygon_set
        from maskmypy_ray.sources.webpages import addresses_table
        from maskmypy_ray.stages.donut import DonutContainedMasker
        from maskmypy_ray.stages.geoparse import geoparse_batch

        write_documents(self.p("input", "docs"), self.BASE_DOCS, self.seed)
        pages = write_corpus(self.p("input", "corpus"), self.BASE_DOCS,
                             self.seed, self.REPLICAS, FILES)
        masked = displacement_batch(DonutContainedMasker(
            boundary_polygon_set(), LOW, HIGH, self.seed)(geoparse_batch(pages)))
        addr = addresses_table(self.p("input", "docs"), seed=self.seed)
        ax, ay = latlon_to_xy(addr.column("lat").to_numpy(),
                              addr.column("lon").to_numpy())
        aid = addr.column("addr_id").to_numpy()
        doc = masked.column("doc_id").to_numpy()
        pick = np.sort(np.random.default_rng([self.seed, 4]).choice(
            len(doc), self.SAMPLE, replace=False))
        px = masked.column("mx").to_numpy()[pick]
        py = masked.column("my").to_numpy()[pick]
        dx = px[:, None] - ax[None, :]
        dy = py[:, None] - ay[None, :]
        d2 = dx * dx + dy * dy
        nn_addr = np.empty((self.SAMPLE, KNN_K), dtype=np.int64)
        nn_d2 = np.empty((self.SAMPLE, KNN_K))
        for i in range(self.SAMPLE):
            top = np.lexsort((aid, d2[i]))[:KNN_K]
            nn_addr[i], nn_d2[i] = aid[top], d2[i][top]
        self.save_ref({"input_rows": pages.num_rows,
                       "points": masked.num_rows},
                      sample=doc[pick], nn_addr=nn_addr, nn_d2=nn_d2)
        DbscanProbe(self.p("dbscan"), self.seed, self.tracer).generate()

    def setup(self) -> None:
        import ray.data

        from maskmypy_ray.analysis.displacement import displacement
        from maskmypy_ray.sources.boundary import boundary_polygon_set
        from maskmypy_ray.sources.webpages import addresses_table
        from maskmypy_ray.stages.donut import donut_contained
        from maskmypy_ray.stages.geoparse import geoparse

        self.addr = addresses_table(self.p("input", "docs"), seed=self.seed)
        self.addr_ds = ray.data.from_arrow(self.addr)
        pages = ray.data.read_parquet(self.p("input", "corpus"),
                                      columns=["doc_id", "text"],
                                      override_num_blocks=FILES)
        self.masked = displacement(donut_contained(
            geoparse(pages), boundary_polygon_set(), LOW, HIGH, self.seed)) \
            .select_columns(["doc_id", "mx", "my", "_distance"]).materialize()

    def prepare_check(self) -> None:
        from maskmypy_ray.analysis.k_anonymity import calculate_k

        k = calculate_k(self.masked, self.addr_ds, cell_m=CELL_M,
                        mode="broadcast").to_pandas() \
            .sort_values("doc_id", kind="stable")
        self.ref["k_doc_id"] = k["doc_id"].to_numpy()
        self.ref["k"] = k["k_anonymity"].to_numpy()

    def rep(self) -> Rep:
        from maskmypy_ray.analysis.k_anonymity import calculate_k
        from maskmypy_ray.analysis.knn import knn_join

        t0 = time.perf_counter()
        with self.tracer.span("analysis.k_anonymity.calculate_k_shuffle"):
            k = calculate_k(self.masked, self.addr_ds, cell_m=CELL_M,
                            mode="shuffle").materialize()
        t1 = time.perf_counter()
        with self.tracer.span("analysis.knn.knn_join"):
            nn = knn_join(self.masked, self.addr, k=KNN_K,
                          cell_m=KNN_CELL_M).materialize()
        t2 = time.perf_counter()
        return Rep(t2 - t0, self.ref["points"], (k, nn),
                   {"calculate_k_s": t1 - t0, "knn_s": t2 - t1})

    def check(self, out) -> str | None:
        k, nn = out
        return check_halo(k.to_pandas(), nn.to_pandas(), self.ref)

    def layers(self, reps: list[Rep], rep_s: float) -> dict:
        import ray

        from maskmypy_ray.analysis.k_anonymity import (
            _TableDS, _compile_index_from_table, count_in_circles)
        from maskmypy_ray.analysis.knn import _compile_knn_index, _knn_batch

        t = self.tracer
        pts = self.masked.to_pandas()
        keys = pts["doc_id"].to_numpy()
        mx, my = pts["mx"].to_numpy(), pts["my"].to_numpy()
        d = pts["_distance"].to_numpy()
        idx = _compile_index_from_table(self.addr, CELL_M)
        kidx = ray.get(_compile_knn_index(_TableDS(self.addr), KNN_CELL_M))
        with t.span("analysis.k_anonymity.count_in_circles"):
            for i in range(0, len(mx), 4096):
                sl = slice(i, i + 4096)
                count_in_circles(idx, mx[sl], my[sl], d[sl])
        with t.span("analysis.knn.kernel"):
            _knn_batch(kidx, mx, my, keys, KNN_K)
        k_s = _median_part(reps, "calculate_k_s")
        cic = t.total("analysis.k_anonymity.count_in_circles")
        db = DbscanProbe(self.p("dbscan"), self.seed, t)
        db.load_ref()
        db.setup()
        db_rep = db.rep()
        self.probe_errors.append(db.check(db_rep.out))
        return {
            **db.layers(db_rep),
            "analysis.k_anonymity.calculate_k_shuffle_s": k_s,
            "analysis.knn.knn_join_s": _median_part(reps, "knn_s"),
            "analysis.k_anonymity.count_in_circles_s": cic,
            "analysis.k_anonymity.shuffle_overhead_frac": 1.0 - cic / k_s,
            "analysis.k_anonymity.k_sat_n": int((self.ref["k"] >= MIN_K).sum()),
            "analysis.knn.rows_out": reps[-1].out[1].count(),
            "ray.overhead_frac":
                1.0 - (cic + t.total("analysis.knn.kernel")) / rep_s,
        }


# --- DBSCAN probe ------------------------------------------------------------
#
# DBSCAN is not an end-to-end workload: at the depth below one call takes
# 14-21 s on a 1-CPU Ray session, so a run of ``run_seconds`` would time
# one or two calls. ``halo_join``'s traced runs call it once instead and
# check its labels.


def dbscan_reference(keys, x, y, eps: float, min_pts: int):
    """All-pairs numpy DBSCAN with union-find components and the
    engine's min-key border rule -> (cluster, is_core, core edges)."""
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    adj = d2 <= eps * eps
    core = adj.sum(axis=1) >= min_pts
    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ea, eb = np.nonzero(np.triu(adj & core[:, None] & core[None, :], 1))
    for a, b in zip(ea, eb):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    label = np.full(len(keys), -1, dtype=np.int64)
    roots = np.array([find(i) for i in range(len(keys))])
    for r in np.unique(roots[core]):
        members = core & (roots == r)
        label[members] = keys[members].min()
    for i in np.flatnonzero(~core):
        nb = adj[i] & core
        if nb.any():
            label[i] = label[nb].min()
    return label, core.astype(np.int64), keys[ea], keys[eb]


def check_labels(df, ref: dict) -> str | None:
    df = df.sort_values("key", kind="stable")
    if not np.array_equal(df["key"].to_numpy(), ref["keys"]):
        return f"dbscan returned {len(df)} points, reference {len(ref['keys'])}"
    for col, want in (("cluster", ref["cluster"]), ("is_core", ref["is_core"])):
        bad = int((df[col].to_numpy() != want).sum())
        if bad:
            return f"dbscan {col} differs from the numpy reference on {bad} points"
    return None


def _min_id_depth(core_keys, ea, eb) -> int:
    """Largest BFS depth from a component's minimum id (rounds = depth + 2)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(core_keys.tolist())
    g.add_edges_from(zip(ea.tolist(), eb.tolist()))
    return max((max(nx.single_source_shortest_path_length(g, min(c)).values())
                for c in nx.connected_components(g)), default=0)


class DbscanProbe(Workload):
    """Distributed DBSCAN at the registered operating point: two halo
    passes plus BSP component rounds. Chains of 15 points fix the core
    graph's min-id depth at 6 for every seed (sf0.01's uniform points
    give 4-12), so a call makes the same number of rounds each time."""

    CHAINS, CHAIN_LEN, NOISE = 4, 15, 12

    def generate(self) -> None:
        import pyarrow.parquet as pq

        from maskmypy_ray.stages.geoparse import geoparse_batch

        n = write_chain_points(self.p("input", "points.parquet"), self.seed,
                               self.CHAINS, self.CHAIN_LEN, EPS, self.NOISE)
        pts = geoparse_batch(pq.read_table(self.p("input", "points.parquet")))
        keys = pts.column("doc_id").to_numpy()
        cluster, is_core, ea, eb = dbscan_reference(
            keys, pts.column("x").to_numpy(), pts.column("y").to_numpy(),
            EPS, MIN_PTS)
        order = np.argsort(keys, kind="stable")
        core_keys = keys[is_core == 1]
        self.save_ref({
            "input_rows": n,
            "points": pts.num_rows,
            "core_points": len(core_keys),
            "clusters": len(np.unique(cluster[cluster >= 0])),
            "noise": int((cluster < 0).sum()),
            "core_edges": len(ea),
            "min_id_depth": _min_id_depth(core_keys, ea, eb),
        }, keys=keys[order], cluster=cluster[order], is_core=is_core[order],
            edge_a=ea, edge_b=eb)

    def setup(self) -> None:
        import ray.data

        from maskmypy_ray.stages.geoparse import geoparse

        self.pts = geoparse(ray.data.read_parquet(
            self.p("input", "points.parquet"))).materialize()

    def rep(self) -> Rep:
        from maskmypy_ray.analysis.dbscan import dbscan

        t0 = time.perf_counter()
        with self.tracer.span("analysis.dbscan.dbscan"):
            out = dbscan(self.pts, eps=EPS, min_pts=MIN_PTS).materialize()
        return Rep(time.perf_counter() - t0, self.ref["points"], out)

    def check(self, out) -> str | None:
        return check_labels(
            out.select_columns(["key", "cluster", "is_core"]).to_pandas(),
            self.ref)

    def layers(self, rep: Rep) -> dict:
        import pyarrow as pa
        import ray.data

        from maskmypy_ray.text.clusters import connected_components

        t = self.tracer
        ref = self.ref
        nodes = ray.data.from_arrow(pa.table({
            "node": ref["keys"][ref["is_core"] == 1]}))
        edges = ray.data.from_arrow(pa.table({"doc_a": ref["edge_a"],
                                              "doc_b": ref["edge_b"]}))
        with t.span("text.clusters.connected_components"):
            connected_components(nodes, edges, node_col="node").materialize()
        return {
            "analysis.dbscan.dbscan_s": rep.seconds,
            "text.clusters.connected_components_s":
                t.total("text.clusters.connected_components"),
            "analysis.dbscan.core_points": ref["core_points"],
            "analysis.dbscan.clusters": ref["clusters"],
            "analysis.dbscan.noise": ref["noise"],
            "text.clusters.core_edges": ref["core_edges"],
            "text.clusters.min_id_depth": ref["min_id_depth"],
        }


WORKLOADS = {w.name: w for w in (MaskVerify, MaskCheckpoint, HaloJoin)}


def generate(name: str, work: str, seed: int) -> None:
    """Inputs and references for one workload."""
    from tracing import Tracer

    os.makedirs(work, exist_ok=True)
    WORKLOADS[name](work, seed, Tracer(False)).generate()


if __name__ == "__main__":
    # child-process entry: workloads.py <workload> <work dir> <seed>
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    generate(sys.argv[1], sys.argv[2], int(sys.argv[3]))
