"""Per-partition checkpointed, resumable pipeline runs.

The reference's only resume story is replay-by-recipe with checksum
validation (`/root/reference/maskmypy/atlas.py:302-318,229-233`). At
10^12-row scale a run must instead be resumable mid-way: output is laid
out as one directory per hash shard ``doc_id & (num_shards - 1)`` —

    out_dir/part=0007/ part-<task>.parquet ... + _MANIFEST.json

— each carrying a manifest with rows, content checksum, the params
fingerprint and lineage metrics (unmasked count, displacement
min/max/mean). A rerun with identical params skips every shard whose
manifest validates and recomputes the rest.

One call is ONE Ray Data execution over all pending shards: the read
drops rows of committed shards before the webpages derive, then
``pipeline_fn`` runs, then :class:`_ShardSink` routes each write task's
rows to their shard's hidden tmp dir (one Parquet file per task and
shard, named by the task index, so a retried task overwrites its file)
and returns per-shard partials — rows, checksum sum/xor, ``UNMASKED``
sum, ``_distance`` min/max/sum. The driver combines the partials into
the manifests (the same checksum :func:`checksum.checksum` computes over
the shard) and atomically renames each tmp dir to ``part=NNNN``.

The commit unit is therefore one CALL, not one shard: shards are
renamed only after the whole execution succeeds, so a crash mid-run
commits none of the pending shards and leaves only tmp dirs, which the
next run discards. Per-shard executions would each re-read the whole
input (sharding is a hash bucketing at the read) and pay Ray Data's
fixed per-execution cost; one execution pays both once.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from hashlib import sha256
from pathlib import Path

import numpy as np

from .checksum import checksum_batch, checksum_digest

# Columns ``pipeline_fn``'s output must keep: the shard key and the
# checksum columns.
SHARD_KEY = "doc_id"
CHECKSUM_COLUMNS = ["url", "mx", "my"]
DOC_COLUMNS = ["doc_id", "text", "lang", "source"]


def _params_fingerprint(params: dict) -> str:
    return sha256(json.dumps(params, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _pending_ds(sf_dir: str, pending: list[int], num_shards: int, seed: int):
    """Webpages Dataset holding only the rows of the ``pending`` shards;
    the shard filter runs before the derive, so committed shards cost a
    read and nothing else."""
    import ray.data

    from .sources.webpages import derive_webpages_batch

    keep = np.zeros(num_shards, dtype=bool)
    keep[list(pending)] = True

    def derive(b):
        doc_id = b.column(SHARD_KEY).to_numpy(zero_copy_only=False)
        b = b.filter(keep[doc_id & (num_shards - 1)])
        return derive_webpages_batch(b, seed=seed, include_html=False)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=DOC_COLUMNS)
    return ds.map_batches(derive, batch_format="pyarrow")


def _shard_ds(sf_dir: str, shard: int, num_shards: int, seed: int):
    """Webpages Dataset of one shard."""
    return _pending_ds(sf_dir, [shard], num_shards, seed)


def _partials(t) -> dict:
    """Mergeable per-shard manifest inputs of one Arrow table."""
    import pyarrow.compute as pc

    s, x, n = checksum_batch(t.select(CHECKSUM_COLUMNS).to_pandas())
    p = {"rows": n, "sum": s, "xor": x}
    if "UNMASKED" in t.column_names:
        p["unmasked"] = int(pc.sum(t.column("UNMASKED")).as_py() or 0)
    if "_distance" in t.column_names:
        mm = pc.min_max(t.column("_distance")).as_py()
        p.update(d_min=mm["min"], d_max=mm["max"],
                 d_sum=float(pc.sum(t.column("_distance")).as_py()))
    return p


def _merge(a: dict, b: dict) -> dict:
    out = {"rows": a["rows"] + b["rows"], "sum": (a["sum"] + b["sum"]) % (1 << 64),
           "xor": a["xor"] ^ b["xor"]}
    if "unmasked" in a:
        out["unmasked"] = a["unmasked"] + b["unmasked"]
    if "d_min" in a:
        out.update(d_min=min(a["d_min"], b["d_min"]),
                   d_max=max(a["d_max"], b["d_max"]), d_sum=a["d_sum"] + b["d_sum"])
    return out


def _shard_metrics(p: dict | None) -> tuple[int, str, dict]:
    """(rows, checksum, metrics) of one shard from its merged partials;
    the checksum equals :func:`checksum.checksum` over the shard."""
    if p is None or not p["rows"]:
        return 0, "empty", {"rows": 0}
    rows = p["rows"]
    metrics = {"rows": rows}
    if "unmasked" in p:
        metrics["unmasked"] = p["unmasked"]
    if "d_min" in p:
        metrics.update(displacement_min=float(p["d_min"]),
                       displacement_max=float(p["d_max"]),
                       displacement_mean=p["d_sum"] / rows)
    return rows, checksum_digest(p["sum"], p["xor"], rows), metrics


def _shard_sink(tmp_dirs: dict[int, str], num_shards: int):
    from ray.data import Datasink

    class _ShardSink(Datasink):
        """Routes rows to their shard's tmp dir and returns per-shard
        partials; the driver commits after the whole write succeeds."""

        def __init__(self):
            self.partials: dict[int, dict] = {}

        def write(self, blocks, ctx) -> dict[int, dict]:
            import pyarrow as pa
            import pyarrow.parquet as pq
            from ray.data.block import BlockAccessor

            slices: dict[int, list] = {}
            for block in blocks:
                t = BlockAccessor.for_block(block).to_arrow()
                if not t.num_rows:
                    continue
                key = t.column(SHARD_KEY).to_numpy(zero_copy_only=False) & (num_shards - 1)
                for s in np.unique(key):
                    slices.setdefault(int(s), []).append(t.filter(key == s))
            out = {}
            for s, parts in slices.items():
                t = pa.concat_tables(parts)
                # named by task index: a retried task overwrites its file
                pq.write_table(t, f"{tmp_dirs[s]}/part-{ctx.task_idx:05d}.parquet")
                out[s] = _partials(t)
            return out

        def on_write_complete(self, write_result) -> None:
            for ret in write_result.write_returns:
                for s, p in ret.items():
                    self.partials[s] = _merge(self.partials[s], p) \
                        if s in self.partials else p

    return _ShardSink()


def _valid_manifest(part: Path, fp: str) -> dict | None:
    try:
        man = json.loads((part / "_MANIFEST.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    return man if man.get("params_fingerprint") == fp else None


def _require_columns(sf_dir: str, pipeline_fn, seed: int) -> None:
    """Fail before the run if ``pipeline_fn`` drops a column the sink
    needs (inside a write task it would be a ``KeyError``). A lazy
    pipeline's schema is unknown until it runs, so this runs it over the
    first few webpages rows held in memory: one tiny execution, not a
    pass over the input."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from .sources.webpages import derive_webpages_batch

    f = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    b = next(f.iter_batches(batch_size=64, columns=DOC_COLUMNS), None)
    if b is None:
        return
    schema = pipeline_fn(ray.data.from_arrow(derive_webpages_batch(
        pa.Table.from_batches([b]), seed=seed, include_html=False))).schema()
    if schema is None:
        return
    missing = [c for c in [SHARD_KEY, *CHECKSUM_COLUMNS] if c not in schema.names]
    if missing:
        raise ValueError(
            f"pipeline_fn output lacks {missing}: run_checkpointed needs "
            f"{SHARD_KEY!r} (the shard key) and {CHECKSUM_COLUMNS} (the "
            f"checksum columns); it has {list(schema.names)}")


def run_checkpointed(sf_dir: str, pipeline_fn, out_dir: str, params: dict,
                     num_shards: int = 8, seed: int = 42) -> dict:
    """Run ``pipeline_fn(webpages_ds) -> Dataset`` over every shard
    without a valid manifest, in one Ray Data execution, with
    skip-if-done semantics. ``num_shards`` must be a power of two.
    ``pipeline_fn``'s output must keep ``doc_id``, ``url``, ``mx`` and
    ``my`` (else ``ValueError`` before the run).

    Returns a run report: per-shard status + aggregated lineage metrics.
    """
    assert num_shards & (num_shards - 1) == 0, "num_shards must be a power of two"
    fp = _params_fingerprint({**params, "num_shards": num_shards, "seed": seed})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # tmp dirs of a crashed run hold uncommitted output: discard them
    for stale in out.glob(".tmp-part=*"):
        shutil.rmtree(stale)
    done = {s: man for s in range(num_shards)
            if (man := _valid_manifest(out / f"part={s:04d}", fp))}
    pending = [s for s in range(num_shards) if s not in done]

    t0 = time.perf_counter()
    tmp_dirs = {s: str(out / f".tmp-part={s:04d}-{os.getpid()}") for s in pending}
    sink = _shard_sink(tmp_dirs, num_shards)
    if pending:
        _require_columns(sf_dir, pipeline_fn, seed)
        ds = pipeline_fn(_pending_ds(sf_dir, pending, num_shards, seed))
        for s in pending:
            shutil.rmtree(out / f"part={s:04d}", ignore_errors=True)
            os.makedirs(tmp_dirs[s])
        ds.write_datasink(sink)
    elapsed = round(time.perf_counter() - t0, 3)

    report = {"params_fingerprint": fp, "shards": [], "rows": 0,
              "skipped": len(done), "computed": len(pending)}
    for shard in range(num_shards):
        if shard in done:
            rows = done[shard]["rows"]
            report["shards"].append({"shard": shard, "status": "skipped",
                                     "rows": rows})
            report["rows"] += rows
            continue
        rows, chk, metrics = _shard_metrics(sink.partials.get(shard))
        man = {
            "shard": shard,
            "params_fingerprint": fp,
            "params": dict(params),
            "rows": rows,
            "checksum": chk,
            "metrics": metrics,
            # the commit unit is the call: its elapsed time, shared
            "elapsed_sec": elapsed,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        tmp = Path(tmp_dirs[shard])
        (tmp / "_MANIFEST.json").write_text(json.dumps(man, indent=1))
        os.rename(tmp, out / f"part={shard:04d}")
        report["shards"].append({"shard": shard, "status": "computed", "rows": rows,
                                 **{k: v for k, v in metrics.items() if k != "rows"}})
        report["rows"] += rows
    (out / "_RUN.json").write_text(json.dumps(report, indent=1))
    return report


def read_checkpointed(out_dir: str):
    """Dataset over all completed partitions (ignores tmp dirs)."""
    import ray.data

    files = sorted(str(f) for p in Path(out_dir).glob("part=*") if p.is_dir()
                   for f in p.glob("*.parquet"))
    return ray.data.read_parquet(files)
