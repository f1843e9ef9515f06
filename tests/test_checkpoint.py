"""Checkpointed runs: atomic per-shard output, resume skips valid shards,
param changes invalidate, outputs equal the unsharded run."""

import json
import shutil
from pathlib import Path

import pytest

from maskmypy_ray.checkpoint import read_checkpointed, run_checkpointed


def _pipeline(ds):
    from maskmypy_ray.analysis.displacement import displacement
    from maskmypy_ray.stages.donut import donut
    from maskmypy_ray.stages.geoparse import geoparse

    return displacement(donut(geoparse(ds), 100.0, 500.0, 42))


PARAMS = {"mask": "donut", "low": 100.0, "high": 500.0}


def test_checkpoint_run_and_resume(ray_session, sf_dir, tmp_path):
    out = str(tmp_path / "run1")
    r1 = run_checkpointed(sf_dir, _pipeline, out, PARAMS, num_shards=4)
    assert r1["computed"] == 4 and r1["skipped"] == 0
    total = r1["rows"]
    assert total > 0
    # all shards have manifests with lineage metrics
    for p in sorted(Path(out).glob("part=*")):
        man = json.loads((p / "_MANIFEST.json").read_text())
        assert man["rows"] >= 0 and "displacement_mean" in man["metrics"]

    # resume: everything skipped
    r2 = run_checkpointed(sf_dir, _pipeline, out, PARAMS, num_shards=4)
    assert r2["computed"] == 0 and r2["skipped"] == 4 and r2["rows"] == total

    # delete one shard -> only it recomputes
    shutil.rmtree(Path(out) / "part=0002")
    r3 = run_checkpointed(sf_dir, _pipeline, out, PARAMS, num_shards=4)
    assert r3["computed"] == 1 and r3["skipped"] == 3 and r3["rows"] == total

    # shards partition the input: union equals the direct pipeline
    from maskmypy_ray.pipelines import points_ds

    direct = points_ds(sf_dir).count()
    assert read_checkpointed(out).count() == direct == total


def test_checkpoint_param_change_invalidates(ray_session, sf_dir, tmp_path):
    out = str(tmp_path / "run2")
    run_checkpointed(sf_dir, _pipeline, out, PARAMS, num_shards=2)
    r = run_checkpointed(sf_dir, _pipeline, out, {**PARAMS, "high": 900.0},
                         num_shards=2)
    assert r["computed"] == 2 and r["skipped"] == 0


def _contained(ds):
    from maskmypy_ray.analysis.displacement import displacement
    from maskmypy_ray.sources.boundary import boundary_polygon_set
    from maskmypy_ray.stages.donut import donut_contained
    from maskmypy_ray.stages.geoparse import geoparse

    return displacement(donut_contained(geoparse(ds), boundary_polygon_set(),
                                        100.0, 500.0, 42))


def _manifests(out: str) -> dict[int, dict]:
    return {int(p.name.split("=")[1]): json.loads((p / "_MANIFEST.json").read_text())
            for p in sorted(Path(out).glob("part=*"))}


@pytest.mark.parametrize("write_tasks", [None, 3])
def test_checkpoint_manifests_match_direct_pipeline(ray_session, sf_dir, tmp_path,
                                                    write_tasks):
    """Each manifest's rows, checksum and lineage metrics equal checksum()
    and the Ray aggregates over the direct pipeline filtered to its shard,
    also when every shard's partials come from several write tasks."""
    from ray.data.aggregate import Max, Mean, Min, Sum

    from maskmypy_ray.checksum import checksum
    from maskmypy_ray.sources.webpages import read_webpages

    def pipeline(ds):
        ds = _contained(ds)
        return ds.repartition(write_tasks) if write_tasks else ds

    out = str(tmp_path / "run")
    run_checkpointed(sf_dir, pipeline, out, PARAMS, num_shards=4)
    if write_tasks:
        assert len(list(Path(out).glob("part=0000/*.parquet"))) == write_tasks
    mans = _manifests(out)
    assert sorted(mans) == [0, 1, 2, 3]
    direct = _contained(read_webpages(sf_dir, seed=42, include_html=False)).materialize()
    for s, man in mans.items():
        part = direct.map_batches(
            lambda b: b.filter((b.column("doc_id").to_numpy() & 3) == s),
            batch_format="pyarrow").materialize()
        assert man["rows"] == part.count() > 0
        assert man["checksum"] == checksum(part, columns=["url", "mx", "my"])
        agg = part.aggregate(Sum("UNMASKED"), Min("_distance"), Max("_distance"),
                             Mean("_distance"))
        m = man["metrics"]
        assert m["unmasked"] == agg["sum(UNMASKED)"]
        assert m["displacement_min"] == agg["min(_distance)"]
        assert m["displacement_max"] == agg["max(_distance)"]
        assert m["displacement_mean"] == pytest.approx(agg["mean(_distance)"],
                                                       rel=1e-12)


def test_checkpoint_no_duplicate_rows_on_disk(ray_session, sf_dir, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = str(tmp_path / "run")
    r = run_checkpointed(sf_dir, _contained, out, PARAMS, num_shards=4)
    shutil.rmtree(Path(out) / "part=0001")
    run_checkpointed(sf_dir, _contained, out, PARAMS, num_shards=4)
    files = sorted(Path(out).glob("part=*/*.parquet"))
    urls = pa.concat_arrays([pq.read_table(f, columns=["url"]).column("url")
                             .combine_chunks() for f in files])
    assert len(set(urls.to_pylist())) == len(urls)
    assert len(urls) == sum(m["rows"] for m in _manifests(out).values()) == r["rows"]


def test_checkpoint_failed_run_commits_nothing(ray_session, sf_dir, docs_table,
                                               tmp_path):
    """A pipeline that raises mid-run commits no pending shard; the next
    run discards the leftover tmp dirs and completes."""
    last = docs_table.column("doc_id").to_numpy().max()

    def failing(ds):
        def boom(b):
            if (b.column("doc_id").to_numpy() == last).any():
                raise RuntimeError("injected failure")
            return b

        # three write tasks: the others may write files before one fails
        return _contained(ds).repartition(3).map_batches(boom,
                                                         batch_format="pyarrow")

    out = Path(tmp_path / "run")
    run_checkpointed(sf_dir, _contained, str(out), PARAMS, num_shards=4)
    before = _manifests(str(out))
    for s in (1, 3):
        shutil.rmtree(out / f"part={s:04d}")
    with pytest.raises(Exception, match="injected failure"):
        run_checkpointed(sf_dir, failing, str(out), PARAMS, num_shards=4)
    assert sorted(p.name for p in out.glob("part=*")) == ["part=0000", "part=0002"]
    # a crashed run's leftover, holding rows that must never be read
    stale = out / ".tmp-part=0001-1"
    stale.mkdir(exist_ok=True)
    shutil.copy(next((out / "part=0000").glob("*.parquet")), stale / "junk.parquet")

    r = run_checkpointed(sf_dir, _contained, str(out), PARAMS, num_shards=4)
    assert r["computed"] == 2 and r["skipped"] == 2
    assert not list(out.glob(".tmp-part=*"))
    after = _manifests(str(out))
    assert {s: (m["rows"], m["checksum"]) for s, m in after.items()} == \
        {s: (m["rows"], m["checksum"]) for s, m in before.items()}
    assert read_checkpointed(str(out)).count() == r["rows"]


def test_checkpoint_empty_shard_manifest(ray_session, sf_dir, tmp_path):
    def drop_shard_2(ds):
        return _pipeline(ds).map_batches(
            lambda b: b.filter((b.column("doc_id").to_numpy() & 3) != 2),
            batch_format="pyarrow")

    out = str(tmp_path / "run")
    r = run_checkpointed(sf_dir, drop_shard_2, out, PARAMS, num_shards=4)
    man = _manifests(out)[2]
    assert (man["rows"], man["checksum"], man["metrics"]) == (0, "empty", {"rows": 0})
    assert r["shards"][2]["rows"] == 0 and r["computed"] == 4
    r2 = run_checkpointed(sf_dir, drop_shard_2, out, PARAMS, num_shards=4)
    assert r2["skipped"] == 4 and r2["rows"] == r["rows"] > 0


def test_checkpoint_pipeline_must_keep_sink_columns(ray_session, sf_dir, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="url"):
        run_checkpointed(sf_dir, lambda ds: _pipeline(ds).drop_columns(["url"]),
                         str(out), PARAMS, num_shards=2)
    assert not list(out.glob("part=*")) and not list(out.glob(".tmp-part=*"))
