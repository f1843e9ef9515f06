#!/usr/bin/env python3
"""Benchmark self-test: the output checks catch corrupted outputs, and
inputs follow the seed.

    python3 perfbench/selftest.py

1. Seeds: each workload's inputs and reference outputs are generated
   twice for one seed and once for another; the content checksums must
   repeat for the same seed and differ between seeds.
2. Checks: in one Ray session, each workload is set up and run once; its
   real output must pass its check, and every corrupted copy of it (a
   dropped point, a perturbed k, a wrong neighbour, a relabelled
   cluster, an edited manifest, an extra recomputed shard) must fail.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from session import RaySession, nproc  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, DbscanProbe,  # noqa: E402
                       check_checkpoint, check_halo, check_k_stats,
                       check_labels, read_manifests)

BASE = os.path.join(ROOT, ".perfbench", "selftest")


def tree_digest(path: str) -> str:
    """sha256 over every file's relative path and content (``.npz``
    archives by their arrays: the zip headers carry a write time)."""
    import numpy as np

    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(d, name)
            h.update(os.path.relpath(full, path).encode())
            if name.endswith(".npz"):
                with np.load(full) as z:
                    for k in sorted(z.files):
                        h.update(k.encode() + z[k].tobytes())
                continue
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def seed_cases(a: int, b: int) -> list[tuple[str, bool]]:
    cases = []
    for name, cls in WORKLOADS.items():
        digests = []
        for i, seed in enumerate((a, a, b)):
            work = os.path.join(BASE, f"seed-{name}-{i}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            cls(work, seed, Tracer(False)).generate()
            digests.append(tree_digest(work))
            shutil.rmtree(work)
        print(f"  {name}: seed {a} -> {digests[0]}, {digests[1]}; "
              f"seed {b} -> {digests[2]}")
        cases.append((f"{name}: same seed repeats", digests[0] == digests[1]))
        cases.append((f"{name}: other seed differs", digests[0] != digests[2]))
    return cases


def corruptions(wl, out):
    """(description, check result, should pass): each real output, then
    corrupted copies of it."""
    ref = wl.ref
    if wl.name == "mask_verify":
        yield "real output", check_k_stats(out, ref), True
        yield "one point dropped", check_k_stats(
            {**out, "rows": out["rows"] - 1}, ref), False
        yield "k_mean perturbed", check_k_stats(
            {**out, "k_mean": round(out["k_mean"] + 0.01, 2)}, ref), False
    elif wl.name == "halo_join":
        k_df, nn_df = out[0].to_pandas(), out[1].to_pandas()
        yield "real output", check_halo(k_df, nn_df, ref), True
        bad_k = k_df.copy()
        bad_k.loc[bad_k.index[len(bad_k) // 2], "k_anonymity"] += 1
        yield "one perturbed k", check_halo(bad_k, nn_df, ref), False
        bad_nn = nn_df.copy()
        row = bad_nn.index[bad_nn["doc_id"] == ref["sample"][0]][0]
        bad_nn.loc[row, "addr_id"] += 1
        yield "one wrong neighbour", check_halo(k_df, bad_nn, ref), False
        db = DbscanProbe(wl.p("dbscan"), wl.seed, wl.tracer)
        db.load_ref()
        db.setup()
        df = db.rep().out.select_columns(
            ["key", "cluster", "is_core"]).to_pandas()
        yield "real dbscan probe output", check_labels(df, db.ref), True
        bad = df.copy()
        c = bad.loc[bad["cluster"] >= 0, "cluster"].iloc[0]
        bad.loc[bad["cluster"] == c, "cluster"] = c + 1
        yield "one relabelled cluster", check_labels(bad, db.ref), False
    elif wl.name == "mask_checkpoint":
        full, before, resumed, after = out
        yield "real output", check_checkpoint(
            full, before, resumed, after, ref), True
        shard = ref["dropped"][0]
        path = os.path.join(wl.p("out"), f"part={shard:04d}", "_MANIFEST.json")
        with open(path) as f:
            man = json.load(f)
        man["checksum"] = "0" * 8
        with open(path, "w") as f:
            json.dump(man, f)
        yield "one edited manifest", check_checkpoint(
            full, before, resumed, read_manifests(wl.p("out")), ref), False
        extra = {**resumed, "shards": [
            {**s, "status": "computed"} for s in resumed["shards"]]}
        yield "extra shard recomputed", check_checkpoint(
            full, before, extra, after, ref), False


def check_cases(seed: int) -> list[tuple[str, bool]]:
    cases = []
    session = RaySession(ROOT, nproc())
    session.start()
    try:
        for name, cls in WORKLOADS.items():
            work = os.path.join(BASE, f"check-{name}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            wl = cls(work, seed, Tracer(False))
            wl.generate()
            wl.load_ref()
            wl.setup()
            wl.prepare_check()
            out = wl.rep().out
            for what, err, should_pass in corruptions(wl, out):
                print(f"  {name}: {what}: {err or 'passes'}")
                cases.append((f"{name}: {what} "
                              f"{'passes' if should_pass else 'fails'}",
                              (err is None) == should_pass))
            shutil.rmtree(work)
    finally:
        session.stop()
    return cases


def main() -> int:
    print("seed determinism:")
    cases = seed_cases(5, 6)
    print("output checks:")
    cases += check_cases(5)
    bad = [c for c, ok in cases if not ok]
    for c, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {c}")
    shutil.rmtree(BASE, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
