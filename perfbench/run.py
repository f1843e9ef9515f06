#!/usr/bin/env python3
"""Repository benchmark: times calls into ``maskmypy_ray`` from outside.

    python3 perfbench/run.py --workload mask_verify --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. One run = one fresh process and one Ray
session (``num_cpus`` = ``nproc``):

1. a child process writes the workload's inputs under ``.perfbench/``
   from (seed, size) and computes its reference outputs while Ray
   starts; neither is timed;
2. the workload is set up once (imports, load inputs, build broadcast
   state, materialise) and warmed up with one untimed repetition;
   ``setup_s`` is that whole span;
3. repetitions run until ``--seconds`` have passed (at least
   ``MIN_REPS``); each output is checked against the reference, and a
   repetition that raises or fails its check counts as failed;
4. the last stdout line is one JSON object. ``--trace 0`` reports the
   end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
   untraced and traced repetitions, runs the per-layer probes and
   reports the per-layer metrics, including the tracing overhead (traced
   over untraced median). Spans are written to
   ``.perfbench/trace-<workload>.jsonl``.

Metric names and units come from ``BENCHMARK.json``; a per-layer metric
whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 2


T0 = time.monotonic()


def log(msg: str) -> None:
    print(f"perfbench: [{time.monotonic() - T0:6.1f}s] {msg}", file=sys.stderr,
          flush=True)


def timed_reps(wl, seconds: float, tracer) -> tuple[list, int]:
    """Closed loop: the next repetition starts when the previous ends.
    In a traced run, repetitions alternate untraced / traced, so both
    halves see the same host phases."""
    reps, failed = [], 0
    alternate = tracer.enabled
    end = time.monotonic() + seconds
    while len(reps) + failed < MIN_REPS or time.monotonic() < end:
        traced = alternate and (len(reps) + failed) % 2 == 1
        tracer.enabled = traced
        try:
            rep = wl.rep()
            err = wl.check(rep.out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        finally:
            tracer.enabled = alternate
        if err:
            log(f"{wl.name}: output check failed: {err}")
            failed += 1
        else:
            rep.traced = traced
            reps.append(rep)
    return reps, failed


def rate(reps) -> float:
    """Items per second of the lower-quartile repetition. On a shared
    host, steal from other tenants slows whole stretches of a run and
    moves the median by up to a third between runs; the faster quartile
    is the least disturbed, and unlike the minimum it barely depends on
    how many repetitions a run fits."""
    return reps[0].items / statistics.quantiles(
        [r.seconds for r in reps], n=4, method="inclusive")[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, ROOT)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    missing = [m for m in ("maskmypy_ray", "ray", "pyarrow")
               if importlib.util.find_spec(m) is None]
    if missing or not os.path.exists(spec_path):
        log(f"cannot run: missing {missing or spec_path} "
            "(run from the repository root)")
        return 2
    from session import RaySession, nproc, reap_tagged, tag_run, vm_hwm_kb
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer(enabled=bool(args.trace))
    cpus = nproc()
    session = RaySession(ROOT, cpus)
    tag = tag_run()
    # a terminated run still stops what it started (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # a plain subprocess, not multiprocessing: a spawned Process starts a
    # resource-tracker helper that outlives the run
    child = None
    try:
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             args.workload, work, str(args.seed)], stdout=sys.stderr)
        session.start()
        if child.wait() != 0:
            log(f"input generation failed (exit {child.returncode})")
            return 1
        wl = WORKLOADS[args.workload](work, args.seed, tracer)
        wl.load_ref()
        info = wl.input_info()
        log(f"{wl.name} seed={args.seed}: {info['rows']} input rows, "
            f"{info['bytes']} bytes; nproc={cpus}, ray num_cpus={cpus}")

        t0 = time.perf_counter()
        with tracer.span("setup"):
            wl.setup()
            t1 = time.perf_counter()
            wl.rep()  # warm-up
        t2 = time.perf_counter()
        setup_s, warm_s = t2 - t0, t2 - t1
        # read after a fixed amount of work: a worker's peak keeps
        # creeping up over repetitions, so read at the end it would grow
        # with the number of repetitions a faster program fits in a run
        peak_rss_mb = session.worker_peak_rss_mb()
        wl.prepare_check()
        log(f"setup {setup_s:.3f} s, of which warm-up {warm_s:.3f} s")

        reps, failed = timed_reps(wl, args.seconds, tracer)
        attempted = len(reps) + failed
        if not reps:
            log("no repetition passed its output check")
            return 1
        rep_s = statistics.median(r.seconds for r in reps)
        log(f"{len(reps)} timed reps {[round(r.seconds, 3) for r in reps]}, "
            f"median {rep_s:.4f} s, {failed} failed")

        if args.trace:
            metrics = {m["name"]: 0 for m in wanted}
            with tracer.span("layers"):
                metrics.update(wl.layers(reps, rep_s))
            for err in wl.probe_errors:
                attempted += 1
                if err:
                    log(f"{wl.name}: probe output check failed: {err}")
                    failed += 1
            on = [r.seconds for r in reps if r.traced] or [rep_s]
            off = [r.seconds for r in reps if not r.traced] or [rep_s]
            metrics.update(session.warning_counts())
            metrics.update({
                "trace.overhead_frac":
                    statistics.median(on) / statistics.median(off) - 1.0,
                "failed_frac": failed / attempted,
                "bench.timed_reps": len(reps),
                "bench.warmup_s": warm_s,
                "bench.input_rows": info["rows"],
                "bench.input_bytes": info["bytes"],
                "bench.num_cpus": cpus,
                "driver.peak_rss_mb": vm_hwm_kb(os.getpid()) / 1024.0,
            })
            tracer.dump(os.path.join(base, f"trace-{args.workload}.jsonl"))
        else:
            metrics = {
                "items_per_s": rate(reps),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if child is not None and child.poll() is None:
            child.terminate()  # Ray failed to start while inputs were written
            child.wait()
        session.stop()
        n = reap_tagged(tag)
        if n:
            log(f"killed {n} processes left over from the run")
        shutil.rmtree(work, ignore_errors=True)
        log("stopped")

    units = {m["name"]: m["unit"] for m in wanted}
    unknown = set(metrics) - set(units)
    if unknown or set(units) - set(metrics):
        log(f"metric set differs from BENCHMARK.json: "
            f"extra {sorted(unknown)}, missing {sorted(set(units) - set(metrics))}")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
