"""Ray session lifecycle for one benchmark run: start, observe, stop.

The benchmark owns ``ray.init`` (the library never calls it). The
session's temp dir lives inside the checkout when the path is short
enough for Ray's unix sockets, so the run's logs can be scanned for
warnings and removed afterwards.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import time

OBJECT_STORE_BYTES = 512 * 2**20
# Ray's socket paths append ~62 characters to the temp dir; unix socket
# paths are capped at 107 bytes.
_MAX_TEMP_DIR_LEN = 44
WARNING_PATTERNS = {
    "ray.schema_warnings": "different schema",
    "ray.size_warnings": "Error calculating size",
}


def nproc() -> int:
    """CPUs as GNU ``nproc`` reports them: the affinity mask, capped by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


class RaySession:
    def __init__(self, root: str, num_cpus: int):
        self.root = root
        self.num_cpus = num_cpus
        temp = os.path.join(root, ".pbray")
        self.temp_dir = temp if len(temp) <= _MAX_TEMP_DIR_LEN else None
        self.session_dir: str | None = None

    def start(self) -> None:
        import logging

        import ray

        # workers import maskmypy_ray from the checkout root
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.root, os.environ.get("PYTHONPATH")) if p)
        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=self.num_cpus,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR", **kwargs)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()

    def _ray_pids(self) -> list[int]:
        """Every process of this session: the node's daemons and the
        raylet's children (workers, agents)."""
        import ray

        node = ray._private.worker._global_node
        pids = [p.process.pid for procs in node.all_processes.values()
                for p in procs]
        raylets = {p.process.pid for p in node.all_processes.get("raylet", [])}
        for d in os.listdir("/proc"):
            if d.isdigit():
                try:
                    with open(f"/proc/{d}/stat") as f:
                        ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
                if ppid in raylets:
                    pids.append(int(d))
        return pids

    def worker_peak_rss_mb(self) -> float:
        """Largest VmHWM among the session's Ray worker processes (task
        workers and actors). The driver is left out: it also holds the
        benchmark's own checks, and its glibc arenas make its peak jump
        by ~30 MB between identical runs."""
        best = 0
        for pid in self._ray_pids():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if cmd.startswith(b"ray::"):
                best = max(best, vm_hwm_kb(pid))
        return best / 1024.0

    def warning_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(WARNING_PATTERNS, 0)
        logs = os.path.join(self.session_dir or "", "logs")
        for d, _, files in os.walk(logs):
            for name in files:
                if name.startswith("ray-data-dataset_"):
                    continue  # per-dataset copies of ray-data.log lines
                try:
                    with open(os.path.join(d, name), errors="replace") as f:
                        for line in f:
                            for metric, pat in WARNING_PATTERNS.items():
                                if pat in line:
                                    counts[metric] += 1
                except OSError:
                    continue
        return counts

    def stop(self) -> None:
        """Shut Ray down and wait until every session process is gone."""
        import ray

        if not ray.is_initialized():
            return
        pids = self._ray_pids()
        ray.shutdown()
        deadline = time.monotonic() + 20
        alive = pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = [p for p in alive if _alive(p)]
        for p in alive:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while any(_alive(p) for p in alive):
            time.sleep(0.1)
        if alive:
            print(f"perfbench: killed {len(alive)} lingering Ray processes",
                  file=sys.stderr)
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


RUN_TAG_VAR = "PERFBENCH_RUN_TAG"


def tag_run() -> str:
    """Tag this process's environment; every process it starts, Ray's
    daemons and workers included, inherits the tag."""
    tag = f"{os.getpid()}-{time.time_ns()}"
    os.environ[RUN_TAG_VAR] = tag
    return tag


def reap_tagged(tag: str) -> int:
    """Kill and wait for every other process that carries ``tag``,
    wherever it was re-parented to. Returns how many were found."""
    needle = f"{RUN_TAG_VAR}={tag}".encode() + b"\0"
    me, found = os.getpid(), []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == me:
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                env = f.read()
        except OSError:
            continue
        if needle in env and _alive(int(d)):
            found.append(int(d))
    for p in found:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while any(_alive(p) for p in found):
        time.sleep(0.05)
    return len(found)


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False
