"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, name, parent id, start, end). Spans stay in memory and
are written out once, when the run ends. A span's self time is its
duration minus the union of the intervals its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, cur_end = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cur_end), min(c["end"] or lo, s["end"])
                if hi > lo:
                    covered += hi - lo
                    cur_end = hi
            out[s["id"]] = s["end"] - s["start"] - covered
        return out

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self": selfs.get(s["id"])}) + "\n")
