"""Spans recorded by the benchmark around its calls into the library.

A span is (name, start, end, parent, run id). Spans stay in memory and are
written once, as Chrome-trace JSON, when the run ends. Calls made from any
thread of this process are recorded; each thread keeps its own parent
stack, so a span's parent is the innermost open span of the thread that
made the call.
Work that runs inside Ray workers is not visible here: the benchmark's
layer-replay phase calls those layers directly in this process instead.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "tid": threading.get_ident(),
                    "run_id": self.run_id,
                })

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or an instance method)
        by a wrapper that records a span per call; :meth:`unwrap_all`
        restores it. Only for calls made in this process: a wrapper holds
        the tracer, which cannot be sent to a Ray worker."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, cur_end = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, cur_end), min(b, s["end"])
                if b > a:
                    covered += b - a
                    cur_end = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, summed duration and summed self time."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            t = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += s["end"] - s["start"]
            t["self_s"] += selfs[s["id"]]
        return out

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write_chrome_trace(self, path: str, extra: dict) -> None:
        """Chrome-trace ("X" complete events, microseconds) plus ``extra``
        top-level keys, loadable in chrome://tracing or Perfetto."""
        selfs = self.self_times()
        t0 = min((s["start"] for s in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s["start"]):
            events.append({
                "name": s["name"], "ph": "X", "pid": 1,
                "tid": tids.setdefault(s["tid"], len(tids)),
                "ts": round((s["start"] - t0) * 1e6, 1),
                "dur": round((s["end"] - s["start"]) * 1e6, 1),
                "args": {"id": s["id"], "parent": s["parent"],
                         "run_id": s["run_id"],
                         "self_us": round(selfs[s["id"]] * 1e6, 1)},
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "run_id": self.run_id, "span_totals": self.totals(), **extra}
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, default=str)
