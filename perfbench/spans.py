"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name (``layer.operation``),
start and end on the ``perf_counter`` clock, the span that was open when
it started, the workload and cell it belongs to, and any counts the caller
attaches.  Spans stay in memory until ``dump`` writes them as JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None, probe: bool = False):
        """Time the body as one span; yields the span's dict so the body
        can attach counts.  ``probe`` marks a call the workload's command
        does not make, timed only so every layer is measured."""
        rec = {"name": name, "workload": self.workload, "cell": cell,
               "parent": self._open[-1] if self._open else None,
               "probe": probe, "start": 0.0, "end": 0.0}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_time_by_name(self, include_probes: bool = True) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            if include_probes or not s["probe"]:
                totals[s["name"]] = totals.get(s["name"], 0.0) + t
        return totals

    def dump(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}, indent=1) + "\n",
                        encoding="utf-8")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    rec = SpanRecorder("calibration")
    start = time.perf_counter()
    for _ in range(n):
        with rec.span("x"):
            pass
    return (time.perf_counter() - start) / n
