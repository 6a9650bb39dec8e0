"""In-memory spans around calls that cross a twinconst module boundary.

A wrapped function records one span per call: its name, start, end, the span
it ran inside, and counts taken from its arguments and result after the span
has closed. Spans stay in memory until the traced process writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, fn: Callable, count: Optional[Counter] = None) -> Callable:
        """fn wrapped so that every call records a span called name."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append({"name": name, "parent": parent, "counts": {}})
            self._open.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx]["start"] = start
                self.spans[idx]["end"] = end
            if count is not None:
                self.spans[idx]["counts"] = count(args, kwargs, out)
            return out

        return traced

    def patch(self, module, attr: str, name: str, count: Optional[Counter] = None) -> None:
        """Replace module.attr, the name a caller looks up, by its traced form."""
        setattr(module, attr, self.span(name, getattr(module, attr), count))


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of the spans it
    directly contains. Count values that are lists are concatenated.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
    for s, inner in zip(spans, child_time):
        agg = out[s["name"]]
        dur = s["end"] - s["start"]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - inner
        for key, val in s["counts"].items():
            if isinstance(val, list):
                agg["counts"][key] = agg["counts"].get(key, []) + val
            else:
                agg["counts"][key] += val
    return dict(out)
