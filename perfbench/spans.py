"""In-memory span recorder for the benchmark's traced runs.

A span wraps one public call the benchmark makes into nadp. It records its
name, start and end (``time.perf_counter``), the enclosing span, the op id
and workload current when it opened, and ``ru_maxrss`` before and after.
Spans stay in memory and are written out once, when the run ends. A
disabled recorder hands out a shared no-op context, so untraced runs pay
one attribute lookup per call.
"""

from __future__ import annotations

import contextlib
import json
import resource
import time
from pathlib import Path


def maxrss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _NullSpan(contextlib.AbstractContextManager):
    """Stands in for a span when tracing is off; accepts attribute writes."""

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class Tracer:
    """Collects spans; `op` and `workload` tag every span opened while set."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op: int | None = None
        self.workload: str | None = None
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        """Context manager yielding the span record; callers may add counts."""
        if not self.enabled:
            return _NULL
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "workload": self.workload,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["rss_before_kb"] = maxrss_kb()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_after_kb"] = maxrss_kb()
            self._stack.pop()

    def select(self, name: str, prefer: str | None = None, **match) -> list[dict]:
        """Finished spans called `name` whose attributes equal `match`; when
        some come from workload `prefer`, only those."""
        found = [
            s
            for s in self.spans
            if s["name"] == name
            and "end" in s
            and all(s.get(k) == v for k, v in match.items())
        ]
        own = [s for s in found if s["workload"] == prefer]
        return own or found

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}, indent=1))
