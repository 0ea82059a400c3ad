"""Metrics registry: counters, gauges, histograms.

Counters are exact and deterministic: workers ship their registry delta
back with each chunk and the parent adds it, so serial and parallel runs
of one problem and seed end with equal counters (a property test pins
this).  Gauges keep the last value; histograms keep ``count / total /
min / max`` (bounded memory).  The guarded helpers in :mod:`repro.obs`
(``counter_inc`` etc.) no-op on one boolean check while off.
"""

from __future__ import annotations

import threading


class Histogram:
    """Bounded-memory summary of an observed distribution."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_dict(self, data: dict) -> None:
        if not data.get("count"):
            return
        self.count += int(data["count"])
        self.total += float(data["total"])
        self.min = min(self.min, float(data["min"]))
        self.max = max(self.max, float(data["max"]))


class MetricsRegistry:
    """A named bag of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # -- write ------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # -- read -------------------------------------------------------------

    def _view(self) -> dict:
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: h.to_dict() for name, h in self._histograms.items()
            },
        }

    def snapshot(self) -> dict:
        """Plain-dict (picklable, JSON-safe) view of everything."""
        with self._lock:
            return self._view()

    # -- lifecycle --------------------------------------------------------

    def merge(self, snapshot: "dict | None") -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the incoming value (last
        writer wins — workers should avoid gauges where determinism across
        worker counts matters).
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(snapshot.get("gauges", {}))
            for name, data in snapshot.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge_dict(data)

    def reset(self) -> None:
        self.export_and_reset()

    def export_and_reset(self) -> dict:
        """Atomic snapshot-then-clear (workers ship deltas per chunk)."""
        with self._lock:
            out = self._view()
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return out


#: The process-global registry all instrumentation writes to.
REGISTRY = MetricsRegistry()
