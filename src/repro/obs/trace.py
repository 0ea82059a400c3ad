"""Hierarchical span tracer.

Off by default and cheap when disabled: ``span()`` returns a shared
no-op context manager unless :func:`enable` ran.  When enabled, every
``with span(name, **attrs):`` block records a :class:`Span` (monotonic
start/duration, depth, parent, pid/tid) — enough to rebuild the tree and
export Chrome trace format (:func:`repro.obs.record.chrome_trace`).

Each thread keeps its own open-span stack; finished spans land in one
process-wide buffer under a lock.  Pool workers record into their own
buffer and ship it back with their chunk results (:func:`export_state`
in the worker, :func:`absorb_state` in the parent); forked workers call
:func:`worker_reset` first so the parent's buffer is not re-shipped.

Spans always balance: ``__exit__`` records the span even when the body
raises (tagged with the exception type), so :func:`open_span_count` is
zero after any top-level exit — a property test pins this.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

_enabled = False
_lock = threading.Lock()
_finished: list = []
_tls = threading.local()


@dataclass(frozen=True)
class Span:
    """One finished span."""

    name: str
    start_ns: int          # time.perf_counter_ns() at entry
    duration_ns: int
    depth: int             # 0 = top-level in its thread
    index: int             # buffer-local sequence number (entry order)
    parent: int            # index of the enclosing span, -1 at top level
    pid: int
    tid: int
    error: "str | None" = None   # exception type name if the body raised
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "depth": self.depth,
            "index": self.index,
            "parent": self.parent,
            "pid": self.pid,
            "tid": self.tid,
            "error": self.error,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_dict(data: dict) -> "Span":
        return Span(
            name=data["name"],
            start_ns=data["start_ns"],
            duration_ns=data["duration_ns"],
            depth=data["depth"],
            index=data["index"],
            parent=data["parent"],
            pid=data["pid"],
            tid=data["tid"],
            error=data.get("error"),
            attrs=dict(data.get("attrs", {})),
        )


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class _NullSpan:
    """The shared disabled-mode context manager (no allocation per site)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; records itself on exit, exception or not."""

    __slots__ = ("name", "attrs", "index", "parent", "depth", "start_ns")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        stack = _stack()
        self.depth = len(stack)
        self.parent = stack[-1].index if stack else -1
        with _lock:
            # Index allocation is global so parent links stay unambiguous
            # within one process even across threads.
            self.index = _next_index()
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        duration = time.perf_counter_ns() - self.start_ns
        stack = _stack()
        assert stack and stack[-1] is self, "span stack corrupted"
        stack.pop()
        record = Span(
            name=self.name,
            start_ns=self.start_ns,
            duration_ns=duration,
            depth=self.depth,
            index=self.index,
            parent=self.parent,
            pid=os.getpid(),
            tid=threading.get_ident(),
            error=getattr(exc_type, "__name__", None),
            attrs=self.attrs,
        )
        with _lock:
            _finished.append(record)
        return None


_index_counter = 0


def _next_index() -> int:
    global _index_counter
    value = _index_counter
    _index_counter += 1
    return value


def span(name: str, **attrs: object):
    """Context manager timing one named block (no-op while disabled)."""
    if not _enabled:
        return _NULL_SPAN
    return _LiveSpan(name, attrs)


def traced(name: str, **attrs: object):
    """Decorator form of :func:`span` for whole functions."""

    def decorate(func):
        def wrapper(*args: object, **kwargs: object):
            if not _enabled:
                return func(*args, **kwargs)
            with _LiveSpan(name, dict(attrs)):
                return func(*args, **kwargs)

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    return decorate


def enable() -> None:
    """Switch tracing on (global; also enables the metrics registry guard
    via :mod:`repro.obs`)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def open_span_count() -> int:
    """Open (entered, not yet exited) spans in the calling thread."""
    return len(_stack())


def snapshot_spans() -> list:
    """Copy of the finished-span buffer (oldest first)."""
    with _lock:
        return list(_finished)


def drain_spans() -> list:
    """Return and clear the finished-span buffer."""
    with _lock:
        out = list(_finished)
        _finished.clear()
        return out


def reset() -> None:
    """Clear all tracer state (buffer, index counter, thread stack)."""
    global _index_counter
    with _lock:
        _finished.clear()
        _index_counter = 0
    _tls.stack = []


# -- process-pool support ----------------------------------------------------


def worker_reset(enabled: bool) -> None:
    """Initialise tracer state inside a pool worker.

    Forked workers inherit the parent's buffer; clearing it here keeps the
    parent's spans from being shipped back a second time.
    """
    reset()
    global _enabled
    _enabled = bool(enabled)


def export_state() -> list:
    """Drain this process's spans as plain dicts (picklable)."""
    return [s.to_dict() for s in drain_spans()]


def absorb_state(spans: "list | None") -> None:
    """Merge spans exported by a worker into this process's buffer."""
    if not spans:
        return
    records = [Span.from_dict(d) for d in spans]
    with _lock:
        _finished.extend(records)
