"""The registry sampler: one daemon thread, a ring buffer, and an optional
progress line.

:class:`Sampler` snapshots :data:`repro.obs.REGISTRY` every
``interval_s`` into a bounded ring (the oldest snapshots fall off;
``dropped`` counts them).  A snapshot is ``{"t_s", "counters", "workers"
(pid -> approx.worker.<pid>.subsets), "gauges" (the rest), "rss_mb"}``;
the counters are the merged parent-side registry, so a parallel run ends
equal to the serial one.  With a ``progress`` stream (``--live``) each
tick also renders a line: subsets done/planned, an EWMA rate, an ETA, the
worker split, and a warning after ``stall_intervals`` quiet ticks (once
per episode; bumps ``live.stalls``).  Event loops call
:func:`record_mark` to snapshot at every state change — one ``None``
check when no sampler is installed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY
from repro.obs.profile import current_rss_mb

#: Counters whose movement proves the run is alive (stall detection
#: watches their sum plus the progress counter).
DEFAULT_ACTIVITY_COUNTERS = (
    "approx.subsets_done", "approx.subsets_evaluated", "approx.subsets_pruned",
    "greedy.oracle_calls", "flow.try_opens", "batch.specs_done",
)
PROGRESS_COUNTER = "approx.subsets_done"
TOTAL_COUNTER = "approx.subsets_planned"
WORKER_PREFIX, WORKER_SUFFIX = "approx.worker.", ".subsets"
THREAD_NAME = "repro-sampler"
EWMA_ALPHA = 0.3   # smoothing of the subsets/s rate


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the sampler."""

    interval_s: float = 1.0
    capacity: int = 4096          # ring size; oldest snapshots drop first
    stall_intervals: int = 5      # quiet ticks before a stall warning

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval must be positive, got {self.interval_s}")
        for name in ("capacity", "stall_intervals"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def split_gauges(gauges: dict) -> "tuple[dict, dict]":
    """``(workers, rest)``: the ``approx.worker.<pid>.subsets`` gauges as
    ``pid -> subsets`` and every other gauge unchanged."""
    workers, rest = {}, {}
    for name, value in gauges.items():
        if name.startswith(WORKER_PREFIX) and name.endswith(WORKER_SUFFIX):
            workers[name[len(WORKER_PREFIX):-len(WORKER_SUFFIX)]] = int(value)
        else:
            rest[name] = value
    return workers, rest


def worker_split(workers: dict) -> str:
    """``w<pid>:<share>%`` for each worker, pid order."""
    total = sum(workers.values()) or 1
    return " ".join(
        f"w{pid}:{100 * n // total}%" for pid, n in sorted(workers.items())
    )


@dataclass
class LiveSample:
    """One tick's progress view (returned by :meth:`Sampler.sample`)."""

    done: int
    total: int
    rate: float                      # EWMA subsets/s
    eta_s: "float | None"            # None until the rate is known
    activity: int                    # sum of the watched activity counters
    stalled: bool
    workers: dict = field(default_factory=dict)   # pid -> subsets absorbed
    counters: dict = field(default_factory=dict)  # extra rendered counters

    @property
    def fraction(self) -> "float | None":
        if self.total <= 0:
            return None
        return min(1.0, self.done / self.total)


def _fmt_eta(seconds: "float | None") -> str:
    if seconds is None:
        return "eta ?"
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"eta {seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"eta {int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"eta {seconds:.0f}s"


class Sampler:
    """Ring-buffered registry snapshots on one daemon thread, plus the
    ``--live`` progress line when ``progress`` is a stream.

    Use as a context manager or via :meth:`start` / :meth:`stop`;
    :meth:`stop` joins the thread and takes one closing sample, so runs
    shorter than the interval still record their end state.
    """

    def __init__(self, config: "SamplerConfig | None" = None,
                 registry=REGISTRY, clock=time.monotonic,
                 progress: "object | None" = None) -> None:
        self.config = config if config is not None else SamplerConfig()
        self.registry = registry
        self.clock = clock
        self.progress = progress
        self.dropped = 0
        self.samples_taken = 0
        self.stall_warnings = 0
        self._ring: deque = deque(maxlen=self.config.capacity)
        self._lock = threading.Lock()
        self._t0: "float | None" = None
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._tty = bool(getattr(progress, "isatty", lambda: False)())
        self._rate: "float | None" = None
        self._last: "tuple[int, float] | None" = None   # (done, time)
        self._last_activity: "int | None" = None
        self._flat = 0
        self._stall_announced = False
        self._inplace = False

    # -- the ring ----------------------------------------------------------

    def snapshot(self, now: "float | None" = None) -> dict:
        """Append one registry snapshot to the ring and return it."""
        now = self.clock() if now is None else now
        snap = self.registry.snapshot()
        workers, gauges = split_gauges(snap["gauges"])
        with self._lock:
            if self._t0 is None:
                self._t0 = now
            record = {
                "t_s": round(now - self._t0, 3),
                "counters": snap["counters"],
                "workers": workers,
                "gauges": gauges,
                "rss_mb": current_rss_mb(),
            }
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(record)
        return record

    def snapshots(self) -> list:
        """Copy of the buffered snapshots, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- one tick ----------------------------------------------------------

    def sample(self) -> LiveSample:
        """Snapshot, then update rate / ETA / stall state (thread-free;
        the daemon and the tests call this)."""
        now = self.clock()
        snap = self.snapshot(now)
        counters = snap["counters"]
        done = int(counters.get(PROGRESS_COUNTER, 0))
        total = int(counters.get(TOTAL_COUNTER, 0))
        activity = done + sum(
            int(counters.get(name, 0)) for name in DEFAULT_ACTIVITY_COUNTERS
        )
        if self._last is not None and now > self._last[1]:
            instant = max(0.0, (done - self._last[0]) / (now - self._last[1]))
            self._rate = (instant if self._rate is None else
                          EWMA_ALPHA * instant + (1 - EWMA_ALPHA) * self._rate)
        self._last = (done, now)
        if activity == self._last_activity:
            self._flat += 1
        else:
            self._flat, self._stall_announced = 0, False
        self._last_activity = activity
        eta = None
        if total > 0 and self._rate:
            eta = max(0, total - done) / self._rate
        self.samples_taken += 1
        return LiveSample(
            done=done, total=total, rate=self._rate or 0.0, eta_s=eta,
            activity=activity,
            stalled=self._flat >= self.config.stall_intervals,
            workers=snap["workers"],
            counters={name: int(counters[name])
                      for name in ("greedy.oracle_calls", "batch.specs_done")
                      if counters.get(name)},
        )

    def render(self, sample: LiveSample) -> str:
        """One progress line for ``sample`` (no trailing newline)."""
        if sample.fraction is not None:
            parts = [f"{sample.fraction:6.1%} {sample.done}/{sample.total} "
                     "subsets"]
        else:
            parts = [f"{sample.done} subsets" if sample.done
                     else "warming up"]
        parts += [f"{sample.rate:8.1f} subsets/s", _fmt_eta(sample.eta_s)]
        parts += [f"{name.split('.')[-1]} {value}"
                  for name, value in sorted(sample.counters.items())]
        if sample.workers:
            parts.append(worker_split(sample.workers))
        line = "[live] " + " | ".join(parts)
        if sample.stalled:
            line += f" | STALLED ({self._flat} quiet intervals)"
        return line

    def _emit(self, sample: LiveSample) -> None:
        if self.progress is None:
            return
        if self._tty:   # in place; pad to clear a previous, longer line
            self._write("\r" + self.render(sample).ljust(100))
            self._inplace = True
        else:
            self._write(self.render(sample) + "\n")
        if sample.stalled and not self._stall_announced:
            self._stall_announced = True
            self.stall_warnings += 1
            self.registry.inc("live.stalls")
            self._write(
                ("\n" if self._tty else "")
                + f"[live] WARNING: no counter movement for {self._flat} "
                f"intervals ({self._flat * self.config.interval_s:.0f}s) — "
                "solver may be stuck on one subset or starved of CPU\n"
            )

    def _write(self, text: str) -> None:
        try:   # a stream closed mid-run must never take the run down
            self.progress.write(text)
            self.progress.flush()
        except (ValueError, OSError, AttributeError):
            pass

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Sampler":
        if self.running:
            raise RuntimeError("Sampler is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=THREAD_NAME, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "Sampler":
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=max(5.0, 4 * self.config.interval_s))
            self._thread = None
        self._emit(self.sample())
        if self._inplace:
            self._write("\n")
        return self

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            self._emit(self.sample())


# -- event-driven marks ------------------------------------------------------

_ACTIVE: "Sampler | None" = None


def set_active_recorder(sampler: "Sampler | None") -> None:
    """Install (or clear, with ``None``) the sampler :func:`record_mark`
    snapshots into."""
    global _ACTIVE
    _ACTIVE = sampler


def record_mark() -> "dict | None":
    """Snapshot the active sampler now, if one is installed (``None``
    otherwise)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.snapshot()
