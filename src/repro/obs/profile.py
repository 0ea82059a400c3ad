"""Sampling profiler + memory watermarks (zero-dependency, off by default).

* :class:`SamplingProfiler` — a daemon thread walks
  ``sys._current_frames()`` at ``hz`` and counts the observed call
  stacks; the solver threads run no extra instruction (the bench suite
  pins the GIL cost at <=3% on paper-headline);
* :func:`stage_watermark` — nesting-safe ``tracemalloc`` peak bracket
  around a pipeline stage;
* :func:`peak_rss_mb` / :func:`current_rss_mb` — process memory, ``None``
  rather than an exception where the source is missing.

While no profiler is active the module holds one ``None`` slot:
:func:`stage_watermark` hands out a shared no-op, no thread exists and
``tracemalloc`` never starts.  Exports: collapsed flamegraph text and
speedscope JSON (``repro profile <scenario>``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.util.atomic import atomic_write_text

#: The active profiler, or ``None`` — the one module-level slot every
#: guarded helper checks.
_active: "SamplingProfiler | None" = None

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


@dataclass(frozen=True)
class ProfileConfig:
    """Knobs of the sampling profiler."""

    hz: float = 97.0              # sampling frequency (prime: avoids beats)
    memory: bool = True           # tracemalloc stage watermarks on/off
    max_stack_depth: int = 128    # frames kept per sample (deepest cut)

    def __post_init__(self) -> None:
        if not (0.0 < self.hz <= 10_000.0):
            raise ValueError(f"hz must be in (0, 10000], got {self.hz}")
        if self.max_stack_depth < 1:
            raise ValueError(
                f"max_stack_depth must be >= 1, got {self.max_stack_depth}"
            )


def _frame_label(code) -> str:
    """``module.py:function`` — short, stable across machines (no
    absolute paths, so archived profiles diff cleanly)."""
    return f"{Path(code.co_filename).name}:{code.co_name}"


class _NullWatermark:
    """Shared no-op stage watermark (no allocation while profiling is off)."""

    __slots__ = ()

    def __enter__(self) -> "_NullWatermark":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_WATERMARK = _NullWatermark()


class _StageWatermark:
    """Peak-traced-memory bracket around one named stage (nesting-safe:
    a child stage's peak folds into its parent's, so the parent never
    under-reports just because ``tracemalloc.reset_peak`` ran inside)."""

    __slots__ = ("profiler", "stage", "child_peak")

    def __init__(self, profiler: "SamplingProfiler", stage: str) -> None:
        self.profiler = profiler
        self.stage = stage
        self.child_peak = 0

    def __enter__(self) -> "_StageWatermark":
        import tracemalloc

        self.profiler._watermark_stack.append(self)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc_info: object) -> None:
        import tracemalloc

        peak = 0
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()   # fresh window for the parent's tail
        peak = max(peak, self.child_peak)
        stack = self.profiler._watermark_stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].child_peak = max(stack[-1].child_peak, peak)
        previous = self.profiler.memory_stages.get(self.stage, 0)
        self.profiler.memory_stages[self.stage] = max(previous, peak)
        return None


def stage_watermark(stage: str):
    """Context manager recording the stage's peak traced memory; the
    shared no-op unless a ``memory=True`` profiler is active (one global
    load at the instrumentation sites while profiling is off)."""
    profiler = _active
    if profiler is None or not profiler.config.memory:
        return _NULL_WATERMARK
    return _StageWatermark(profiler, stage)


def active() -> "SamplingProfiler | None":
    """The currently running profiler, or ``None``."""
    return _active


class SamplingProfiler:
    """Aggregating wall-clock sampler over ``sys._current_frames()``.

    A context manager, or :meth:`start` / :meth:`stop`; one per process.
    After :meth:`stop`: :attr:`stacks` (``Counter`` of root-first frame
    labels), :attr:`samples`, :attr:`memory_stages` (stage → peak traced
    bytes) and :attr:`peak_rss_mb`.
    """

    def __init__(self, config: "ProfileConfig | None" = None) -> None:
        self.config = config if config is not None else ProfileConfig()
        self.samples = 0
        self.stacks: Counter = Counter()
        self.memory_stages: dict = {}      # stage -> peak traced bytes
        self.peak_rss_mb: "float | None" = None
        self.duration_s: float = 0.0
        self._watermark_stack: list = []
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._started_tracemalloc = False
        self._start_time: "float | None" = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        global _active
        if _active is not None:
            raise RuntimeError("a SamplingProfiler is already active")
        if self.config.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        _active = self
        self._start_time = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        global _active
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=max(5.0, 10.0 / self.config.hz))
            self._thread = None
        if self._start_time is not None:
            self.duration_s = time.perf_counter() - self._start_time
        if _active is self:
            _active = None
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False
        self.peak_rss_mb = peak_rss_mb()
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- sampling ----------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.config.hz
        own_tid = threading.get_ident()
        while not self._stop.wait(interval):
            self.sample_once(skip_tid=own_tid)

    def sample_once(self, skip_tid: "int | None" = None) -> int:
        """Take one sample of every thread's stack (thread-free; the
        loop and the tests both call this).  Returns stacks recorded."""
        recorded = 0
        for tid, frame in sys._current_frames().items():
            if tid == skip_tid:
                continue
            stack: list = []
            while frame is not None and len(stack) < self.config.max_stack_depth:
                stack.append(_frame_label(frame.f_code))
                frame = frame.f_back
            if stack:
                stack.reverse()            # root first
                self.stacks[tuple(stack)] += 1
                self.samples += 1
                recorded += 1
        return recorded

    # -- aggregation -------------------------------------------------------

    def top_functions(self, limit: int = 10) -> list:
        """``(leaf frame label, self samples)`` pairs, hottest first."""
        leaves: Counter = Counter()
        for stack, count in self.stacks.items():
            leaves[stack[-1]] += count
        return leaves.most_common(limit)

    def memory_stages_mb(self) -> dict:
        """Stage watermarks in MB (insertion order preserved)."""
        return {stage: round(peak / (1024 * 1024), 3)
                for stage, peak in self.memory_stages.items()}

    # -- export ------------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed flamegraph text: one ``a;b;c count`` line per stack."""
        lines = [";".join(stack) + f" {count}"
                 for stack, count in sorted(self.stacks.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> dict:
        """The profile in speedscope's ``sampled`` JSON format."""
        frame_index: dict = {}
        frames: list = []
        samples: list = []
        weights: list = []
        for stack, count in sorted(self.stacks.items()):
            indexed = []
            for label in stack:
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                indexed.append(frame_index[label])
            samples.append(indexed)
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "exporter": "repro.obs.profile",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
        }

    def to_dict(self) -> dict:
        """JSON-safe summary (what the run archive stores)."""
        return {
            "schema": 1,
            "hz": self.config.hz,
            "samples": self.samples,
            "duration_s": round(self.duration_s, 4),
            "stacks": [
                {"frames": list(stack), "count": count}
                for stack, count in self.stacks.most_common()
            ],
            "memory_stages_mb": self.memory_stages_mb(),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def write_speedscope(self, path: "str | Path",
                         name: str = "repro profile") -> Path:
        text = json.dumps(self.speedscope(name)) + "\n"
        return atomic_write_text(path, text)

    def write_collapsed(self, path: "str | Path") -> Path:
        return atomic_write_text(path, self.collapsed())


# -- process memory (no psutil) ----------------------------------------------


def peak_rss_mb() -> "float | None":
    """High-water resident set size of this process in MB.

    ``resource.getrusage`` first (``ru_maxrss`` is KiB on Linux, bytes on
    macOS), then ``/proc/self/status`` ``VmHWM``; ``None`` when neither
    source exists — observability never raises.
    """
    try:
        import resource

        ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if ru_maxrss > 0:
            divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
            return round(ru_maxrss / divisor, 3)
    except (ImportError, OSError, ValueError):
        pass
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024, 3)
    except (OSError, ValueError, IndexError):
        pass
    return None


def current_rss_mb() -> "float | None":
    """Resident set size right now in MB (``/proc/self/statm``), or the
    peak as a fallback, or ``None``."""
    try:
        import os

        fields = Path("/proc/self/statm").read_text().split()
        return round(int(fields[1]) * os.sysconf("SC_PAGESIZE") / (1024 * 1024), 3)
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()
