"""Durable checkpoint/resume for the anchor-subset sweep.

:func:`repro.core.approx.appro_alg` enumerates a deterministic sequence
of anchor subsets; a checkpoint snapshots how far that enumeration got —
the completed index ranges over the canonical visit order, the
best-so-far candidate, and the running subset counters — so a run killed
at any chunk boundary resumes to the *bit-identical* final assignment
instead of restarting.  Snapshots are written atomically
(:mod:`repro.util.atomic`: tmp + fsync + rename), so a crash mid-write
leaves the previous complete snapshot intact.

Identity is two fingerprints (:func:`repro.util.ledger.work_fingerprint`
hashes):

* ``run_key`` — the problem + solver options, independent of ``s``
  (shape, fleet capacities, anchor pool, greedy flavour, and the
  caller-supplied ``CheckpointConfig.key`` such as a ``scenario_key()``).
  A file whose ``run_key`` differs is *stale*: it is ignored
  (``checkpoint.mismatches`` counter) and overwritten, never resumed.
* ``work_key`` — ``run_key`` plus the enumeration level ``s`` and the
  number of surviving (unpruned) subsets, whose lexicographic order is
  the one index domain of every sweep.  Completed ranges only restore
  when the work key matches exactly.  Worker count is not part of either
  key: a serial run's checkpoint resumes under a process pool and the
  reverse.

The ``s - 1`` fallback is first-class: when a level exhausts with no
feasible candidate it lands in ``exhausted_s`` and the resumed run skips
straight past it.

Schema — any change to :data:`CHECKPOINT_FIELDS` must bump
:data:`CHECKPOINT_FORMAT`; ``tests/test_checkpoint_schema_guard.py``
fails the build otherwise.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.util.atomic import atomic_write_json
from repro.util.ledger import work_fingerprint

CHECKPOINT_KIND = "solve-checkpoint"
CHECKPOINT_FORMAT = 2

#: The exact top-level keys of a checkpoint file, frozen per format
#: version (see the schema guard test).
CHECKPOINT_FIELDS = (
    "kind", "format", "run_key", "work_key", "s", "total",
    "completed", "best", "counts", "exhausted_s", "complete",
    "created_unix",
)

#: The subset-accounting counters a checkpoint carries.
COUNT_KEYS = ("pruned", "evaluated", "infeasible", "bound_skipped")


class CheckpointError(ValueError):
    """The checkpoint file is unreadable, foreign, or from an
    incompatible format version."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint one solve.

    The parallel dispatcher flushes after every completed chunk; the
    serial loop after ``every_subsets`` visited subsets, which bounds the
    work a crash loses there.  ``key`` folds an external identity —
    typically a spec's ``scenario_key()`` — into the fingerprint so
    checkpoints of different scenarios can never cross-resume even at
    equal shapes.
    ``resume=True`` loads a matching existing file; a missing file just
    starts fresh.
    """

    path: "str | Path"
    resume: bool = False
    every_subsets: int = 64
    key: "str | None" = None

    def __post_init__(self) -> None:
        if self.every_subsets < 1:
            raise ValueError(
                f"every_subsets must be >= 1, got {self.every_subsets}"
            )


# -- range arithmetic --------------------------------------------------------


def merge_ranges(ranges: "list") -> list:
    """Sorted, coalesced copy of half-open ``[lo, hi)`` ranges."""
    out: list = []
    for lo, hi in sorted((int(lo), int(hi)) for lo, hi in ranges):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def missing_ranges(total: int, completed: "list") -> list:
    """The complement of ``completed`` within ``[0, total)``."""
    gaps: list = []
    cursor = 0
    for lo, hi in merge_ranges(completed):
        if lo > cursor:
            gaps.append((cursor, min(lo, total)))
        cursor = max(cursor, hi)
        if cursor >= total:
            break
    if cursor < total:
        gaps.append((cursor, total))
    return gaps


def covered_units(completed: "list") -> int:
    return sum(hi - lo for lo, hi in merge_ranges(completed))


# -- fingerprints ------------------------------------------------------------


def solve_run_key(problem, pool, eval_kw: dict,
                  external_key: "str | None") -> str:
    """The s-independent identity of one appro_alg work description."""
    return work_fingerprint({
        "num_users": problem.num_users,
        "num_locations": problem.num_locations,
        "num_uavs": problem.num_uavs,
        "capacities": [uav.capacity for uav in problem.fleet],
        "pool": list(pool),
        "eval_kw": {k: eval_kw[k] for k in sorted(eval_kw)},
        "key": external_key,
    })


def solve_work_key(run_key: str, s: int, total: int) -> str:
    """The per-level identity: which index space the ranges live in."""
    return work_fingerprint({"run_key": run_key, "s": s, "total": total})


# -- the live checkpoint state -----------------------------------------------


class SolveCheckpoint:
    """Mutable checkpoint state threaded through one appro_alg run
    (including its ``s - 1`` fallback levels)."""

    def __init__(self, config: CheckpointConfig, run_key: str):
        self.config = config
        self.path = Path(config.path)
        self.run_key = run_key
        self.exhausted_s: list = []
        self.s: "int | None" = None
        self.work_key: "str | None" = None
        self.total = 0
        self.completed: list = []
        self.best: "tuple | None" = None       # (served, placements, anchors)
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.complete = False
        self.resumed = False
        self.resumed_chunks = 0
        self.resumed_units = 0
        self.mismatched = False
        self.writes = 0
        self._payload: "dict | None" = None
        self._chunk_done = False
        self._units_since_flush = 0
        if config.resume and self.path.exists():
            payload = self._load()
            if payload.get("run_key") == run_key:
                self._payload = payload
                self.exhausted_s = [
                    int(x) for x in payload.get("exhausted_s", [])
                ]
            else:
                # Stale file from different work: never resume it.
                self.mismatched = True
                obs.counter_inc("checkpoint.mismatches")

    def _load(self) -> dict:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or (
            payload.get("kind") != CHECKPOINT_KIND
        ):
            raise CheckpointError(f"{self.path} is not a solve checkpoint")
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint format "
                f"{payload.get('format')!r} (this build reads "
                f"{CHECKPOINT_FORMAT})"
            )
        return payload

    # -- level lifecycle -----------------------------------------------------

    def is_exhausted(self, s: int) -> bool:
        return s in self.exhausted_s

    def enter_level(self, s: int, total: int) -> None:
        """Start (or resume) enumeration level ``s``.

        Restores completed ranges / best / counts only when the stored
        work key matches this level exactly; anything else starts the
        level fresh.
        """
        self.s = s
        self.total = int(total)
        self.work_key = solve_work_key(self.run_key, s, self.total)
        self.completed = []
        self.best = None
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.complete = False
        self.resumed = False
        self.resumed_chunks = 0
        self.resumed_units = 0
        payload = self._payload
        if payload and payload.get("work_key") == self.work_key:
            self.completed = merge_ranges(payload.get("completed", []))
            self.best = _best_from_json(payload.get("best"))
            stored = payload.get("counts", {})
            self.counts = {
                key: int(stored.get(key, 0)) for key in COUNT_KEYS
            }
            self.complete = bool(payload.get("complete", False))
            self.resumed = True
            self.resumed_chunks = len(self.completed)
            self.resumed_units = covered_units(self.completed)
            obs.counter_inc("checkpoint.resumes")
            if self.resumed_chunks:
                obs.counter_inc("resume.chunks_skipped", self.resumed_chunks)
                obs.counter_inc("resume.subsets_skipped", self.resumed_units)
        self._payload = None if payload is not None else self._payload

    def mark_exhausted(self, s: int) -> None:
        """Record that level ``s`` finished with no feasible candidate."""
        if s not in self.exhausted_s:
            self.exhausted_s.append(s)
        self.flush()

    def mark_complete(self) -> None:
        self.complete = True
        self.flush()

    # -- progress ------------------------------------------------------------

    def mark_range(self, lo: int, hi: int, chunk: bool = True) -> None:
        """One contiguous index range finished.  ``chunk=True`` (a pool
        chunk) makes the next :meth:`maybe_flush` write; the in-parent
        sweep passes ``chunk=False`` for its per-subset marks so only the
        ``every_subsets`` cadence applies."""
        if hi <= lo:
            return
        self.completed = merge_ranges(self.completed + [(lo, hi)])
        if chunk:
            self._chunk_done = True
        self._units_since_flush += hi - lo

    def record_counts(self, pruned: int, evaluated: int, infeasible: int,
                      bound_skipped: int) -> None:
        self.counts = {
            "pruned": int(pruned),
            "evaluated": int(evaluated),
            "infeasible": int(infeasible),
            "bound_skipped": int(bound_skipped),
        }

    def set_best(self, best: "tuple | None") -> None:
        self.best = best

    def maybe_flush(self) -> None:
        if (
            self._chunk_done
            or self._units_since_flush >= self.config.every_subsets
        ):
            self.flush()

    def flush(self) -> None:
        atomic_write_json(self.path, {
            "kind": CHECKPOINT_KIND,
            "format": CHECKPOINT_FORMAT,
            "run_key": self.run_key,
            "work_key": self.work_key,
            "s": self.s,
            "total": self.total,
            "completed": [[lo, hi] for lo, hi in self.completed],
            "best": _best_to_json(self.best),
            "counts": dict(self.counts),
            "exhausted_s": list(self.exhausted_s),
            "complete": self.complete,
            "created_unix": time.time(),
        })
        self._chunk_done = False
        self._units_since_flush = 0
        self.writes += 1
        obs.counter_inc("checkpoint.writes")


def _best_to_json(best: "tuple | None") -> "dict | None":
    if best is None:
        return None
    served, placements, anchors = best
    return {
        "served": int(served),
        "placements": {str(k): int(v) for k, v in placements.items()},
        "anchors": [int(a) for a in anchors],
    }


def _best_from_json(data: "dict | None") -> "tuple | None":
    if data is None:
        return None
    return (
        int(data["served"]),
        {int(k): int(v) for k, v in data["placements"].items()},
        tuple(int(a) for a in data["anchors"]),
    )
