"""A minimal discrete-event engine: a time-ordered event queue.

Events are ``(time, payload)``; ties break by insertion order (FIFO), so
simultaneous events are deterministic.  :meth:`EventQueue.schedule` returns
a token that can later be passed to :meth:`EventQueue.cancel` — the
dynamics engine uses this to withdraw a pending relocation when a newer
plan supersedes it.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterator


class EventQueue:
    """Priority queue of timestamped events.

    **Tie-break contract.**  Each :meth:`schedule` call stamps the event
    with a monotonically increasing sequence number, and the heap orders
    by ``(time, seq)``.  Events sharing a timestamp therefore pop in
    exactly the order they were scheduled (FIFO), independent of payload
    contents — the property every consumer (the dynamics engine, the
    queueing simulator) relies on for deterministic replays.  The sequence number is
    also the cancellation token, so a token never collides with another
    event's and cancelling one of several same-timestamp events leaves
    the others' relative order intact.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = 0
        self._cancelled: set = set()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0

    def schedule(self, time: float, payload: Hashable) -> int:
        """Schedule ``payload`` at absolute ``time`` (>= now).

        Returns a token identifying the event for :meth:`cancel`.
        """
        if time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        token = self._counter
        heapq.heappush(self._heap, (time, token, payload))
        self._counter += 1
        return token

    def schedule_in(self, delay: float, payload: Hashable) -> int:
        """Schedule ``payload`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, payload)

    def cancel(self, token: int) -> bool:
        """Withdraw a scheduled event.  Returns whether it was still pending
        (cancelling an already-popped or already-cancelled token is a no-op)."""
        if any(tok == token for _, tok, _ in self._heap) and (
            token not in self._cancelled
        ):
            self._cancelled.add(token)
            return True
        return False

    def pop(self) -> "tuple[float, object]":
        """Advance the clock to the next live event and return
        (time, payload).  Cancelled events are skipped silently."""
        while self._heap:
            time, token, payload = heapq.heappop(self._heap)
            if token in self._cancelled:
                self._cancelled.discard(token)
                continue
            self.now = time
            return time, payload
        raise IndexError("event queue is empty")

    def peek_time(self) -> "float | None":
        while self._heap and self._heap[0][1] in self._cancelled:
            _, token, _ = heapq.heappop(self._heap)
            self._cancelled.discard(token)
        return self._heap[0][0] if self._heap else None

    def drain(self, until: "float | None" = None) -> Iterator:
        """Iterate ``(time, payload)`` over live events, advancing the
        clock, until the queue empties or the next event lies strictly
        beyond ``until`` (which then stays scheduled).  The mission clock of
        the dynamics engine: handlers may
        schedule or cancel further events mid-iteration and the generator
        picks them up, exactly like the explicit peek/pop loop it
        replaces."""
        while True:
            next_time = self.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                return
            yield self.pop()
