"""Hardening tests for :class:`repro.simnet.events.EventQueue`.

The queue's documented contract — ``(time, seq)`` ordering, FIFO among
same-timestamp events, cancellation tokens that never collide — is what
the dynamics engine leans on for deterministic replays.  These tests pin it, including randomized property checks that
race cancellations against bursts of same-timestamp events.
"""

import random

import pytest

from repro.simnet.events import EventQueue


def drain_all(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


class TestTieBreak:
    def test_same_timestamp_pops_fifo(self):
        queue = EventQueue()
        for i in range(10):
            queue.schedule(5.0, f"e{i}")
        assert [p for _, p in drain_all(queue)] == [f"e{i}" for i in range(10)]

    def test_order_independent_of_payload(self):
        """Payloads never participate in ordering (they need not even be
        comparable with each other)."""
        queue = EventQueue()
        queue.schedule(1.0, ("tuple", 1))
        queue.schedule(1.0, "string")
        queue.schedule(1.0, 42)
        assert [p for _, p in drain_all(queue)] \
            == [("tuple", 1), "string", 42]

    def test_interleaved_times_sort_by_time_then_seq(self):
        queue = EventQueue()
        queue.schedule(2.0, "b1")
        queue.schedule(1.0, "a1")
        queue.schedule(2.0, "b2")
        queue.schedule(1.0, "a2")
        assert drain_all(queue) \
            == [(1.0, "a1"), (1.0, "a2"), (2.0, "b1"), (2.0, "b2")]


class TestCancellation:
    def test_cancel_middle_of_same_timestamp_burst(self):
        queue = EventQueue()
        tokens = [queue.schedule(3.0, f"e{i}") for i in range(5)]
        assert queue.cancel(tokens[2]) is True
        assert [p for _, p in drain_all(queue)] == ["e0", "e1", "e3", "e4"]

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        token = queue.schedule(1.0, "x")
        assert queue.cancel(token) is True
        assert queue.cancel(token) is False
        assert len(queue) == 0

    def test_cancel_popped_token_is_noop(self):
        queue = EventQueue()
        token = queue.schedule(1.0, "x")
        queue.pop()
        assert queue.cancel(token) is False

    def test_cancel_unknown_token(self):
        queue = EventQueue()
        queue.schedule(1.0, "x")
        assert queue.cancel(999) is False
        assert len(queue) == 1

    def test_len_accounts_for_cancellations(self):
        queue = EventQueue()
        tokens = [queue.schedule(1.0, i) for i in range(4)]
        queue.cancel(tokens[0])
        queue.cancel(tokens[3])
        assert len(queue) == 2
        assert bool(queue) is True

    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        first = queue.schedule(1.0, "head")
        queue.schedule(2.0, "next")
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_cancelled_head_does_not_advance_clock(self):
        queue = EventQueue()
        first = queue.schedule(1.0, "head")
        queue.schedule(5.0, "live")
        queue.cancel(first)
        assert queue.pop() == (5.0, "live")
        assert queue.now == 5.0


class TestClockGuards:
    def test_rejects_scheduling_into_the_past(self):
        queue = EventQueue()
        queue.schedule(10.0, "x")
        queue.pop()
        with pytest.raises(ValueError, match="past"):
            queue.schedule(5.0, "late")

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue().schedule_in(-1.0, "x")

    def test_drain_respects_until(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            queue.schedule(t, t)
        seen = list(queue.drain(until=2.0))
        assert [t for t, _ in seen] == [1.0, 2.0]
        # The event beyond the horizon stays scheduled.
        assert len(queue) == 1
        assert queue.peek_time() == 3.0

    def test_drain_picks_up_mid_iteration_schedules(self):
        queue = EventQueue()
        queue.schedule(1.0, "seed")
        seen = []
        for t, payload in queue.drain(until=3.0):
            seen.append((t, payload))
            if payload == "seed":
                queue.schedule(2.0, "child")
        assert seen == [(1.0, "seed"), (2.0, "child")]


class TestRandomizedProperties:
    """Race random cancellations against same-timestamp bursts and check
    the queue against a reference model (a sorted list)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_model(self, seed):
        rng = random.Random(seed)
        queue = EventQueue()
        # Few distinct times -> many deliberate timestamp collisions.
        times = [float(rng.randint(0, 5)) for _ in range(60)]
        tokens = {}
        for i, t in enumerate(times):
            tokens[queue.schedule(t, i)] = (t, i)
        cancelled = set()
        for token in rng.sample(list(tokens), k=25):
            assert queue.cancel(token) is (token not in cancelled)
            cancelled.add(token)
        live = [
            (t, i) for token, (t, i) in tokens.items()
            if token not in cancelled
        ]
        # Reference order: time, then insertion order.  Payload i here IS
        # the insertion order, so the model is a plain stable sort.
        live.sort()
        assert len(queue) == len(live)
        assert drain_all(queue) == live

    @pytest.mark.parametrize("seed", range(10))
    def test_cancel_during_drain(self, seed):
        """Handlers cancelling later same-timestamp events mid-drain see
        those events skipped, and everything else keeps FIFO order."""
        rng = random.Random(seed)
        queue = EventQueue()
        tokens = [queue.schedule(float(i // 4), i) for i in range(40)]
        victims = {}
        for i in range(0, 40, 7):
            # Event i cancels a later event when it fires.
            victims[i] = rng.randrange(i + 1, 41)
        seen = []
        expected_skipped = set()
        for _, payload in queue.drain():
            seen.append(payload)
            target = victims.get(payload)
            if target is not None and target < 40:
                if queue.cancel(tokens[target]):
                    expected_skipped.add(target)
        assert seen == [
            i for i in range(40) if i not in expected_skipped
        ]
