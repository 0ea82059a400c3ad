"""Exhaustive reference for Algorithm 1 (Section III): every sub-path
length ``L`` and every composition of its interior nodes into segments.

The solver runs :func:`repro.core.segments.optimal_segments`, which scans
only the balanced splits; this scan is what the structural lemma that
balanced splits suffice is checked against.
"""

from __future__ import annotations

from repro.core.segments import SegmentPlan, relay_bound


def brute_force_segments(num_uavs: int, s: int) -> SegmentPlan:
    """Exhaustive reference for tests: scan every ``L`` and every composition
    of ``L - s`` into ``s + 1`` parts.  Exponential; use only for tiny
    inputs."""
    if s < 1 or num_uavs < s:
        raise ValueError("need 1 <= s <= num_uavs")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    best: "SegmentPlan | None" = None
    for length in range(s, num_uavs + 1):
        for p in compositions(length - s, s + 1):
            g = relay_bound(list(p))
            if g <= num_uavs and (
                best is None
                or length > best.lmax
                or (length == best.lmax and g < best.relay_bound)
            ):
                best = SegmentPlan(
                    s=s, num_uavs=num_uavs, lmax=length, p=p, relay_bound=g
                )
    assert best is not None  # L = s is always feasible
    return best
