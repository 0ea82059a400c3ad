"""Deterministic failure injection for mission timelines.

A :class:`FaultSchedule` is a time-ordered list of :class:`Fault` events —
UAV crashes, battery depletions, and inter-UAV link degradations — that the
dynamics engine (:mod:`repro.dynamics.engine`) feeds into its
:class:`repro.simnet.events.EventQueue`.  Schedules are plain data: build
them explicitly for scripted scenarios, draw them from a seeded RNG
(:meth:`FaultSchedule.random`, via :mod:`repro.util.rng` discipline so the
same seed always yields the same faults), or derive battery events from the
energy model (:meth:`FaultSchedule.from_endurance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.energy import EnergyModel, fleet_endurance_s
from repro.simnet.events import EventQueue
from repro.util.rng import ensure_rng

CRASH = "crash"        # airframe lost: the UAV is gone for the mission
BATTERY = "battery"    # battery depleted: the UAV lands and stays down
LINK = "link"          # inter-UAV link degraded (optionally heals later)

KINDS = (CRASH, BATTERY, LINK)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``uav_index`` names the failing UAV for :data:`CRASH` / :data:`BATTERY`;
    ``link`` names the degraded UAV pair for :data:`LINK`.  A link fault
    with ``duration_s`` heals that long after it hits; ``None`` means it
    stays degraded for the rest of the mission.
    """

    time_s: float
    kind: str
    uav_index: "int | None" = None
    link: "tuple | None" = None
    duration_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time_s}")
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if self.kind in (CRASH, BATTERY):
            if self.uav_index is None:
                raise ValueError(f"{self.kind} fault needs a uav_index")
            if self.link is not None:
                raise ValueError(f"{self.kind} fault must not carry a link")
        else:
            if self.link is None:
                raise ValueError("link fault needs a (uav_a, uav_b) pair")
            a, b = self.link
            if a == b:
                raise ValueError(f"link fault endpoints must differ, got {a}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration_s}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted fault timeline."""

    faults: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.time_s, KINDS.index(f.kind)))
        )
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def inject(self, queue: EventQueue) -> None:
        """Schedule every fault (and every link healing) into ``queue``.

        Payloads are ``("fault", Fault)`` and ``("link_restored", pair)``
        tuples, matching what the dynamics engine dispatches on.
        """
        for fault in self.faults:
            queue.schedule(fault.time_s, ("fault", fault))
            if fault.kind == LINK and fault.duration_s is not None:
                queue.schedule(
                    fault.time_s + fault.duration_s,
                    ("link_restored", fault.link),
                )

    @classmethod
    def random(
        cls,
        num_uavs: int,
        num_crashes: int = 2,
        num_battery: int = 0,
        num_links: int = 0,
        window_s: "tuple" = (10.0, 100.0),
        link_duration_s: "float | None" = 30.0,
        seed: "int | np.random.Generator | None" = None,
    ) -> "FaultSchedule":
        """Draw a deterministic schedule from a seeded RNG.

        Each crashed/depleted UAV is distinct (a UAV fails at most once);
        link faults pick distinct unordered UAV pairs.  Times are uniform
        in ``window_s``.
        """
        if num_crashes + num_battery > num_uavs:
            raise ValueError(
                f"cannot fail {num_crashes + num_battery} distinct UAVs "
                f"out of {num_uavs}"
            )
        lo, hi = window_s
        if not (0 <= lo <= hi):
            raise ValueError(f"need 0 <= start <= end, got {window_s}")
        rng = ensure_rng(seed)
        victims = rng.permutation(num_uavs)[: num_crashes + num_battery]
        faults = []
        for i, uav in enumerate(victims):
            kind = CRASH if i < num_crashes else BATTERY
            faults.append(Fault(
                time_s=float(rng.uniform(lo, hi)),
                kind=kind,
                uav_index=int(uav),
            ))
        pairs_seen: set = set()
        while len(pairs_seen) < min(
            num_links, num_uavs * (num_uavs - 1) // 2
        ):
            a, b = (int(x) for x in rng.permutation(num_uavs)[:2])
            pair = (min(a, b), max(a, b))
            if pair in pairs_seen:
                continue
            pairs_seen.add(pair)
            faults.append(Fault(
                time_s=float(rng.uniform(lo, hi)),
                kind=LINK,
                link=pair,
                duration_s=link_duration_s,
            ))
        return cls(faults=tuple(faults))

    @classmethod
    def from_endurance(
        cls,
        fleet: list,
        deployment,
        model: "EnergyModel | None" = None,
        horizon_s: "float | None" = None,
    ) -> "FaultSchedule":
        """Battery-depletion faults at each deployed UAV's hover endurance
        (from :mod:`repro.network.energy`), optionally clipped to a mission
        horizon."""
        model = model if model is not None else EnergyModel()
        endurance = fleet_endurance_s(fleet, deployment, model)
        faults = [
            Fault(time_s=float(secs), kind=BATTERY, uav_index=k)
            for k, secs in sorted(endurance.items())
            if horizon_s is None or secs <= horizon_s
        ]
        return cls(faults=tuple(faults))
