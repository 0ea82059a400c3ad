"""The single mutable world every dynamics event source acts on.

:class:`WorldState` owns the live population (users arrive, depart and
move), the fleet's current placements and health, and one persistent
working :class:`~repro.network.coverage.CoverageGraph` kept in sync one
user row at a time (:meth:`~CoverageGraph.add_user`,
:meth:`~CoverageGraph.remove_user`, :meth:`~CoverageGraph.move_users`) —
location-derived structure (hop matrix, Steiner memo) survives every
churn event, which is what makes warm epoch re-solves cheap.

The world also keeps one live maximum assignment of users to the placed
UAVs (the Section II-D assignment, Lemma 1) in an
:class:`~repro.flow.bipartite.IncrementalAssignment`.  An arrival tests
the new user against the live stations
(:meth:`~repro.network.coverage.CoverageGraph.station_covers` on one
user) and a departure drops its row, each with at most one
alternating-path search.  A read first compares the placements, grounded
UAVs, degraded links, fleet entries and move count with the snapshot
the previous read took.  Only when they differ does it re-derive the
active stations (fleet index, location, capacity, radio), and it
rebuilds the assignment when those or the user positions changed: from
the radio matrices the last solve left in the graph's coverage cache
when they are there (right after a solve is adopted), else from one
direct test of the stations against every user.
:meth:`evaluate` reads the served count off it.  The served count is the
unique max-flow value, so it equals
:func:`~repro.core.assignment.optimal_assignment`'s; the served *set* can
differ from that solver's only when a placed UAV is saturated.

Only a connected network relays traffic, so the UAVs that count are the
largest connected remnant of the flying ones (:meth:`active_placements`):
grounded UAVs and degraded links are removed first, and a network that
splits serves users from its largest piece only.

Users carry stable ids across their lifetime so the engine can attribute
"time to serve" per arrival: :meth:`evaluate` stamps the first time each
user id was actually served.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import optimal_assignment
from repro.core.problem import ProblemInstance
from repro.flow.bipartite import IncrementalAssignment
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.deployment import Deployment
from repro.network.users import DEFAULT_MIN_RATE_BPS, User
from repro.ops.recovery import residual_connected, uav_components
from repro.util.bits import drop_bit


@dataclass
class WorldState:
    """Mutable mission state shared by every event handler."""

    base_problem: ProblemInstance
    graph: CoverageGraph                  # persistent working graph
    user_ids: list = field(default_factory=list)
    placements: dict = field(default_factory=dict)
    down: set = field(default_factory=set)        # grounded UAV indices
    degraded_links: set = field(default_factory=set)
    arrival_s: dict = field(default_factory=dict)     # uid -> arrival time
    first_served_s: dict = field(default_factory=dict)  # uid -> first served
    _next_uid: int = 0
    _moves: int = 0               # bumped by every move_users
    _stamped: int = 0             # bit i: user i has a first-served time
    _live: "IncrementalAssignment | None" = None
    _live_key: tuple = ()         # (stations, _moves) _live was built for
    _live_snapshot: tuple = ()    # _state() at the last rebuild check
    _live_uavs: list = field(default_factory=list)  # fleet index per station
    _live_stations: list = field(default_factory=list)  # (location, uav)
    _remnant: dict = field(default_factory=dict)
    _remnant_key: tuple = ()      # (placements, down, degraded_links)

    @classmethod
    def from_problem(cls, problem: ProblemInstance) -> "WorldState":
        """Start a mission world from a built (static) scenario.

        The working graph is a :meth:`~CoverageGraph.with_users` clone, so
        the caller's problem keeps its pristine graph while the world
        mutates its own.
        """
        graph = problem.graph.with_users(problem.graph.user_table())
        world = cls(base_problem=problem, graph=graph)
        world.user_ids = list(range(graph.num_users))
        world._next_uid = graph.num_users
        world.arrival_s = {uid: 0.0 for uid in world.user_ids}
        return world

    # -- sizes / views -------------------------------------------------------

    @property
    def fleet(self) -> list:
        return self.base_problem.fleet

    @property
    def users(self) -> list:
        """The active users as :class:`User` objects (the working graph's
        :attr:`~CoverageGraph.users`, aligned with :attr:`user_ids`)."""
        return self.graph.users

    @property
    def num_active(self) -> int:
        return self.graph.num_users

    def available_uavs(self) -> list:
        return sorted(set(range(len(self.fleet))) - self.down)

    def active_placements(self) -> dict:
        """The largest connected remnant of the flying UAVs.

        Grounded UAVs are removed, then the network minus degraded links
        is split into components; the one with the most UAVs is kept
        (ties: most capacity, then lowest fleet index).  The remnant is
        recomputed only when placements, grounded UAVs or degraded links
        changed since the last call.
        """
        key = (tuple(self.placements.items()), frozenset(self.down),
               frozenset(self.degraded_links))
        if key != self._remnant_key:
            flying = {
                k: loc for k, loc in self.placements.items()
                if k not in self.down
            }
            components = uav_components(
                self.base_problem, flying, self.degraded_links
            )
            best = max(components, default=[], key=lambda comp: (
                len(comp), sum(self.fleet[k].capacity for k in comp),
                -min(comp),
            ))
            keep = set(best)
            self._remnant = {
                k: loc for k, loc in flying.items() if k in keep
            }
            self._remnant_key = key
        return dict(self._remnant)

    def bounds(self) -> tuple:
        """(lo_x, hi_x, lo_y, hi_y) box spanning users and locations."""
        xs = [loc.x for loc in self.graph.locations]
        ys = [loc.y for loc in self.graph.locations]
        xs += self.graph._user_xy[:, 0].tolist()
        ys += self.graph._user_xy[:, 1].tolist()
        return (
            min(xs, default=0.0), max(xs, default=0.0),
            min(ys, default=0.0), max(ys, default=0.0),
        )

    def problem_now(self) -> ProblemInstance:
        """The current instantaneous problem over the working graph."""
        return ProblemInstance(graph=self.graph, fleet=self.fleet)

    # -- population updates (keep the working graph in sync) -----------------

    def add_user(
        self, x: float, y: float, now: float,
        min_rate_bps: float = DEFAULT_MIN_RATE_BPS,
    ) -> int:
        uid = self._next_uid
        self._next_uid += 1
        user = User(
            position=Point3D(float(x), float(y), 0.0),
            min_rate_bps=min_rate_bps,
        )
        self.user_ids.append(uid)
        self.arrival_s[uid] = now
        self.graph.add_user(user)
        if self._live is not None:
            covers = self.graph.station_covers(
                self._live_stations, np.array([self.graph.num_users - 1])
            )
            self._live.add_user([
                k for k, cover in zip(self._live_uavs, covers) if cover.size
            ])
        return uid

    def remove_user(self, uid: int) -> bool:
        """Depart a user by id; False when already gone."""
        try:
            idx = self.user_ids.index(uid)
        except ValueError:
            return False
        self.user_ids.pop(idx)
        self.graph.remove_user(idx)
        self._stamped = drop_bit(self._stamped, idx)
        if self._live is not None:
            self._live.remove_user(idx)
        return True

    def move_users(self, xy: np.ndarray) -> None:
        """Relocate the active population (aligned with ``user_ids``)."""
        self.graph.move_users(xy)
        self._moves += 1

    def user_xy(self) -> np.ndarray:
        return self.graph._user_xy.copy()

    # -- serving evaluation --------------------------------------------------

    def evaluate(self, now: float) -> int:
        """The maximum number of users the current placements serve;
        stamps each newly served user id's first-served time."""
        live = self._live_assignment()
        fresh = live.served_bits & ~self._stamped
        self._stamped |= fresh
        while fresh:
            low = fresh & -fresh
            self.first_served_s[self.user_ids[low.bit_length() - 1]] = now
            fresh ^= low
        return live.served_count

    def repairs(self, placements: dict, now: float) -> bool:
        """Whether moving to ``placements`` repairs the network: they are
        connected once degraded links are removed, and serve strictly more
        users than the current remnant."""
        return residual_connected(
            self.base_problem, placements, self.degraded_links
        ) and optimal_assignment(
            self.graph, self.fleet, placements
        ).served_count > self.evaluate(now)

    def deployment(self) -> Deployment:
        """The live assignment as a :class:`Deployment` over the current
        active placements."""
        assignment = {
            u: k for k, users in self._live_assignment().assignment().items()
            for u in users
        }
        return Deployment(
            placements=self.active_placements(), assignment=assignment
        )

    def _state(self) -> tuple:
        """What the live assignment depends on: the placements, grounded
        UAVs, degraded links, fleet entries and move count."""
        return (self.placements, self.down, self.degraded_links,
                self.fleet, self._moves)

    def _live_assignment(self) -> IncrementalAssignment:
        """The live assignment, rebuilt first when the active stations
        (fleet index, location, capacity, radio) or the user positions
        changed since it was built.  A read whose :meth:`_state` equals
        the snapshot the previous check took skips the check."""
        state = self._state()
        if self._live is not None and state == self._live_snapshot:
            return self._live
        self._live_snapshot = tuple(copy.copy(part) for part in state)
        active = sorted(self.active_placements().items())
        key = (tuple(
            (k, loc, self.fleet[k].capacity,
             self.graph.radio_signature(self.fleet[k]))
            for k, loc in active
        ), self._moves)
        if self._live is None or key != self._live_key:
            self._live_key = key
            self._live_uavs = [k for k, _ in active]
            self._live_stations = [(loc, self.fleet[k]) for k, loc in active]
            self._live = IncrementalAssignment(self.graph.num_users)
            for k, (_, uav), cover in zip(
                self._live_uavs, self._live_stations,
                self.graph.station_covers(self._live_stations),
            ):
                self._live.open(k, cover, uav.capacity)
        return self._live

    def coverage_fraction(self, served: int) -> float:
        return served / self.num_active if self.num_active else 1.0
