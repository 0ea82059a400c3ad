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
:class:`~repro.flow.bipartite.IncrementalAssignment`.  An arrival or a
departure updates it with at most one alternating-path search; a change
of placements, fleet capacities or radios, or a mobility step, rebuilds
it from one blocked coverage-kernel call.  :meth:`evaluate` reads the
served count off it.  The served count is the unique max-flow value, so
it equals :func:`~repro.core.assignment.optimal_assignment`'s; the served
*set* can differ from that solver's only when a placed UAV is saturated.

Only a connected network relays traffic, so the UAVs that count are the
largest connected remnant of the flying ones (:meth:`active_placements`):
grounded UAVs and degraded links are removed first, and a network that
splits serves users from its largest piece only.

Users carry stable ids across their lifetime so the engine can attribute
"time to serve" per arrival: :meth:`evaluate` stamps the first time each
user id was actually served.
"""

from __future__ import annotations

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
    _live_key: tuple = ()         # the stations _live was built over
    _live_moves: int = -1         # _moves when _live was built
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
            covers = self._station_covers(
                self._live_key, np.array([self.graph.num_users - 1])
            )
            self._live.add_user([
                k for (k, *_), cover in zip(self._live_key, covers)
                if cover.size
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

    def _live_assignment(self) -> IncrementalAssignment:
        """The live assignment, rebuilt first when the active placements,
        the fleet's capacities or radios, or the user positions changed
        since it was built."""
        key = tuple(
            (k, loc, self.fleet[k].capacity,
             self.graph.radio_signature(self.fleet[k]))
            for k, loc in sorted(self.active_placements().items())
        )
        if (self._live is None or key != self._live_key
                or self._moves != self._live_moves):
            live = IncrementalAssignment(self.graph.num_users)
            for (k, _, capacity, _), cover in zip(
                key, self._station_covers(key)
            ):
                live.open(k, cover, capacity)
            self._live, self._live_key = live, key
            self._live_moves = self._moves
        return self._live

    def _station_covers(self, stations: tuple,
                        users: "np.ndarray | None" = None) -> list:
        return self.graph.station_covers(
            [(loc, self.fleet[k]) for k, loc, _, _ in stations], users
        )

    def coverage_fraction(self, served: int) -> float:
        return served / self.num_active if self.num_active else 1.0
