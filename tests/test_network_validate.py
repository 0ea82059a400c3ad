"""Failure-injection tests for the independent deployment validator: every
constraint of Section II-C must be caught when violated."""

import numpy as np
import pytest

from repro.network.deployment import Deployment
from repro.network.validate import ValidationError, is_feasible, validate_deployment
from tests.conftest import make_line_instance


@pytest.fixture
def problem():
    return make_line_instance(
        num_locations=5, users_per_location=3, capacities=(3, 3, 3, 3, 3)
    )


class TestValidDeployments:
    def test_valid_passes(self, problem):
        dep = Deployment(
            placements={0: 0, 1: 1},
            assignment={0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1},
        )
        validate_deployment(problem.graph, problem.fleet, dep)
        assert is_feasible(problem.graph, problem.fleet, dep)

    def test_empty_passes(self, problem):
        validate_deployment(problem.graph, problem.fleet, Deployment.empty())

    def test_single_uav_connected_trivially(self, problem):
        dep = Deployment(placements={2: 4}, assignment={})
        validate_deployment(problem.graph, problem.fleet, dep)


class TestViolations:
    def test_capacity_violation(self, problem):
        # Capacity 3 but 4 users assigned (location 0 covers only its own
        # 3 users, so use users 0-2 plus an in-range neighbour? location
        # coverage is disjoint: give UAV 0 capacity 2 instead).
        problem2 = make_line_instance(
            num_locations=5, users_per_location=3,
            capacities=(2, 3, 3, 3, 3),
        )
        dep = Deployment(placements={0: 0}, assignment={0: 0, 1: 0, 2: 0})
        with pytest.raises(ValidationError, match="capacity"):
            validate_deployment(problem2.graph, problem2.fleet, dep)

    def test_out_of_range_user(self, problem):
        # User 12 sits under location 4; assigning it to a UAV at
        # location 0 exceeds the 500 m radius.
        dep = Deployment(placements={0: 0}, assignment={12: 0})
        with pytest.raises(ValidationError, match="beyond"):
            validate_deployment(problem.graph, problem.fleet, dep)

    def test_disconnected_network(self, problem):
        # Locations 0 and 4 are 2 km apart (range 600 m) -> disconnected.
        dep = Deployment(placements={0: 0, 1: 4}, assignment={})
        with pytest.raises(ValidationError, match="connected"):
            validate_deployment(problem.graph, problem.fleet, dep)
        # And passes once connectivity is not required.
        validate_deployment(problem.graph, problem.fleet, dep,
                            require_connected=False)

    def test_bad_uav_index(self, problem):
        dep = Deployment(placements={42: 0}, assignment={})
        with pytest.raises(ValidationError, match="fleet"):
            validate_deployment(problem.graph, problem.fleet, dep)

    def test_bad_location_index(self, problem):
        dep = Deployment(placements={0: 42}, assignment={})
        with pytest.raises(ValidationError, match="location"):
            validate_deployment(problem.graph, problem.fleet, dep)

    def test_bad_user_index(self, problem):
        dep = Deployment(placements={0: 0}, assignment={999: 0})
        with pytest.raises(ValidationError, match="user index"):
            validate_deployment(problem.graph, problem.fleet, dep)

    def test_user_index_beyond_int64(self, problem):
        dep = Deployment(placements={0: 0}, assignment={0: 0, 10**30: 0})
        with pytest.raises(ValidationError, match="user index"):
            validate_deployment(problem.graph, problem.fleet, dep)

    def test_user_index_on_a_graph_without_users(self, problem):
        from repro.network.coverage import CoverageGraph

        graph = CoverageGraph(users=[], locations=problem.graph.locations,
                              uav_range_m=600.0)
        dep = Deployment(placements={0: 0}, assignment={0: 0})
        with pytest.raises(ValidationError, match="user index"):
            validate_deployment(graph, problem.fleet, dep)

    def test_rate_violation(self):
        """A user with an enormous min-rate requirement cannot be served
        even in range."""
        from repro.network.coverage import CoverageGraph
        from repro.network.users import users_from_points

        base = make_line_instance(num_locations=2, users_per_location=1,
                                  capacities=(2, 2))
        users = users_from_points([(500.0, 0.0)], min_rate_bps=1e15)
        graph = CoverageGraph(users=users, locations=base.graph.locations,
                              uav_range_m=600.0)
        dep = Deployment(placements={0: 0}, assignment={0: 0})
        with pytest.raises(ValidationError, match="below"):
            validate_deployment(graph, base.fleet, dep)

    def test_is_feasible_false_on_violation(self, problem):
        dep = Deployment(placements={0: 0, 1: 4}, assignment={})
        assert not is_feasible(problem.graph, problem.fleet, dep)

    def test_assignment_to_unplaced_uav(self, problem):
        """A corrupted deployment whose assignment references a UAV with no
        placement must fail validation, not leak a bare KeyError.
        Deployment's constructor rejects this, so corrupt one in place."""
        dep = Deployment(
            placements={0: 0, 1: 1}, assignment={0: 0, 3: 1}
        )
        del dep.placements[1]
        with pytest.raises(ValidationError, match="no.*placement"):
            validate_deployment(problem.graph, problem.fleet, dep)
        assert not is_feasible(problem.graph, problem.fleet, dep)

    def test_assignment_to_uav_outside_fleet(self, problem):
        """Same corruption, but the phantom UAV index is also outside the
        fleet: still a ValidationError (never IndexError)."""
        dep = Deployment(placements={0: 0, 99: 1}, assignment={0: 0, 3: 99})
        with pytest.raises(ValidationError):
            validate_deployment(problem.graph, problem.fleet, dep)


class TestMutatedStructure:
    """Deployments are frozen dataclasses over plain dicts: what the
    constructors check can be broken afterwards, and the validators
    check it again."""

    @pytest.fixture
    def cell_problem(self, problem):
        from repro.workload.aggregate import aggregate_problem

        return aggregate_problem(problem, 40.0)

    @pytest.fixture
    def cell_deployment(self, cell_problem):
        from repro.core.assignment import optimal_cell_assignment

        dep = optimal_cell_assignment(
            cell_problem.graph, cell_problem.fleet, {0: 0, 1: 1}
        )
        assert dep.flows and max(dep.flows.values()) > 1
        return dep

    def test_two_uavs_on_one_location(self, problem):
        dep = Deployment(placements={0: 0, 1: 1},
                         assignment={0: 0, 1: 0, 3: 1})
        validate_deployment(problem.graph, problem.fleet, dep)
        dep.placements[1] = dep.placements[0]
        with pytest.raises(ValidationError, match="share hovering location"):
            validate_deployment(problem.graph, problem.fleet, dep)

    def test_two_uavs_on_one_cell_location(self, cell_problem,
                                           cell_deployment):
        from repro.network.validate import validate_cell_deployment

        graph, fleet = cell_problem.graph, cell_problem.fleet
        validate_cell_deployment(graph, fleet, cell_deployment)
        cell_deployment.placements[1] = cell_deployment.placements[0]
        with pytest.raises(ValidationError, match="share hovering location"):
            validate_cell_deployment(graph, fleet, cell_deployment)

    def test_fractional_flow(self, cell_problem, cell_deployment):
        from repro.network.deployment import CellDeployment
        from repro.network.validate import validate_cell_deployment

        arc = next(iter(cell_deployment.flows))
        with pytest.raises(ValueError, match="fractional"):
            CellDeployment(placements=dict(cell_deployment.placements),
                           flows={arc: 1.5})
        with pytest.raises(ValueError):
            CellDeployment(placements=dict(cell_deployment.placements),
                           flows={arc: True})
        CellDeployment(placements=dict(cell_deployment.placements),
                       flows={arc: np.int64(2)})
        cell_deployment.flows[arc] = cell_deployment.flows[arc] - 0.5
        with pytest.raises(ValidationError, match="whole number"):
            validate_cell_deployment(cell_problem.graph, cell_problem.fleet,
                                     cell_deployment)

    def test_non_positive_flow(self, cell_problem, cell_deployment):
        from repro.network.deployment import CellDeployment
        from repro.network.validate import validate_cell_deployment

        arc = next(iter(cell_deployment.flows))
        for units in (0, -3):
            with pytest.raises(ValueError, match="non-positive"):
                CellDeployment(placements=dict(cell_deployment.placements),
                               flows={arc: units})
        cell_deployment.flows[arc] = -3
        with pytest.raises(ValidationError, match="whole number"):
            validate_cell_deployment(cell_problem.graph, cell_problem.fleet,
                                     cell_deployment)
