"""Tests for the partition matroid M1."""

import pytest

from tests.reference.fnw import PartitionMatroid


class TestUavPlacementMatroid:
    def test_paper_semantics(self):
        m1 = PartitionMatroid.uav_placement(num_uavs=2, num_locations=3)
        # Paper's examples from Section III-B:
        assert m1.is_independent({(0, 0)})                       # A1
        assert not m1.is_independent({(0, 0), (0, 1)})           # A2
        assert m1.is_independent({(0, 0), (1, 1)})
        assert m1.is_independent(set())

    def test_ground_set_size(self):
        m1 = PartitionMatroid.uav_placement(3, 4)
        assert len(m1.ground_set()) == 12

    def test_can_extend(self):
        m1 = PartitionMatroid.uav_placement(2, 2)
        assert m1.can_extend({(0, 0)}, (1, 1))
        assert not m1.can_extend({(0, 0)}, (0, 1))
        assert not m1.can_extend({(0, 0)}, (0, 0))  # already present
        assert not m1.can_extend(set(), ("bogus", 9))

    def test_rank_bound(self):
        assert PartitionMatroid.uav_placement(4, 7).rank_upper_bound() == 4

    def test_subset_outside_ground_dependent(self):
        m1 = PartitionMatroid.uav_placement(1, 1)
        assert not m1.is_independent({(5, 5)})


class TestGeneralPartition:
    def test_block_capacities(self):
        m = PartitionMatroid(
            ground=["a1", "a2", "b1", "b2", "b3"],
            block_of=lambda e: e[0],
            capacity={"a": 1, "b": 2},
        )
        assert m.is_independent({"a1", "b1", "b2"})
        assert not m.is_independent({"a1", "a2"})
        assert not m.is_independent({"b1", "b2", "b3"})
        assert m.rank_upper_bound() == 3

    def test_missing_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PartitionMatroid(["a1"], block_of=lambda e: e[0], capacity={"b": 1})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PartitionMatroid(["a"], block_of=lambda e: e, capacity=-1)
