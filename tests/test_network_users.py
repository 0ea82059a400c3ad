"""Tests for ground users."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point2D, Point3D
from repro.network.users import (
    DEFAULT_MIN_RATE_BPS,
    User,
    UserTable,
    users_from_points,
)
from repro.workload.aggregate import aggregate_users

NON_FINITE = (math.nan, math.inf, -math.inf)


class TestUser:
    def test_defaults(self):
        u = User(Point3D(10.0, 20.0, 0.0))
        assert u.min_rate_bps == DEFAULT_MIN_RATE_BPS == 2_000.0
        assert u.ground == Point2D(10.0, 20.0)

    def test_rejects_airborne_users(self):
        with pytest.raises(ValueError, match="ground"):
            User(Point3D(0, 0, 10.0))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            User(Point3D(0, 0, 0), min_rate_bps=-1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            User(Point3D(bad, 1.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            User(Point3D(1.0, bad, 0.0))


class TestUsersFromPoints:
    def test_from_tuples(self):
        users = users_from_points([(1, 2), (3, 4)])
        assert len(users) == 2
        assert users[0].position == Point3D(1.0, 2.0, 0.0)

    def test_from_point2d(self):
        users = users_from_points([Point2D(5, 6)])
        assert users[0].position == Point3D(5.0, 6.0, 0.0)

    def test_custom_rate(self):
        users = users_from_points([(0, 0)], min_rate_bps=64_000.0)
        assert users[0].min_rate_bps == 64_000.0

    def test_empty(self):
        assert users_from_points([]) == []

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            users_from_points([(bad, 1.0), (2.0, 3.0)])


class TestUserTable:
    def test_columns_and_scalar_rate(self):
        table = UserTable([(1.0, 2.0), (3.0, 4.0)])
        assert len(table) == 2
        assert table.xy.shape == (2, 2) and table.xy.dtype == float
        assert table.min_rate_bps.tolist() == [DEFAULT_MIN_RATE_BPS] * 2

    def test_round_trip_with_users(self):
        users = users_from_points([(1.0, 2.0), (5.5, -3.0)], 64_000.0)
        table = UserTable.of(users)
        assert UserTable.of(table) is table
        assert table.to_users() == users
        assert table.take([1]).to_users() == users[1:]

    def test_empty(self):
        table = UserTable.of([])
        assert len(table) == 0 and table.xy.shape == (0, 2)
        assert table.to_users() == []
        assert aggregate_users(table, 100.0).to_cells() == []

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError, match="finite.*user 0"):
            UserTable([(bad, 1.0), (2.0, 3.0)])
        with pytest.raises(ValueError, match="finite.*user 1"):
            UserTable(np.array([[2.0, 3.0], [4.0, bad]]))

    def test_rejects_negative_or_nan_rate(self):
        with pytest.raises(ValueError, match="non-negative.*user 1"):
            UserTable([(0.0, 0.0), (1.0, 1.0)], np.array([2e3, -1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            UserTable([(0.0, 0.0)], math.nan)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            UserTable([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="shape"):
            UserTable([(0.0, 0.0)], np.array([1.0, 2.0]))
