"""Tests for util helpers: rng, tables, timing."""

import time

import numpy as np
import pytest

from repro.util.rng import ensure_rng, spawn_seeds
from repro.util.tables import format_markdown_table, format_table
from repro.util.timing import Stopwatch


class TestRng:
    def test_int_seed_deterministic(self):
        a = ensure_rng(5).integers(0, 1000, size=10)
        b = ensure_rng(5).integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        children = spawn_seeds(7, 3)
        draws = [ensure_rng(c).integers(0, 10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        assert spawn_seeds(7, 4) == spawn_seeds(7, 4)
        assert all(isinstance(c, int) for c in spawn_seeds(7, 4))

    def test_spawn_prefix_stable(self):
        """Adding sweep points must not perturb earlier points' streams."""
        assert spawn_seeds(7, 2) == spawn_seeds(7, 5)[:2]

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestTables:
    def test_alignment(self):
        out = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_title(self):
        out = format_table(["x"], [[1]], title="hello")
        assert out.splitlines()[0] == "hello"

    def test_float_formatting(self):
        out = format_table(["x"], [[3.14159265]])
        assert "3.142" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_markdown(self):
        md = format_markdown_table(["a", "b"], [[1, 2]])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"


class TestStopwatch:
    def test_context_manager(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.01
        assert not sw.running

    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        first = sw.elapsed
        with sw:
            time.sleep(0.005)
        assert sw.elapsed >= first

    def test_misuse_raises(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            sw.stop()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()
        sw.stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0
