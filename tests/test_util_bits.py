"""Packed-bitset helpers, including the pre-numpy-2.0 popcount fallback.

``repro.util.bits._bit_counts`` dispatches per call on
``hasattr(np, "bitwise_count")``, so deleting the attribute under
``monkeypatch`` exercises the 8-bit lookup-table path on any numpy —
exactly what a numpy < 2.0 install would run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.bits import (
    _POPCOUNT_TABLE,
    as_words,
    int_to_packed,
    pack_indices,
    pack_pairs,
    packed_to_int,
    popcount,
    popcount_rows,
    row_bytes,
    unpack_indices,
    unpack_rows,
)


def _delete_hw_popcount(monkeypatch):
    if hasattr(np, "bitwise_count"):
        monkeypatch.delattr(np, "bitwise_count")


class TestPopcountFallback:
    def test_table_is_exact(self):
        assert _POPCOUNT_TABLE.dtype == np.uint8
        assert [int(x) for x in _POPCOUNT_TABLE] == [
            bin(i).count("1") for i in range(256)
        ]

    def test_fallback_popcount_matches_python(self, monkeypatch):
        _delete_hw_popcount(monkeypatch)
        rng = np.random.default_rng(7)
        packed = rng.integers(0, 256, size=137, dtype=np.uint8)
        expected = sum(bin(int(b)).count("1") for b in packed)
        assert popcount(packed) == expected

    def test_fallback_rows_match_hardware_path(self, monkeypatch):
        if not hasattr(np, "bitwise_count"):
            pytest.skip("no hardware popcount on this numpy")
        rng = np.random.default_rng(11)
        packed = rng.integers(0, 256, size=(23, 17), dtype=np.uint8)
        hw = popcount_rows(packed)
        _delete_hw_popcount(monkeypatch)
        table = popcount_rows(packed)
        assert table.dtype == np.int64
        np.testing.assert_array_equal(hw, table)

    def test_fallback_handles_empty_and_zero(self, monkeypatch):
        _delete_hw_popcount(monkeypatch)
        assert popcount(np.zeros(0, dtype=np.uint8)) == 0
        assert popcount(np.zeros(5, dtype=np.uint8)) == 0
        np.testing.assert_array_equal(
            popcount_rows(np.zeros((3, 4), dtype=np.uint8)), [0, 0, 0]
        )

    def test_runtime_switch_is_per_call(self, monkeypatch):
        """The dispatch happens inside each call, so the same process can
        use the hardware path before and the table after removal."""
        packed = np.array([255, 1, 16], dtype=np.uint8)
        before = popcount(packed)
        _delete_hw_popcount(monkeypatch)
        assert popcount(packed) == before == 10


class TestPackRoundtrip:
    def test_roundtrip_under_fallback(self, monkeypatch):
        _delete_hw_popcount(monkeypatch)
        rng = np.random.default_rng(3)
        for n in (1, 7, 8, 9, 63, 300):
            idx = np.flatnonzero(rng.random(n) < 0.4)
            packed = pack_indices(idx, n)
            assert unpack_indices(packed, n) == idx.tolist()
            assert popcount(packed) == idx.size

    def test_popcount_rows_rejects_scalar(self):
        with pytest.raises(ValueError):
            popcount_rows(np.uint8(3))


@pytest.mark.parametrize("num_bits", [0, 1, 7, 8, 9, 64, 301])
def test_packed_rows_and_int_bitsets_convert_both_ways(num_bits):
    rng = np.random.default_rng(num_bits)
    indices = np.flatnonzero(rng.random(num_bits) < 0.4)
    packed = pack_indices(indices, num_bits)
    bits = packed_to_int(packed)
    assert bits == sum(1 << int(i) for i in indices)
    np.testing.assert_array_equal(int_to_packed(bits, num_bits), packed)


@pytest.mark.parametrize("num_bits", [1, 7, 8, 9, 64, 301])
def test_bit_i_is_user_i_in_every_form(num_bits):
    """Set one bit at a time: every pack, unpack and int conversion must
    put it at index ``i``, and a packed row and an int share their bytes."""
    picks = {0, 1, 7, num_bits // 2, num_bits - 1}
    for i in sorted(i for i in picks if i < num_bits):
        packed = pack_indices([i], num_bits)
        assert packed.size == 8 * ((num_bits + 63) // 64) == row_bytes(
            num_bits)
        assert packed[i // 8] == 1 << (i % 8)
        assert packed_to_int(packed) == 1 << i
        assert packed.tobytes() == (1 << i).to_bytes(packed.size, "little")
        np.testing.assert_array_equal(int_to_packed(1 << i, num_bits),
                                      packed)
        assert unpack_indices(packed, num_bits) == [i]
        assert np.flatnonzero(unpack_rows(packed, num_bits)).tolist() == [i]
        pairs = pack_pairs([1], [i], 2, num_bits)
        np.testing.assert_array_equal(pairs[1], packed)
        assert not pairs[0].any()


def test_pack_pairs_rows_equal_pack_indices():
    rng = np.random.default_rng(5)
    num_rows, num_bits = 6, 45
    mask = rng.random((num_rows, num_bits)) < 0.3
    rows, cols = np.nonzero(mask)
    packed = pack_pairs(rows, cols, num_rows, num_bits)
    np.testing.assert_array_equal(unpack_rows(packed, num_bits), mask)
    for r in range(num_rows):
        np.testing.assert_array_equal(
            packed[r], pack_indices(np.flatnonzero(mask[r]), num_bits)
        )
        assert packed_to_int(packed[r]) == sum(
            1 << int(c) for c in np.flatnonzero(mask[r])
        )


@pytest.mark.parametrize("hardware", [True, False])
def test_word_rows_count_like_byte_rows(monkeypatch, hardware):
    """A matrix of padded rows viewed as 64-bit words counts what its
    bytes count, on the hardware popcount and on the table."""
    if not hardware:
        _delete_hw_popcount(monkeypatch)
    rng = np.random.default_rng(13)
    num_bits = 301
    mask = rng.random((9, num_bits)) < 0.4
    rows, cols = np.nonzero(mask)
    packed = pack_pairs(rows, cols, 9, num_bits)
    assert packed.shape == (9, row_bytes(num_bits))
    words = as_words(packed)
    assert words.dtype == np.uint64 and words.shape == (9, 5)
    np.testing.assert_array_equal(popcount_rows(words), mask.sum(axis=1))
    np.testing.assert_array_equal(popcount_rows(words),
                                  popcount_rows(packed))
