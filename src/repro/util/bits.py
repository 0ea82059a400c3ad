"""Packed-bitset helpers for the solver engine.

Coverage sets are stored as numpy ``uint8`` arrays of packed bits so
that union-coverage sizes and marginal-gain bounds become vectorised
popcounts instead of Python set walks.  The layout is little-endian
throughout: bit ``i`` of a set is bit ``i % 8`` (weight ``1 << (i % 8)``)
of byte ``i // 8`` (``numpy.packbits(..., bitorder="little")``).  That is
also the byte layout of the integer bitsets the flow engine works on
(bit ``i`` = user ``i``), so a packed row and an ``int`` convert by
copying bytes (:func:`packed_to_int`, :func:`int_to_packed`).  Every
pack and unpack goes through this module; no caller names the bit order.

Rows are padded to whole 64-bit words: a row of ``num_bits`` bits is
:func:`row_bytes` ``= 8 * ceil(num_bits / 64)`` bytes, the bits past
``num_bits`` always zero.  That is the one layout of every packed row —
the coverage graph's per-radio matrices, the solver context's
``coverage_bits``, a single cover row and the int conversions — so no
word-aligned copy sits beside the byte rows: a C-contiguous matrix of
rows reinterprets as ``uint64`` words in place (:func:`as_words`), and a
masked popcount walks an eighth as many elements as it would bytes.  A
byte is still bit ``i % 8`` of byte ``i // 8``; word order only matters
to whole-word arithmetic, and AND/OR/popcount are indifferent to it.

``numpy >= 2.0`` ships a hardware popcount (:func:`numpy.bitwise_count`);
older versions fall back to an 8-bit lookup table — same results, still
vectorised.
"""

from __future__ import annotations

import numpy as np

_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def row_bytes(num_bits: int) -> int:
    """Bytes in a packed row of ``num_bits`` bits: whole 64-bit words."""
    return -(-num_bits // 64) * 8


def as_words(packed: np.ndarray) -> np.ndarray:
    """Packed rows (C-contiguous ``uint8``, last axis :func:`row_bytes`
    long) as ``uint64`` words, a view of the same memory."""
    return packed.view(np.uint64)


def _bit_counts(packed: np.ndarray) -> np.ndarray:
    """Per-element set-bit counts of a packed ``uint8`` or ``uint64``
    array (the table fallback counts ``uint64`` words byte by byte)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(packed)
    if packed.dtype == np.uint64:
        packed = packed.view(np.uint8)
    return _POPCOUNT_TABLE[packed]


def popcount(packed: np.ndarray) -> int:
    """Total number of set bits in a packed ``uint8`` array."""
    return int(_bit_counts(np.asarray(packed, dtype=np.uint8)).sum())


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Set-bit counts along the last axis of a packed ``uint8`` array, or
    of its :func:`as_words` view (shape ``(..., bytes or words) ->
    (...)``, dtype ``int64``)."""
    packed = np.asarray(packed)
    if packed.dtype != np.uint64:
        packed = packed.astype(np.uint8, copy=False)
    if packed.ndim == 0:
        raise ValueError("popcount_rows needs at least one axis")
    return np.add.reduce(_bit_counts(packed), axis=-1, dtype=np.int64)


def pack_indices(indices: np.ndarray, num_bits: int) -> np.ndarray:
    """Pack a sorted index list into a ``uint8`` bitset of ``num_bits``
    (:func:`row_bytes` long)."""
    mask = np.zeros(row_bytes(num_bits) * 8, dtype=bool)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size:
        mask[idx] = True
    return np.packbits(mask, bitorder="little")


def pack_pairs(rows: np.ndarray, cols: np.ndarray, num_rows: int,
               num_bits: int) -> np.ndarray:
    """Pack distinct ``(row, col)`` pairs into a ``(num_rows,
    row_bytes)`` ``uint8`` bitset matrix, row ``r`` equal to
    :func:`pack_indices` of its columns, without a dense ``(num_rows,
    num_bits)`` temporary: the pairs' bits are distinct, so summing them
    per byte is their OR."""
    width = row_bytes(num_bits)
    cols = np.asarray(cols, dtype=np.int64)
    byte = np.asarray(rows, dtype=np.int64) * width + (cols >> 3)
    sums = np.bincount(byte, weights=1 << (cols & 7),
                       minlength=num_rows * width)
    return sums.astype(np.uint8).reshape(num_rows, width)


def unpack_rows(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """The first ``num_bits`` bits along the last axis of packed rows as
    a ``0``/``1`` ``uint8`` array (shape ``(..., bytes) -> (...,
    num_bits)``): entry ``i`` is bit ``i``."""
    return np.unpackbits(np.asarray(packed, dtype=np.uint8), axis=-1,
                         count=num_bits, bitorder="little")


def unpack_indices(packed: np.ndarray, num_bits: int) -> list:
    """Inverse of :func:`pack_indices`: the sorted list of set bits."""
    return np.flatnonzero(unpack_rows(packed, num_bits)).tolist()


def packed_to_int(packed: np.ndarray) -> int:
    """A packed ``uint8`` bitset as an integer bitset: bit ``i`` of the
    result is bit ``i`` of the row."""
    return int.from_bytes(np.asarray(packed, dtype=np.uint8).tobytes(),
                          "little")


def int_to_packed(bits: int, num_bits: int) -> np.ndarray:
    """Inverse of :func:`packed_to_int` for a non-negative ``bits`` below
    ``2 ** num_bits``: the packed row of ``num_bits`` bits."""
    return np.frombuffer(bits.to_bytes(row_bytes(num_bits), "little"),
                         dtype=np.uint8).copy()


def drop_bit(bits: int, index: int) -> int:
    """An integer bitset without bit ``index``; higher bits shift down one
    (the user-index shift after a departure)."""
    return (bits & ((1 << index) - 1)) | ((bits >> (index + 1)) << index)


def drop_row(rows: np.ndarray, index: int) -> np.ndarray:
    """``rows`` without row ``index``; later rows shift down one (the
    array form of :func:`drop_bit`, ``np.delete`` along axis 0 without
    its argument handling; a negative ``index`` counts from the end)."""
    n = len(rows)
    if not -n <= index < n:
        raise IndexError(f"index {index} is out of bounds for {n} rows")
    index %= n
    return np.concatenate((rows[:index], rows[index + 1:]))
