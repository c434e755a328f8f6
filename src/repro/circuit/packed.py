"""Bit-packed lanes: 64 transitions per ``uint64`` word.

The boolean kernels in :mod:`repro.circuit.simulate` store one net value
per byte in ``[n_nets, n_patterns]`` matrices.  The compiled instruction
tape (:mod:`repro.circuit.program`) packs the *pattern* axis instead —
lane ``k`` of word ``w`` is pattern ``64 * w + k`` — so each gate group
evaluates 64 patterns per machine word with plain bitwise ops.  This
module holds the lane utilities it runs on: packing, unpacking, single
lane access, popcount and the bit-sliced toggle counters.

Toggle counting is the part that needs care: the unit-delay relaxation
counts *how many times* each net changed per transition, but a packed
change mask carries only one bit per (net, lane).
:class:`ToggleAccumulator` therefore keeps the per-lane counters
*bit-sliced*: plane ``p`` holds bit ``p`` of every counter, and folding
in a step's change mask is a ripple-carry add of one bit — a handful of
XOR/AND passes instead of a full ``uint32`` matrix add.  Aggregates over
lanes come out via :func:`popcount` (``np.bitwise_count`` where numpy
provides it, an 8-bit LUT otherwise); dense per-(net, transition)
counts, needed for the capacitance-weighted charge trace, are decoded
once per chunk from ``log2(max toggles)`` planes.

Packing relies on little-endian byte order (an 8-byte view of the
``np.packbits(..., bitorder="little")`` stream maps lane ``k`` to bit
``k`` of the word); :data:`PACKED_AVAILABLE` is False on big-endian
hosts, where :class:`~repro.circuit.power.PowerSimulator` falls back to
the boolean kernels.
"""

from __future__ import annotations

import sys
from typing import List, Optional

import numpy as np

#: Lanes per machine word.
WORD_BITS = 64

#: Whether the packed lane layout works on this host (the uint64 lane layout
#: assumes little-endian byte order; every mainstream CPython platform is).
PACKED_AVAILABLE = sys.byteorder == "little"

# ----------------------------------------------------------------------
# popcount
# ----------------------------------------------------------------------
_BITWISE_COUNT = getattr(np, "bitwise_count", None)

#: Per-byte set-bit counts, the fallback for numpy < 2.0.
_POPCOUNT_LUT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts of a ``uint64`` array (any shape).

    Uses ``np.bitwise_count`` when available (numpy >= 2.0), otherwise an
    8-bit lookup table over the byte view.  Returns ``uint64`` so callers
    can sum large arrays without overflow.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(words).astype(np.uint64)
    per_byte = _POPCOUNT_LUT[words.view(np.uint8)]
    return per_byte.reshape(words.shape + (8,)).sum(
        axis=-1, dtype=np.uint64
    )


# ----------------------------------------------------------------------
# Packing / unpacking
# ----------------------------------------------------------------------
def n_words_for(n_lanes: int) -> int:
    """Words needed to hold ``n_lanes`` lanes."""
    return (n_lanes + WORD_BITS - 1) // WORD_BITS


def pack_lanes(rows: np.ndarray, n_words: Optional[int] = None) -> np.ndarray:
    """Pack a ``[n_rows, n_lanes]`` boolean matrix into ``uint64`` words.

    Lane ``k`` of row ``r`` lands in bit ``k % 64`` of word ``k // 64``.
    Tail lanes beyond ``n_lanes`` are zero-filled, which keeps them inert:
    a zero input vector settles like any other pattern and, with an equal
    zero "new" vector, never toggles.
    """
    rows = np.ascontiguousarray(rows, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-d bit matrix, got shape {rows.shape}")
    if n_words is None:
        n_words = n_words_for(rows.shape[1])
    packed8 = np.packbits(rows, axis=1, bitorder="little")
    out8 = np.zeros((rows.shape[0], n_words * 8), dtype=np.uint8)
    out8[:, : packed8.shape[1]] = packed8
    return out8.view(np.uint64)


def unpack_lanes(words: np.ndarray, n_lanes: int) -> np.ndarray:
    """Unpack ``[n_rows, n_words]`` words back to ``[n_rows, n_lanes]``.

    Returns 0/1 ``uint8`` (not bool) because every consumer feeds the
    result straight into integer/float arithmetic.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n_lanes]


def extract_lane(words: np.ndarray, lane: int) -> np.ndarray:
    """One lane of a ``[n_rows, n_words]`` matrix as a boolean column."""
    word, bit = divmod(lane, WORD_BITS)
    return ((words[:, word] >> np.uint64(bit)) & np.uint64(1)).astype(bool)


def inject_lane(words: np.ndarray, lane: int, column: np.ndarray) -> None:
    """Overwrite one lane of a ``[n_rows, n_words]`` matrix in place."""
    word, bit = divmod(lane, WORD_BITS)
    mask = ~(np.uint64(1) << np.uint64(bit))
    words[:, word] = (words[:, word] & mask) | (
        column.astype(np.uint64) << np.uint64(bit)
    )


# ----------------------------------------------------------------------
# Bit-sliced toggle counters
# ----------------------------------------------------------------------
class ToggleAccumulator:
    """Per-(net, lane) toggle counters stored as bit planes.

    ``planes[p]`` is a ``[n_rows, n_words]`` uint64 matrix holding bit ``p``
    of every counter.  :meth:`add` folds a one-bit change mask in with a
    ripple-carry add; planes grow on demand, so the counter width always
    fits the deepest relaxation actually observed (``ceil(log2(steps + 1))``
    planes — a handful, versus one full ``uint32`` matrix add per step in
    the boolean kernels).
    """

    def __init__(self) -> None:
        self.planes: List[np.ndarray] = []

    def add(self, changed: np.ndarray) -> None:
        """Increment every counter whose bit is set in ``changed``."""
        carry = changed
        for index, plane in enumerate(self.planes):
            self.planes[index] = plane ^ carry
            carry = plane & carry
            if not carry.any():
                return
        if carry.any():
            self.planes.append(carry.copy())

    def decode(self, n_lanes: int) -> np.ndarray:
        """Dense ``[n_rows, n_lanes]`` counts (for charge weighting).

        Returns the narrowest sufficient unsigned dtype: ``uint8`` for up
        to 8 planes (counts < 256 by construction), ``uint32`` beyond.
        Staying in ``uint8`` on the common path skips a 4x-wider astype
        per plane, which profiling showed dominated the decode.
        """
        if not self.planes:
            raise ValueError("cannot decode an empty accumulator")
        n_rows = self.planes[0].shape[0]
        dtype = np.uint8 if len(self.planes) <= 8 else np.uint32
        counts = np.zeros((n_rows, n_lanes), dtype=dtype)
        for power, plane in enumerate(self.planes):
            bits = unpack_lanes(plane, n_lanes)
            if dtype is not np.uint8:
                bits = bits.astype(dtype)
            if power:
                np.left_shift(bits, power, out=bits)
            counts += bits
        return counts

    def per_row_totals(self, n_rows: int) -> np.ndarray:
        """Per-net toggle totals over *all* lanes, via :func:`popcount`.

        This is the aggregate the hotspot report needs, and it never
        materializes dense counts: ``sum_p 2^p * popcount(plane_p)``.
        Valid because tail lanes are inert (never toggle) by construction.
        """
        totals = np.zeros(n_rows, dtype=np.uint64)
        for power, plane in enumerate(self.planes):
            totals += popcount(plane).sum(axis=1, dtype=np.uint64) << np.uint64(
                power
            )
        return totals.astype(np.int64)
