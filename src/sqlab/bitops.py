"""Bitset helpers shared by the graph and chain machinery.

Vertex sets are represented three ways throughout the package:

* as arbitrary-precision Python ints (bit ``v`` set means vertex ``v`` is in
  the set) -- the Graph adjacency rows,
* as little-endian ``uint64`` word rows, ``ceil(n / 64)`` words a row with
  zero padding bits -- the adjacency of ``graph.to_words``, which ``gnp`` and
  the per-vertex deletion build and edit with no dense matrix (only boolean
  blocks of :func:`block_rows` rows) and the greedy square path and the
  partition counter read, and the pairs of a ``blowup.ChainPartition``,
  which pruning, counting and the good-edge kernel read, and
* as dense boolean numpy matrices, one ``bool`` per entry -- the adjacency
  matrix of ``graph.to_matrix`` and the regularity tester's pair matrix.

The first two agree bit for bit: the byte view of a word row is the
``int.to_bytes(..., "little")`` of its Python int, padded to whole words.
Word rows and dense matrices convert with :func:`pack_bool_matrix` and
:func:`unpack_packed_matrix`, the only two places that know the order of
the bits within a byte.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

import numpy as np


def bits(x: int) -> Iterator[int]:
    """Yield the set bit positions of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitset of a vertex collection.  Ids go through ``operator.index``, as
    in ``Graph.check_vertex``: numpy integers are taken, floats refused."""
    m = 0
    for v in vertices:
        m |= 1 << index(v)
    return m


def packed_to_int(row: np.ndarray) -> int:
    """Little-endian packed row (word or byte) -> Python int bitset."""
    return int.from_bytes(row.tobytes(), "little")


def pack_bool_matrix(m: np.ndarray) -> np.ndarray:
    """Pack a boolean matrix (or stack of them) row-wise into little-endian
    uint64 word rows, zero-padded to whole words."""
    packed = np.packbits(m, axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8),), dtype="<u8")
    words.view(np.uint8)[..., : packed.shape[-1]] = packed
    return words


def unpack_packed_matrix(p: np.ndarray, nbits: int) -> np.ndarray:
    """The first ``nbits`` bits of each little-endian packed row of ``p``
    (uint64 words or uint8 bytes; a matrix, a stack or one row), as bools:
    the inverse of :func:`pack_bool_matrix`."""
    return np.unpackbits(p.view(np.uint8), axis=-1, bitorder="little", count=nbits).view(bool)


def block_rows(ncols: int, nbytes: int) -> int:
    """Rows in a block of about ``nbytes`` bytes of a boolean matrix with
    ``ncols`` columns: a multiple of 64, at least 64, so that a block's
    columns are whole words of the packed rows."""
    return max(64, nbytes // max(ncols, 1) // 64 * 64)


def popcount_rows(p: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed uint8 or uint64 matrix (or 1-d row)."""
    counts = np.bitwise_count(p)
    return counts.sum(axis=-1, dtype=np.int64)
