"""Bitset helpers shared by the graph and chain machinery.

Vertex sets are represented three ways throughout the package:

* as arbitrary-precision Python ints (bit ``v`` set means vertex ``v`` is in
  the set) -- the Graph adjacency rows,
* as packed little-endian ``uint8`` numpy arrays (``np.packbits`` layout with
  ``bitorder="little"``) -- the per-pair matrices of chain partitions, where
  whole-matrix operations need to be vectorised, and
* as dense boolean numpy matrices, one ``bool`` per entry -- the adjacency
  matrix of ``graph.to_matrix``, the blocks of ``blowup.ChainLayers`` (its
  first pair as is, the blocks of its GEMMs cast to float32) and the
  regularity tester's pair matrix.

The first two agree bit-for-bit, so rows can be moved between them with
``int.from_bytes`` / ``int.to_bytes``; the packed and dense forms convert
with :func:`pack_bool_matrix` and :func:`unpack_packed_matrix`.
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
    """Little-endian packed uint8 row -> Python int bitset."""
    return int.from_bytes(row.tobytes(), "little")


def pack_bool_matrix(m: np.ndarray) -> np.ndarray:
    """Pack a boolean matrix row-wise (little-endian bit order)."""
    return np.packbits(m, axis=1, bitorder="little")


def unpack_packed_matrix(p: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix` (truncates padding bits)."""
    return np.unpackbits(p, axis=1, bitorder="little", count=nbits).astype(bool)


def popcount_rows(p: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed uint8 matrix (or 1-d packed row)."""
    counts = np.bitwise_count(p)
    return counts.sum(axis=-1, dtype=np.int64)
