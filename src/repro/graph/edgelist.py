"""The paper's core graph representation (§IV-A).

A weighted undirected graph is an array of triples ``(i, j, w)`` with each
edge stored exactly once.  Instead of keeping the strictly lower triangle,
the *order* of the two endpoints is hashed by parity:

* if ``i`` and ``j`` are both even or both odd, store ``i < j``;
* otherwise store ``i > j``.

This scatters the edges of high-degree vertices across different source
buckets — with a strict lower-triangle layout, a hub vertex ``0`` would own
every one of its edges in a single giant bucket, serializing the per-bucket
loops of the matching and contraction kernels.

Edges are grouped into *buckets* by the first stored endpoint; per-vertex
``bucket_start``/``bucket_end`` index arrays locate each bucket.  The paper
notes the buckets need not be contiguous (which removes a prefix-sum
synchronization from contraction); this implementation keeps them contiguous
in memory but preserves the two-array indexing so the accounting matches.

Space: ``3|E|`` words for the triples plus ``2|V|`` words of bucket offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvariantViolation
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "EdgeList",
    "parity_canonical",
    "lower_triangle_canonical",
    "bucket_sizes",
    "stable_key_sort",
]


def parity_canonical(
    i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the paper's parity hash to choose each edge's stored order.

    Returns ``(first, second)`` arrays: same-parity endpoints are returned as
    ``(min, max)``, mixed-parity as ``(max, min)``.  Self loops (``i == j``)
    are returned unchanged; callers are expected to have split them out.
    """
    i = np.asarray(i, dtype=VERTEX_DTYPE)
    j = np.asarray(j, dtype=VERTEX_DTYPE)
    # Swap exactly when same parity and i > j, or mixed parity and i < j
    # (a self loop is never swapped).  The sum cannot lose the other
    # endpoint: int64 wraps modulo 2**64 and the subtraction undoes it.
    swap = (((i ^ j) & 1) == 0) == (i > j)
    first = np.where(swap, j, i)
    second = i + j
    second -= first
    return first, second


def lower_triangle_canonical(
    i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The naive alternative to the parity hash: always store ``min, max``.

    Provided for the §IV-A ablation: under this ordering a low-id hub owns
    *all* of its edges in one bucket, serializing per-bucket loops; the
    parity hash scatters roughly half of them to the neighbors' buckets.
    """
    i = np.asarray(i, dtype=VERTEX_DTYPE)
    j = np.asarray(j, dtype=VERTEX_DTYPE)
    return np.minimum(i, j), np.maximum(i, j)


#: Largest ``width`` whose pair keys fit in int64: the biggest key
#: ``first * width + second`` is ``width**2 - 1``, and
#: ``3_037_000_499**2 < 2**63 <= 3_037_000_500**2``.
_MAX_PAIR_WIDTH = 3_037_000_499


def stable_key_sort(
    key: np.ndarray, key_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort an int64 ``key`` whose values lie in ``[0, 2**key_bits)``.

    Returns ``(sorted_key, order)``: ``sorted_key == key[order]``, equal
    keys in input order.  ``key`` is overwritten.  When a key and an
    input index fit in 63 bits together, each index is packed below its
    key and the packed words are sorted in place with ``np.sort``, which
    is several times faster than ``np.argsort``; the low bits then hold
    ``order``.  Otherwise it falls back to a stable ``np.argsort``.
    """
    m = len(key)
    index_bits = (m - 1).bit_length()
    if key_bits + index_bits > 63:
        order = np.argsort(key, kind="stable")
        return key[order], order
    key <<= index_bits
    key |= np.arange(m, dtype=np.int64)
    key.sort()
    order = key & np.int64((1 << index_bits) - 1)
    key >>= index_bits
    return key, order


def group_pairs(
    first: np.ndarray, second: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal ``(first, second)`` pairs with one single-key sort.

    Both arrays must hold values in ``[0, width)``.  Returns ``(first,
    second, inverse)``: the distinct pairs in ``(first, second)`` order,
    and for each input pair the index of its group.  Callers sum weights
    with ``np.bincount(inverse, weights=w)``, which adds each group's
    duplicates left to right in input order — the summation order every
    graph build and contraction promises.

    Raises :class:`OverflowError` when ``width`` is so large that the
    combined int64 key ``first * width + second`` could wrap.
    """
    width = int(width)
    if width > _MAX_PAIR_WIDTH:
        raise OverflowError(
            f"pair key width {width} exceeds {_MAX_PAIR_WIDTH}; "
            "first * width + second would overflow int64"
        )
    m = len(first)
    if m == 0:
        return (
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=np.intp),
        )
    # Build the key in place and sort it (in place when it packs); the
    # sorted buffer is reused for the group ids, so at most three
    # edge-length int64 arrays are alive at once.
    key = np.multiply(first, np.int64(width), dtype=np.int64)
    key += second
    key, order = stable_key_sort(key, (width * width - 1).bit_length())
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    np.not_equal(key[1:], key[:-1], out=new_group[1:])
    distinct = key[new_group]
    np.cumsum(new_group, out=key)
    key -= 1
    del new_group
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = key
    del key, order
    first, second = np.divmod(distinct, np.int64(width))
    return first, second, inverse


def bucket_sizes(first: np.ndarray, n_vertices: int) -> np.ndarray:
    """Edges per bucket for a given stored-first-endpoint assignment."""
    return np.bincount(
        np.asarray(first, dtype=VERTEX_DTYPE), minlength=n_vertices
    ).astype(VERTEX_DTYPE)


@dataclass
class EdgeList:
    """Bucketed array-of-triples edge store.

    Invariants (checked by :meth:`validate`):

    * every edge satisfies the parity-hash ordering and ``ei != ej``;
    * edges are grouped by ``ei`` in non-decreasing order;
    * ``bucket_start``/``bucket_end`` delimit each vertex's bucket;
    * no duplicate ``{i, j}`` pairs (duplicates must be accumulated into
      weights at build time).
    """

    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    n_vertices: int
    bucket_start: np.ndarray
    bucket_end: np.ndarray

    # ------------------------------------------------------------------ build
    @classmethod
    def from_raw(
        cls,
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray | None,
        n_vertices: int,
    ) -> "EdgeList":
        """Build from arbitrary endpoint arrays (no self loops allowed).

        Duplicate edges — in either orientation — are accumulated into a
        single triple, mirroring the paper's "accumulate repeated edges by
        adding their weights"; each duplicate group sums left to right in
        input order.
        """
        i = np.asarray(i, dtype=VERTEX_DTYPE)
        j = np.asarray(j, dtype=VERTEX_DTYPE)
        if i.shape != j.shape or i.ndim != 1:
            raise ValueError("endpoint arrays must be equal-length 1-D")
        if w is None:
            w = np.ones(len(i), dtype=WEIGHT_DTYPE)
        else:
            w = np.asarray(w, dtype=WEIGHT_DTYPE)
            if w.shape != i.shape:
                raise ValueError("weight array must match endpoint arrays")
        if len(i) and (i.min() < 0 or max(i.max(), j.max()) >= n_vertices):
            raise ValueError("endpoint out of range for n_vertices")
        if np.any(i == j):
            raise ValueError(
                "self loops are not stored in EdgeList; split them into the "
                "CommunityGraph self-weight array first"
            )

        first, second = parity_canonical(i, j)
        # Grouping by (first, second) also yields the bucket grouping by
        # first endpoint.
        first, second, inverse = group_pairs(first, second, n_vertices)
        w = np.bincount(inverse, weights=w, minlength=len(first))
        return cls._from_grouped(first, second, w, n_vertices)

    @classmethod
    def _from_grouped(
        cls,
        first: np.ndarray,
        second: np.ndarray,
        w: np.ndarray,
        n_vertices: int,
    ) -> "EdgeList":
        """Assemble from already canonical, ``first``-sorted, deduped arrays."""
        counts = np.bincount(first, minlength=n_vertices) if len(first) else np.zeros(
            n_vertices, dtype=np.int64
        )
        bucket_end = np.cumsum(counts).astype(VERTEX_DTYPE)
        bucket_start = np.empty_like(bucket_end)
        if n_vertices:
            bucket_start[0] = 0
            bucket_start[1:] = bucket_end[:-1]
        return cls(
            ei=np.ascontiguousarray(first, dtype=VERTEX_DTYPE),
            ej=np.ascontiguousarray(second, dtype=VERTEX_DTYPE),
            w=np.ascontiguousarray(w, dtype=WEIGHT_DTYPE),
            n_vertices=int(n_vertices),
            bucket_start=bucket_start,
            bucket_end=bucket_end,
        )

    # ------------------------------------------------------------- properties
    @property
    def n_edges(self) -> int:
        """Number of unique non-self edges (each stored once)."""
        return len(self.ei)

    def memory_words(self) -> int:
        """64-bit words used: 3|E| triples + 2|V| bucket offsets."""
        return 3 * self.n_edges + 2 * self.n_vertices

    # -------------------------------------------------------------- accessors
    def bucket(self, v: int) -> slice:
        """Slice of the edge arrays holding vertex ``v``'s bucket.

        The bucket contains only edges whose *stored first* endpoint is
        ``v`` — an edge ``{i, j}`` lives in exactly one of the two endpoint
        buckets, per the parity hash.
        """
        if not 0 <= v < self.n_vertices:
            raise IndexError(f"vertex {v} out of range")
        return slice(int(self.bucket_start[v]), int(self.bucket_end[v]))

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every vertex (self loops excluded)."""
        deg = np.bincount(self.ei, minlength=self.n_vertices)
        deg += np.bincount(self.ej, minlength=self.n_vertices)
        return deg.astype(VERTEX_DTYPE)

    def strengths(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (self loops excluded)."""
        s = np.bincount(self.ei, weights=self.w, minlength=self.n_vertices)
        s += np.bincount(self.ej, weights=self.w, minlength=self.n_vertices)
        return s.astype(WEIGHT_DTYPE, copy=False)

    def total_weight(self) -> float:
        """Sum of all stored edge weights."""
        return float(self.w.sum())

    def copy(self) -> "EdgeList":
        """Deep copy (used by algorithms that mutate weights in place)."""
        return EdgeList(
            ei=self.ei.copy(),
            ej=self.ej.copy(),
            w=self.w.copy(),
            n_vertices=self.n_vertices,
            bucket_start=self.bucket_start.copy(),
            bucket_end=self.bucket_end.copy(),
        )

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check all representation invariants; raise InvariantViolation."""
        ei, ej = self.ei, self.ej
        if not (len(ei) == len(ej) == len(self.w)):
            raise InvariantViolation("edge arrays have mismatched lengths")
        if len(self.bucket_start) != self.n_vertices or len(
            self.bucket_end
        ) != self.n_vertices:
            raise InvariantViolation("bucket offset arrays have wrong length")
        if len(ei) == 0:
            if np.any(self.bucket_start != self.bucket_end):
                raise InvariantViolation("non-empty bucket in empty edge list")
            return
        if ei.min() < 0 or max(ei.max(), ej.max()) >= self.n_vertices:
            raise InvariantViolation("endpoint out of range")
        if np.any(ei == ej):
            raise InvariantViolation("self loop stored in edge list")
        first, second = parity_canonical(ei, ej)
        if np.any(first != ei) or np.any(second != ej):
            raise InvariantViolation("parity-hash ordering violated")
        if np.any(np.diff(ei) < 0):
            raise InvariantViolation("edges not grouped by first endpoint")
        # Bucket offsets must tile the edge array.
        for name, arr in (("start", self.bucket_start), ("end", self.bucket_end)):
            if arr.min() < 0 or arr.max() > len(ei):
                raise InvariantViolation(f"bucket_{name} out of range")
        counts = np.bincount(ei, minlength=self.n_vertices)
        if np.any(self.bucket_end - self.bucket_start != counts):
            raise InvariantViolation("bucket sizes disagree with edge grouping")
        # Duplicates: within a bucket, second endpoints must be unique.
        key = ei * np.int64(self.n_vertices) + ej
        if len(np.unique(key)) != len(key):
            raise InvariantViolation("duplicate edge pair present")
