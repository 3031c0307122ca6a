"""Independent matching oracle: sequential greedy over a strict total order.

:mod:`repro.reference.matching` transcribes the kernel's pass loop and
imports its tie-break hash, so it checks the vectorization but shares
the kernel's assumptions.  This oracle shares no code with the kernel.
It rests on a classical fact (Preis; Manne–Bisseling, as cited in
§IV-B): under a strict total order on the edges, the locally-dominant
matching is unique and equals the matching that sequential greedy builds
by scanning the edges from best to worst and taking every edge whose
endpoints are both still free.

The order is the one the paper's algorithm needs and the kernel
documents: score descending, ties broken by ascending edge priority
``k · 0x9E3779B97F4A7C15 mod 2⁶⁴`` read as a signed 64-bit integer.
Here that priority is computed in plain Python integers.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import CommunityGraph

__all__ = ["edge_priority_ref", "greedy_matching_ref"]

_GOLDEN = 0x9E3779B97F4A7C15
_WORD = 1 << 64


def edge_priority_ref(k: int) -> int:
    """Tie-break rank of edge ``k``: ``k · golden mod 2⁶⁴`` as signed int64."""
    p = (k * _GOLDEN) % _WORD
    return p - _WORD if p >= _WORD // 2 else p


def greedy_matching_ref(graph: CommunityGraph, scores: np.ndarray) -> np.ndarray:
    """Sorted indices of the greedy matching over positive-score edges."""
    e = graph.edges
    if len(scores) != e.n_edges:
        raise ValueError("scores length must equal edge count")
    order = sorted(
        (k for k in range(e.n_edges) if scores[k] > 0),
        key=lambda k: (-float(scores[k]), edge_priority_ref(k)),
    )
    taken: set[int] = set()
    matched: list[int] = []
    for k in order:
        a, b = int(e.ei[k]), int(e.ej[k])
        if a not in taken and b not in taken:
            taken.update((a, b))
            matched.append(k)
    return np.array(sorted(matched), dtype=np.int64)
