"""The ``sbm-100k`` input: a planted-partition graph with seed-stable community sizes.

``repro.generators.planted_partition_graph`` draws each community size
from a Pareto(2) tail, whose variance is infinite.  The largest
community then ranges from 503 to 1423 vertices over seeds 0-9 at
100k vertices.  That community sets the number of matching passes, so
detection time varied 3x between seeds (2.3 s to 7.5 s), which drowns
any change a benchmark should detect.  This generator keeps that
generator's model and defaults (mean community size 40, so sizes from
10 up to a cap of 2000; ``p_in`` 0.3; 2 background edges per vertex;
unit weights) but takes the sizes as the Pareto quantiles at evenly
spaced probabilities.  Every seed gets the same multiset of sizes, with
the largest community at 994 vertices.  The seed shuffles their order
and draws every edge.
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import from_edges
from repro.graph.graph import CommunityGraph

MIN_SIZE, MAX_SIZE, EXPONENT = 10, 2000, 2.0
P_IN, BACKGROUND_DEGREE = 0.3, 2.0


def community_sizes(n_vertices: int) -> np.ndarray:
    """Pareto quantiles at ``(k + 0.5) / K``, with ``K`` the fewest that cover ``n_vertices``."""

    def quantiles(k: int) -> np.ndarray:
        u = (np.arange(k) + 0.5) / k
        return np.clip((MIN_SIZE * (1.0 - u) ** (-1.0 / EXPONENT)).astype(np.int64), 2, MAX_SIZE)

    lo, hi = 1, n_vertices
    while lo < hi:
        mid = (lo + hi) // 2
        if quantiles(mid).sum() >= n_vertices:
            hi = mid
        else:
            lo = mid + 1
    sizes = quantiles(lo)
    sizes[-1] -= sizes.sum() - n_vertices  # the largest absorbs the overshoot
    return sizes


def planted_partition_graph(n_vertices: int, seed: int) -> CommunityGraph:
    """Random recursive tree plus ``P_IN`` density inside each community, then background edges."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(community_sizes(n_vertices))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(len(sizes)), sizes)
    src, dst = [], []
    for base, size in zip(offsets[:-1].tolist(), sizes.tolist()):
        src.append(np.arange(base + 1, base + size))
        dst.append(base + (rng.random(size - 1) * np.arange(1, size)).astype(np.int64))
        possible = size * (size - 1) // 2
        n_target = int(rng.poisson(P_IN * possible))
        if n_target:
            # Oversample for duplicate pairs, which from_edges merges.
            n_sample = min(int(n_target * 1.3) + 1, 4 * possible)
            u = rng.integers(0, size, n_sample)
            v = rng.integers(0, size, n_sample)
            keep = u != v
            src.append(base + u[keep])
            dst.append(base + v[keep])
    n_background = int(BACKGROUND_DEGREE * n_vertices / 2)
    u = rng.integers(0, n_vertices, int(n_background * 1.2) + 1)
    v = rng.integers(0, n_vertices, len(u))
    keep = (u != v) & (labels[u] != labels[v])
    src.append(u[keep])
    dst.append(v[keep])
    graph = from_edges(np.concatenate(src), np.concatenate(dst), None, n_vertices=n_vertices)
    graph.edges.w[:] = 1.0  # duplicates were accumulated into weights
    return graph
