"""Edge scoring (§III step 1, §IV-B).

Each community-graph edge gets an independent score: the change in the
optimization metric if its two endpoint communities merged.  Per the paper,
a score needs only the edge's weight, the two endpoints' community volumes
(strengths) and the graph total weight — one O(|V|) strength pass plus one
flat O(|E|) loop, both vectorized here.

Scorers implement the :class:`EdgeScorer` protocol, making the algorithm
"agnostic towards edge scoring methods" exactly as the paper claims; a
problem-specific scorer drops in without touching matching or contraction.

Exactness invariants (exploited by the tests):

* ``ModularityScorer``: contracting a matching increases graph modularity
  by exactly the sum of the matched edges' scores.
* ``ConductanceScorer``: contracting a matching decreases the sum of
  community conductances by exactly the matched score sum (scores are the
  *negated* conductance change, so maximizing still applies).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ScoreValidationError
from repro.graph.graph import CommunityGraph
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.spmatrix.spill import scratch_memmap
from repro.types import SCORE_DTYPE

__all__ = [
    "EdgeScorer",
    "ModularityScorer",
    "ConductanceScorer",
    "WeightScorer",
    "score_edges",
    "validate_scores",
]


def validate_scores(
    scores: np.ndarray, *, scorer: str = "scorer", offset: int = 0
) -> np.ndarray:
    """Reject NaN/inf scorer output; returns ``scores`` unchanged when clean.

    A NaN score breaks the matching's total order silently (every
    comparison is false, so NaN edges vanish from candidate sets and can
    starve the worklist), so non-finite output is a hard
    :class:`~repro.errors.ScoreValidationError` at the source.  The
    ``-inf`` veto the driver applies *after* scoring is exempt by
    construction — it never passes through this check.  ``scores`` holds
    edges ``[offset, offset + len(scores))``; the error names global edge
    indices.
    """
    finite = np.isfinite(scores)
    if not finite.all():
        bad = int(len(scores) - np.count_nonzero(finite))
        first = int(np.argmin(finite))
        raise ScoreValidationError(
            f"{scorer}: {bad} non-finite score(s) in edges "
            f"[{offset}, {offset + len(scores)}) "
            f"(first at edge {offset + first}: {scores[first]!r})"
        )
    return scores


@runtime_checkable
class EdgeScorer(Protocol):
    """Protocol for merge-gain edge scorers.

    Implementations that validate their own output (all built-ins call
    :func:`validate_scores` before returning) advertise it with a
    ``validates_output = True`` class attribute so the engine skips its
    driver-side re-validation; external implementations without the
    attribute are validated once by the engine's score phase.
    Implementations may additionally offer
    ``score_range(graph, lo, hi, *, vol, w_total)`` to score one edge
    window; :func:`score_edges` then streams a spilled graph window by
    window — the per-edge formulas are elementwise, so a windowed
    evaluation is bit-identical to the whole-array one.
    """

    name: str

    def score(
        self, graph: CommunityGraph, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        """Score every edge of ``graph``; positive means the merge improves
        the metric."""
        ...  # pragma: no cover - protocol stub


def _record_scoring(
    recorder: TraceRecorder | None, graph: CommunityGraph, name: str
) -> None:
    if recorder is None:
        return
    n, m = graph.n_vertices, graph.n_edges
    # One strength reduction over the edges (2|E| reads, |V| atomic adds)
    # plus the flat per-edge score loop (4 words in, 1 out per edge).
    recorder.record(
        KernelRecord(
            name="score",
            items=m,
            mem_words=2 * m + n + 5 * m,
            atomics=2 * m,
            contention=0.0,
        )
    )


def score_edges(
    scorer,
    graph: CommunityGraph,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> np.ndarray:
    """Score every edge of ``graph`` with ``scorer``'s windowed formula.

    The one driver behind every built-in scorer: it computes the
    whole-graph aggregates (``w_total``, ``vol``) once and evaluates
    ``scorer.score_range`` — over one window ``[0, |E|)`` for an
    in-memory graph, or shard window by shard window into ``scores.npy``
    beside a spilled graph's store (a ``score_shards`` span), so a
    spilled graph's scores are file-backed.  Each window is validated with
    its global edge offset.  A zero-weight graph scores all zeros.
    Scorers without ``score_range`` fall back to their own
    :meth:`~EdgeScorer.score`.
    """
    if not hasattr(scorer, "score_range"):
        return scorer.score(graph, recorder)
    m = graph.n_edges
    w_total = graph.total_weight()
    vol = graph.strengths() if w_total else None

    def window(lo: int, hi: int) -> np.ndarray:
        if not w_total:
            return np.zeros(hi - lo, dtype=SCORE_DTYPE)
        return validate_scores(
            scorer.score_range(graph, lo, hi, vol=vol, w_total=w_total),
            scorer=scorer.name,
            offset=lo,
        )

    store = getattr(graph, "spill_store", None)
    if store is None:
        scores = window(0, m)
    else:
        scores = scratch_memmap(
            store.directory / "scores.npy", dtype=SCORE_DTYPE, shape=(m,)
        )
        with as_tracer(tracer).span(
            "score_shards", n_shards=store.n_shards
        ) as sp:
            for lo, hi in store.shard_ranges:
                scores[lo:hi] = window(lo, hi)
            sp.set(items=m)
    _record_scoring(recorder, graph, scorer.name)
    return scores


class _WindowedScorer:
    """A built-in scorer: one windowed formula, run by :func:`score_edges`.

    Subclasses define ``score_range(graph, lo, hi, *, vol, w_total)``:
    the scores of edges ``[lo, hi)`` given the whole-graph aggregates
    (``w_total`` nonzero; the driver owns the zero-weight case).  Output
    is unvalidated; the driver validates each window.
    """

    name: str
    validates_output = True

    def score(
        self, graph: CommunityGraph, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        """Score every edge of ``graph`` (see :func:`score_edges`)."""
        return score_edges(self, graph, recorder)


class ModularityScorer(_WindowedScorer):
    """ΔQ of merging an edge's endpoints: ``w/W - vol_i * vol_j / (2 W²)``."""

    name = "modularity"

    def score_range(
        self,
        graph: CommunityGraph,
        lo: int,
        hi: int,
        *,
        vol: np.ndarray,
        w_total: float,
    ) -> np.ndarray:
        e = graph.edges
        return (
            e.w[lo:hi] / w_total
            - vol[e.ei[lo:hi]] * vol[e.ej[lo:hi]] / (2.0 * w_total**2)
        ).astype(SCORE_DTYPE, copy=False)


class ConductanceScorer(_WindowedScorer):
    """Negated change in summed conductance when merging an edge's endpoints.

    For communities ``i, j`` with volumes ``vol`` and cuts
    ``cut = vol - 2 * self_weight``:

    ``score = φ(i) + φ(j) - φ(i ∪ j)`` with
    ``φ(c) = cut_c / min(vol_c, 2W - vol_c)`` and
    ``cut_{i∪j} = cut_i + cut_j - 2 w_ij``.

    Minimizing conductance becomes maximizing this score, as §III notes.
    """

    name = "conductance"

    def score_range(
        self,
        graph: CommunityGraph,
        lo: int,
        hi: int,
        *,
        vol: np.ndarray,
        w_total: float,
    ) -> np.ndarray:
        e = graph.edges
        two_w = 2.0 * w_total
        cut = vol - 2.0 * graph.self_weights

        def phi(cut_c: np.ndarray, vol_c: np.ndarray) -> np.ndarray:
            denom = np.minimum(vol_c, two_w - vol_c)
            out = np.zeros_like(cut_c, dtype=SCORE_DTYPE)
            np.divide(cut_c, denom, out=out, where=denom > 0)
            return out

        ei = e.ei[lo:hi]
        ej = e.ej[lo:hi]
        phi_i = phi(cut[ei], vol[ei])
        phi_j = phi(cut[ej], vol[ej])
        cut_merged = cut[ei] + cut[ej] - 2.0 * e.w[lo:hi]
        vol_merged = vol[ei] + vol[ej]
        phi_merged = phi(cut_merged, vol_merged)
        return (phi_i + phi_j - phi_merged).astype(SCORE_DTYPE, copy=False)


class WeightScorer(_WindowedScorer):
    """Raw edge weight: turns the matcher into plain heavy-edge matching.

    Not a community metric — used for multilevel-partitioning-style
    coarsening and as a reference workload in the matching tests.
    """

    name = "weight"

    def score_range(
        self,
        graph: CommunityGraph,
        lo: int,
        hi: int,
        *,
        vol: np.ndarray,
        w_total: float,
    ) -> np.ndarray:
        return graph.edges.w[lo:hi].astype(SCORE_DTYPE)
