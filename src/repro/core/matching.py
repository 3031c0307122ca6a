"""Greedy heavy maximal matching (§III step 2, §IV-B).

Two implementations of the same locally-dominant matching:

* :func:`match_locally_dominant` — the paper's *improved* algorithm.  It
  maintains a worklist of currently unmatched vertices; each pass, every
  unmatched vertex proposes its highest-scored unmatched neighbor under a
  total order (score, then index), claims are checked from both sides, and
  winners leave the worklist.  It runs in two phases.  The first is
  vectorized: each pass recomputes every vertex's best edge from all
  *live* edges (both endpoints unmatched), which is cheap while passes
  drain the live set quickly.  Once the passes have scanned
  ``_CURSOR_SWITCH`` times the residual live edges, the last one removed
  less than ``1/_CURSOR_SWITCH`` of them and at least
  ``_CURSOR_MIN_EDGES`` remain, the residual edges are
  ranked once into a per-vertex incidence list, best edge first, with a
  cursor per vertex.  From then on a pass advances and re-checks only the
  vertices whose proposed partner was just matched — the paper's
  worklist.  Both phases give the same proposals, so the matching, pass
  count and failed claims do not depend on where the switch falls.

* :func:`match_full_sweep` — the paper's *legacy* algorithm from [4]: every
  pass sweeps across the entire edge array and contends on per-vertex
  best-match slots with full/empty bits.  It produces the identical
  matching here (both are fixed points of the same dominance relation and
  our tie-break is deterministic) but records the execution profile that
  made it a hot-spot disaster under OpenMP: every scanned edge issues
  atomic updates against its endpoints' slots, so a high-degree vertex
  absorbs its whole degree in atomics each sweep.

On a spilled graph (one carrying a
:class:`~repro.graph.csr.ShardedCSRStore`) both run their vectorized
passes shard window by shard window (:func:`_streamed_passes`), with
the same output.

Both return a maximal matching over positive-scored edges whose total
score is within a factor of two of the maximum (Preis; Hoepman;
Manne–Bisseling) — property-tested in the suite.

Determinism note: the paper's threaded races make its matching
non-deterministic run to run; the (score, edge index) total order used here
fixes one of the valid outcomes, which is what makes exact regression
testing possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.csr import _ranges_of, _Scratch
from repro.graph.edgelist import EdgeList, stable_key_sort
from repro.graph.graph import CommunityGraph
from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.platform.kernels import KernelRecord, TraceRecorder
from repro.types import NO_VERTEX, VERTEX_DTYPE

__all__ = [
    "MatchingResult",
    "match_locally_dominant",
    "match_full_sweep",
    "is_maximal_matching",
    "matching_weight",
    "approximation_certificate",
]

_SENTINEL_EDGE = np.iinfo(np.int64).max
_MIX_MULTIPLIER = np.int64(-7046029254386353131)  # 0x9E3779B97F4A7C15 as int64
#: The multiplier's inverse mod 2**64, so ``_edge_priority`` can be undone.
_MIX_INVERSE = np.int64(-1018231460777725123)  # 0xF1DE83E19937733D as int64

#: The worklist kernel switches to its cursor phase once its vectorized
#: passes have scanned at least this many times the residual live edges
#: and the last pass removed less than 1/this of the live edges it saw.
#: Building the cursor phase (a sort of the residual edges' hashed
#: priorities, a stable argsort by score and a packed sort of their
#: endpoints) costs 310-360 ns per residual edge, about 5-7
#: vectorized-pass scans (2-vCPU x86-64 VM, NumPy 2.4, the 541k residual
#: edges of sbm-100k; one pass over them costs 47-68 ns per edge).  The
#: first condition caps that set-up at under half the scans already
#: made; the second waits until a pass drains so little that, at that
#: rate, 16 more passes would scan about 10 times the residual edges.
#: No level of an R-MAT 17 graph switches.  Both conditions are observed
#: work counts.
_CURSOR_SWITCH = 16

#: ... and only with at least this many residual live edges.  Below it a
#: pass is mostly fixed NumPy call overhead either way (a cursor pass
#: costs 40-80 us, as much as a vectorized pass over a few thousand
#: edges), so the set-up does not pay.  On planted-partition graphs of
#: 300-5000 vertices, switching with 0.3k-7.7k residual edges made
#: matching 3-105% slower, with 9.3k-9.7k between 8% faster and 20%
#: slower, and with 12.8k-78k between 3% slower and 60% faster (median
#: 21% faster).
_CURSOR_MIN_EDGES = 8192


def _edge_priority(edge_index: np.ndarray) -> np.ndarray:
    """Deterministic pseudorandom tie-break priority per edge.

    Score ties are broken by this splitmix-style bijective hash of the edge
    index rather than the raw index: with raw indices, a chain of
    equal-scored edges (common on unit-weight graphs where scores depend
    only on degrees) resolves one handshake per pass — an O(chain) pass
    count.  Random priorities cut dominance chains to expected O(log n)
    passes (the same argument as Luby's algorithm), while remaining a fixed
    total order, which is all the paper's correctness argument needs.
    """
    with np.errstate(over="ignore"):
        return edge_index * _MIX_MULTIPLIER


@dataclass
class MatchingResult:
    """Outcome of a matching kernel.

    Attributes
    ----------
    partner:
        ``|V|``-long array; ``partner[v]`` is v's matched vertex or
        :data:`~repro.types.NO_VERTEX`.
    matched_edges:
        Indices (into the graph's edge arrays) of the matched edges.
    passes:
        Number of sweeps until the worklist drained.
    failed_claims:
        Total one-sided claims that lost to a better neighbor — the
        paper's re-queued worklist entries.
    """

    partner: np.ndarray
    matched_edges: np.ndarray
    passes: int
    failed_claims: int

    @property
    def n_pairs(self) -> int:
        return len(self.matched_edges)


def _worklist_record(
    items: int, partners: np.ndarray, n_new: int
) -> KernelRecord:
    """One worklist pass: every proposer issues one two-sided claim.

    Collisions only occur when several proposers target the same partner
    slot; ``partners`` holds each proposer's proposed partner.
    """
    return _claim_record(items, len(partners), len(np.unique(partners)), n_new)


def _claim_record(
    items: int, n_prop: int, n_distinct: int, n_new: int
) -> KernelRecord:
    """A worklist pass from its proposal count and distinct partner slots."""
    colliding = n_prop - n_distinct
    return KernelRecord(
        name="match_pass",
        items=max(items, 1),
        mem_words=5 * items + 2 * n_new,
        atomics=2 * n_prop,
        locks=2 * n_new,
        contention=min(1.0, 0.5 * colliding / max(1, n_prop)),
    )


def _sweep_record(
    items: int, n_live: int, n_distinct: int, n_new: int
) -> KernelRecord:
    """One legacy sweep pass over ``items`` candidate edges.

    Every scanned live edge pounds both endpoint slots with atomic-max
    updates: a high-degree vertex absorbs its whole degree in contended
    traffic each sweep (§IV-B hot spots).  Every candidate edge pays a
    cheap liveness test; only still-live edges do the scoring reads.
    ``n_distinct`` counts the distinct live endpoints.
    """
    atomics = 2 * n_live
    return KernelRecord(
        name="match_pass",
        items=max(items, 1),
        mem_words=2 * items + 5 * n_live + 2 * n_new,
        atomics=atomics,
        locks=2 * n_new,
        contention=min(1.0, 1.0 - n_distinct / max(1, atomics)),
    )


def _claim_pass(
    e: EdgeList,
    scores: np.ndarray,
    live: np.ndarray,
    partner: np.ndarray,
    unmatched: np.ndarray,
    matched_edges: list[np.ndarray],
    recorder: TraceRecorder | None,
    *,
    legacy_sweep: bool,
    scan_items: int,
) -> tuple[int, int, np.ndarray]:
    """One vectorized pass over every live edge.

    Returns ``(matched, failed_claims, live)``; for the worklist the
    returned live edges drop those the pass matched an endpoint of.
    """
    n = len(partner)
    u = e.ei[live]
    v = e.ej[live]
    s = scores[live]
    prio = _edge_priority(live)

    # Per-vertex best score over live incident edges (atomic-max in C).
    best = np.full(n, -np.inf)
    np.maximum.at(best, u, s)
    np.maximum.at(best, v, s)

    # Tie-break on minimum hashed priority among score-maximal edges —
    # a fixed total order, as the paper requires (it uses score then
    # vertex indices; see _edge_priority for why we hash).
    best_edge = np.full(n, _SENTINEL_EDGE, dtype=np.int64)
    at_u = s == best[u]
    at_v = s == best[v]
    np.minimum.at(best_edge, u[at_u], prio[at_u])
    np.minimum.at(best_edge, v[at_v], prio[at_v])

    # An edge wins when both endpoints chose it (the two-sided claim).
    chosen_u = best_edge[u] == prio  # this edge is u's chosen claim
    chosen_v = best_edge[v] == prio
    mutual = chosen_u & chosen_v
    n_new = int(np.count_nonzero(mutual))
    if n_new == 0:
        raise ConvergenceError(
            "no locally dominant edge found among live edges; "
            "scores may contain NaN"
        )
    # Every chosen edge that is not mutual is one endpoint's failed claim.
    failed = (
        int(np.count_nonzero(chosen_u))
        + int(np.count_nonzero(chosen_v))
        - 2 * n_new
    )

    mu = u[mutual]
    mv = v[mutual]
    partner[mu] = mv
    partner[mv] = mu
    unmatched[mu] = False
    unmatched[mv] = False
    matched_edges.append(live[mutual])

    if recorder is not None:
        if legacy_sweep:
            distinct = len(np.unique(np.concatenate([u, v])))
            recorder.record(
                _sweep_record(scan_items, len(live), distinct, n_new)
            )
        else:
            partners = np.concatenate([v[chosen_u], u[chosen_v]])
            recorder.record(_worklist_record(scan_items, partners, n_new))

    if not legacy_sweep:
        live = live[unmatched[u] & unmatched[v]]
    return n_new, failed, live


class _RankedIncidence:
    """Per-vertex incidence of the residual live edges, best edge first.

    Incidence entry ``t`` leads along edge ``edge[t]`` to ``other[t]``;
    vertex ``v`` owns entries ``cursor[v]`` up to ``end[v]``, ranked by
    the matching's total order.  Entries before a cursor lead to matched
    vertices, so an unmatched vertex's best live edge is the first entry
    at or after its cursor whose far end is unmatched.
    """

    def __init__(
        self, e: EdgeList, scores: np.ndarray, live: np.ndarray, n: int
    ) -> None:
        # The kernel's strict total order: score descending, then hashed
        # priority ascending.  The hash is a bijection, so sorting the
        # priorities and multiplying by the inverse lists the edges in
        # priority order; a stable sort by score then keeps that order
        # among equal scores.  The two single-key sorts take about half
        # the time of one two-key lexsort.
        ranked = np.sort(_edge_priority(live))
        ranked *= _MIX_INVERSE  # wraps modulo 2**64, as the hash does
        ranked = ranked[np.argsort(-scores[ranked], kind="stable")]
        ends = np.empty(2 * len(ranked), dtype=e.ei.dtype)
        ends[0::2] = e.ei[ranked]
        ends[1::2] = e.ej[ranked]
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=offs[1:])
        # A stable sort by vertex keeps each vertex's entries in rank
        # order.  Slot ``p`` of ``ends`` is an endpoint of ranked edge
        # ``p >> 1``; its far end sits in slot ``p ^ 1``.
        _, perm = stable_key_sort(ends.astype(np.int64), (n - 1).bit_length())
        perm ^= 1
        self.other = ends[perm]
        del ends
        perm >>= 1
        self.edge = ranked[perm]
        del perm, ranked
        self.cursor = offs[:-1].copy()
        self.end = offs[1:]

    def advance(self, todo: np.ndarray, unmatched: np.ndarray) -> int:
        """Move each ``todo`` cursor to its first live entry, or to its end.

        Windows of 4, 8, 16, … entries per round, so a hub skips
        thousands of dead entries in O(log) rounds.  Returns the number
        of entries examined.
        """
        cursor, end = self.cursor, self.end
        examined = 0
        width = 4
        while len(todo):
            start = cursor[todo]
            stop = np.minimum(start + width, end[todo])
            offset = np.arange(width)
            idx = np.minimum(start[:, None] + offset, stop[:, None] - 1)
            alive = (offset < (stop - start)[:, None]) & unmatched[self.other[idx]]
            found = alive.any(axis=1)
            cursor[todo] = np.where(found, start + alive.argmax(axis=1), stop)
            examined += int((stop - start).sum())
            todo = todo[~found & (stop < end[todo])]
            width *= 2
        return examined

    def walk(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``verts`` from their cursors on: (far ends, edges)."""
        start = self.cursor[verts]
        length = self.end[verts] - start
        skip = np.repeat(start - (np.cumsum(length) - length), length)
        idx = np.arange(len(skip)) + skip
        return self.other[idx], self.edge[idx]


def _cursor_passes(
    inc: _RankedIncidence,
    partner: np.ndarray,
    unmatched: np.ndarray,
    matched_edges: list[np.ndarray],
    recorder: TraceRecorder | None,
    *,
    tracer: Tracer | NullTracer,
    passes: int,
    max_passes: int,
) -> tuple[int, int]:
    """Finish a worklist matching from ``inc``; returns (passes, failed claims).

    Each pass re-proposes only from the vertices whose proposed partner
    was matched in the pass before (at first, every vertex with a live
    edge).  The matching, pass count and failed claims are the vectorized
    passes' own: every vertex still proposes its best live edge.
    """
    worklist_gauge = tracer.gauge("match.worklist_edges")
    fresh = np.zeros(len(partner), dtype=bool)  # matched in this pass
    todo = np.flatnonzero(inc.end > inc.cursor)
    proposers = len(todo)  # unmatched vertices with a live edge
    waiting = todo  # proposer pool for the recorder's contention figure
    n_live = len(inc.edge) // 2
    total_failed = 0
    while n_live:
        passes += 1
        if passes > max_passes:
            raise ConvergenceError("matching exceeded its pass budget")

        with tracer.span("match_pass", pass_index=passes) as pass_span:
            worklist_gauge.set(n_live)
            examined = inc.advance(todo, unmatched)
            at = inc.cursor[todo]
            proposing = at < inc.end[todo]
            proposers -= len(todo) - int(np.count_nonzero(proposing))
            todo, at = todo[proposing], at[proposing]

            # A proposal that did not change was not mutual last pass and
            # cannot have become so unless its far end's proposal changed,
            # so only the changed ones are checked.
            far = inc.other[at]
            edge = inc.edge[at]
            mutual = inc.edge[inc.cursor[far]] == edge
            won, first = np.unique(edge[mutual], return_index=True)
            n_new = len(won)
            # Every proposal that is not mutual is one endpoint's alone.
            failed = proposers - 2 * n_new
            total_failed += failed
            proposers -= 2 * n_new

            if recorder is not None:
                waiting = waiting[
                    unmatched[waiting] & (inc.cursor[waiting] < inc.end[waiting])
                ]
                partners = inc.other[inc.cursor[waiting]]

            a = todo[mutual][first]
            b = far[mutual][first]
            partner[a] = b
            partner[b] = a
            matched_edges.append(won)

            # Walk the new pairs' incidence: it drops their live edges
            # from the count (an edge between two new pairs is seen from
            # both ends) and finds the vertices that proposed to them.
            newly = np.concatenate([a, b])
            fresh[newly] = True
            far_ends, edges = inc.walk(newly)
            was_live = unmatched[far_ends]
            both_new = fresh[far_ends]
            n_live_before = n_live
            n_live -= int(np.count_nonzero(was_live)) - int(
                np.count_nonzero(both_new)
            ) // 2
            unmatched[newly] = False
            fresh[newly] = False
            jilted = was_live & ~both_new
            far_ends, edges = far_ends[jilted], edges[jilted]
            todo = far_ends[inc.edge[inc.cursor[far_ends]] == edges]
            examined += len(was_live)

            pass_span.set(
                items=examined,
                live_edges=n_live_before,
                matched=n_new,
                failed_claims=failed,
            )
            if recorder is not None:
                recorder.record(_worklist_record(examined, partners, n_new))
    return passes, total_failed


def _run_passes(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None,
    *,
    legacy_sweep: bool,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
) -> MatchingResult:
    if getattr(graph, "spill_store", None) is not None:
        return _streamed_passes(
            graph,
            scores,
            recorder,
            legacy_sweep=legacy_sweep,
            tracer=tracer,
            max_passes=max_passes,
        )
    tr = as_tracer(tracer)
    worklist_gauge = tr.gauge("match.worklist_edges")
    e = graph.edges
    n = graph.n_vertices
    if len(scores) != e.n_edges:
        raise ValueError("scores length must equal edge count")

    partner = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    candidates = np.flatnonzero(scores > 0.0)
    matched_edges: list[np.ndarray] = []
    unmatched = np.ones(n, dtype=bool)
    total_failed = 0
    passes = 0
    scanned = 0
    if max_passes is None:
        max_passes = 2 * n + 4  # worst case one pair per pass
    elif max_passes < 0:
        raise ValueError("max_passes must be non-negative")

    live = candidates
    while len(live):
        passes += 1
        if passes > max_passes:
            raise ConvergenceError("matching exceeded its pass budget")

        with tr.span("match_pass", pass_index=passes) as pass_span:
            if legacy_sweep:
                # Legacy: rescan the whole edge array and re-derive liveness.
                scan_items = len(candidates)
                mask = unmatched[e.ei[candidates]] & unmatched[e.ej[candidates]]
                live = candidates[mask]
            else:
                scan_items = len(live)
            worklist_gauge.set(len(live))
            pass_span.set(items=scan_items, live_edges=len(live))
            if len(live) == 0:
                break
            n_new, failed, live = _claim_pass(
                e,
                scores,
                live,
                partner,
                unmatched,
                matched_edges,
                recorder,
                legacy_sweep=legacy_sweep,
                scan_items=scan_items,
            )
            total_failed += failed
            pass_span.set(matched=n_new, failed_claims=failed)

        if not legacy_sweep:
            scanned += scan_items
            if (
                len(live) >= _CURSOR_MIN_EDGES
                and scanned >= _CURSOR_SWITCH * len(live)
                and _CURSOR_SWITCH * (scan_items - len(live)) < scan_items
            ):
                break

    if len(live):
        # The worklist's live set stopped draining: finish with cursors.
        del candidates
        incidence = _RankedIncidence(e, scores, live, n)
        del live
        passes, failed = _cursor_passes(
            incidence,
            partner,
            unmatched,
            matched_edges,
            recorder,
            tracer=tr,
            passes=passes,
            max_passes=max_passes,
        )
        total_failed += failed

    matched = (
        np.concatenate(matched_edges)
        if matched_edges
        else np.empty(0, dtype=np.int64)
    )
    matched.sort()
    return MatchingResult(
        partner=partner,
        matched_edges=matched,
        passes=passes,
        failed_claims=total_failed,
    )


def _streamed_passes(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None = None,
    *,
    legacy_sweep: bool = False,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
    shard_edges: int | None = None,
) -> MatchingResult:
    """The vectorized passes, streamed one edge window at a time.

    What both matchers run on a spilled graph (one whose windows are its
    shards; ``shard_edges`` imposes a cap on any graph).  It never holds
    an edge-length anonymous array: the live edges are a byte mask in
    spill-backed scratch, and each pass streams the windows four times —

    1. per-vertex best score (``np.maximum.at``: exact, order-free);
    2. per-vertex best-edge tie-break (``np.minimum.at`` over hashed
       *global* edge priorities: exact, order-free);
    3. two-sided claim resolution + partner updates;
    4. live-mask filtering against the updated matched set.

    Every pass therefore makes the same claims as the in-memory pass, so
    the matching, pass count and failed claims are bit-identical, and so
    are the spans and recorder profile of every vectorized pass.  It
    does not switch to the worklist's cursor phase: each pass scans
    every live edge.  In the style of the strongly-sublinear-memory MPC
    matching of Ghaffari & Uitto (SNIPPETS.md): per-vertex aggregates
    are the only global state.
    """
    tr = as_tracer(tracer)
    worklist_gauge = tr.gauge("match.worklist_edges")
    e = graph.edges
    n = graph.n_vertices
    m = e.n_edges
    if len(scores) != m:
        raise ValueError("scores length must equal edge count")
    ranges = _ranges_of(graph, shard_edges)
    scratch = _Scratch(graph, "match")

    partner = np.full(n, NO_VERTEX, dtype=VERTEX_DTYPE)
    unmatched = np.ones(n, dtype=bool)
    live_mask = scratch.array("live_mask", np.bool_, (m,))
    n_live = 0
    for lo, hi in ranges:
        chunk = scores[lo:hi] > 0.0
        live_mask[lo:hi] = chunk
        n_live += int(np.count_nonzero(chunk))
    n_candidates = n_live

    matched_edges: list[np.ndarray] = []
    total_failed = 0
    passes = 0
    if max_passes is None:
        max_passes = 2 * n + 4  # worst case one pair per pass
    elif max_passes < 0:
        raise ValueError("max_passes must be non-negative")

    def live_windows():
        for lo, hi in ranges:
            idx = lo + np.flatnonzero(live_mask[lo:hi])
            if len(idx):
                yield idx

    best = np.empty(n)
    best_edge = np.empty(n, dtype=np.int64)
    # Vertices a pass touches: the proposed partners (worklist profile)
    # or every live endpoint (sweep profile).
    touched = np.zeros(n, dtype=bool)
    try:
        # The sweep re-derives liveness at the top of each pass, so it
        # ends on one more, empty pass than the worklist.
        while n_live or (legacy_sweep and passes):
            passes += 1
            if passes > max_passes:
                raise ConvergenceError("matching exceeded its pass budget")

            with tr.span("match_pass", pass_index=passes) as pass_span:
                scan_items = n_candidates if legacy_sweep else n_live
                worklist_gauge.set(n_live)
                pass_span.set(items=scan_items, live_edges=n_live)
                if not n_live:
                    break

                # Pass 1: per-vertex best live score.
                best.fill(-np.inf)
                for idx in live_windows():
                    s = scores[idx]
                    np.maximum.at(best, e.ei[idx], s)
                    np.maximum.at(best, e.ej[idx], s)

                # Pass 2: min hashed priority among score-maximal edges.
                best_edge.fill(_SENTINEL_EDGE)
                for idx in live_windows():
                    u = e.ei[idx]
                    v = e.ej[idx]
                    s = scores[idx]
                    prio = _edge_priority(idx)
                    at_u = s == best[u]
                    at_v = s == best[v]
                    np.minimum.at(best_edge, u[at_u], prio[at_u])
                    np.minimum.at(best_edge, v[at_v], prio[at_v])

                # Pass 3: two-sided claims.  Claim outcomes depend only
                # on the pre-pass best/best_edge state, so applying
                # partner updates window by window is safe.
                n_new = 0
                failed = 0
                n_proposals = 0
                if recorder is not None:
                    touched.fill(False)
                for idx in live_windows():
                    u = e.ei[idx]
                    v = e.ej[idx]
                    prio = _edge_priority(idx)
                    chosen_u = best_edge[u] == prio
                    chosen_v = best_edge[v] == prio
                    mutual = chosen_u & chosen_v
                    n_mutual = int(np.count_nonzero(mutual))
                    n_chosen = int(np.count_nonzero(chosen_u)) + int(
                        np.count_nonzero(chosen_v)
                    )
                    n_new += n_mutual
                    failed += n_chosen - 2 * n_mutual
                    mu = u[mutual]
                    mv = v[mutual]
                    partner[mu] = mv
                    partner[mv] = mu
                    unmatched[mu] = False
                    unmatched[mv] = False
                    matched_edges.append(idx[mutual])
                    if recorder is not None:
                        if legacy_sweep:
                            touched[u] = True
                            touched[v] = True
                        else:
                            touched[v[chosen_u]] = True
                            touched[u[chosen_v]] = True
                            n_proposals += n_chosen
                if n_new == 0:
                    raise ConvergenceError(
                        "no locally dominant edge found among live edges; "
                        "scores may contain NaN"
                    )
                total_failed += failed
                pass_span.set(matched=n_new, failed_claims=failed)

                if recorder is not None:
                    distinct = int(np.count_nonzero(touched))
                    recorder.record(
                        _sweep_record(scan_items, n_live, distinct, n_new)
                        if legacy_sweep
                        else _claim_record(
                            scan_items, n_proposals, distinct, n_new
                        )
                    )

                # Pass 4: drop edges that lost an endpoint this pass
                # (after *all* of the pass's matches, like the in-memory
                # filter).
                n_live = 0
                for idx in live_windows():
                    keep = unmatched[e.ei[idx]] & unmatched[e.ej[idx]]
                    live_mask[idx[~keep]] = False
                    n_live += int(np.count_nonzero(keep))
    finally:
        del live_mask
        scratch.cleanup()

    matched = (
        np.concatenate(matched_edges)
        if matched_edges
        else np.empty(0, dtype=np.int64)
    )
    matched.sort()
    return MatchingResult(
        partner=partner,
        matched_edges=matched,
        passes=passes,
        failed_claims=total_failed,
    )


def match_locally_dominant(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
) -> MatchingResult:
    """The paper's improved worklist matching (see module docstring).

    ``max_passes`` overrides the default ``2|V| + 4`` pass budget
    (exceeding it raises :class:`~repro.errors.ConvergenceError`).
    """
    return _run_passes(
        graph,
        scores,
        recorder,
        legacy_sweep=False,
        tracer=tracer,
        max_passes=max_passes,
    )


def match_full_sweep(
    graph: CommunityGraph,
    scores: np.ndarray,
    recorder: TraceRecorder | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
    max_passes: int | None = None,
) -> MatchingResult:
    """The legacy whole-edge-array sweep matching from the 2011 paper [4].

    Identical output to :func:`match_locally_dominant`; records the
    hot-spot-heavy execution profile for the ablation benchmarks.
    ``max_passes`` overrides the default ``2|V| + 4`` pass budget.
    """
    return _run_passes(
        graph,
        scores,
        recorder,
        legacy_sweep=True,
        tracer=tracer,
        max_passes=max_passes,
    )


# ----------------------------------------------------------------- checking
def is_maximal_matching(
    graph: CommunityGraph, scores: np.ndarray, result: MatchingResult
) -> bool:
    """Verify matching validity and maximality over positive-scored edges.

    Valid: ``partner`` is a symmetric involution and matched edges connect
    exactly the paired vertices.  Maximal: no positive-scored edge has both
    endpoints unmatched.
    """
    partner = result.partner
    matched_mask = partner != NO_VERTEX
    verts = np.flatnonzero(matched_mask)
    if np.any(partner[partner[verts]] != verts):
        return False
    if np.any(partner[verts] == verts):
        return False
    e = graph.edges
    me = result.matched_edges
    if len(me) != np.count_nonzero(matched_mask) // 2:
        return False
    if len(me) and not np.all(partner[e.ei[me]] == e.ej[me]):
        return False
    positive = scores > 0
    both_free = ~matched_mask[e.ei] & ~matched_mask[e.ej]
    return not np.any(positive & both_free)


def matching_weight(scores: np.ndarray, result: MatchingResult) -> float:
    """Total score of the matched edges."""
    return float(scores[result.matched_edges].sum())


def approximation_certificate(
    graph: CommunityGraph, scores: np.ndarray, result: MatchingResult
) -> tuple[float, float]:
    """A cheap ``(achieved, upper_bound)`` certificate for the matching.

    Any matching's weight is at most
    ``min(Σ positive scores, ½ Σ_v max positive incident score)`` —
    each matched edge consumes both endpoints, and an endpoint can
    contribute at most its best incident score once.  Together with the
    greedy guarantee ``achieved ≥ optimum / 2`` this gives a per-run,
    verifiable quality interval: ``achieved / upper_bound`` lower-bounds
    the true approximation ratio of this particular matching.
    """
    e = graph.edges
    if len(scores) != e.n_edges:
        raise ValueError("scores length must equal edge count")
    achieved = matching_weight(scores, result)
    positive = scores > 0
    sum_positive = float(scores[positive].sum())
    best = np.zeros(graph.n_vertices)
    np.maximum.at(best, e.ei[positive], scores[positive])
    np.maximum.at(best, e.ej[positive], scores[positive])
    upper = min(sum_positive, 0.5 * float(best.sum()))
    return achieved, upper
