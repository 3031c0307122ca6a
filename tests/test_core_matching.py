"""Unit tests for the matching kernels."""

import numpy as np
import pytest

from repro.core import (
    ModularityScorer,
    WeightScorer,
    is_maximal_matching,
    match_full_sweep,
    match_locally_dominant,
    matching_weight,
)
from repro.graph import from_edges
from repro.platform import TraceRecorder
from repro.types import NO_VERTEX


def weights_of(graph):
    return graph.edges.w.astype(float)


class TestBasics:
    def test_single_edge(self):
        g = from_edges(np.array([0]), np.array([1]))
        res = match_locally_dominant(g, np.array([1.0]))
        assert res.n_pairs == 1
        assert res.partner[0] == 1 and res.partner[1] == 0

    def test_triangle_matches_one_pair(self):
        g = from_edges(np.array([0, 0, 1]), np.array([1, 2, 2]))
        # Score edges by endpoints: {0,1} highest (edge order in the store
        # is parity-canonical, not input order).
        score_of = {frozenset((0, 1)): 3.0, frozenset((0, 2)): 2.0,
                    frozenset((1, 2)): 1.0}
        e = g.edges
        scores = np.array([
            score_of[frozenset((int(e.ei[k]), int(e.ej[k])))]
            for k in range(e.n_edges)
        ])
        res = match_locally_dominant(g, scores)
        assert res.n_pairs == 1
        # Highest-scored edge {0,1} wins.
        assert res.partner[0] == 1
        assert res.partner[2] == NO_VERTEX

    def test_path_picks_heavy_middle(self):
        # 0-1 (1), 1-2 (5), 2-3 (1): the heavy middle edge dominates.
        g = from_edges(np.array([0, 1, 2]), np.array([1, 2, 3]),
                       np.array([1.0, 5.0, 1.0]))
        scores = weights_of(g)
        res = match_locally_dominant(g, scores)
        assert res.n_pairs == 1
        assert res.partner[1] == 2

    def test_nonpositive_scores_excluded(self):
        g = from_edges(np.array([0, 1]), np.array([1, 2]))
        res = match_locally_dominant(g, np.array([-1.0, 0.0]))
        assert res.n_pairs == 0
        assert np.all(res.partner == NO_VERTEX)

    def test_empty_graph(self):
        g = from_edges(np.empty(0, int), np.empty(0, int), n_vertices=3)
        res = match_locally_dominant(g, np.empty(0))
        assert res.n_pairs == 0
        assert res.passes == 0

    def test_score_length_checked(self):
        g = from_edges(np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            match_locally_dominant(g, np.array([1.0, 2.0]))


class TestMaximality:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_maximal(self, random_graph_factory, seed):
        g = random_graph_factory(n=40, m=120, seed=seed)
        scores = ModularityScorer().score(g)
        res = match_locally_dominant(g, scores)
        assert is_maximal_matching(g, scores, res)

    def test_weight_scorer_maximal(self, karate):
        scores = WeightScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        assert is_maximal_matching(karate, scores, res)

    def test_half_approximation(self, random_graph_factory):
        """Greedy matching weight >= 1/2 of max weight matching."""
        import networkx as nx

        g = random_graph_factory(n=16, m=40, seed=3)
        scores = weights_of(g)
        res = match_locally_dominant(g, scores)
        nxg = nx.Graph()
        e = g.edges
        for k in range(e.n_edges):
            nxg.add_edge(int(e.ei[k]), int(e.ej[k]), weight=float(e.w[k]))
        opt = nx.max_weight_matching(nxg)
        opt_weight = sum(nxg[u][v]["weight"] for u, v in opt)
        assert matching_weight(scores, res) >= 0.5 * opt_weight - 1e-9


class TestInvolution:
    @pytest.mark.parametrize("seed", range(4))
    def test_partner_is_symmetric_involution(self, random_graph_factory, seed):
        g = random_graph_factory(n=30, m=90, seed=seed)
        res = match_locally_dominant(g, weights_of(g))
        matched = np.flatnonzero(res.partner != NO_VERTEX)
        np.testing.assert_array_equal(res.partner[res.partner[matched]], matched)
        assert np.all(res.partner[matched] != matched)

    def test_matched_edges_consistent(self, karate):
        scores = ModularityScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        e = karate.edges
        for k in res.matched_edges.tolist():
            assert res.partner[e.ei[k]] == e.ej[k]
            assert res.partner[e.ej[k]] == e.ei[k]


class TestLegacyEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_matching(self, random_graph_factory, seed):
        g = random_graph_factory(n=35, m=100, seed=seed)
        scores = ModularityScorer().score(g)
        new = match_locally_dominant(g, scores)
        old = match_full_sweep(g, scores)
        np.testing.assert_array_equal(new.partner, old.partner)
        np.testing.assert_array_equal(new.matched_edges, old.matched_edges)

    def test_legacy_records_more_scan_items(self, karate):
        scores = ModularityScorer().score(karate)
        rec_new, rec_old = TraceRecorder(), TraceRecorder()
        match_locally_dominant(karate, scores, rec_new)
        match_full_sweep(karate, scores, rec_old)
        assert rec_old.total_items("match_pass") >= rec_new.total_items(
            "match_pass"
        )

    def test_legacy_records_higher_contention(self, random_graph_factory):
        g = random_graph_factory(n=60, m=300, seed=1)
        scores = WeightScorer().score(g)
        rec_new, rec_old = TraceRecorder(), TraceRecorder()
        match_locally_dominant(g, scores, rec_new)
        match_full_sweep(g, scores, rec_old)
        mean = lambda rc: np.mean([r.contention for r in rc.by_name("match_pass")])
        assert mean(rec_old) > mean(rec_new)


class TestTies:
    def test_equal_scores_still_maximal(self):
        # A path of identical scores: priorities must break ties.
        n = 50
        i = np.arange(n - 1)
        g = from_edges(i, i + 1)
        scores = np.ones(n - 1)
        res = match_locally_dominant(g, scores)
        assert is_maximal_matching(g, scores, res)
        assert res.n_pairs >= (n - 1) // 3

    def test_tie_chain_passes_logarithmic(self):
        # The hashed tie-break must avoid O(n) passes on tie chains.
        n = 1000
        i = np.arange(n - 1)
        g = from_edges(i, i + 1)
        res = match_locally_dominant(g, np.ones(n - 1))
        assert res.passes <= 40

    def test_deterministic(self, karate):
        scores = ModularityScorer().score(karate)
        a = match_locally_dominant(karate, scores)
        b = match_locally_dominant(karate, scores)
        np.testing.assert_array_equal(a.partner, b.partner)


class TestStarGraph:
    def test_star_one_pair(self, star):
        scores = WeightScorer().score(star)
        res = match_locally_dominant(star, scores)
        assert res.n_pairs == 1  # hub can match only one leaf
        assert is_maximal_matching(star, scores, res)

    def test_star_passes_small(self, star):
        res = match_locally_dominant(star, WeightScorer().score(star))
        assert res.passes <= 2


class TestApproximationCertificate:
    def test_upper_bounds_achieved(self, karate):
        from repro.core import approximation_certificate

        scores = ModularityScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        achieved, upper = approximation_certificate(karate, scores, res)
        assert 0 < achieved <= upper

    def test_half_guarantee_holds(self, random_graph_factory):
        from repro.core import approximation_certificate

        for seed in range(5):
            g = random_graph_factory(n=30, m=90, seed=seed)
            scores = weights_of(g)
            res = match_locally_dominant(g, scores)
            achieved, upper = approximation_certificate(g, scores, res)
            # achieved >= optimum/2 >= ... but also certificate vs true
            # optimum: achieved must be at least half of ANY upper bound
            # that is itself >= optimum only when bound is tight; check
            # the provable relation achieved >= upper/2 - epsilon fails
            # only if the bound were loose, so assert the guaranteed
            # relation against the true optimum instead.
            import networkx as nx

            nxg = nx.Graph()
            e = g.edges
            for k in range(e.n_edges):
                if scores[k] > 0:
                    nxg.add_edge(int(e.ei[k]), int(e.ej[k]), weight=float(scores[k]))
            opt = sum(
                nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg)
            )
            assert achieved >= 0.5 * opt - 1e-9
            assert upper >= opt - 1e-9  # the bound really bounds

    def test_perfect_on_disjoint_edges(self):
        from repro.core import approximation_certificate

        g = from_edges(np.array([0, 2]), np.array([1, 3]), np.array([2.0, 3.0]))
        scores = g.edges.w.astype(float)
        res = match_locally_dominant(g, scores)
        achieved, upper = approximation_certificate(g, scores, res)
        assert achieved == upper == 5.0

    def test_length_check(self, karate):
        from repro.core import approximation_certificate

        scores = ModularityScorer().score(karate)
        res = match_locally_dominant(karate, scores)
        with pytest.raises(ValueError):
            approximation_certificate(karate, scores[:-1], res)


class TestWorklistWorkCounts:
    """The worklist's per-pass accounting, pinned where the cursor phase runs."""

    @pytest.fixture(scope="class")
    def sbm(self):
        from repro.generators import planted_partition_graph

        g = planted_partition_graph(2000, seed=0)
        return g, ModularityScorer().score(g)

    def test_live_edges_per_pass_equal_the_sweeps(self, sbm):
        from repro.obs import Tracer

        g, scores = sbm
        worklist, sweep = Tracer(), Tracer()
        res = match_locally_dominant(g, scores, tracer=worklist)
        match_full_sweep(g, scores, tracer=sweep)
        live = [s.attrs["live_edges"] for s in worklist.find("match_pass")]
        swept = [s.attrs["live_edges"] for s in sweep.find("match_pass")]
        # The sweep runs one extra pass that finds no live edge.
        assert swept[res.passes:] == [0]
        assert live == swept[: res.passes]
        gauge = worklist.metrics.gauges["match.worklist_edges"]
        assert gauge.n_sets == res.passes
        assert gauge.max == live[0] and gauge.min == live[-1]

    def test_sbm_2000_counts_are_pinned(self, sbm):
        g, scores = sbm
        rec = TraceRecorder()
        res = match_locally_dominant(g, scores, rec)
        assert res.passes == 85
        assert rec.total_items("match_pass") == 188501
        assert len(rec.by_name("match_pass")) == res.passes

    def test_rmat_10_counts_are_pinned(self):
        from repro.generators import rmat_graph

        g = rmat_graph(10, 16, seed=0)
        rec = TraceRecorder()
        res = match_locally_dominant(g, ModularityScorer().score(g), rec)
        assert res.passes == 10
        assert rec.total_items("match_pass") == 17757


class TestCursorRanking:
    """The cursor phase's per-vertex ranking against a Python oracle."""

    @staticmethod
    def priority(k):
        """The hashed tie-break priority, in Python integers."""
        p = (k * 0x9E3779B97F4A7C15) % 2**64
        return p - 2**64 if p >= 2**63 else p

    def test_multiplier_inverse(self):
        from repro.core.matching import _MIX_INVERSE, _MIX_MULTIPLIER

        assert (int(_MIX_MULTIPLIER) * int(_MIX_INVERSE)) % 2**64 == 1

    def test_priority_oracle_matches_kernel(self):
        from repro.core.matching import _edge_priority

        idx = np.array([0, 1, 2, 3, 1000, 2**31, 2**40 + 7], dtype=np.int64)
        assert _edge_priority(idx).tolist() == [self.priority(k) for k in idx.tolist()]

    def ranked_entries(self, g, scores, live):
        from repro.core.matching import _RankedIncidence

        inc = _RankedIncidence(g.edges, scores, live, g.n_vertices)
        return {
            v: list(zip(
                inc.edge[inc.cursor[v]:inc.end[v]].tolist(),
                inc.other[inc.cursor[v]:inc.end[v]].tolist(),
            ))
            for v in range(g.n_vertices)
        }

    def oracle_entries(self, g, scores, live):
        e = g.edges
        entries = {v: [] for v in range(g.n_vertices)}
        for k in live.tolist():
            i, j = int(e.ei[k]), int(e.ej[k])
            entries[i].append((k, j))
            entries[j].append((k, i))
        for v in entries:
            entries[v].sort(key=lambda t: (-scores[t[0]], self.priority(t[0])))
        return entries

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(4)
        i = rng.integers(0, 60, 900)
        j = rng.integers(0, 60, 900)
        keep = i != j
        return from_edges(i[keep], j[keep])

    @pytest.mark.parametrize(
        "case", ["all-equal", "two-scores", "distinct", "negative-priority"]
    )
    def test_entry_order_matches_python_sort(self, graph, case):
        rng = np.random.default_rng(9)
        m = graph.n_edges
        scores = {
            "all-equal": np.full(m, 0.5),
            "two-scores": rng.choice([0.25, 0.75], m),
            "distinct": rng.random(m) + 0.1,
            "negative-priority": rng.choice([0.25, 0.75], m),
        }[case]
        live = np.sort(rng.choice(m, m * 2 // 3, replace=False))
        if case == "negative-priority":
            live = np.array(
                [k for k in live.tolist() if self.priority(k) < 0], dtype=np.int64
            )
        prio = [self.priority(k) for k in live.tolist()]
        # Hashed priorities wrap negative (and, but for the last case,
        # also stay positive).
        assert min(prio) < 0 and (case == "negative-priority") == (max(prio) < 0)
        assert self.ranked_entries(graph, scores, live) == self.oracle_entries(
            graph, scores, live
        )
