"""Differential tests: vectorized kernels vs pure-Python references.

Exact agreement is required — both sides use the same total orders and
the same arithmetic, so any divergence is a vectorization bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ConductanceScorer,
    ModularityScorer,
    contract,
    contract_hash_chains,
    match_full_sweep,
    match_locally_dominant,
)
from repro.generators import planted_partition_graph
from repro.graph import from_edges
from repro.graph.csr import ShardedCSRStore
from repro.metrics import Partition, coverage, modularity
from repro.obs import Tracer
from repro.reference import (
    conductance_scores_ref,
    contract_ref,
    coverage_ref,
    greedy_matching_ref,
    locally_dominant_matching_ref,
    modularity_ref,
    modularity_scores_ref,
)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 25))
    m = draw(st.integers(1, 70))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    weighted = draw(st.booleans())
    if weighted:
        w = draw(
            hnp.arrays(
                np.float64, m, elements=st.floats(0.5, 8.0, allow_nan=False)
            )
        )
    else:
        w = None
    return from_edges(i, j, w, n_vertices=n)


class TestScoringDifferential:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_modularity_scores_identical(self, g):
        fast = ModularityScorer().score(g)
        slow = modularity_scores_ref(g)
        # Association order differs (bincount vs sequential sums), so
        # agreement is to ULP-scale tolerance, not bit-exact.
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_conductance_scores_identical(self, g):
        fast = ConductanceScorer().score(g)
        slow = conductance_scores_ref(g)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


class TestMatchingDifferential:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matching_identical(self, g):
        scores = ModularityScorer().score(g)
        fast = match_locally_dominant(g, scores)
        slow = locally_dominant_matching_ref(g, scores)
        np.testing.assert_array_equal(fast.partner, slow.partner)
        np.testing.assert_array_equal(fast.matched_edges, slow.matched_edges)
        assert fast.passes == slow.passes
        assert fast.failed_claims == slow.failed_claims

    def test_matching_identical_karate(self, karate):
        scores = ModularityScorer().score(karate)
        fast = match_locally_dominant(karate, scores)
        slow = locally_dominant_matching_ref(karate, scores)
        np.testing.assert_array_equal(fast.partner, slow.partner)


class TestCursorPhaseDifferential:
    """Graphs whose live set stops draining, so the worklist's cursor phase runs."""

    @staticmethod
    def traced(g, scores):
        """The worklist's result, and whether its cursor phase ran."""
        tr = Tracer()
        result = match_locally_dominant(g, scores, tracer=tr)
        spans = tr.find("match_pass")
        # Vectorized passes scan every live edge; cursor passes fewer.
        fired = sum(s.items for s in spans) < sum(
            s.attrs["live_edges"] for s in spans
        )
        return result, fired

    @staticmethod
    def check(g, scores, fires):
        fast, fired = TestCursorPhaseDifferential.traced(g, scores)
        assert fired == fires
        slow = locally_dominant_matching_ref(g, scores)
        np.testing.assert_array_equal(fast.partner, slow.partner)
        np.testing.assert_array_equal(fast.matched_edges, slow.matched_edges)
        assert fast.passes == slow.passes
        assert fast.failed_claims == slow.failed_claims
        np.testing.assert_array_equal(
            fast.matched_edges, greedy_matching_ref(g, scores)
        )

    # Seed 2 stops draining with 4.3k live edges, below the switch's
    # minimum residual, so it stays vectorized.
    @pytest.mark.parametrize("seed, fires", [(0, True), (1, True), (2, False)])
    def test_planted_partition_modularity(self, seed, fires):
        g = planted_partition_graph(2000, seed=seed)
        self.check(g, ModularityScorer().score(g), fires)

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_partition_equal_scores(self, seed):
        # All-equal scores drain in a few passes: no cursor phase.
        g = planted_partition_graph(2000, seed=seed)
        self.check(g, np.ones(g.n_edges), fires=False)

    def test_hub_skips_its_dead_entries(self):
        # A path matched one pair per pass from its heavy end, plus a hub
        # whose best edge goes to the path's light end and whose worst
        # goes to a leaf: every other hub entry dies while the best edge
        # is live, so the hub's cursor finally crosses thousands of dead
        # entries at once to reach the leaf.  The 2101 passes are too
        # many for the transcribed reference; the sweep kernel, which
        # never switches, and the greedy oracle stand in for it.
        m = 4200
        hub, leaf = m, m + 1
        path = np.arange(m)
        g = from_edges(
            np.concatenate([path[:-1], np.full(m + 1, hub)]),
            np.concatenate([path[1:], path, [leaf]]),
            np.concatenate([np.arange(1.0, m), 0.5 - 1e-5 * path, [0.1]]),
        )
        scores = g.edges.w.copy()
        fast, fired = self.traced(g, scores)
        assert fired
        sweep = match_full_sweep(g, scores)
        np.testing.assert_array_equal(fast.partner, sweep.partner)
        np.testing.assert_array_equal(fast.matched_edges, sweep.matched_edges)
        # The sweep's last pass only finds that no live edge is left.
        assert fast.passes == sweep.passes - 1
        assert fast.failed_claims == sweep.failed_claims
        np.testing.assert_array_equal(
            fast.matched_edges, greedy_matching_ref(g, scores)
        )
        assert fast.partner[hub] == leaf


class TestContractionDifferential:
    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_contraction_identical(self, g):
        scores = ModularityScorer().score(g)
        matching = match_locally_dominant(g, scores)
        fast, map_fast = contract(g, matching)
        slow, map_slow = contract_ref(g, matching)
        np.testing.assert_array_equal(map_fast, map_slow)
        np.testing.assert_array_equal(fast.edges.ei, slow.edges.ei)
        np.testing.assert_array_equal(fast.edges.ej, slow.edges.ej)
        # Both sides sum each duplicate group left to right in edge
        # order, so float weights agree bit for bit.
        np.testing.assert_array_equal(fast.edges.w, slow.edges.w)
        np.testing.assert_array_equal(fast.self_weights, slow.self_weights)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_contractors_bit_identical_over_levels(self, seed, tmp_path):
        # Float weights with many parallel edges: every contractor must
        # reproduce the reference's sequential sums exactly, level after
        # level, in memory and on the graph spilled into 8 windows (whose
        # duplicate groups straddle window boundaries).
        rng = np.random.default_rng(seed)
        n, m = 300, 3000
        g = from_edges(
            rng.integers(0, n, m),
            rng.integers(0, n, m),
            rng.random(m) * 7.0 + 0.1,
            n_vertices=n,
        )
        for level in range(4):
            matching = match_locally_dominant(g, ModularityScorer().score(g))
            ref, ref_map = contract_ref(g, matching)
            spilled = ShardedCSRStore.spill(
                g, tmp_path / f"level{level}", n_shards=8
            ).as_graph()
            for kernel, graph in (
                (contract, g),
                (contract_hash_chains, g),
                (contract, spilled),
                (contract_hash_chains, spilled),
            ):
                got, got_map = kernel(graph, matching)
                np.testing.assert_array_equal(got_map, ref_map)
                np.testing.assert_array_equal(got.edges.ei, ref.edges.ei)
                np.testing.assert_array_equal(got.edges.ej, ref.edges.ej)
                np.testing.assert_array_equal(got.edges.w, ref.edges.w)
                np.testing.assert_array_equal(
                    got.self_weights, ref.self_weights
                )
            g = ref


class TestMetricsDifferential:
    @given(graphs(), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_modularity_and_coverage(self, g, k):
        rng = np.random.default_rng(k)
        p = Partition.from_labels(rng.integers(0, k, g.n_vertices))
        assert modularity(g, p) == pytest.approx(
            modularity_ref(g, p), abs=1e-12
        )
        assert coverage(g, p) == pytest.approx(
            coverage_ref(g, p), abs=1e-12
        )
