"""The GMM-style streamed matching passes and the other streamed phases.

:func:`repro.core.matching._streamed_passes` replays the vectorized
matching passes edge-window-at-a-time; it is what both matchers run on a
spilled graph.  These tests pin its bit-identity to the in-memory
matchers across window caps, and the spilled-versus-in-memory parity of
scoring and of both contractors.
"""

import numpy as np
import pytest

from repro.core.contraction import contract, contract_hash_chains
from repro.core.matching import (
    _streamed_passes,
    match_full_sweep,
    match_locally_dominant,
)
from repro.core.scoring import (
    ConductanceScorer,
    ModularityScorer,
    WeightScorer,
)
from repro.generators import planted_partition_graph, rmat_graph
from repro.graph.csr import ShardedCSRStore
from repro.platform.kernels import TraceRecorder


@pytest.fixture(scope="module")
def sbm():
    return planted_partition_graph(500, seed=5)


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(7, 8, seed=13)


@pytest.fixture
def spilled(sbm, tmp_path):
    store = ShardedCSRStore.spill(sbm, tmp_path / "store", n_shards=8)
    yield store.as_graph()
    store.cleanup()


def scored(graph):
    return ModularityScorer().score(graph)


def assert_matchings_identical(a, b):
    np.testing.assert_array_equal(a.partner, b.partner)
    np.testing.assert_array_equal(a.matched_edges, b.matched_edges)
    assert a.passes == b.passes
    assert a.failed_claims == b.failed_claims


class TestGmmMatcherParity:
    @pytest.mark.parametrize("fixture", ["sbm", "rmat"])
    def test_matches_worklist_bitwise(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        scores = scored(graph)
        base = match_locally_dominant(graph, scores)
        gmm = _streamed_passes(graph, scores, shard_edges=100)
        assert_matchings_identical(base, gmm)

    @pytest.mark.parametrize("shard_edges", [1, 7, 64, 10_000])
    def test_cap_never_changes_the_matching(self, sbm, shard_edges):
        scores = scored(sbm)
        base = match_locally_dominant(sbm, scores)
        capped = _streamed_passes(sbm, scores, shard_edges=shard_edges)
        assert_matchings_identical(base, capped)

    @pytest.mark.parametrize("shard_edges", [7, 10_000])
    def test_sweep_mode_matches_sweep_and_its_profile(self, sbm, shard_edges):
        scores = scored(sbm)
        base_rec, streamed_rec = TraceRecorder(), TraceRecorder()
        base = match_full_sweep(sbm, scores, base_rec)
        streamed = _streamed_passes(
            sbm,
            scores,
            streamed_rec,
            legacy_sweep=True,
            shard_edges=shard_edges,
        )
        assert_matchings_identical(base, streamed)
        assert streamed_rec.records == base_rec.records

    def test_worklist_profile_matches(self, sbm):
        scores = scored(sbm)
        base_rec, streamed_rec = TraceRecorder(), TraceRecorder()
        match_locally_dominant(sbm, scores, base_rec)
        _streamed_passes(sbm, scores, streamed_rec, shard_edges=64)
        assert streamed_rec.records == base_rec.records

    def test_negative_scores_yield_empty_matching(self, sbm):
        scores = np.full(sbm.n_edges, -1.0)
        result = _streamed_passes(sbm, scores)
        assert len(result.matched_edges) == 0

    def test_max_passes_guard(self, sbm):
        scores = scored(sbm)
        with pytest.raises(Exception):
            _streamed_passes(sbm, scores, max_passes=0)

    @pytest.mark.parametrize("matcher", [match_locally_dominant, match_full_sweep])
    def test_spilled_graph_streams(self, sbm, spilled, matcher):
        scores = scored(sbm)
        assert_matchings_identical(
            matcher(sbm, scores), matcher(spilled, scores)
        )
        # The live mask's scratch is gone once the call returns.
        assert not (spilled.spill_store.directory / "scratch-match").exists()


class TestStreamingKernelParity:
    @pytest.mark.parametrize(
        "scorer", [ModularityScorer, ConductanceScorer, WeightScorer]
    )
    def test_spilled_scores_match_in_memory(self, sbm, spilled, scorer):
        base = scorer().score(sbm)
        streamed = scorer().score(spilled)
        assert isinstance(streamed, np.memmap)
        np.testing.assert_array_equal(base, np.asarray(streamed))

    @pytest.mark.parametrize("kernel", [contract, contract_hash_chains])
    def test_spilled_contraction_matches_in_memory(
        self, sbm, spilled, kernel
    ):
        matching = match_locally_dominant(sbm, scored(sbm))
        base_rec, shard_rec = TraceRecorder(), TraceRecorder()
        base_g, base_map = kernel(sbm, matching, base_rec)
        shard_g, shard_map = kernel(spilled, matching, shard_rec)
        np.testing.assert_array_equal(base_map, shard_map)
        np.testing.assert_array_equal(base_g.edges.ei, shard_g.edges.ei)
        np.testing.assert_array_equal(base_g.edges.ej, shard_g.edges.ej)
        np.testing.assert_array_equal(base_g.edges.w, shard_g.edges.w)
        np.testing.assert_array_equal(
            base_g.edges.bucket_start, shard_g.edges.bucket_start
        )
        np.testing.assert_array_equal(
            base_g.self_weights, shard_g.self_weights
        )
        assert shard_rec.records == base_rec.records
        assert not (spilled.spill_store.directory / "scratch-contract").exists()
