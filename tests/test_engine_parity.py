"""Golden parity: the engine, the legacy wrapper, and spilled runs
produce bit-identical partitions and dendrograms.

``detect_communities`` is a compatibility wrapper over
:class:`~repro.core.engine.AgglomerationEngine`; these tests pin that
the wrapper, a hand-built engine run, runs that spill every level and
checkpoint resume all agree exactly — partitions,
dendrogram maps, per-level stats and termination reason — on seeded
RMAT and planted-partition (SBM) workloads across every
matcher × contractor × scorer combination.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import (
    AgglomerationEngine,
    RunContext,
    TerminationCriteria,
    detect_communities,
)
from repro.core.matching import _streamed_passes
from repro.generators import (
    barabasi_albert_graph,
    karate_club,
    lfr_graph,
    planted_partition_graph,
    ring_of_cliques,
    rmat_graph,
    webgraph,
)
from repro.graph.csr import LevelSpiller, ShardedCSRStore
from repro.platform.kernels import TraceRecorder

MATCHERS = ["worklist", "sweep"]
CONTRACTORS = ["bucket", "chains"]
SCORERS = ["modularity", "conductance", "weight"]


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(7, 8, seed=11)


@pytest.fixture(scope="module")
def sbm():
    return planted_partition_graph(600, seed=7)


def assert_runs_identical(a, b):
    """Bit-identical outcomes: partition, dendrogram, stats, termination."""
    np.testing.assert_array_equal(a.partition.labels, b.partition.labels)
    assert len(a.dendrogram.maps) == len(b.dendrogram.maps)
    for ma, mb in zip(a.dendrogram.maps, b.dendrogram.maps):
        np.testing.assert_array_equal(ma, mb)
    assert a.levels == b.levels
    assert a.terminated_by == b.terminated_by
    assert a.scorer_name == b.scorer_name


class TestWrapperEngineParity:
    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("contractor", CONTRACTORS)
    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_all_kernel_combos_rmat(self, rmat, matcher, contractor, scorer):
        legacy = detect_communities(
            rmat, scorer, matcher=matcher, contractor=contractor
        )
        engine = AgglomerationEngine(
            scorer, matcher=matcher, contractor=contractor
        )
        direct = engine.run(rmat)
        assert_runs_identical(legacy, direct)

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("contractor", CONTRACTORS)
    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_all_kernel_combos_sbm(self, sbm, matcher, contractor, scorer):
        legacy = detect_communities(
            sbm, scorer, matcher=matcher, contractor=contractor
        )
        engine = AgglomerationEngine(
            scorer, matcher=matcher, contractor=contractor
        )
        direct = engine.run(sbm)
        assert_runs_identical(legacy, direct)

    def test_termination_criteria_pass_through(self, rmat):
        crit = TerminationCriteria(min_communities=5, max_levels=2)
        legacy = detect_communities(rmat, termination=crit)
        direct = AgglomerationEngine(termination=crit).run(rmat)
        assert_runs_identical(legacy, direct)

    def test_engine_is_reusable_and_deterministic(self, sbm):
        engine = AgglomerationEngine(matcher="sweep", contractor="chains")
        first = engine.run(sbm)
        second = engine.run(sbm)
        assert_runs_identical(first, second)


class TestShardedParity:
    """The out-of-core path never changes results, only residency."""

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_sharded_backend_matches_serial(self, sbm, scorer, tmp_path):
        base = detect_communities(sbm, scorer)
        spill = LevelSpiller(tmp_path, n_shards=4)
        sharded = detect_communities(sbm, scorer, spill=spill)
        assert spill.spilled_levels > 0, "run must actually spill"
        spill.release()
        assert_runs_identical(base, sharded)

    def test_sharded_backend_matches_serial_rmat(self, rmat, tmp_path):
        base = detect_communities(rmat)
        spill = LevelSpiller(tmp_path, n_shards=3)
        sharded = detect_communities(rmat, spill=spill)
        spill.release()
        assert_runs_identical(base, sharded)

    @pytest.mark.parametrize("contractor", CONTRACTORS)
    @pytest.mark.parametrize("matcher", MATCHERS)
    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("n_shards", [1, 2, 16])
    def test_shard_count_never_changes_results(
        self, sbm, n_shards, scorer, matcher, contractor, tmp_path
    ):
        kernels = dict(matcher=matcher, contractor=contractor)
        base_rec = TraceRecorder()
        base = detect_communities(sbm, scorer, recorder=base_rec, **kernels)
        spill = LevelSpiller(tmp_path, n_shards=n_shards)
        sharded_rec = TraceRecorder()
        sharded = detect_communities(
            sbm, scorer, spill=spill, recorder=sharded_rec, **kernels
        )
        assert spill.spilled_levels > 0, "run must actually spill"
        spill.release()
        assert_runs_identical(base, sharded)
        assert sharded_rec.records == base_rec.records

    @pytest.mark.parametrize(
        "make",
        [
            karate_club,
            partial(ring_of_cliques, 12, 6),
            partial(barabasi_albert_graph, 400, 3, seed=1),
            partial(lfr_graph, 400, seed=2),
            partial(webgraph, 400, seed=3),
        ],
        ids=["karate", "cliques", "ba", "lfr", "webgraph"],
    )
    def test_every_graph_family_spills_identically(self, make, tmp_path):
        graph = make()
        base_rec = TraceRecorder()
        base = detect_communities(graph, recorder=base_rec)
        spill = LevelSpiller(tmp_path, n_shards=5)
        sharded_rec = TraceRecorder()
        sharded = detect_communities(graph, spill=spill, recorder=sharded_rec)
        assert spill.spilled_levels >= sharded.n_levels
        spill.release()
        assert_runs_identical(base, sharded)
        assert sharded_rec.records == base_rec.records

    @pytest.mark.parametrize(
        "criteria",
        [
            dict(max_levels=2),
            dict(min_communities=40),
            dict(coverage=0.3),
            dict(max_community_size=8),
            dict(coverage=None, min_merge_fraction=0.2),
        ],
        ids=[
            "max_levels",
            "min_communities",
            "coverage",
            "max_size",
            "merge_fraction",
        ],
    )
    def test_termination_criteria_hold_when_spilled(
        self, sbm, criteria, tmp_path
    ):
        crit = TerminationCriteria(**criteria)
        base = detect_communities(sbm, termination=crit)
        spill = LevelSpiller(tmp_path, n_shards=4)
        sharded = detect_communities(sbm, termination=crit, spill=spill)
        spill.release()
        assert_runs_identical(base, sharded)

    def test_streamed_matcher_matches_worklist(self, sbm):
        base = detect_communities(sbm, matcher="worklist")
        streamed = detect_communities(
            sbm, matcher=partial(_streamed_passes, shard_edges=256)
        )
        assert_runs_identical(base, streamed)

    def test_spilled_input_streams_without_sharded_backend(
        self, sbm, tmp_path
    ):
        # Out-of-core is a property of the graph: a spilled level-0 graph
        # streams without a spiller too (later levels run in memory).
        base = detect_communities(sbm)
        store = ShardedCSRStore.spill(sbm, tmp_path / "g", n_shards=16)
        spilled = detect_communities(store.as_graph())
        store.cleanup()
        assert_runs_identical(base, spilled)

    def test_keeps_at_most_two_level_stores(self, sbm, tmp_path):
        spill = LevelSpiller(tmp_path)
        result = detect_communities(sbm, spill=spill)
        assert result.n_levels > 2, "fixture must produce a multi-level run"
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert len(remaining) <= 2
        spill.release()
        assert list(tmp_path.iterdir()) == []


class TestResumeParity:
    def test_mid_run_resume_matches_uninterrupted(self, rmat, tmp_path):
        full = AgglomerationEngine().run(rmat)
        assert full.n_levels > 1, "fixture must produce a multi-level run"

        interrupted = AgglomerationEngine(
            termination=TerminationCriteria(max_levels=1)
        )
        ctx = RunContext.create(checkpoint_dir=tmp_path)
        interrupted.run(rmat, ctx)

        resume_ctx = RunContext.create(checkpoint_dir=tmp_path)
        resumed = AgglomerationEngine().run(rmat, resume_ctx, resume=True)
        assert resumed.recovery.resumed_from_level == 1
        assert_runs_identical(full, resumed)

    def test_resume_through_wrapper_matches_engine(self, rmat, tmp_path):
        detect_communities(
            rmat,
            termination=TerminationCriteria(max_levels=1),
            checkpoint_dir=tmp_path,
        )
        via_wrapper = detect_communities(
            rmat, checkpoint_dir=tmp_path, resume=True
        )
        full = detect_communities(rmat)
        assert_runs_identical(full, via_wrapper)
