"""Golden parity: the engine, the legacy wrapper, and every backend
produce bit-identical partitions and dendrograms.

``detect_communities`` is a compatibility wrapper over
:class:`~repro.core.engine.AgglomerationEngine`; these tests pin that
the wrapper, a hand-built engine run, and runs across execution
backends and checkpoint resume all agree exactly — partitions,
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
from repro.generators import planted_partition_graph, rmat_graph
from repro.graph.csr import ShardedCSRStore
from repro.parallel.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ShardedBackend,
)
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


class TestBackendParity:
    def test_serial_backend_matches_default(self, sbm):
        base = detect_communities(sbm)
        serial = detect_communities(sbm, backend=SerialBackend())
        assert_runs_identical(base, serial)

    def test_process_pool_matches_serial(self, sbm):
        base = detect_communities(sbm)
        pooled = detect_communities(sbm, backend=ProcessPoolBackend(2))
        assert_runs_identical(base, pooled)

    def test_backend_by_name(self, sbm):
        base = detect_communities(sbm)
        named = detect_communities(sbm, backend="serial")
        assert_runs_identical(base, named)


class TestShardedParity:
    """The out-of-core path never changes results, only residency."""

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_sharded_backend_matches_serial(self, sbm, scorer, tmp_path):
        base = detect_communities(sbm, scorer)
        backend = ShardedBackend(spill_dir=tmp_path, n_shards=4)
        sharded = detect_communities(sbm, scorer, backend=backend)
        assert backend.spilled_levels > 0, "run must actually spill"
        backend.release()
        assert_runs_identical(base, sharded)

    def test_sharded_backend_matches_serial_rmat(self, rmat, tmp_path):
        base = detect_communities(rmat)
        backend = ShardedBackend(spill_dir=tmp_path, n_shards=3)
        sharded = detect_communities(rmat, backend=backend)
        backend.release()
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
        backend = ShardedBackend(spill_dir=tmp_path, n_shards=n_shards)
        sharded_rec = TraceRecorder()
        sharded = detect_communities(
            sbm, scorer, backend=backend, recorder=sharded_rec, **kernels
        )
        assert backend.spilled_levels > 0, "run must actually spill"
        backend.release()
        assert_runs_identical(base, sharded)
        assert sharded_rec.records == base_rec.records

    def test_sharded_backend_by_name(self, sbm):
        base = detect_communities(sbm)
        named = detect_communities(sbm, backend="sharded")
        assert_runs_identical(base, named)

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
        # streams on the serial backend too (later levels run in memory).
        base = detect_communities(sbm)
        store = ShardedCSRStore.spill(sbm, tmp_path / "g", n_shards=16)
        spilled = detect_communities(store.as_graph())
        store.cleanup()
        assert_runs_identical(base, spilled)

    def test_keeps_at_most_two_level_stores(self, sbm, tmp_path):
        backend = ShardedBackend(spill_dir=tmp_path)
        result = detect_communities(sbm, backend=backend)
        assert result.n_levels > 2, "fixture must produce a multi-level run"
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert len(remaining) <= 2
        backend.release()
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
