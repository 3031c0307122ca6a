"""LevelSpiller unit tests: per-level spilling, the store chain, cleanup
and the degrade-to-memory fallback.

These drive :class:`~repro.graph.csr.LevelSpiller` directly, level by
level, without the engine.  End-to-end parity of spilled runs lives in
``tests/test_engine_parity.py`` (``TestShardedParity``) and the spill
chaos suite in ``tests/test_chaos_spill.py``.
"""

import gc
import logging

import numpy as np
import pytest

from repro.generators import (
    karate_club,
    planted_partition_graph,
    ring_of_cliques,
    rmat_graph,
    star_graph,
)
from repro.graph.build import from_edges
from repro.graph.csr import LevelSpiller, ShardedCSRStore
from repro.obs import Tracer
from repro.resilience import FaultPlan


def _with_self_loops():
    # self loops fold into self_weights, so the spill must carry them
    return from_edges(
        np.array([0, 0, 1, 2, 2, 3, 4]),
        np.array([0, 1, 2, 2, 3, 4, 0]),
        np.array([2.0, 1.0, 3.0, 0.5, 1.0, 4.0, 1.5]),
    )


GRAPHS = {
    "karate": karate_club,
    "cliques": lambda: ring_of_cliques(6, 5),
    "star": lambda: star_graph(12),
    "rmat": lambda: rmat_graph(6, 8, seed=3),
    "sbm": lambda: planted_partition_graph(300, seed=5),
    "self-loops": _with_self_loops,
}


def assert_graphs_identical(a, b):
    assert a.n_vertices == b.n_vertices
    assert a.n_edges == b.n_edges
    for name in ("ei", "ej", "w", "bucket_start", "bucket_end"):
        x, y = getattr(a.edges, name), getattr(b.edges, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.self_weights.dtype == b.self_weights.dtype
    np.testing.assert_array_equal(a.self_weights, b.self_weights)


def _level_dirs(spill_dir):
    return sorted(p.name for p in spill_dir.iterdir() if p.is_dir())


class TestConstruction:
    @pytest.mark.parametrize("n_shards", [0, -1, -16])
    def test_rejects_non_positive_shard_counts(self, n_shards, tmp_path):
        with pytest.raises(ValueError, match="n_shards"):
            LevelSpiller(tmp_path, n_shards=n_shards)

    @pytest.mark.parametrize("n_shards", [None, 1, 16])
    def test_accepts_shard_counts(self, n_shards, tmp_path):
        spill = LevelSpiller(tmp_path, n_shards=n_shards)
        assert spill.n_shards == n_shards
        assert spill.spill_dir == tmp_path

    def test_private_dir_is_a_fresh_temp_dir(self):
        spill = LevelSpiller()
        try:
            assert spill.spill_dir.is_dir()
            assert spill.spill_dir.name.startswith("repro-spill-")
            assert list(spill.spill_dir.iterdir()) == []
        finally:
            spill.release()

    def test_two_private_spillers_do_not_share_a_dir(self):
        a, b = LevelSpiller(), LevelSpiller()
        try:
            assert a.spill_dir != b.spill_dir
        finally:
            a.release()
            b.release()

    def test_missing_caller_dir_is_created(self, tmp_path):
        target = tmp_path / "nested" / "spill"
        LevelSpiller(target)
        assert target.is_dir()

    def test_accounting_starts_at_zero(self, tmp_path):
        spill = LevelSpiller(tmp_path)
        assert spill.spilled_levels == 0
        assert spill.spilled_bytes == 0
        assert spill.spill_failures == 0
        assert spill.open_level_stores == 0


class TestPrepareLevel:
    @pytest.mark.parametrize("n_shards", [1, 3, 64])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_twin_is_value_identical(self, name, n_shards, tmp_path):
        graph = GRAPHS[name]()
        spill = LevelSpiller(tmp_path, n_shards=n_shards)
        twin = spill.prepare_level(graph, 0)
        assert twin is not graph
        assert isinstance(twin.spill_store, ShardedCSRStore)
        assert_graphs_identical(graph, twin)
        spill.release()

    @pytest.mark.parametrize("n_shards", [1, 2, 5, 16])
    def test_store_shard_table_tiles_the_edges(self, n_shards, tmp_path):
        graph = karate_club()
        spill = LevelSpiller(tmp_path, n_shards=n_shards)
        store = spill.prepare_level(graph, 0).spill_store
        assert store.n_shards == n_shards
        assert store.shard_ranges[0][0] == 0
        assert store.shard_ranges[-1][1] == graph.n_edges
        for (_, hi), (lo, _) in zip(store.shard_ranges, store.shard_ranges[1:]):
            assert hi == lo
        spill.release()

    @pytest.mark.parametrize(
        "level, dirname",
        [(0, "level_00000"), (7, "level_00007"), (12345, "level_12345")],
    )
    def test_level_directory_is_named_by_level(self, level, dirname, tmp_path):
        spill = LevelSpiller(tmp_path)
        twin = spill.prepare_level(karate_club(), level)
        assert twin.spill_store.directory == tmp_path / dirname
        assert _level_dirs(tmp_path) == [dirname]
        spill.release()

    def test_already_spilled_graph_is_returned_unchanged(self, tmp_path):
        spill = LevelSpiller(tmp_path)
        twin = spill.prepare_level(karate_club(), 0)
        again = spill.prepare_level(twin, 1)
        assert again is twin
        assert spill.spilled_levels == 1
        assert _level_dirs(tmp_path) == ["level_00000"]
        spill.release()

    def test_graph_spilled_elsewhere_is_not_respilled(self, tmp_path):
        store = ShardedCSRStore.spill(karate_club(), tmp_path / "input")
        spill = LevelSpiller(tmp_path / "levels")
        graph = store.as_graph()
        assert spill.prepare_level(graph, 0) is graph
        assert spill.spilled_levels == 0
        assert spill.open_level_stores == 0
        store.cleanup()

    def test_accounting_sums_every_spilled_store(self, tmp_path):
        spill = LevelSpiller(tmp_path)
        sizes = []
        for level, graph in enumerate(
            [karate_club(), ring_of_cliques(4, 4), star_graph(5)]
        ):
            sizes.append(spill.prepare_level(graph, level).spill_store.nbytes)
        assert spill.spilled_levels == 3
        assert spill.spilled_bytes == sum(sizes)
        assert all(n > 0 for n in sizes)
        spill.release()

    def test_spill_is_traced(self, tmp_path):
        tracer = Tracer()
        graph = karate_club()
        spill = LevelSpiller(tmp_path, n_shards=4)
        store = spill.prepare_level(graph, 3, tracer=tracer).spill_store
        (span,) = [s for s in tracer.spans if s.name == "spill_level"]
        assert span.level == 3
        assert span.attrs["n_vertices"] == graph.n_vertices
        assert span.attrs["n_edges"] == graph.n_edges
        assert span.attrs["bytes"] == store.nbytes
        assert span.attrs["n_shards"] == 4
        assert span.attrs["path"] == str(tmp_path / "level_00003")
        assert span.items == graph.n_edges
        assert "failed" not in span.attrs
        assert tracer.metrics.counter("spill.levels").value == 1
        assert tracer.metrics.counter("spill.bytes_written").value == (
            store.nbytes
        )
        spill.release()

    def test_edgeless_graph_spills_one_empty_shard(self, tmp_path):
        graph = from_edges(np.array([0, 1]), np.array([0, 1]), n_vertices=4)
        assert graph.n_edges == 0
        spill = LevelSpiller(tmp_path)
        twin = spill.prepare_level(graph, 0)
        assert twin.spill_store.shard_ranges == [(0, 0)]
        assert_graphs_identical(graph, twin)
        spill.release()


class TestStoreChain:
    @pytest.mark.parametrize("n_levels", [1, 2, 3, 5])
    def test_only_the_newest_level_store_survives(self, n_levels, tmp_path):
        spill = LevelSpiller(tmp_path)
        for level in range(n_levels):
            spill.prepare_level(ring_of_cliques(3 + level, 4), level)
            assert spill.open_level_stores == 1
        assert _level_dirs(tmp_path) == [f"level_{n_levels - 1:05d}"]
        spill.release()

    def test_dropped_store_stays_readable_through_its_twin(self, tmp_path):
        # POSIX keeps mapped pages valid after unlink: the previous level's
        # twin (e.g. the graph being contracted) may still be read.
        graph = karate_club()
        spill = LevelSpiller(tmp_path)
        first = spill.prepare_level(graph, 0)
        spill.prepare_level(star_graph(6), 1)
        assert not (tmp_path / "level_00000").exists()
        assert_graphs_identical(graph, first)
        spill.release()

    def test_twin_of_previous_level_is_respilled(self, tmp_path):
        # A graph derived from an earlier twin (no spill store of its own)
        # gets a new store; the old one goes.
        spill = LevelSpiller(tmp_path)
        first = spill.prepare_level(karate_club(), 0)
        derived = from_edges(first.edges.ei, first.edges.ej, first.edges.w)
        second = spill.prepare_level(derived, 1)
        assert second.spill_store is not first.spill_store
        assert _level_dirs(tmp_path) == ["level_00001"]
        assert_graphs_identical(derived, second)
        spill.release()


class TestRelease:
    def test_release_removes_the_private_dir(self):
        spill = LevelSpiller()
        spill.prepare_level(karate_club(), 0)
        directory = spill.spill_dir
        spill.release()
        assert not directory.exists()
        assert spill.open_level_stores == 0

    def test_release_keeps_the_caller_dir_but_drops_stores(self, tmp_path):
        (tmp_path / "unrelated.txt").write_text("keep me")
        spill = LevelSpiller(tmp_path)
        spill.prepare_level(karate_club(), 0)
        spill.release()
        assert tmp_path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["unrelated.txt"]
        assert spill.open_level_stores == 0

    def test_release_is_idempotent(self, tmp_path):
        spill = LevelSpiller(tmp_path)
        spill.prepare_level(karate_club(), 0)
        spill.release()
        spill.release()
        assert _level_dirs(tmp_path) == []

    def test_release_without_a_spill(self):
        spill = LevelSpiller()
        spill.release()
        assert not spill.spill_dir.exists()

    @pytest.mark.parametrize("private", [True, False])
    def test_spiller_is_reusable_after_release(self, private, tmp_path):
        spill = LevelSpiller(None if private else tmp_path)
        spill.prepare_level(karate_club(), 0)
        spill.release()
        graph = ring_of_cliques(4, 4)
        twin = spill.prepare_level(graph, 0)
        assert_graphs_identical(graph, twin)
        assert spill.spilled_levels == 2
        spill.release()

    def test_private_dir_removed_when_collected(self):
        spill = LevelSpiller()
        spill.prepare_level(karate_club(), 0)
        directory = spill.spill_dir
        del spill
        gc.collect()
        assert not directory.exists()

    def test_caller_dir_survives_collection(self, tmp_path):
        spill = LevelSpiller(tmp_path)
        spill.prepare_level(karate_club(), 0)
        del spill
        gc.collect()
        assert tmp_path.is_dir()


class TestSpillFailures:
    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_enospc_level_runs_in_memory(self, failing, tmp_path):
        faults = FaultPlan.enospc_on_spill("spill-graph", [failing])
        spill = LevelSpiller(tmp_path, faults=faults)
        graphs = [karate_club(), ring_of_cliques(4, 4), star_graph(7)]
        for level, graph in enumerate(graphs):
            out = spill.prepare_level(graph, level)
            if level == failing:
                assert out is graph
                assert getattr(out, "spill_store", None) is None
            else:
                assert out.spill_store is not None
                assert_graphs_identical(graph, out)
        assert spill.spill_failures == 1
        assert spill.spilled_levels == 2
        spill.release()

    def test_torn_store_runs_in_memory(self, tmp_path):
        faults = FaultPlan.tear_spill("spill-graph", [0])
        spill = LevelSpiller(tmp_path, faults=faults)
        graph = karate_club()
        assert spill.prepare_level(graph, 0) is graph
        assert spill.spill_failures == 1
        assert spill.spilled_levels == 0
        assert spill.spilled_bytes == 0
        spill.release()

    @pytest.mark.parametrize(
        "faults, error",
        [
            (FaultPlan.enospc_on_spill("spill-graph", [0]), "OSError"),
            (FaultPlan.tear_spill("spill-graph", [0]), "SpillError"),
        ],
        ids=["enospc", "torn"],
    )
    def test_failure_is_traced(self, faults, error, tmp_path):
        tracer = Tracer()
        spill = LevelSpiller(tmp_path, faults=faults)
        spill.prepare_level(karate_club(), 0, tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "spill_level"]
        assert span.attrs["failed"].startswith(f"{error}:")
        assert "bytes" not in span.attrs
        assert tracer.metrics.counter("spill.failures").value == 1
        assert tracer.metrics.counter("spill.levels").value == 0
        spill.release()

    @pytest.mark.parametrize(
        "faults",
        [
            FaultPlan.enospc_on_spill("spill-graph", [0]),
            FaultPlan.tear_spill("spill-graph", [0]),
        ],
        ids=["enospc", "torn"],
    )
    def test_failed_level_leaves_no_directory(self, faults, tmp_path):
        spill = LevelSpiller(tmp_path, faults=faults)
        spill.prepare_level(karate_club(), 0)
        assert _level_dirs(tmp_path) == []
        assert spill.open_level_stores == 0
        spill.release()

    def test_failure_keeps_the_previous_store(self, tmp_path):
        faults = FaultPlan.enospc_on_spill("spill-graph", [1])
        spill = LevelSpiller(tmp_path, faults=faults)
        first = spill.prepare_level(karate_club(), 0)
        spill.prepare_level(star_graph(5), 1)
        assert _level_dirs(tmp_path) == ["level_00000"]
        assert spill.open_level_stores == 1
        assert_graphs_identical(karate_club(), first)
        spill.prepare_level(ring_of_cliques(3, 3), 2)
        assert _level_dirs(tmp_path) == ["level_00002"]
        spill.release()

    def test_failure_logs_a_warning(self, tmp_path, caplog):
        faults = FaultPlan.enospc_on_spill("spill-graph", [4])
        spill = LevelSpiller(tmp_path, faults=faults)
        with caplog.at_level(logging.WARNING, logger="repro.graph.csr"):
            spill.prepare_level(karate_club(), 4)
        assert "spill of level 4 failed" in caplog.text
        assert "in-memory" in caplog.text
        spill.release()

    def test_faults_for_other_artifacts_are_ignored(self, tmp_path):
        faults = FaultPlan.enospc_on_spill("checkpoint", [0])
        spill = LevelSpiller(tmp_path, faults=faults)
        twin = spill.prepare_level(karate_club(), 0)
        assert twin.spill_store is not None
        assert spill.spill_failures == 0
        spill.release()
