"""Tests for the streaming detection service (stream/service.py)."""

import numpy as np
import pytest

from repro.errors import StreamStateError
from repro.metrics import Partition
from repro.stream.service import (
    CRASH_POINTS,
    DetectionService,
    StreamConfig,
)
from repro.stream.wal import KIND_RERUN


def _cfg(**kw):
    kw.setdefault("snapshot_every", 4)
    return StreamConfig(**kw)


def _two_blocks(rng, n=12, m=20):
    """Random intra-block edges over two planted blocks of n//2."""
    half = n // 2
    i = rng.integers(0, half, size=m)
    j = rng.integers(0, half, size=m)
    block = rng.integers(0, 2, size=m) * half
    return i + block, j + block


def _feed(svc, n_batches=6, seed=0, n=12):
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_batches):
        i, j = _two_blocks(rng, n=n)
        results.append(svc.ingest(i, j))
    return results


class TestIngest:
    def test_bootstrap_builds_partition(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            res = _feed(svc, n_batches=1)[0]
            assert res.applied and res.seq == 1
            assert svc.labels is not None
            assert len(svc.labels) == svc.n_vertices
            Partition(svc.labels)  # dense

    def test_exactly_once_redelivery_is_noop(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=2)
            before = svc.labels.copy()
            res = svc.ingest(
                np.array([0]), np.array([1]), seq=1  # already applied
            )
            assert not res.applied
            np.testing.assert_array_equal(svc.labels, before)

    def test_sequence_gap_rejected(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=1)
            with pytest.raises(ValueError, match="gap"):
                svc.ingest(np.array([0]), np.array([1]), seq=5)

    def test_ingest_requires_open(self, tmp_path):
        svc = DetectionService(tmp_path, _cfg())
        with pytest.raises(StreamStateError, match="open"):
            svc.ingest(np.array([0]), np.array([1]))

    def test_timeline_records_every_batch(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=3)
            assert svc.timeline.n_batches == 3
            assert [s.seq for s in svc.timeline.batches] == [1, 2, 3]
            assert all(np.isfinite(s.modularity) for s in svc.timeline.batches)


class TestRecovery:
    def test_clean_reopen_restores_identical_state(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=5)
            labels = svc.labels.copy()
            store = svc.store.copy()
        with DetectionService(tmp_path, _cfg()) as svc2:
            svc2.open()
            np.testing.assert_array_equal(svc2.labels, labels)
            assert svc2.store.equals(store)
            assert svc2.batch_seq == 5

    def test_crash_replay_is_bit_identical(self, tmp_path):
        # Reference: uninterrupted run.
        ref = DetectionService(tmp_path / "ref", _cfg())
        ref.open()
        _feed(ref, n_batches=6)
        ref_labels = ref.labels.copy()
        ref.close()

        # Crashed run: same batches, but the process "dies" before any
        # close()-time snapshot — recovery must replay the WAL tail.
        svc = DetectionService(tmp_path / "crash", _cfg())
        svc.open()
        _feed(svc, n_batches=6)
        svc.wal.close()  # simulate losing the process, not the disk

        svc2 = DetectionService(tmp_path / "crash", _cfg())
        svc2.open()
        assert svc2.report.wal_replayed > 0
        np.testing.assert_array_equal(svc2.labels, ref_labels)
        assert svc2.batch_seq == 6
        svc2.close()

    def test_recovery_gap_is_typed_error(self, tmp_path):
        # Snapshots at batch 2 and 4 truncate the journal's prefix; if
        # the snapshots are then lost, the surviving tail starts past
        # sequence one and no consistent state can be rebuilt.
        svc = DetectionService(tmp_path, _cfg(snapshot_every=2))
        svc.open()
        _feed(svc, n_batches=5)
        svc.wal.close()
        for p in (tmp_path / "snapshots").glob("snap_*.npz"):
            p.unlink()
        svc2 = DetectionService(tmp_path, _cfg(snapshot_every=2))
        with pytest.raises(StreamStateError, match="gap"):
            svc2.open()


class TestDegradation:
    def test_drift_triggers_journaled_rerun(self, tmp_path):
        cfg = _cfg(drift_threshold=0.02, snapshot_every=100)
        with DetectionService(tmp_path, cfg) as svc:
            svc.open()
            rng = np.random.default_rng(0)
            i, j = _two_blocks(rng, n=12, m=40)
            svc.ingest(i, j)
            # Destroy the planted structure: dense random cross edges.
            i2 = rng.integers(0, 12, size=80)
            j2 = rng.integers(0, 12, size=80)
            res = svc.ingest(i2, j2)
            assert res.rerun == "drift"
            assert svc.report.stream_reruns >= 1
            assert any("drift" in rung for rung in svc.report.ladder)
            kinds = [r.kind for r in svc.wal.records()]
            assert KIND_RERUN in kinds  # the decision was journaled

    def test_deadline_triggers_rerun(self, tmp_path):
        cfg = _cfg(repair_deadline_s=1e-9, snapshot_every=100)
        with DetectionService(tmp_path, cfg) as svc:
            svc.open()
            _feed(svc, n_batches=1)  # bootstrap never drifts
            res = _feed(svc, n_batches=1, seed=1)[0]
            assert res.rerun == "deadline"
            assert any("deadline" in rung for rung in svc.report.ladder)

    def test_rerun_decisions_replay_identically(self, tmp_path):
        # The deadline trigger is wall-clock — the control record, not
        # the clock, must drive replay.
        cfg = _cfg(repair_deadline_s=1e-9, snapshot_every=100)
        svc = DetectionService(tmp_path / "a", cfg)
        svc.open()
        _feed(svc, n_batches=4)
        labels = svc.labels.copy()
        svc.wal.close()

        # Recover with the deadline *disabled*: only journaled control
        # records can reproduce the reruns.
        svc2 = DetectionService(tmp_path / "a", _cfg(snapshot_every=100))
        svc2.open()
        np.testing.assert_array_equal(svc2.labels, labels)
        assert svc2.report.stream_reruns > 0
        svc2.close()


class TestVerifyAndFaults:
    def test_verify_passes_on_healthy_state(self, tmp_path):
        with DetectionService(tmp_path, _cfg()) as svc:
            svc.open()
            _feed(svc, n_batches=3)
            outcome = svc.verify()
            assert outcome["ok"], outcome["checks"]

    def test_crash_points_are_registered_fault_points(self):
        from repro.resilience.faults import FaultPlan

        for point in CRASH_POINTS:
            plan = FaultPlan.sigkill_at(point, [0])
            assert plan.decide_service(point, 0) is not None
            assert plan.decide_service(point, 1) is None


class TestIncrementalVsScratch:
    """After a drifting replay the incremental answer stays near scratch."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_final_modularity_within_epsilon_of_scratch(self, tmp_path, seed):
        from repro.core import TerminationCriteria, detect_communities
        from repro.metrics import modularity
        from repro.stream import generate_edge_log, read_edge_log

        log = generate_edge_log(
            tmp_path / "edges.log",
            n_batches=60,
            batch_size=128,
            n_vertices=1000,
            n_blocks=20,
            drift_every=20,
            p_delete=0.15,
            seed=seed,
        )
        svc = DetectionService(tmp_path / "svc", StreamConfig())
        svc.open()
        try:
            results = [
                svc.ingest(i, j, w, op) for _, i, j, w, op in read_edge_log(log)
            ]
            graph = svc.store.as_graph()
            q_stream = modularity(graph, svc.partition)
            reruns = svc.report.stream_reruns
        finally:
            svc.close()
        scratch = detect_communities(
            graph, termination=TerminationCriteria.local_maximum()
        )
        assert reruns >= 1
        # The bound must cover a long incremental tail, not a fresh rerun.
        last_rerun = max(k for k, r in enumerate(results) if r.rerun)
        assert len(results) - 1 - last_rerun >= 40
        assert abs(q_stream - modularity(graph, scratch.partition)) <= 0.02
