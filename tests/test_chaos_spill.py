"""Out-of-core chaos suite: spills under pressure, disk faults, resume.

Three failure surfaces of the spill path, all driven through the real
engine with deterministic faults:

* **The spill rung.**  Injected ballast breaches the memory budget of a
  guardian armed with ``spill_dir`` — the run must migrate onto the
  sharded backend mid-run (recorded in the ladder, the
  ``guardian_spill`` span, and the ``spills`` counter), complete
  bit-identically, and only fall off the end of the ladder with a typed
  :class:`RunAbortedError` when the budget is impossible.
* **Disk faults.**  ``ENOSPC`` and torn spill writes from the fault
  plan: a failed spill degrades that level to in-memory execution —
  loudly, and never by reading torn data.
* **Resume after spill.**  A checkpoint written by a spilled run
  restores onto both the serial and the sharded backend with results
  identical to an uninterrupted run.

Marked ``faultinject`` + ``guardian`` so CI runs these in the dedicated
time-boxed chaos job.
"""

import numpy as np
import pytest

from repro.core import (
    AgglomerationEngine,
    RunContext,
    TerminationCriteria,
    detect_communities,
)
from repro.errors import GuardianBreach, RunAbortedError
from repro.generators import planted_partition_graph
from repro.graph.csr import LevelSpiller
from repro.obs import Tracer
from repro.resilience import FaultPlan, FaultSpec, RunGuardian
from repro.resilience.guardian import _rss_mb

pytestmark = [
    pytest.mark.faultinject,
    pytest.mark.guardian,
    pytest.mark.timeout(120),
]


@pytest.fixture(scope="module")
def graph():
    return planted_partition_graph(600, seed=7)


@pytest.fixture(scope="module")
def baseline(graph):
    """Unguarded, fault-free reference run."""
    return detect_communities(graph)


def spill_guardian(tmp_path, budget_mb, **kwargs):
    return RunGuardian(
        "sample",
        memory_budget_mb=budget_mb,
        spill_dir=tmp_path,
        **kwargs,
    )


class TestSpillRung:
    def test_breach_migrates_run_onto_sharded_backend(
        self, graph, baseline, tmp_path
    ):
        rss = _rss_mb()
        assert rss is not None
        # budget sits between the current footprint and footprint+ballast:
        # only the held ballast can push the sample over it
        faults = FaultPlan.pressure_phase("score", [0], alloc_mb=192.0)
        guardian = spill_guardian(tmp_path, rss + 96.0, faults=faults)
        tracer = Tracer()
        with pytest.warns(GuardianBreach, match="budget"):
            result = detect_communities(
                graph, guardian=guardian, tracer=tracer
            )
        # spilled, not different: the sharded continuation is bit-identical
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert result.terminated_by == baseline.terminated_by
        assert result.recovery.spills == 1
        assert result.recovery.ladder == ["spill(memory_budget@level0)"]
        spans = tracer.find("guardian_spill")
        assert len(spans) == 1
        assert spans[0].attrs["rung"] == "spill"
        assert tracer.metrics.counter("guardian.spills").value == 1
        # the sharded backend actually streamed later levels from disk
        assert len(tracer.find("spill_level")) >= 1

    @pytest.mark.parametrize("phase", ["score", "match", "contract"])
    def test_pressure_in_any_phase_spills_the_next_levels(
        self, graph, baseline, tmp_path, phase
    ):
        rss = _rss_mb()
        faults = FaultPlan.pressure_phase(phase, [0], alloc_mb=192.0)
        guardian = spill_guardian(tmp_path, rss + 96.0, faults=faults)
        tracer = Tracer()
        with pytest.warns(GuardianBreach, match="budget"):
            result = detect_communities(
                graph, guardian=guardian, tracer=tracer
            )
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert result.recovery.ladder == ["spill(memory_budget@level0)"]
        # the spill takes effect at the next level boundary
        levels = [s.level for s in tracer.find("spill_level")]
        assert levels == list(range(1, result.n_levels))
        # at most the newest level store is left in the spill dir
        assert len([p for p in tmp_path.iterdir() if p.is_dir()]) <= 1

    def test_spill_rung_fires_once_with_grace_window(
        self, graph, baseline, tmp_path
    ):
        # Ballast on two phases of level 0: the first breach spills, the
        # second lands in the same level — where the spill cannot have
        # taken effect yet — and must not burn a regular ladder rung.
        rss = _rss_mb()
        faults = FaultPlan(
            phase_faults={
                ("score", 0): FaultSpec("memory_pressure", alloc_mb=192.0),
                ("match", 0): FaultSpec("memory_pressure", alloc_mb=192.0),
            }
        )
        guardian = spill_guardian(tmp_path, rss + 96.0, faults=faults)
        with pytest.warns(GuardianBreach, match="budget"):
            result = detect_communities(graph, guardian=guardian)
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert result.recovery.spills == 1
        assert result.recovery.guardian_breaches == 2
        assert result.recovery.ladder == ["spill(memory_budget@level0)"]

    def test_impossible_budget_aborts_with_typed_error(
        self, graph, tmp_path
    ):
        # A budget below the process floor breaches at every phase: the
        # spill rung fires first, then the remaining ladder burns down
        # to a clean checkpoint-and-abort — never a crash or bad data.
        guardian = spill_guardian(tmp_path, 0.001)
        with pytest.warns(GuardianBreach, match="budget"):
            with pytest.raises(RunAbortedError) as excinfo:
                detect_communities(graph, guardian=guardian)
        report = excinfo.value.report
        assert report.spills == 1
        assert report.ladder[0] == "spill(memory_budget@level0)"
        assert report.ladder[-1].startswith("abort(")

    def test_no_breach_never_spills(self, graph, tmp_path):
        rss = _rss_mb()
        guardian = spill_guardian(tmp_path, rss + 4096.0)
        result = detect_communities(graph, guardian=guardian)
        assert result.recovery.spills == 0
        assert result.recovery.ladder == []


class TestAuditedSpilledRun:
    def test_full_audit_passes_on_sharded_run(self, graph, baseline):
        # Full-strictness invariant audits — including matching
        # maximality — hold on every level the streaming kernels
        # produce, so the GMM matcher's cap never costs validity.
        guardian = RunGuardian("full")
        backend = LevelSpiller()
        result = detect_communities(
            graph, spill=backend, guardian=guardian
        )
        backend.release()
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert guardian.auditor.violations == 0
        assert guardian.auditor.checks_run > 0


class TestDiskFaults:
    def test_enospc_on_every_spill_degrades_to_memory(
        self, graph, baseline
    ):
        faults = FaultPlan.enospc_on_spill("spill-graph", range(32))
        backend = LevelSpiller(faults=faults)
        tracer = Tracer()
        result = detect_communities(graph, spill=backend, tracer=tracer)
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert backend.spilled_levels == 0
        assert backend.spill_failures >= 1
        assert tracer.metrics.counter("spill.failures").value == (
            backend.spill_failures
        )
        backend.release()

    def test_torn_spill_is_detected_and_skipped(self, graph, baseline):
        # The torn write lands *after* the atomic rename (at-rest
        # corruption); the checksummed reopen classifies it and the
        # level runs in-memory instead of reading torn data.
        faults = FaultPlan.tear_spill("spill-graph", [0])
        backend = LevelSpiller(faults=faults)
        result = detect_communities(graph, spill=backend)
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert backend.spill_failures == 1
        assert backend.spilled_levels >= 1  # later levels spilled fine
        backend.release()

    def test_single_enospc_level_recovers(self, graph, baseline):
        faults = FaultPlan.enospc_on_spill("spill-graph", [1])
        backend = LevelSpiller(faults=faults)
        result = detect_communities(graph, spill=backend)
        np.testing.assert_array_equal(
            result.partition.labels, baseline.partition.labels
        )
        assert backend.spill_failures == 1
        assert backend.spilled_levels >= 2
        backend.release()

    def test_failed_spill_leaves_no_partial_store(self, graph, tmp_path):
        faults = FaultPlan.enospc_on_spill("spill-graph", [0])
        backend = LevelSpiller(spill_dir=tmp_path, faults=faults)
        detect_communities(graph, spill=backend)
        # level 0's store failed before any byte landed; its directory
        # must not linger as a half-written store
        assert not (tmp_path / "level_00000").exists()
        backend.release()


class TestResumeAfterSpill:
    def test_checkpoint_from_spilled_run_resumes_on_serial(
        self, graph, tmp_path
    ):
        full = AgglomerationEngine().run(graph)
        backend = LevelSpiller(spill_dir=tmp_path / "spill")
        interrupted = AgglomerationEngine(
            termination=TerminationCriteria(max_levels=1)
        )
        ctx = RunContext.create(
            spill=backend, checkpoint_dir=tmp_path / "ckpt"
        )
        interrupted.run(graph, ctx)
        assert backend.spilled_levels >= 1
        backend.release()

        resume_ctx = RunContext.create(checkpoint_dir=tmp_path / "ckpt")
        resumed = AgglomerationEngine().run(graph, resume_ctx, resume=True)
        assert resumed.recovery.resumed_from_level == 1
        np.testing.assert_array_equal(
            resumed.partition.labels, full.partition.labels
        )
        assert resumed.terminated_by == full.terminated_by

    def test_checkpoint_from_spilled_run_resumes_on_sharded(
        self, graph, tmp_path
    ):
        full = AgglomerationEngine().run(graph)
        backend = LevelSpiller(spill_dir=tmp_path / "spill")
        interrupted = AgglomerationEngine(
            termination=TerminationCriteria(max_levels=1)
        )
        interrupted.run(
            graph,
            RunContext.create(
                spill=backend, checkpoint_dir=tmp_path / "ckpt"
            ),
        )
        backend.release()

        fresh = LevelSpiller(spill_dir=tmp_path / "spill2")
        resume_ctx = RunContext.create(
            spill=fresh, checkpoint_dir=tmp_path / "ckpt"
        )
        resumed = AgglomerationEngine().run(graph, resume_ctx, resume=True)
        assert resumed.recovery.resumed_from_level == 1
        assert fresh.spilled_levels >= 1
        fresh.release()
        np.testing.assert_array_equal(
            resumed.partition.labels, full.partition.labels
        )
        assert resumed.terminated_by == full.terminated_by
