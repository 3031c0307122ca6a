"""Chaos suite: injected faults must never change the answer.

A checkpointed run whose newest checkpoint is torn mid-byte must resume
from the previous level and reproduce the fault-free run *exactly*.
Identity, not similarity: resume replays the same deterministic kernels
from a persisted state, so any drift is a bug.

Marked ``faultinject`` so CI runs these in a dedicated time-boxed job.
"""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.core.termination import TerminationCriteria
from repro.resilience import CheckpointManager, truncate_file

pytestmark = [pytest.mark.faultinject, pytest.mark.timeout(120)]


class TestFullPipelineUnderFaults:
    def test_faulty_checkpointed_run_resumes_after_truncation(
        self, karate, tmp_path
    ):
        baseline = detect_communities(karate)
        partial = detect_communities(
            karate,
            termination=TerminationCriteria(max_levels=2),
            checkpoint_dir=tmp_path,
        )
        assert partial.recovery.checkpoints_written == 2
        # Tear the newest checkpoint mid-byte: resume must fall back to
        # the previous level and still reproduce the fault-free answer.
        manager = CheckpointManager(tmp_path)
        truncate_file(
            manager.path_for(max(manager.levels_on_disk())),
            keep_fraction=0.4,
        )
        resumed = detect_communities(
            karate, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.recovery.checkpoints_invalid == 1
        assert resumed.recovery.resumed_from_level == 1
        np.testing.assert_array_equal(
            resumed.partition.labels, baseline.partition.labels
        )
        assert resumed.levels == baseline.levels
