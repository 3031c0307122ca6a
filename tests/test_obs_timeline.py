"""Tests for the per-level quality timeline derived from a finished run.

:meth:`QualityTimeline.from_result` folds ``result.levels`` and the
dendrogram into one :class:`LevelQuality` per level.  The oracle class
checks every sample against quantities recomputed from scratch on the
input graph — community counts from the dendrogram, sizes from
``np.bincount`` of the input-vertex labels, quality from
:mod:`repro.metrics` — so the derivation cannot silently drift from
what the run actually produced.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import TerminationCriteria, detect_communities
from repro.generators import lfr_graph, planted_partition_graph, rmat_graph
from repro.graph.csr import LevelSpiller
from repro.metrics import coverage, modularity
from repro.obs import QualityTimeline
from repro.obs.timeline import (
    SIZE_HISTOGRAM_EDGES,
    TIMELINE_SCHEMA_VERSION,
    LevelQuality,
)

_FLOOR = TerminationCriteria(min_communities=1, coverage=None)


def _size_histogram_oracle(sizes: np.ndarray) -> dict:
    """Power-of-two histogram of community sizes, bucketed by hand.

    A size ``s`` lands in bucket ``ceil(log2 s)`` — the first edge
    ``2**k >= s`` — with sizes above the last edge in the overflow
    bucket.
    """
    n_buckets = len(SIZE_HISTOGRAM_EDGES) + 1
    counts = [0] * n_buckets
    for s in sizes.tolist():
        counts[min((int(s) - 1).bit_length(), n_buckets - 1)] += 1
    return {
        "edges": list(SIZE_HISTOGRAM_EDGES),
        "counts": counts,
        "total": int(sizes.size),
        "sum": float(sizes.sum()),
        "max": int(sizes.max()) if sizes.size else 0,
    }


class TestDerivedAgainstOracle:
    """Every derived sample equals its from-scratch recomputation."""

    CASES = {
        "rmat": (partial(rmat_graph, 9, 8, seed=3), {}),
        "lfr": (partial(lfr_graph, 600, seed=2), {}),
        "planted": (partial(planted_partition_graph, 500, seed=7), {}),
        "min-communities": (
            partial(planted_partition_graph, 500, seed=7),
            {"termination": TerminationCriteria(min_communities=50)},
        ),
        "max-community-size": (
            partial(rmat_graph, 9, 8, seed=3),
            {"termination": TerminationCriteria(max_community_size=30)},
        ),
        "spilled": (partial(lfr_graph, 600, seed=2), {"spill": True}),
    }

    @pytest.fixture(params=sorted(CASES))
    def run(self, request, tmp_path):
        make_graph, kwargs = self.CASES[request.param]
        kwargs = dict(kwargs)
        spill = None
        if kwargs.pop("spill", False):
            spill = kwargs["spill"] = LevelSpiller(tmp_path, n_shards=4)
        graph = make_graph()
        try:
            result = detect_communities(graph, **kwargs)
        finally:
            if spill is not None:
                spill.release()
        return request.param, graph, result

    def test_every_level_matches_oracle(self, run):
        name, graph, result = run
        tl = QualityTimeline.from_result(result)
        assert tl.n_levels == result.n_levels > 0, name
        dendrogram = result.dendrogram
        for i, (sample, stats) in enumerate(zip(tl.levels, result.levels)):
            assert sample.level == stats.level == i
            assert sample.n_communities == dendrogram.communities_at(i + 1)
            sizes = np.bincount(dendrogram.labels_at(i + 1))
            assert sample.community_sizes == _size_histogram_oracle(sizes)
            partition = dendrogram.partition_at(i + 1)
            assert sample.modularity == pytest.approx(
                modularity(graph, partition), abs=1e-9
            )
            assert sample.coverage == pytest.approx(
                coverage(graph, partition), abs=1e-9
            )
            assert sample.mirror_coverage == 1.0 - sample.coverage
            assert sample.merge_fraction == stats.n_pairs / stats.n_vertices
            assert sample.matching_passes == stats.matching_passes
        # The community count after each level is the next level's
        # entering vertex count, and the final graph's after the last.
        counts = [s.n_communities for s in tl.levels]
        assert counts[:-1] == [s.n_vertices for s in result.levels[1:]]
        assert counts[-1] == result.final_graph.n_vertices

    def test_min_communities_case_limits_the_matching(self):
        # Guard that the limited case really exercises the pair cap: its
        # last level merges exactly down to the floor, fewer pairs than
        # the same level of the uncapped run.
        graph = planted_partition_graph(500, seed=7)
        limited = detect_communities(
            graph, termination=TerminationCriteria(min_communities=50)
        )
        uncapped = detect_communities(graph, termination=_FLOOR)
        last = limited.levels[-1]
        assert limited.n_communities == 50
        assert last.n_pairs == last.n_vertices - 50
        assert last.n_pairs < uncapped.levels[last.level].n_pairs


class TestResumedTimeline:
    def test_resumed_run_covers_every_level(self, tmp_path):
        graph = lfr_graph(600, seed=2)
        full = detect_communities(graph, termination=_FLOOR)
        assert full.n_levels > 3
        detect_communities(
            graph,
            termination=TerminationCriteria(
                min_communities=1, coverage=None, max_levels=3
            ),
            checkpoint_dir=tmp_path,
        )
        resumed = detect_communities(
            graph,
            termination=_FLOOR,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.recovery.resumed_from_level == 3
        assert (
            QualityTimeline.from_result(resumed).as_dict()
            == QualityTimeline.from_result(full).as_dict()
        )


class TestDetectIntegration:
    def test_timeline_matches_level_stats(self):
        graph = planted_partition_graph(500, seed=7)
        result = detect_communities(graph)
        tl = QualityTimeline.from_result(result)
        assert tl.final is tl.levels[-1]
        for sample, stats in zip(tl.levels, result.levels):
            assert sample.modularity == stats.modularity_after
            assert sample.coverage == stats.coverage_after
        final = tl.final
        assert final.n_communities == result.n_communities
        assert final.modularity == pytest.approx(
            modularity(graph, result.partition), abs=1e-9
        )

    def test_community_sizes_sum_to_input_vertices(self):
        graph = planted_partition_graph(300, seed=3)
        tl = QualityTimeline.from_result(detect_communities(graph))
        for sample in tl.levels:
            h = sample.community_sizes
            assert h["edges"] == list(SIZE_HISTOGRAM_EDGES)
            assert len(h["counts"]) == len(SIZE_HISTOGRAM_EDGES) + 1
            assert h["sum"] == graph.n_vertices
            assert h["total"] == sample.n_communities

    def test_levelless_run_has_empty_timeline(self):
        graph = planted_partition_graph(50, seed=1)
        result = detect_communities(
            graph, termination=TerminationCriteria(max_levels=0)
        )
        tl = QualityTimeline.from_result(result)
        assert tl.final is None
        assert tl.n_levels == 0
        assert tl.as_dict()["levels"] == []


class TestRoundTrip:
    def test_dict_round_trip(self):
        result = detect_communities(planted_partition_graph(300, seed=3))
        tl = QualityTimeline.from_result(result)
        d = tl.as_dict()
        assert d["version"] == TIMELINE_SCHEMA_VERSION
        tl2 = QualityTimeline.from_dict(d)
        assert tl2.levels == tl.levels
        assert isinstance(tl2.final, LevelQuality)

    def test_from_dict_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            QualityTimeline.from_dict({"version": 999, "levels": []})
