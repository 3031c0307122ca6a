"""Guards around scorer output and matching pass budgets."""

import numpy as np
import pytest

from repro.core import detect_communities
from repro.core.matching import match_full_sweep, match_locally_dominant
from repro.core.scoring import ModularityScorer, WeightScorer, validate_scores
from repro.errors import (
    ConvergenceError,
    InvariantViolation,
    ScoreValidationError,
)
from repro.generators import planted_partition_graph
from repro.graph.csr import ShardedCSRStore
from repro.graph.csr import LevelSpiller


class TestValidateScores:
    def test_clean_scores_pass_through_unchanged(self):
        scores = np.array([0.5, -0.25, 0.0])
        assert validate_scores(scores) is scores

    def test_nan_raises(self):
        with pytest.raises(ScoreValidationError, match="non-finite"):
            validate_scores(np.array([0.1, np.nan, 0.2]))

    def test_inf_raises(self):
        with pytest.raises(ScoreValidationError):
            validate_scores(np.array([np.inf]))

    def test_error_names_scorer_count_and_first_index(self):
        with pytest.raises(
            ScoreValidationError, match=r"broken: 2 non-finite.*edge 1"
        ):
            validate_scores(
                np.array([0.0, np.nan, np.inf]), scorer="broken"
            )

    def test_is_an_invariant_violation(self):
        assert issubclass(ScoreValidationError, InvariantViolation)

    def test_builtin_scorers_are_clean(self, karate):
        # The wrapped return paths of the stock scorers must not trip.
        for scorer in (ModularityScorer(), WeightScorer()):
            assert np.isfinite(scorer.score(karate)).all()


class TestDriverScoreGuard:
    def test_nan_producing_scorer_fails_fast_in_detection(self, karate):
        class BrokenScorer:
            name = "broken"

            def score(self, graph, recorder=None):
                scores = np.zeros(graph.n_edges)
                scores[0] = np.nan
                return scores

        with pytest.raises(ScoreValidationError, match="broken"):
            detect_communities(karate, BrokenScorer())


class _NaNAtEdge(ModularityScorer):
    """Modularity scores with a NaN planted at one global edge index."""

    validates_output = True

    def __init__(self, edge):
        self.edge = edge

    def score_range(self, graph, lo, hi, *, vol, w_total):
        chunk = super().score_range(graph, lo, hi, vol=vol, w_total=w_total)
        if lo <= self.edge < hi:
            chunk[self.edge - lo] = np.nan
        return chunk


class TestStreamedScoreGuard:
    """A spilled graph is scored window by window; errors stay global."""

    def test_sharded_run_reports_the_global_edge(self, tmp_path):
        g = planted_partition_graph(500, seed=5)
        backend = LevelSpiller(spill_dir=tmp_path, n_shards=8)
        with pytest.raises(
            ScoreValidationError, match=r"first at edge 1000:"
        ):
            detect_communities(g, _NaNAtEdge(1000), spill=backend)
        backend.release()

    def test_spilled_graph_names_the_window(self, tmp_path):
        g = planted_partition_graph(500, seed=5)
        store = ShardedCSRStore.spill(g, tmp_path / "g", n_shards=8)
        lo, hi = next(r for r in store.shard_ranges if r[0] <= 1000 < r[1])
        assert lo > 0, "the NaN must sit past the first window"
        with pytest.raises(
            ScoreValidationError,
            match=rf"1 non-finite score\(s\) in edges \[{lo}, {hi}\) "
            r"\(first at edge 1000",
        ):
            _NaNAtEdge(1000).score(store.as_graph())
        store.cleanup()


class TestPassBudget:
    @pytest.mark.parametrize(
        "matcher", [match_locally_dominant, match_full_sweep]
    )
    def test_zero_budget_exhausts_immediately(self, karate, matcher):
        scores = WeightScorer().score(karate)
        with pytest.raises(ConvergenceError, match="pass budget"):
            matcher(karate, scores, max_passes=0)

    @pytest.mark.parametrize(
        "matcher", [match_locally_dominant, match_full_sweep]
    )
    def test_default_budget_suffices(self, karate, matcher):
        scores = WeightScorer().score(karate)
        result = matcher(karate, scores)
        assert result.passes <= 2 * karate.n_vertices + 4

    @pytest.mark.parametrize(
        "matcher", [match_locally_dominant, match_full_sweep]
    )
    def test_negative_budget_rejected(self, karate, matcher):
        scores = WeightScorer().score(karate)
        with pytest.raises(ValueError):
            matcher(karate, scores, max_passes=-1)
