"""Unit tests for the parity-hashed bucketed edge list (§IV-A)."""

import numpy as np
import pytest

from repro.errors import InvariantViolation
from repro.graph.edgelist import (
    EdgeList,
    group_pairs,
    parity_canonical,
    stable_key_sort,
)
from repro.types import VERTEX_DTYPE


class TestParityCanonical:
    def test_same_parity_stores_min_first(self):
        first, second = parity_canonical(np.array([4]), np.array([2]))
        assert first[0] == 2 and second[0] == 4

    def test_same_parity_odd(self):
        first, second = parity_canonical(np.array([7]), np.array([3]))
        assert first[0] == 3 and second[0] == 7

    def test_mixed_parity_stores_max_first(self):
        first, second = parity_canonical(np.array([2]), np.array([5]))
        assert first[0] == 5 and second[0] == 2

    def test_mixed_parity_other_order(self):
        first, second = parity_canonical(np.array([5]), np.array([2]))
        assert first[0] == 5 and second[0] == 2

    def test_orientation_invariant(self):
        rng = np.random.default_rng(0)
        i = rng.integers(0, 100, 200)
        j = rng.integers(0, 100, 200)
        f1, s1 = parity_canonical(i, j)
        f2, s2 = parity_canonical(j, i)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(s1, s2)

    @pytest.mark.parametrize(
        "ids",
        [
            np.random.default_rng(11).integers(0, 1000, 400),
            np.array([0, 1, 2, 3, 2**40, 2**40 + 1, 2**40 - 1]),
        ],
        ids=["random", "extreme"],
    )
    def test_matches_definition(self, ids):
        """§IV-A: same parity stores (min, max), mixed parity (max, min)."""
        i, j = (a.ravel() for a in np.meshgrid(ids, ids))
        off = i != j
        i, j = i[off], j[off]
        first, second = parity_canonical(i, j)
        expected = [
            (min(a, b), max(a, b)) if (a - b) % 2 == 0 else (max(a, b), min(a, b))
            for a, b in zip(i.tolist(), j.tolist())
        ]
        assert list(zip(first.tolist(), second.tolist())) == expected
        assert first.dtype == second.dtype == VERTEX_DTYPE

    def test_scatters_hub_edges(self):
        """A hub's edges must land in multiple buckets, not one."""
        hub = np.zeros(10, dtype=np.int64)
        leaves = np.arange(1, 11, dtype=np.int64)
        first, _ = parity_canonical(hub, leaves)
        # Odd leaves store (leaf, hub): the hub does not own those edges.
        assert len(np.unique(first)) > 1


class TestFromRaw:
    def test_basic(self):
        e = EdgeList.from_raw(
            np.array([0, 1]), np.array([1, 2]), None, n_vertices=3
        )
        assert e.n_edges == 2
        assert e.n_vertices == 3
        e.validate()

    def test_duplicate_accumulation(self):
        e = EdgeList.from_raw(
            np.array([0, 1, 0]),
            np.array([1, 0, 1]),
            np.array([1.0, 2.0, 3.0]),
            n_vertices=2,
        )
        assert e.n_edges == 1
        assert e.w[0] == 6.0
        e.validate()

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loop"):
            EdgeList.from_raw(np.array([1]), np.array([1]), None, n_vertices=2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            EdgeList.from_raw(np.array([0]), np.array([5]), None, n_vertices=3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EdgeList.from_raw(np.array([0, 1]), np.array([1]), None, 3)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weight"):
            EdgeList.from_raw(
                np.array([0]), np.array([1]), np.array([1.0, 2.0]), 2
            )

    def test_empty(self):
        e = EdgeList.from_raw(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), None, 5
        )
        assert e.n_edges == 0
        assert e.n_vertices == 5
        e.validate()

    def test_unit_weights_default(self):
        e = EdgeList.from_raw(np.array([0, 2]), np.array([1, 3]), None, 4)
        np.testing.assert_array_equal(e.w, [1.0, 1.0])


class TestGroupPairs:
    def test_distinct_pairs_sorted_with_inverse(self):
        first = np.array([2, 0, 2, 1, 0, 2])
        second = np.array([1, 3, 1, 0, 3, 0])
        f, s, inverse = group_pairs(first, second, 4)
        np.testing.assert_array_equal(f, [0, 1, 2, 2])
        np.testing.assert_array_equal(s, [3, 0, 0, 1])
        np.testing.assert_array_equal(inverse, [3, 0, 3, 1, 0, 2])
        assert f.dtype == s.dtype == VERTEX_DTYPE

    def test_matches_unique_on_random_pairs(self):
        rng = np.random.default_rng(5)
        first = rng.integers(0, 30, 500)
        second = rng.integers(0, 30, 500)
        f, s, inverse = group_pairs(first, second, 30)
        uniq, inv = np.unique(first * 30 + second, return_inverse=True)
        np.testing.assert_array_equal(f * 30 + s, uniq)
        np.testing.assert_array_equal(inverse, inv)

    def test_empty(self):
        f, s, inverse = group_pairs(np.empty(0, int), np.empty(0, int), 5)
        assert len(f) == len(s) == len(inverse) == 0

    def test_width_at_int64_bound_works(self):
        width = 3_037_000_499
        f, s, inverse = group_pairs(
            np.array([width - 1, 0, width - 1]),
            np.array([width - 1, 1, width - 1]),
            width,
        )
        np.testing.assert_array_equal(f, [0, width - 1])
        np.testing.assert_array_equal(s, [1, width - 1])
        np.testing.assert_array_equal(inverse, [1, 0, 1])

    @staticmethod
    def assert_matches_oracle(first, second, width, w=None):
        """Compare with grouping the pairs as Python tuples."""
        if w is None:
            w = np.random.default_rng(len(first)).random(len(first))
        pairs = list(zip(first.tolist(), second.tolist()))
        distinct = sorted(set(pairs))
        group = {pair: g for g, pair in enumerate(distinct)}
        sums = [0.0] * len(distinct)
        for pair, weight in zip(pairs, w.tolist()):
            sums[group[pair]] += weight
        f, s, inverse = group_pairs(first, second, width)
        assert f.dtype == s.dtype == VERTEX_DTYPE
        assert inverse.dtype == np.intp
        assert list(zip(f.tolist(), s.tolist())) == distinct
        assert inverse.tolist() == [group[pair] for pair in pairs]
        assert np.bincount(inverse, weights=w).tolist() == sums

    def test_single_pair(self):
        self.assert_matches_oracle(np.array([3]), np.array([1]), 4)

    def test_all_duplicates(self):
        self.assert_matches_oracle(np.full(50, 7), np.full(50, 2), 8)

    def test_all_distinct(self):
        first, second = np.divmod(np.random.default_rng(2).permutation(400), 20)
        self.assert_matches_oracle(first, second, 20)

    def test_reversed_input(self):
        first, second = np.divmod(np.arange(300)[::-1] // 3, 10)
        self.assert_matches_oracle(first, second, 10)

    # Packing needs bit_length(width**2 - 1) + bit_length(m - 1) <= 63.
    # At width 2**29 the keys take 58 bits; 17 pairs take 5 index bits.
    @pytest.mark.parametrize(
        "width, m",
        [(2**29, 17), (2**29, 33), (2**29 + 1, 17)],
        ids=["packs-in-63-bits", "64-bits-by-m", "64-bits-by-width"],
    )
    def test_both_sides_of_packing_bound(self, width, m):
        rng = np.random.default_rng(m)
        first = rng.integers(0, width, m)
        second = rng.integers(0, width, m)
        # The largest key, twice, and keys on both sides of 2**58.
        first[:4] = [width - 1, 0, width - 1, 2**29 - 1]
        second[:4] = [width - 1, 0, width - 1, 2**29 - 1]
        self.assert_matches_oracle(first, second, width)

    def test_width_past_int64_bound_raises(self):
        with pytest.raises(OverflowError, match="3037000500.*3037000499"):
            group_pairs(np.array([0]), np.array([1]), 3_037_000_500)


class TestStableKeySort:
    @pytest.mark.parametrize("key_bits", [8, 63 - 10, 63 - 9])
    def test_equals_stable_argsort(self, key_bits):
        """Both sides of the packing bound: 1000 keys take 10 index bits."""
        rng = np.random.default_rng(key_bits)
        key = rng.integers(0, 2**key_bits, 1000, dtype=np.int64)
        key[:300] = key[300:600]  # ties keep input order
        key[0] = 2**key_bits - 1
        expected = np.argsort(key, kind="stable")
        sorted_key, order = stable_key_sort(key.copy(), key_bits)
        np.testing.assert_array_equal(order, expected)
        np.testing.assert_array_equal(sorted_key, key[expected])

    def test_empty(self):
        sorted_key, order = stable_key_sort(np.empty(0, np.int64), 5)
        assert len(sorted_key) == len(order) == 0


class TestBuckets:
    def test_bucket_contains_only_first_stored(self):
        rng = np.random.default_rng(1)
        i = rng.integers(0, 50, 300)
        j = rng.integers(0, 50, 300)
        keep = i != j
        e = EdgeList.from_raw(i[keep], j[keep], None, 50)
        for v in range(50):
            sl = e.bucket(v)
            assert np.all(e.ei[sl] == v)

    def test_buckets_tile_edge_array(self):
        rng = np.random.default_rng(2)
        i = rng.integers(0, 20, 100)
        j = rng.integers(0, 20, 100)
        keep = i != j
        e = EdgeList.from_raw(i[keep], j[keep], None, 20)
        total = int((e.bucket_end - e.bucket_start).sum())
        assert total == e.n_edges

    def test_bucket_out_of_range(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        with pytest.raises(IndexError):
            e.bucket(2)
        with pytest.raises(IndexError):
            e.bucket(-1)

    def test_edge_stored_exactly_once(self):
        e = EdgeList.from_raw(np.array([0, 1, 2]), np.array([1, 2, 0]), None, 3)
        # Each unordered pair appears in exactly one bucket.
        pairs = set()
        for v in range(3):
            sl = e.bucket(v)
            for a, b in zip(e.ei[sl], e.ej[sl]):
                pairs.add(frozenset((int(a), int(b))))
        assert len(pairs) == 3


class TestAccessors:
    def test_degrees(self):
        e = EdgeList.from_raw(np.array([0, 0, 1]), np.array([1, 2, 2]), None, 4)
        np.testing.assert_array_equal(e.degrees(), [2, 2, 2, 0])

    def test_strengths(self):
        e = EdgeList.from_raw(
            np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]), 3
        )
        np.testing.assert_allclose(e.strengths(), [2.0, 5.0, 3.0])

    def test_total_weight(self):
        e = EdgeList.from_raw(
            np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]), 3
        )
        assert e.total_weight() == 5.0

    def test_memory_words_matches_paper_accounting(self):
        e = EdgeList.from_raw(np.array([0, 1]), np.array([1, 2]), None, 3)
        assert e.memory_words() == 3 * 2 + 2 * 3

    def test_copy_is_deep(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        c = e.copy()
        c.w[0] = 99.0
        assert e.w[0] == 1.0


class TestValidate:
    def test_detects_parity_violation(self):
        e = EdgeList.from_raw(np.array([0]), np.array([2]), None, 3)
        e.ei, e.ej = e.ej.copy(), e.ei.copy()
        with pytest.raises(InvariantViolation, match="parity"):
            e.validate()

    def test_detects_self_loop(self):
        e = EdgeList.from_raw(np.array([0]), np.array([2]), None, 3)
        e.ej = e.ei.copy()
        with pytest.raises(InvariantViolation):
            e.validate()

    def test_detects_bad_bucket_sizes(self):
        e = EdgeList.from_raw(np.array([0, 2]), np.array([2, 4]), None, 5)
        e.bucket_end = e.bucket_end.copy()
        e.bucket_end[0] += 1
        with pytest.raises(InvariantViolation):
            e.validate()

    def test_detects_length_mismatch(self):
        e = EdgeList.from_raw(np.array([0]), np.array([1]), None, 2)
        e.w = np.array([1.0, 2.0])
        with pytest.raises(InvariantViolation, match="length"):
            e.validate()

    def test_valid_empty(self):
        e = EdgeList.from_raw(
            np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE), None, 3
        )
        e.validate()
