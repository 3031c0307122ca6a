"""The out-of-core storage layer: spill files and the sharded CSR store.

Covers the checksummed container format (:mod:`repro.spmatrix.spill`) —
roundtrip, alignment, corruption detection — and
:class:`repro.graph.csr.ShardedCSRStore`: spill/reopen value-identity,
shard tiling, crash-safety against torn files, and cleanup.
"""

import json

import numpy as np
import pytest

from repro.errors import SpillError
from repro.generators import planted_partition_graph
from repro.graph.csr import (
    DEFAULT_SHARDS,
    EdgeShard,
    ShardedCSRStore,
    _ranges_of,
    _shard_ranges,
)
from repro.spmatrix.spill import (
    SPILL_MAGIC,
    read_spill,
    scratch_memmap,
    spill_nbytes,
    write_spill,
)


@pytest.fixture(scope="module")
def sbm():
    return planted_partition_graph(400, seed=3)


class TestSpillFormat:
    def test_roundtrip_preserves_values_and_dtypes(self, tmp_path):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 33, dtype=np.float64),
            "c": np.array([[1, 2], [3, 4]], dtype=np.uint32),
        }
        path = tmp_path / "x.spill"
        total = write_spill(path, arrays)
        assert path.stat().st_size == total
        out = read_spill(path)
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype
            np.testing.assert_array_equal(np.asarray(out[name]), arr)

    def test_magic_leads_the_file(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(path, {"a": np.zeros(4)})
        assert path.read_bytes()[: len(SPILL_MAGIC)] == SPILL_MAGIC

    def test_payload_offsets_are_aligned(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(
            path, {"a": np.zeros(7, np.uint8), "b": np.zeros(5, np.float64)}
        )
        header = json.loads(
            path.read_bytes()[12:].split(b"\0", 1)[0].decode("utf-8")
        )
        for entry in header["arrays"]:
            assert entry["offset"] % 64 == 0

    def test_empty_mapping_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_spill(tmp_path / "x.spill", {})

    def test_bitflip_detected_by_checksum(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(path, {"a": np.arange(64, dtype=np.int64)})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte at rest
        path.write_bytes(bytes(data))
        with pytest.raises(SpillError, match="checksum"):
            read_spill(path)
        # verify=False trusts the header and hands out the view anyway
        assert "a" in read_spill(path, verify=False)

    def test_truncation_detected_before_mapping(self, tmp_path):
        path = tmp_path / "x.spill"
        total = write_spill(path, {"a": np.arange(1000, dtype=np.int64)})
        with open(path, "r+b") as fh:
            fh.truncate(total // 2)
        with pytest.raises(SpillError, match="torn"):
            read_spill(path, verify=False)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.spill"
        path.write_bytes(b"NOTSPILL" + b"\0" * 64)
        with pytest.raises(SpillError, match="magic"):
            read_spill(path)

    def test_copy_on_write_mutation_stays_private(self, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(path, {"a": np.arange(10, dtype=np.int64)})
        view = read_spill(path)["a"]
        view[0] = 999  # mode="c": never dirties the file
        again = read_spill(path)["a"]
        assert again[0] == 0

    def test_spill_nbytes_sums_payload(self, tmp_path):
        path = tmp_path / "x.spill"
        arrays = {"a": np.zeros(10, np.int64), "b": np.zeros(3, np.float64)}
        write_spill(path, arrays)
        assert spill_nbytes(path) == sum(a.nbytes for a in arrays.values())

    def test_scratch_memmap_is_writable(self, tmp_path):
        arr = scratch_memmap(
            tmp_path / "scratch.npy", dtype=np.float64, shape=(16,)
        )
        arr[:] = 2.5
        assert float(arr.sum()) == 40.0


class TestShardRanges:
    def test_ranges_tile_edge_space(self):
        ranges = _shard_ranges(100, n_shards=7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_shard_edges_cap_wins(self):
        ranges = _shard_ranges(10, n_shards=2, shard_edges=3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            _shard_ranges(10, n_shards=0)
        with pytest.raises(ValueError):
            _shard_ranges(10, shard_edges=0)

    def test_empty_graph_single_empty_shard(self):
        assert _shard_ranges(0) == [(0, 0)]

    @pytest.mark.parametrize(
        "n_edges, n_shards",
        [
            (1, 1), (1, 8), (7, 3), (8, 4),
            (10, 16), (100, 7), (1000, 8), (999, 1),
        ],
    )
    def test_every_split_tiles_in_equal_windows(self, n_edges, n_shards):
        ranges = _shard_ranges(n_edges, n_shards=n_shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_edges
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert 1 <= len(ranges) <= min(n_edges, n_shards)
        size = -(-n_edges // n_shards)
        assert all(hi - lo == size for lo, hi in ranges[:-1])
        assert 1 <= ranges[-1][1] - ranges[-1][0] <= size

    @pytest.mark.parametrize(
        "n_edges, cap", [(10, 1), (10, 3), (10, 10), (10, 100)]
    )
    def test_shard_edges_caps_every_window(self, n_edges, cap):
        ranges = _shard_ranges(n_edges, shard_edges=cap)
        assert len(ranges) == -(-n_edges // cap)
        assert all(hi - lo == cap for lo, hi in ranges[:-1])
        assert 1 <= ranges[-1][1] - ranges[-1][0] <= cap
        assert ranges[-1][1] == n_edges

    def test_default_count(self):
        assert len(_shard_ranges(10_000)) == DEFAULT_SHARDS


class TestRangesOf:
    def test_in_memory_graph_is_one_window(self, sbm):
        assert _ranges_of(sbm) == [(0, sbm.n_edges)]

    def test_spilled_graph_uses_its_shard_table(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "g", n_shards=5)
        assert _ranges_of(store.as_graph()) == store.shard_ranges
        assert len(store.shard_ranges) == 5
        store.cleanup()

    def test_explicit_cap_wins_over_the_shard_table(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "g", n_shards=5)
        ranges = _ranges_of(store.as_graph(), shard_edges=100)
        assert ranges == _shard_ranges(sbm.n_edges, shard_edges=100)
        assert _ranges_of(sbm, shard_edges=100) == ranges
        store.cleanup()


class TestShardedCSRStore:
    def test_as_graph_is_value_identical(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "s", n_shards=4)
        twin = store.as_graph()
        assert twin.n_vertices == sbm.n_vertices
        assert twin.n_edges == sbm.n_edges
        np.testing.assert_array_equal(twin.edges.ei, sbm.edges.ei)
        np.testing.assert_array_equal(twin.edges.ej, sbm.edges.ej)
        np.testing.assert_array_equal(twin.edges.w, sbm.edges.w)
        np.testing.assert_array_equal(twin.self_weights, sbm.self_weights)
        assert twin.spill_store is store

    def test_shards_cover_all_edges(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "s", n_shards=5)
        assert store.n_shards == 5
        seen = 0
        for shard in store.iter_shards():
            assert isinstance(shard, EdgeShard)
            np.testing.assert_array_equal(
                shard.ei, sbm.edges.ei[shard.lo : shard.hi]
            )
            seen += shard.n_edges
        assert seen == sbm.n_edges

    def test_reopen_verifies_checksums(self, sbm, tmp_path):
        ShardedCSRStore.spill(sbm, tmp_path / "s")
        reopened = ShardedCSRStore.open(tmp_path / "s")
        np.testing.assert_array_equal(
            reopened.as_graph().edges.w, sbm.edges.w
        )

    def test_torn_store_raises_spillerror(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "s")
        spill_file = store.directory / "graph.spill"
        with open(spill_file, "r+b") as fh:
            fh.truncate(spill_file.stat().st_size // 2)
        with pytest.raises(SpillError):
            ShardedCSRStore.open(tmp_path / "s")

    def test_missing_manifest_raises_spillerror(self, tmp_path):
        with pytest.raises(SpillError, match="manifest"):
            ShardedCSRStore.open(tmp_path / "nowhere")

    def test_nbytes_matches_arrays(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "s")
        e = sbm.edges
        expected = (
            e.ei.nbytes
            + e.ej.nbytes
            + e.w.nbytes
            + e.bucket_start.nbytes
            + e.bucket_end.nbytes
            + sbm.self_weights.nbytes
        )
        assert store.nbytes == expected

    def test_cleanup_removes_directory(self, sbm, tmp_path):
        store = ShardedCSRStore.spill(sbm, tmp_path / "s")
        store.cleanup()
        assert not (tmp_path / "s").exists()
