"""Compressed sparse row adjacency view and the sharded out-of-core store.

The bucketed edge list stores each edge once; traversal algorithms
(components, refinement, the sequential baselines) want the full adjacency
of each vertex.  ``CSRAdjacency`` materializes the symmetric expansion — the
classic xadj/adjncy/weight layout of METIS and the paper's SNAP baseline —
in three vectorized passes.

``ShardedCSRStore`` is the out-of-core counterpart: it spills a
:class:`~repro.graph.graph.CommunityGraph`'s arrays to a checksummed
spill file (:mod:`repro.spmatrix.spill`) and reopens them as
``np.memmap`` views, partitioned into contiguous *edge shards*.  A
shard is a window ``[lo, hi)`` over the bucketed edge arrays: loading
one touches only that window's pages, so a kernel that streams
shard-at-a-time keeps its anonymous working set at ``O(V + shard)``
while the file-backed pages stay evictable under memory pressure.
Because the memmap-backed graph is *value-identical* to the in-memory
one, every kernel — and every invariant audit — computes bit-identical
results on it.  The phase kernels stream such a graph window by window
(:func:`_ranges_of`) and keep their edge-length temporaries in
spill-backed scratch (:class:`_Scratch`); on an ordinary graph the same
code runs on one window.

``LevelSpiller`` is the run-level policy on top of the store: when a
run's context carries one, the engine hands it each level's graph and
continues on the spilled twin (see docs/OUT_OF_CORE.md).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import SpillError
from repro.graph.edgelist import EdgeList
from repro.graph.graph import CommunityGraph
from repro.spmatrix.spill import (
    read_spill,
    scratch_memmap,
    spill_nbytes,
    write_spill,
)
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.atomicio import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import NullTracer, Tracer
    from repro.resilience.faults import FaultPlan

__all__ = [
    "CSRAdjacency",
    "EdgeShard",
    "ShardedCSRStore",
    "LevelSpiller",
    "DEFAULT_SHARDS",
]

_log = logging.getLogger(__name__)


@dataclass
class CSRAdjacency:
    """Symmetric CSR adjacency: ``adj[xadj[v]:xadj[v+1]]`` are v's neighbors."""

    xadj: np.ndarray
    adj: np.ndarray
    weight: np.ndarray
    n_vertices: int

    @classmethod
    def from_edgelist(cls, edges: EdgeList) -> "CSRAdjacency":
        """Expand a once-stored edge list to full symmetric adjacency."""
        n = edges.n_vertices
        m = edges.n_edges
        # Each edge contributes two directed arcs.
        src = np.concatenate([edges.ei, edges.ej])
        dst = np.concatenate([edges.ej, edges.ei])
        wgt = np.concatenate([edges.w, edges.w])
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
        wgt = wgt[order]
        counts = np.bincount(src, minlength=n)
        xadj = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        np.cumsum(counts, out=xadj[1:])
        assert xadj[-1] == 2 * m
        return cls(
            xadj=xadj,
            adj=dst.astype(VERTEX_DTYPE, copy=False),
            weight=wgt.astype(WEIGHT_DTYPE, copy=False),
            n_vertices=n,
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of vertex ``v`` (no self loops; each once)."""
        return self.adj[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weight[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)


# --------------------------------------------------------------- out-of-core
#: Default number of edge shards when neither ``n_shards`` nor
#: ``shard_edges`` is given.
DEFAULT_SHARDS = 8

_MANIFEST = "manifest.json"
_GRAPH_FILE = "graph.spill"
_MANIFEST_VERSION = 1


@dataclass
class EdgeShard:
    """One contiguous window ``[lo, hi)`` of a spilled graph's edges.

    The arrays are zero-copy views into the store's memmaps — touching
    them faults in only this shard's pages.
    """

    index: int
    lo: int
    hi: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.hi - self.lo


class ShardedCSRStore:
    """A :class:`CommunityGraph` spilled to disk and reopened via ``mmap``.

    Created by :meth:`spill` (write side) or :meth:`open` (reload
    side).  The store owns one checksummed spill file holding the six
    graph arrays plus a JSON manifest recording the shard table; both
    are written atomically, so a crash mid-spill leaves either the
    previous complete spill or nothing — never a torn store.
    """

    def __init__(
        self,
        directory: Path,
        *,
        n_vertices: int,
        n_edges: int,
        shard_ranges: list[tuple[int, int]],
        arrays: dict[str, np.ndarray],
    ) -> None:
        self.directory = directory
        self.n_vertices = n_vertices
        self.n_edges = n_edges
        self.shard_ranges = shard_ranges
        self._arrays = arrays

    # ------------------------------------------------------------- write side
    @classmethod
    def spill(
        cls,
        graph: CommunityGraph,
        directory: str | os.PathLike,
        *,
        n_shards: int | None = None,
        shard_edges: int | None = None,
        faults: "FaultPlan | None" = None,
        artifact: str = "spill-graph",
        index: int = 0,
        verify: bool = False,
    ) -> "ShardedCSRStore":
        """Spill ``graph`` under ``directory`` and reopen it memmap-backed.

        ``n_shards``/``shard_edges`` fix the shard table (``shard_edges``
        wins when both are given); the default is :data:`DEFAULT_SHARDS`
        equal windows.  ``faults``/``artifact``/``index`` thread the
        chaos suite's disk-fault injection into the spill write.  The
        freshly written file is reopened without checksum verification
        by default (``verify=False``) — we just computed those bytes —
        while :meth:`open` always defaults to verifying.
        """
        d = Path(os.fspath(directory))
        d.mkdir(parents=True, exist_ok=True)
        e = graph.edges
        ranges = _shard_ranges(e.n_edges, n_shards=n_shards, shard_edges=shard_edges)
        write_spill(
            d / _GRAPH_FILE,
            {
                "ei": e.ei,
                "ej": e.ej,
                "w": e.w,
                "bucket_start": e.bucket_start,
                "bucket_end": e.bucket_end,
                "self_weights": graph.self_weights,
            },
            faults=faults,
            artifact=artifact,
            index=index,
        )
        manifest = {
            "version": _MANIFEST_VERSION,
            "n_vertices": int(e.n_vertices),
            "n_edges": int(e.n_edges),
            "spill_file": _GRAPH_FILE,
            "shards": [[int(lo), int(hi)] for lo, hi in ranges],
        }
        atomic_write_text(
            d / _MANIFEST, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return cls.open(d, verify=verify)

    # -------------------------------------------------------------- read side
    @classmethod
    def open(
        cls, directory: str | os.PathLike, *, verify: bool = True
    ) -> "ShardedCSRStore":
        """Reopen a spilled graph; raises :class:`SpillError` if torn."""
        d = Path(os.fspath(directory))
        try:
            manifest = json.loads((d / _MANIFEST).read_text(encoding="utf-8"))
        except OSError as exc:
            raise SpillError(f"{d}: no spill manifest: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpillError(f"{d}: corrupt spill manifest: {exc}") from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise SpillError(
                f"{d}: unsupported spill manifest version "
                f"{manifest.get('version')!r}"
            )
        arrays = read_spill(d / manifest["spill_file"], verify=verify)
        expected = {
            "ei", "ej", "w", "bucket_start", "bucket_end", "self_weights",
        }
        if set(arrays) != expected:
            raise SpillError(
                f"{d}: spill file arrays {sorted(arrays)} != {sorted(expected)}"
            )
        n_edges = int(manifest["n_edges"])
        if len(arrays["ei"]) != n_edges:
            raise SpillError(
                f"{d}: manifest says {n_edges} edges, spill file has "
                f"{len(arrays['ei'])}"
            )
        ranges = [(int(lo), int(hi)) for lo, hi in manifest["shards"]]
        if ranges and (
            ranges[0][0] != 0
            or ranges[-1][1] != n_edges
            or any(a[1] != b[0] for a, b in zip(ranges, ranges[1:]))
        ):
            raise SpillError(f"{d}: shard table does not tile [0, {n_edges})")
        return cls(
            d,
            n_vertices=int(manifest["n_vertices"]),
            n_edges=n_edges,
            shard_ranges=ranges,
            arrays=arrays,
        )

    # ------------------------------------------------------------------ views
    @property
    def n_shards(self) -> int:
        return len(self.shard_ranges)

    @property
    def nbytes(self) -> int:
        """Payload bytes on disk (the spilled arrays)."""
        return spill_nbytes(self.directory / _GRAPH_FILE)

    def load_shard(self, k: int) -> EdgeShard:
        """Shard ``k`` as zero-copy memmap views."""
        lo, hi = self.shard_ranges[k]
        return EdgeShard(
            index=k,
            lo=lo,
            hi=hi,
            ei=self._arrays["ei"][lo:hi],
            ej=self._arrays["ej"][lo:hi],
            w=self._arrays["w"][lo:hi],
        )

    def iter_shards(self) -> Iterator[EdgeShard]:
        for k in range(self.n_shards):
            yield self.load_shard(k)

    def as_graph(self) -> CommunityGraph:
        """The spilled graph, arrays backed by the store's memmaps.

        Value-identical to the graph that was spilled, so any kernel
        run on it produces bit-identical results; the returned graph
        carries this store as its ``spill_store`` attribute, which makes
        every phase kernel stream it shard window by shard window.
        """
        edges = EdgeList(
            ei=self._arrays["ei"],
            ej=self._arrays["ej"],
            w=self._arrays["w"],
            n_vertices=self.n_vertices,
            bucket_start=self._arrays["bucket_start"],
            bucket_end=self._arrays["bucket_end"],
        )
        graph = CommunityGraph(edges, self._arrays["self_weights"])
        graph.spill_store = self  # type: ignore[attr-defined]
        return graph

    def cleanup(self) -> None:
        """Drop the on-disk store (best effort; views become invalid)."""
        shutil.rmtree(self.directory, ignore_errors=True)


class LevelSpiller:
    """Spills each level's community graph to its own :class:`ShardedCSRStore`.

    A run whose context carries a spiller (``RunContext.spill``) hands
    every level's graph to :meth:`prepare_level` before scoring and
    continues on the returned memmap-backed twin; every phase kernel
    streams a graph that carries a spill store shard window by shard
    window.  The twin is value-identical and the streamed kernels are
    bit-identical to their one-window runs, so a spilled run produces
    exactly the serial run's dendrogram, level statistics and recorder
    profile — only the residency of the working set changes
    (file-backed pages the OS can evict instead of anonymous memory it
    cannot).

    Each level spills under ``spill_dir/level_NNNNN``; the previous
    level's store is deleted once the new one is durable, so at most two
    levels of spill exist at any instant.  ``spill_dir=None`` creates a
    private temporary directory removed when the spiller is
    garbage-collected or :meth:`release` is called; a caller-provided
    directory is never deleted wholesale (only the per-level stores
    inside it are).
    """

    def __init__(
        self,
        spill_dir: str | os.PathLike | None = None,
        *,
        n_shards: int | None = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if spill_dir is None:
            self.spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        else:
            self.spill_dir = Path(os.fspath(spill_dir))
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._owns_spill_dir = spill_dir is None
        self.n_shards = n_shards
        self.faults = faults
        self._store: ShardedCSRStore | None = None
        self.spilled_levels = 0
        self.spilled_bytes = 0
        self.spill_failures = 0
        # A private temp dir must not outlive the spiller even when the
        # caller never releases it explicitly.
        if self._owns_spill_dir:
            weakref.finalize(self, shutil.rmtree, str(self.spill_dir), True)

    def prepare_level(
        self,
        graph: CommunityGraph,
        level: int,
        *,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> CommunityGraph:
        """Spill ``graph`` for ``level`` and return its memmap-backed twin.

        Idempotent: a graph that already carries a spill store (e.g. a
        level re-entered after a guardian retry) is returned unchanged.
        The spill is visible in the trace as a ``spill_level`` span plus
        the ``spill.levels`` / ``spill.bytes_written`` counters.

        A spill that *fails* — disk full (``ENOSPC``), or a store that
        reopens torn — degrades to in-memory execution for this level
        instead of crashing the run: results are bit-identical either
        way, so the only cost is residency.  The failure is loud
        (``spill.failures`` counter, ``failed`` span attribute, warning
        log) and the next level retries spilling from scratch.
        """
        from repro.obs.trace import as_tracer

        if getattr(graph, "spill_store", None) is not None:
            return graph
        tr = as_tracer(tracer)
        directory = self.spill_dir / f"level_{level:05d}"
        with tr.span(
            "spill_level",
            level=level,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
        ) as sp:
            try:
                store = ShardedCSRStore.spill(
                    graph,
                    directory,
                    n_shards=self.n_shards,
                    faults=self.faults,
                    artifact="spill-graph",
                    index=level,
                )
            except (OSError, SpillError) as exc:
                sp.set(failed=f"{type(exc).__name__}: {exc}")
                tr.counter("spill.failures").inc()
                self.spill_failures += 1
                _log.warning(
                    "spill of level %d failed (%s); running the level "
                    "in-memory instead",
                    level,
                    exc,
                )
                shutil.rmtree(directory, ignore_errors=True)
                return graph
            nbytes = store.nbytes
            sp.set(
                items=graph.n_edges,
                bytes=nbytes,
                n_shards=store.n_shards,
                path=str(directory),
            )
        tr.counter("spill.levels").inc()
        tr.counter("spill.bytes_written").inc(nbytes)
        self.spilled_levels += 1
        self.spilled_bytes += nbytes
        previous, self._store = self._store, store
        if previous is not None:
            # The contracted graph's arrays may be scratch memmaps inside
            # the previous store's directory; they were just re-spilled
            # into the new store, and POSIX keeps already-mapped pages
            # valid after unlink, so dropping the old store is safe.
            previous.cleanup()
        return store.as_graph()

    @property
    def open_level_stores(self) -> int:
        """Level stores currently held open (0 or 1 by construction —
        :meth:`prepare_level` drops the previous store once the new one
        is durable).  The telemetry sampler exports this as a counter
        track so a store leak shows up as a climbing series."""
        return 1 if self._store is not None else 0

    def release(self) -> None:
        """Drop the current spill store (and a private temp directory).

        The spiller stays usable afterwards — the next
        :meth:`prepare_level` recreates the directory tree.
        """
        if self._store is not None:
            self._store.cleanup()
            self._store = None
        if self._owns_spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)


def _shard_ranges(
    n_edges: int,
    *,
    n_shards: int | None = None,
    shard_edges: int | None = None,
) -> list[tuple[int, int]]:
    """Contiguous windows tiling ``[0, n_edges)``."""
    if shard_edges is not None:
        if shard_edges < 1:
            raise ValueError("shard_edges must be at least 1")
        size = shard_edges
    else:
        k = DEFAULT_SHARDS if n_shards is None else n_shards
        if k < 1:
            raise ValueError("n_shards must be at least 1")
        size = max(1, -(-n_edges // k))
    return [
        (lo, min(n_edges, lo + size)) for lo in range(0, n_edges, size)
    ] or ([(0, 0)] if n_edges == 0 else [])


def _ranges_of(
    graph: CommunityGraph, shard_edges: int | None = None
) -> list[tuple[int, int]]:
    """The edge windows a phase kernel streams ``graph`` by.

    An explicit ``shard_edges`` cap wins; otherwise a spilled graph's
    shard table, and ``[(0, n_edges)]`` — one window — for an in-memory
    graph.
    """
    if shard_edges is not None:
        return _shard_ranges(graph.n_edges, shard_edges=shard_edges)
    store = getattr(graph, "spill_store", None)
    if store is not None:
        return store.shard_ranges
    return [(0, graph.n_edges)]


class _Scratch:
    """Edge-order scratch arrays: spill-backed beside the store, else RAM.

    Kernels ask for working buffers of edge length through this so that
    a spilled graph's temporaries are file-backed (evictable) while the
    same kernel stays usable on a plain in-memory graph.
    """

    def __init__(self, graph: CommunityGraph, tag: str) -> None:
        store = getattr(graph, "spill_store", None)
        self.directory: Path | None = (
            store.directory / f"scratch-{tag}" if store is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._paths: list[Path] = []

    def array(self, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
        if self.directory is None:
            return np.empty(shape, dtype=dtype)
        path = self.directory / f"{name}.npy"
        self._paths.append(path)
        return scratch_memmap(path, dtype=dtype, shape=shape)

    def cleanup(self) -> None:
        for path in self._paths:
            path.unlink(missing_ok=True)
        if self.directory is not None:
            try:
                self.directory.rmdir()
            except OSError:  # pragma: no cover - leftover foreign files
                pass
