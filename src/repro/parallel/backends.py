"""Pluggable execution backends for chunked phase execution.

The supervised pool (:mod:`repro.parallel.pool`) gives one phase —
modularity scoring — multi-process execution.  This module turns that
capability into a first-class, selectable service: an
:class:`ExecutionBackend` maps an idempotent chunk function over a
shared-memory output block, and *any* phase kernel holding a
:class:`~repro.core.engine.RunContext` can request it via
``ctx.backend.map_chunks(...)`` instead of hard-coding a pool.

Three backends ship:

* ``serial`` — chunks run in the calling process, in order.  Zero
  process overhead, always available, and the reference for parity
  tests (backend choice never changes results, only the execution
  profile).
* ``process-pool`` — chunks run on the supervised fork-based
  :class:`~repro.parallel.pool.SharedArrayPool` with the full recovery
  ladder (retry/backoff, deadlines, parent-side validation, in-process
  degradation; see docs/RESILIENCE.md).
* ``sharded`` — out-of-core execution: each level's community graph is
  spilled to a checksummed on-disk store and the pipeline streams it
  shard-at-a-time (:class:`ShardedBackend`, docs/OUT_OF_CORE.md).  This
  is also the guardian's spill rung target when a run breaches its
  memory budget.

Every ``map_chunks`` call is wrapped in a ``"backend_map"`` span carrying
the backend identity and worker count, and mirrored to the
``backend.<name>.maps`` counter and ``backend.<name>.workers`` gauge, so
which backend executed which phase is always visible in the trace and
the benchmark ledger.

Backends register by name (:func:`register_backend`) exactly like phase
kernels in :mod:`repro.core.registry`; the CLI's ``--backend`` choices
come from :func:`backend_names`.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.parallel.pool import SharedArrayPool
from repro.resilience.faults import FaultPlan
from repro.resilience.report import RecoveryReport
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.graph.csr import ShardedCSRStore
    from repro.graph.graph import CommunityGraph

_log = logging.getLogger(__name__)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "register_backend",
    "backend_names",
    "create_backend",
    "as_backend",
]

#: Chunk function signature shared with :class:`SharedArrayPool`:
#: ``fn((shm_name, lo, hi))`` writes the ``[lo, hi)`` slice of the shared
#: output block and nothing else (idempotence is what makes re-execution
#: and backend swapping safe).
ChunkFn = Callable[[tuple[str, int, int]], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Protocol every execution backend implements.

    Attributes
    ----------
    name:
        Registry identity, stamped on spans and metrics.
    n_workers:
        Degree of parallelism the backend executes with (1 for serial).
    """

    name: str
    n_workers: int

    def map_chunks(
        self,
        fn: ChunkFn,
        shm_name: str,
        n_items: int,
        *,
        tracer: Tracer | NullTracer | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        validate: Callable[[int, int], bool] | None = None,
        report: RecoveryReport | None = None,
    ) -> RecoveryReport:
        """Apply ``fn`` across chunk ranges of ``[0, n_items)``."""
        ...  # pragma: no cover - protocol stub


class _PoolBackedBackend:
    """Shared implementation: both built-ins delegate to the supervised
    pool (which runs inline when ``n_workers == 1``), so the recovery
    ladder, chunk spans and worker metrics behave identically and only
    the degree of parallelism differs."""

    name = "pool-backed"

    def __init__(
        self, n_workers: int | None = None, *, chunks_per_worker: int = 1
    ) -> None:
        self._pool = SharedArrayPool(
            n_workers, chunks_per_worker=chunks_per_worker
        )
        self.n_workers = self._pool.n_workers
        self.chunks_per_worker = self._pool.chunks_per_worker

    def map_chunks(
        self,
        fn: ChunkFn,
        shm_name: str,
        n_items: int,
        *,
        tracer: Tracer | NullTracer | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        validate: Callable[[int, int], bool] | None = None,
        report: RecoveryReport | None = None,
    ) -> RecoveryReport:
        tr = as_tracer(tracer)
        with tr.span(
            "backend_map",
            backend=self.name,
            n_workers=self.n_workers,
            chunks_per_worker=self.chunks_per_worker,
        ) as sp:
            rep = self._pool.run(
                fn,
                shm_name,
                n_items,
                tracer=tracer,
                policy=policy,
                faults=faults,
                validate=validate,
                report=report,
            )
            sp.set(items=n_items, retries=rep.retries)
        tr.counter(f"backend.{self.name}.maps").inc()
        tr.gauge(f"backend.{self.name}.workers").set(self.n_workers)
        return rep

    def rechunked(self, factor: int = 2) -> "_PoolBackedBackend":
        """A new backend of the same kind with ``factor``× the chunk
        count (i.e. chunk size divided by ``factor``).

        The run guardian's "halve-chunks" degradation rung uses this to
        shrink the unit of retried/validated work without changing the
        degree of parallelism.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return self._with_chunks(self.chunks_per_worker * factor)

    def _with_chunks(self, chunks_per_worker: int) -> "_PoolBackedBackend":
        return type(self)(
            self.n_workers, chunks_per_worker=chunks_per_worker
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"chunks_per_worker={self.chunks_per_worker})"
        )


class SerialBackend(_PoolBackedBackend):
    """In-process chunk execution — the always-available default."""

    name = "serial"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        chunks_per_worker: int = 1,
    ) -> None:
        # A serial backend is serial regardless of the requested width;
        # accepting (and ignoring) n_workers keeps one factory signature
        # across all backends.
        super().__init__(1, chunks_per_worker=chunks_per_worker)


class ProcessPoolBackend(_PoolBackedBackend):
    """Supervised fork-based worker-process execution.

    ``n_workers=None`` sizes the pool to the machine's CPU count.  The
    retry/deadline/degradation behavior is
    :class:`~repro.parallel.pool.SharedArrayPool`'s (see
    docs/RESILIENCE.md); a per-backend default :class:`RetryPolicy` can
    be set at construction and is used whenever ``map_chunks`` is not
    given one explicitly.
    """

    name = "process-pool"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        policy: RetryPolicy | None = None,
        chunks_per_worker: int = 1,
    ) -> None:
        super().__init__(n_workers, chunks_per_worker=chunks_per_worker)
        self.policy = policy

    def _with_chunks(self, chunks_per_worker: int) -> "ProcessPoolBackend":
        return ProcessPoolBackend(
            self.n_workers,
            policy=self.policy,
            chunks_per_worker=chunks_per_worker,
        )

    def map_chunks(
        self,
        fn: ChunkFn,
        shm_name: str,
        n_items: int,
        *,
        tracer: Tracer | NullTracer | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        validate: Callable[[int, int], bool] | None = None,
        report: RecoveryReport | None = None,
    ) -> RecoveryReport:
        return super().map_chunks(
            fn,
            shm_name,
            n_items,
            tracer=tracer,
            policy=policy if policy is not None else self.policy,
            faults=faults,
            validate=validate,
            report=report,
        )


class ShardedBackend(SerialBackend):
    """Out-of-core execution: each level's graph is spilled to disk and
    the pipeline's kernels stream it shard-at-a-time.

    The backend itself still satisfies :class:`ExecutionBackend` (it is a
    :class:`SerialBackend` for ``map_chunks``, so every guardian rung that
    rechunks or retries keeps working); what makes it *sharded* is the
    capability surface the engine probes for:

    * ``sharded = True`` — the engine hands each level's graph to
      :meth:`prepare_level` before scoring.
    * :meth:`prepare_level` — called by the engine at the top of every
      level; spills the community graph under ``spill_dir/level_NNNNN``
      via :class:`~repro.graph.csr.ShardedCSRStore` and returns the
      value-identical memmap-backed graph.  The previous level's store is
      deleted once the new one is durable, so at most two levels of
      spill exist at any instant.  Every phase kernel streams a graph
      that carries a spill store shard window by shard window.

    Because the memmap-backed graph is value-identical to the in-memory
    one and the streamed kernels are bit-identical to their one-window
    runs, a sharded run produces exactly the same dendrogram,
    level statistics and recorder profile as a serial run — only the
    residency of the working set changes (file-backed pages the OS can
    evict instead of anonymous memory it cannot).

    ``spill_dir=None`` creates a private temporary directory removed when
    the backend is garbage-collected or :meth:`release` is called; a
    caller-provided directory is never deleted wholesale (only the
    per-level stores inside it are).
    """

    name = "sharded"
    #: Capability flag: the engine spills each level via prepare_level.
    sharded = True

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        spill_dir: str | os.PathLike | None = None,
        n_shards: int | None = None,
        shard_edges: int | None = None,
        chunks_per_worker: int = 1,
        faults: FaultPlan | None = None,
    ) -> None:
        super().__init__(1, chunks_per_worker=chunks_per_worker)
        if spill_dir is None:
            self.spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._owns_spill_dir = True
        else:
            self.spill_dir = Path(os.fspath(spill_dir))
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            self._owns_spill_dir = False
        self.n_shards = n_shards
        self.shard_edges = shard_edges
        self.faults = faults
        self._store: "ShardedCSRStore | None" = None
        self.spilled_levels = 0
        self.spilled_bytes = 0
        self.spill_failures = 0
        # Private temp dirs must not outlive the backend even when the
        # caller never releases it explicitly.
        self._finalizer = (
            weakref.finalize(
                self, shutil.rmtree, str(self.spill_dir), True
            )
            if self._owns_spill_dir
            else None
        )

    # ------------------------------------------------------------- spilling
    def prepare_level(
        self,
        graph: "CommunityGraph",
        level: int,
        *,
        tracer: Tracer | NullTracer | None = None,
    ) -> "CommunityGraph":
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
        from repro.errors import SpillError
        from repro.graph.csr import ShardedCSRStore

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
                    shard_edges=self.shard_edges,
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

        The backend stays usable afterwards — the next
        :meth:`prepare_level` recreates the directory tree.
        """
        if self._store is not None:
            self._store.cleanup()
            self._store = None
        if self._owns_spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    # ------------------------------------------------------------ rechunking
    def _with_chunks(self, chunks_per_worker: int) -> "ShardedBackend":
        clone = ShardedBackend(
            self.n_workers,
            spill_dir=self.spill_dir,
            n_shards=self.n_shards,
            shard_edges=self.shard_edges,
            chunks_per_worker=chunks_per_worker,
            faults=self.faults,
        )
        # The clone replaces this backend in the run context; hand over
        # the live store (and temp-dir ownership) so the cleanup chain
        # keeps at most two levels of spill on disk.
        # A finalizer is bound to one object's lifetime, so ownership
        # transfer means detaching ours and binding a fresh one to the
        # clone.
        clone._store, self._store = self._store, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._owns_spill_dir:
            self._owns_spill_dir = False
            clone._owns_spill_dir = True
            clone._finalizer = weakref.finalize(
                clone, shutil.rmtree, str(clone.spill_dir), True
            )
        return clone

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(spill_dir={str(self.spill_dir)!r}, "
            f"n_shards={self.n_shards}, shard_edges={self.shard_edges}, "
            f"chunks_per_worker={self.chunks_per_worker})"
        )


# ---------------------------------------------------------------- registry
_BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[..., ExecutionBackend],
    *,
    replace: bool = False,
) -> None:
    """Register a backend factory; called as ``factory(n_workers=...)``."""
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _BACKENDS and not replace:
        raise ValueError(
            f"backend {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _BACKENDS[name] = factory


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted (CLI choices)."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: str, *, n_workers: int | None = None
) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        available = ", ".join(backend_names()) or "none"
        raise ValueError(
            f"unknown backend {name!r} (available: {available})"
        ) from None
    return factory(n_workers=n_workers)


def as_backend(
    backend: "ExecutionBackend | str | None",
    *,
    n_workers: int | None = None,
) -> ExecutionBackend:
    """Normalize a backend argument to a usable instance.

    ``None`` resolves to :class:`SerialBackend` unless ``n_workers`` asks
    for real parallelism, in which case it resolves to
    :class:`ProcessPoolBackend` — the historical behavior of the
    ``--workers`` flag.  A string resolves through the registry; an
    instance passes through unchanged.
    """
    if backend is None:
        if n_workers is not None and n_workers > 1:
            return ProcessPoolBackend(n_workers)
        return SerialBackend()
    if isinstance(backend, str):
        return create_backend(backend, n_workers=n_workers)
    return backend


register_backend("serial", SerialBackend)
register_backend(
    "process-pool", lambda n_workers=None: ProcessPoolBackend(n_workers)
)
register_backend(
    "sharded", lambda n_workers=None: ShardedBackend(n_workers)
)
