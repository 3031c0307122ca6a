"""Per-layer timing for the traced benchmark run, from outside the program.

Nothing under ``src/`` is changed to take these measurements.  Every
number comes from wrapping a public seam the program already has:

* ``detect_communities`` accepts a scorer instance and matcher and
  contractor callables, so the phase kernels are timed by passing
  wrappers around the registered defaults;
* ``StreamConfig`` names its kernels through the registry, so the same
  wrappers are registered with ``register_kernel`` for the service;
* the remaining stream layers are wrapped where the service reaches
  them: the ``from_edges``/``modularity``/``coverage``/
  ``AgglomerationEngine`` names ``repro.stream.service`` imports, and
  the ``WriteAheadLog.append``, ``EdgeStore.apply``/``as_graph`` and
  ``SnapshotStore.save`` methods of one service instance.

Work counts (passes, edge scans, contraction sizes, levels, engine runs,
reruns, WAL appends, snapshot saves) are deterministic for a given
input, so two traced runs of one seed must report them identically.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator
from unittest import mock

import numpy as np

import repro.stream.service as service
from repro.core.registry import create_kernel, register_kernel, unregister_kernel
from repro.platform.kernels import TraceRecorder

#: The registry names ``detect_communities`` and ``StreamConfig`` default to.
DEFAULT_KERNELS = {"scorer": "modularity", "matcher": "worklist", "contractor": "bucket"}
#: Registry names the timed wrappers are registered under for the service.
TIMED_KERNELS = {kind: f"perfbench-{name}" for kind, name in DEFAULT_KERNELS.items()}

#: Counts that must repeat exactly between two traced runs of one input.
WORK_COUNTS = (
    "match.passes",
    "match.edge_scans",
    "contract.edges_in",
    "contract.edges_out",
    "engine.levels",
    "engine.runs",
    "service.reruns",
    "wal.appends",
    "snapshot.saves",
)
#: Work counts that are the calls of one wrapped layer.
CALL_COUNTS = {
    "service.reruns": "service.rerun",
    "wal.appends": "wal.append",
    "snapshot.saves": "snapshot.save",
}


class LayerClock:
    """Busy seconds and call counts per layer, plus deterministic work counts.

    ``uncounted_s`` is time spent inside the wrappers on the benchmark's
    own bookkeeping; it is left out of every layer's busy time, and the
    caller leaves it out of the enclosing wall time.
    """

    def __init__(self) -> None:
        self.busy: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.uncounted_s = 0.0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its wall time and calls charged to ``layer``."""

        def timed(*args, **kwargs):
            t0, skip0 = time.perf_counter(), self.uncounted_s
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy[layer] += time.perf_counter() - t0 - (self.uncounted_s - skip0)
                self.calls[layer] += 1

        return timed

    def phase_kernels(self) -> tuple[object, Callable, Callable]:
        """Timed (scorer, matcher, contractor) around the registered defaults."""
        scorer = create_kernel("scorer", DEFAULT_KERNELS["scorer"])
        match = create_kernel("matcher", DEFAULT_KERNELS["matcher"])
        contract = create_kernel("contractor", DEFAULT_KERNELS["contractor"])
        timed_score = self.wrap("score", scorer.score)
        timed_match = self.wrap("match", match)
        timed_contract = self.wrap("contract", contract)
        clock = self

        class TimedScorer:
            name = scorer.name
            validates_output = getattr(scorer, "validates_output", False)

            def score(self, graph, recorder=None):
                return timed_score(graph, recorder)

        def counted_match(graph, scores, recorder=None, **kwargs):
            result = timed_match(graph, scores, recorder, **kwargs)
            # The kernel reports one ``match_pass`` record per pass whose
            # items are the live edges it scanned.  Recording costs time
            # per pass (half again of matching on stream-drift's small
            # graphs), so the scans are counted by a second, uncounted run.
            t0 = time.perf_counter()
            recorded = TraceRecorder()
            again = match(graph, scores, recorded, **kwargs)
            clock.uncounted_s += time.perf_counter() - t0
            if again.passes != result.passes or not np.array_equal(
                again.matched_edges, result.matched_edges
            ):
                raise RuntimeError("the matcher gave two answers for one input")
            clock.counts["match.passes"] += result.passes
            clock.counts["match.edge_scans"] += recorded.total_items("match_pass")
            clock.counts["match.pairs"] += result.n_pairs
            clock.counts["match.failed_claims"] += result.failed_claims
            return result

        def counted_contract(graph, matching, recorder=None, **kwargs):
            new_graph, mapping = timed_contract(graph, matching, recorder, **kwargs)
            clock.counts["contract.edges_in"] += graph.n_edges
            clock.counts["contract.edges_out"] += new_graph.n_edges
            return new_graph, mapping

        return TimedScorer(), counted_match, counted_contract

    def count_engine_run(self, graph, result) -> None:
        self.counts["engine.runs"] += 1
        self.counts["engine.levels"] += result.n_levels
        self.counts["engine.input_edges"] += graph.n_edges

    def copy(self) -> "LayerClock":
        """A frozen copy, so later calls through the wrappers do not count."""
        frozen = LayerClock()
        frozen.busy, frozen.calls, frozen.counts = (
            self.busy.copy(), self.calls.copy(), self.counts.copy())
        frozen.uncounted_s = self.uncounted_s
        return frozen

    def count(self, name: str) -> int:
        """A work count: counted by a wrapper, or the calls of a wrapped layer."""
        return int(self.calls[CALL_COUNTS[name]] if name in CALL_COUNTS else self.counts[name])

    def work_counts(self) -> dict[str, int]:
        return {name: self.count(name) for name in WORK_COUNTS}


@contextmanager
def timed_graph_builds(clock: LayerClock, *modules) -> Iterator[None]:
    """Charge ``from_edges`` calls made by ``modules`` to the graph layer."""
    with ExitStack() as stack:
        for module in modules:
            stack.enter_context(
                mock.patch.object(
                    module, "from_edges", clock.wrap("graph.build", module.from_edges)
                )
            )
        yield


@contextmanager
def timed_service_layers(clock: LayerClock) -> Iterator[dict[str, str]]:
    """Instrument what ``repro.stream.service`` calls; yields kernel names.

    The yielded mapping holds the registry names of the timed kernels,
    ready to pass to ``StreamConfig``.  Engine runs on graphs the
    service builds with ``from_edges`` are incremental repairs; runs on
    any other graph (``EdgeStore.as_graph``) are full reruns.
    """
    scorer, matcher, contractor = clock.phase_kernels()
    build = clock.wrap("graph.build", service.from_edges)
    last_build = [None]

    def timed_build(*args, **kwargs):
        last_build[0] = build(*args, **kwargs)
        return last_build[0]

    class TimedEngine(service.AgglomerationEngine):
        def run(self, graph, ctx, **kwargs):
            layer = "service.repair" if graph is last_build[0] else "service.rerun"
            result = clock.wrap(layer, super().run)(graph, ctx, **kwargs)
            clock.count_engine_run(graph, result)
            return result

    kernels = {"scorer": lambda: scorer, "matcher": lambda: matcher,
               "contractor": lambda: contractor}
    with ExitStack() as stack:
        for kind, factory in kernels.items():
            register_kernel(kind, TIMED_KERNELS[kind], factory, replace=True)
            stack.callback(unregister_kernel, kind, TIMED_KERNELS[kind])
        for name, replacement in (
            ("from_edges", timed_build),
            ("modularity", clock.wrap("metrics.eval", service.modularity)),
            ("coverage", clock.wrap("metrics.eval", service.coverage)),
            ("AgglomerationEngine", TimedEngine),
        ):
            stack.enter_context(mock.patch.object(service, name, replacement))
        yield dict(TIMED_KERNELS)


def instrument_service(clock: LayerClock, svc) -> None:
    """Time the WAL, edge-store and snapshot methods of one open service."""
    svc.wal.append = clock.wrap("wal.append", svc.wal.append)
    svc.snapshots.save = clock.wrap("snapshot.save", svc.snapshots.save)
    svc.store.apply = clock.wrap("store.apply", svc.store.apply)
    svc.store.as_graph = clock.wrap("store.as_graph", svc.store.as_graph)
