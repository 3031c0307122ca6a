"""The benchmark's workloads: inputs from a seed, timed runs, output checks.

Two batch workloads run the default ``detect_communities`` on one
generated graph; the stream workload replays a generated edge log
through a fresh ``DetectionService`` in a closed loop (one caller, the
next batch sent only when the previous ``ingest`` returns).

An operation is one detection or one ingested batch.  It fails when it
raises or when its output fails a check; for a batch, also when it ends
in ``repair-failed``.  A failed end-of-replay check fails every batch
of that replay, since their cumulative state is what it rejects.
"""

from __future__ import annotations

import ctypes
import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.generators.rmat
import repro.graph.subgraph
from repro import generators
from repro.core.agglomeration import detect_communities
from repro.core.termination import TerminationCriteria
from repro.metrics.coverage import coverage
from repro.metrics.modularity import modularity
from repro.metrics.partition import Partition
from repro.stream import DetectionService, StreamConfig, generate_edge_log, read_edge_log

import sbm
from layers import LayerClock, instrument_service, timed_graph_builds, timed_service_layers

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest traced runs, each after an untraced one, per traced benchmark run.
TRACED_REPEATS = 2
#: Recomputed modularity must match the engine's own figure this closely.
MODULARITY_TOL = 1e-9
#: The streaming answer may differ from a from-scratch detection of the
#: final graph by at most this much modularity (incremental vs scratch).
STREAM_EPSILON = 0.02
#: The edge log of ``stream-drift``; the seed is added per run.
STREAM_LOG = dict(
    n_batches=200,
    batch_size=256,
    n_vertices=2000,
    n_blocks=40,
    drift_every=50,
    p_delete=0.15,
)
#: Percentile reported as the latency tail (``batch_latency_p95_ms``).
TAIL = 0.95


@dataclass
class Outcome:
    """Operations attempted and failed, metrics, and the lines explaining them."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, n_ops: int, why: str) -> None:
        self.failed += n_ops
        self.problems.append(why)

    def put(self, name: str, value: float, unit: str, base: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.notes.append(f"{name} = {value:.6g} {unit}" + (f"  ({base})" if base else ""))


# ---------------------------------------------------------------- helpers
def reset_peak_rss() -> None:
    """Restart the kernel's ``VmHWM`` count so set-up's peak does not hide the timed phase.

    Freed set-up memory is first handed back to the kernel, so the count
    starts from what the timed phase holds, not from what the allocator kept.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def put_latency(out: Outcome, latencies_s: list[float], what: str) -> None:
    """p50 and the tail percentile, with the sample count behind each."""
    n = len(latencies_s)
    beyond = n - math.ceil(TAIL * n)
    out.put("batch_latency_p50_ms", 1e3 * nearest_rank(latencies_s, 0.5), "ms",
            f"median of {n} {what}")
    tail_note = f"p{TAIL * 100:.0f} of {n} {what}, {beyond} samples beyond it"
    if beyond < 10:
        tail_note += "; fewer than 10, so it is at or near the maximum"
    out.put("batch_latency_p95_ms", 1e3 * nearest_rank(latencies_s, TAIL), "ms", tail_note)


def median_setup(make, seed: int) -> tuple[object, list[float]]:
    """Run ``make(seed)`` SETUP_REPEATS times; returns the last input and the times."""
    times, made = [], None
    for _ in range(SETUP_REPEATS):
        made = None  # release the previous input before building the next
        t0 = time.perf_counter()
        made = make(seed)
        times.append(time.perf_counter() - t0)
    return made, times


def share(out: Outcome, name: str, part: float, whole: float, part_name: str, whole_name: str) -> None:
    """Report ``part / whole``; a share outside [0, 1] is a measuring defect."""
    value = part / whole if whole > 0 else 0.0
    if not 0.0 <= value <= 1.0:
        raise RuntimeError(f"{name} = {value} lies outside [0, 1] ({part_name} / {whole_name})")
    out.put(name, value, "fraction", f"{part_name} {part:.6g} s / {whole_name} {whole:.6g} s")


def check_within(parts: dict[str, float], whole: float, whole_name: str, n_intervals: int) -> float:
    """Summed busy time of disjoint layers may not exceed the enclosing wall time."""
    resolution = time.get_clock_info("perf_counter").resolution
    total = sum(parts.values())
    if total > whole + resolution * (n_intervals + 1):
        raise RuntimeError(
            f"layer busy time {total:.9f} s ({', '.join(parts)}) exceeds "
            f"{whole_name} {whole:.9f} s"
        )
    return whole - total


#: Layers the stream service calls directly; the rest of an ingest is its own.
SERVICE_CHILDREN = ("wal.append", "store.apply", "store.as_graph", "graph.build",
                    "service.repair", "service.rerun", "metrics.eval", "snapshot.save")


def put_layers(out: Outcome, clocks: list[LayerClock], wall_s: float, wall_name: str,
               engine_wall_s: float, input_edges: int, service: bool) -> None:
    """Per-layer metrics from traced runs: mean times, counts of the first run.

    ``wall_s`` encloses every timed layer call: one detection, or the
    ingest loop when ``service`` is true.
    """
    def busy(layer: str) -> float:
        return statistics.fmean(c.busy[layer] for c in clocks)

    clock = clocks[0]
    phases = {k: busy(k) for k in ("score", "match", "contract")}
    n_phase_calls = sum(clock.calls[k] for k in phases)
    overhead = check_within(phases, engine_wall_s, "engine wall", n_phase_calls)
    for phase, value in phases.items():
        out.put(f"{phase}.busy_s", value, "s")
        out.put(f"{phase}.calls", clock.calls[phase], "count")
        share(out, f"{phase}.share", value, wall_s, f"{phase}.busy_s", wall_name)
    scans, passes = clock.counts["match.edge_scans"], clock.counts["match.passes"]
    out.put("match.passes", passes, "count")
    out.put("match.edge_scans", scans, "count")
    out.put("match.scan_amplification", scans / input_edges if input_edges else 0.0, "x",
            f"match.edge_scans {scans} / engine input edges {input_edges}")
    pairs, failed = clock.counts["match.pairs"], clock.counts["match.failed_claims"]
    claims = 2 * pairs + failed
    ratio = 2 * pairs / claims if claims else 1.0
    if not 0.0 <= ratio <= 1.0:
        raise RuntimeError(f"match.claim_success_ratio = {ratio} lies outside [0, 1]")
    out.put("match.claim_success_ratio", ratio, "fraction",
            f"2 x {pairs} pairs / (2 x {pairs} pairs + {failed} failed claims)")
    out.put("contract.edges_in", clock.counts["contract.edges_in"], "count")
    out.put("contract.edges_out", clock.counts["contract.edges_out"], "count")
    out.put("engine.overhead_s", overhead, "s",
            f"engine wall {engine_wall_s:.6g} s - score, match and contract busy time")
    out.put("engine.levels", clock.counts["engine.levels"], "count")
    out.put("engine.runs", clock.counts["engine.runs"], "count")
    out.put("graph.build_s", busy("graph.build"), "s")
    out.put("graph.build_calls", clock.calls["graph.build"], "count")
    out.put("metrics.eval_s", busy("metrics.eval"), "s")
    out.put("store.apply_s", busy("store.apply"), "s")
    out.put("store.as_graph_s", busy("store.as_graph"), "s")
    out.put("wal.append_s", busy("wal.append"), "s")
    out.put("wal.appends", clock.count("wal.appends"), "count")
    out.put("snapshot.save_s", busy("snapshot.save"), "s")
    out.put("snapshot.saves", clock.count("snapshot.saves"), "count")
    out.put("service.repair_s", busy("service.repair"), "s")
    out.put("service.rerun_s", busy("service.rerun"), "s")
    out.put("service.reruns", clock.count("service.reruns"), "count")
    self_s = 0.0
    if service:
        children = {k: busy(k) for k in SERVICE_CHILDREN}
        n_calls = sum(clock.calls[k] for k in children)
        self_s = check_within(children, wall_s, wall_name, n_calls)
    out.put("service.self_s", self_s, "s",
            f"{wall_name} {wall_s:.6g} s - the timed layers below the service" if service
            else "no service on this workload")


def compare_runs(out: Outcome, untraced: list[np.ndarray], traced: list[tuple[np.ndarray, LayerClock]]) -> None:
    """Every partition must equal the first untraced one; traced work counts must repeat."""
    for kind, runs in (("untraced", untraced), ("traced", [labels for labels, _ in traced])):
        for k, labels in enumerate(runs):
            if not np.array_equal(labels, untraced[0]):
                out.fail(1, f"{kind} run {k} partition differs from untraced run 0")
    counts = traced[0][1].work_counts()
    for k, (_, clock) in enumerate(traced):
        if clock.work_counts() != counts:
            out.fail(1, f"traced run {k} work counts {clock.work_counts()} differ from run 0 {counts}")
    out.notes.append(f"work counts of traced run 0 (of {len(traced)}): " + ", ".join(
        f"{k}={v}" for k, v in counts.items()))


def more_pairs(n_pairs: int, start: float, seconds: float) -> bool:
    """Traced runs alternate with untraced ones: at least TRACED_REPEATS pairs, for ``seconds``."""
    return n_pairs < TRACED_REPEATS or time.perf_counter() - start < seconds


def put_trace_overhead(out: Outcome, traced: list[float], untraced: list[float], what: str) -> None:
    """Tracing overhead from interleaved traced and untraced runs of one input."""
    out.put("trace.wall_s", statistics.fmean(traced), "s", f"mean of {len(traced)} traced {what}")
    out.put("trace.overhead_s", min(traced) - min(untraced), "s",
            f"fastest of {len(traced)} traced {min(traced):.6g} s - fastest of "
            f"{len(untraced)} untraced {min(untraced):.6g} s, run alternately")


# ---------------------------------------------------------- batch workloads
class BatchWorkload:
    """Default ``detect_communities`` on one generated graph."""

    def __init__(self, make_graph, build_callers: tuple) -> None:
        self.make_graph = make_graph
        #: Modules whose ``from_edges`` calls are the set-up's graph builds.
        self.build_callers = build_callers

    def check(self, out: Outcome, graph, result) -> float:
        """Independent output checks; returns the recomputed modularity."""
        labels = result.partition.labels
        if len(labels) != graph.n_vertices:
            out.fail(1, f"labels cover {len(labels)} of {graph.n_vertices} vertices")
            return float("nan")
        if len(labels) and np.unique(labels).size != int(labels.max()) + 1:
            out.fail(1, "labels are not dense 0..k-1")
            return float("nan")
        q = modularity(graph, result.partition)
        if not result.levels or abs(q - result.levels[-1].modularity_after) > MODULARITY_TOL:
            engine_q = result.levels[-1].modularity_after if result.levels else None
            out.fail(1, f"recomputed modularity {q!r} != engine's {engine_q!r}")
        elif result.terminated_by == "coverage" and coverage(graph, result.partition) < 0.5:
            out.fail(1, "terminated by coverage with coverage below 0.5")
        return q

    def detect(self, out: Outcome, graph, **kwargs):
        """One detection; returns its wall seconds and its result, or None if it raised."""
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = detect_communities(graph, **kwargs)
        except Exception:
            traceback.print_exc()
            out.fail(1, "detect_communities raised")
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, result

    def timed(self, seed: int, seconds: float, out: Outcome) -> None:
        graph, setup_times = median_setup(self.make_graph, seed)
        reset_peak_rss()
        latencies, qualities = [], []
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            wall, result = self.detect(out, graph)
            latencies.append(wall)
            if result is not None:
                qualities.append(self.check(out, graph, result))
        peak = peak_rss_mb()
        edges = graph.n_edges
        out.put("setup_s", statistics.median(setup_times), "s",
                f"median of {len(setup_times)} set-ups")
        out.put("edges_per_s", edges / statistics.median(latencies), "edges/s",
                f"{edges} edges / median detection wall of {len(latencies)}")
        out.put("events_per_s", edges * len(latencies) / sum(latencies), "events/s",
                f"{len(latencies)} detections x {edges} edges / {sum(latencies):.6g} s")
        put_latency(out, latencies, "detections")
        out.put("modularity", qualities[0] if qualities else float("nan"), "Q",
                "repro.metrics.modularity of the final partition")
        out.put("peak_rss_mb", peak, "MB", "VmHWM over the detections")

    def traced(self, seed: int, seconds: float, out: Outcome) -> None:
        setup_clock = LayerClock()
        with timed_graph_builds(setup_clock, *self.build_callers):
            graph = self.make_graph(seed)
        untraced, untraced_walls, traced_walls, runs = [], [], [], []
        start = time.perf_counter()
        while more_pairs(len(runs), start, seconds):
            wall, base = self.detect(out, graph)
            untraced_walls.append(wall)
            clock = LayerClock()
            scorer, matcher, contractor = clock.phase_kernels()
            wall, result = self.detect(out, graph, scorer=scorer, matcher=matcher,
                                       contractor=contractor)
            if result is None or base is None:
                return
            if not untraced:
                self.check(out, graph, base)
            untraced.append(base.partition.labels)
            traced_walls.append(wall - clock.uncounted_s)
            clock.count_engine_run(graph, result)
            clock.wrap("metrics.eval", modularity)(graph, result.partition)
            clock.busy["graph.build"] = setup_clock.busy["graph.build"]
            clock.calls["graph.build"] = setup_clock.calls["graph.build"]
            runs.append((result.partition.labels, clock))
        compare_runs(out, untraced, runs)
        wall = statistics.fmean(traced_walls)
        put_layers(out, [c for _, c in runs], wall, "detection wall", wall, graph.n_edges,
                   service=False)
        put_trace_overhead(out, traced_walls, untraced_walls, "detections")


# ----------------------------------------------------------- stream workload
@dataclass
class Replay:
    results: list
    latencies: list[float]
    loop_s: float
    labels: np.ndarray
    graph: object
    clock: LayerClock | None
    reruns: int
    snapshots: int
    verified: bool


class StreamWorkload:
    """Closed-loop replay of a drifting edge log through ``DetectionService``."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.n_replays = 0

    def make_batches(self, seed: int) -> list:
        path = generate_edge_log(self.workdir / "edges.log", seed=seed, **STREAM_LOG)
        return list(read_edge_log(path))

    def replay(self, out: Outcome, batches: list, clock: LayerClock | None = None,
               config: StreamConfig | None = None) -> Replay | None:
        self.n_replays += 1
        svc = DetectionService(self.workdir / f"service-{self.n_replays}",
                               config if config is not None else StreamConfig())
        svc.open()
        try:
            if clock is not None:
                instrument_service(clock, svc)
            results, latencies = [], []
            start = time.perf_counter()
            for _, i, j, w, op in batches:
                t0 = time.perf_counter()
                try:
                    results.append(svc.ingest(i, j, w, op))
                except Exception:
                    traceback.print_exc()
                    out.attempted += len(batches)
                    out.fail(len(batches) - len(results), f"ingest of batch {len(results) + 1} raised")
                    return None
                latencies.append(time.perf_counter() - t0)
            loop_s = time.perf_counter() - start
            frozen = clock.copy() if clock is not None else None
            if frozen is not None:
                loop_s -= frozen.uncounted_s
            return Replay(results, latencies, loop_s, svc.partition.labels,
                          svc.store.as_graph(), frozen,
                          svc.report.stream_reruns, svc.report.checkpoints_written,
                          bool(svc.verify()["ok"]))
        finally:
            svc.close()

    def check(self, out: Outcome, replay: Replay, scratch_q: float) -> float:
        """Per-batch and end-of-replay checks; returns the final modularity."""
        out.attempted += len(replay.results)
        bad = [r.seq for r in replay.results if not r.applied or r.rerun == "repair-failed"]
        if bad:
            out.fail(len(bad), f"batches {bad[:5]} not applied or repair-failed")
        q = modularity(replay.graph, Partition(replay.labels))
        problems = []
        if not replay.verified:
            problems.append("DetectionService.verify() is not ok")
        if replay.reruns < 1:
            problems.append("no full rerun happened")
        if replay.snapshots < 1:
            problems.append("no snapshot was saved")
        if abs(q - scratch_q) > STREAM_EPSILON:
            problems.append(f"final modularity {q:.6f} is more than {STREAM_EPSILON} "
                            f"from scratch detection's {scratch_q:.6f}")
        if problems:
            out.fail(len(replay.results) - len(bad), "; ".join(problems))
        return q

    def scratch_modularity(self, graph) -> float:
        """Modularity of a from-scratch detection of ``graph`` run to its local maximum."""
        result = detect_communities(graph, termination=TerminationCriteria.local_maximum())
        return modularity(graph, result.partition)

    def timed(self, seed: int, seconds: float, out: Outcome) -> None:
        batches, setup_times = median_setup(self.make_batches, seed)
        reset_peak_rss()
        replays = []
        start = time.perf_counter()
        while not replays or time.perf_counter() - start < seconds:
            replay = self.replay(out, batches)
            if replay is None:
                return
            replays.append(replay)
        peak = peak_rss_mb()
        scratch_q = self.scratch_modularity(replays[0].graph)
        qualities = [self.check(out, r, scratch_q) for r in replays]
        out.notes.append(f"incremental vs from-scratch modularity: {qualities[0]:.6f} vs "
                         f"{scratch_q:.6f} (allowed difference {STREAM_EPSILON})")
        events = sum(len(b[1]) for b in batches)
        latencies = [s for r in replays for s in r.latencies]
        loop_s = sum(r.loop_s for r in replays)
        out.put("setup_s", statistics.median(setup_times), "s",
                f"median of {len(setup_times)} log generations and parses")
        out.put("edges_per_s", events / statistics.median(r.loop_s for r in replays),
                "edges/s", f"{events} edge events / median ingest-loop wall of "
                f"{len(replays)} replays")
        out.put("events_per_s", events * len(replays) / loop_s, "events/s",
                f"{len(replays)} replays x {events} edge events / {loop_s:.6g} s of ingest loop")
        put_latency(out, latencies, "ingest calls")
        out.put("modularity", qualities[0], "Q",
                "repro.metrics.modularity of the final partition on EdgeStore.as_graph()")
        out.put("peak_rss_mb", peak, "MB", "VmHWM over the ingest loops")

    def traced(self, seed: int, seconds: float, out: Outcome) -> None:
        batches = self.make_batches(seed)
        untraced, traced = [], []
        start = time.perf_counter()
        while more_pairs(len(traced), start, seconds):
            base = self.replay(out, batches)
            clock = LayerClock()
            with timed_service_layers(clock) as names:
                replay = self.replay(out, batches, clock, StreamConfig(**names))
            if base is None or replay is None:
                return
            if replay.clock.count("service.reruns") != replay.reruns:
                out.fail(1, f"{replay.clock.count('service.reruns')} engine runs on full "
                            f"graphs but the service reports {replay.reruns} reruns")
            untraced.append(base)
            traced.append(replay)
        scratch_q = self.scratch_modularity(untraced[0].graph)
        for replay in untraced + traced:
            self.check(out, replay, scratch_q)
        compare_runs(out, [r.labels for r in untraced], [(r.labels, r.clock) for r in traced])
        clocks = [r.clock for r in traced]
        wall = statistics.fmean(r.loop_s for r in traced)
        engine_wall = statistics.fmean(c.busy["service.repair"] + c.busy["service.rerun"]
                                       for c in clocks)
        put_layers(out, clocks, wall, "ingest loop wall", engine_wall,
                   clocks[0].counts["engine.input_edges"], service=True)
        put_trace_overhead(out, [r.loop_s for r in traced], [r.loop_s for r in untraced],
                           "ingest loops")


def make_workloads(workdir: Path) -> dict:
    return {
        "rmat-17": BatchWorkload(
            lambda seed: generators.rmat_graph(17, 16, seed=seed),
            (repro.generators.rmat, repro.graph.subgraph)),
        "sbm-100k": BatchWorkload(
            lambda seed: sbm.planted_partition_graph(100_000, seed), (sbm,)),
        "stream-drift": StreamWorkload(workdir),
    }
