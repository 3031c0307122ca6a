"""Phase-scoped memory attribution via :mod:`tracemalloc`.

The telemetry sampler (:mod:`repro.obs.telemetry`) answers *how much*
memory a run used over time; this module answers *which phase and which
allocation sites* the memory came from.  A :class:`PhaseMemoryProfiler`
wraps each score/match/contract execution — the engine's one phase
channel, :meth:`~repro.core.engine.RunContext.phase`, enters its probe
inside the guardian's watchdog — and records, per phase kind:

* the **net allocation delta** across the phase (traced current memory
  at exit minus entry — negative when a phase frees more than it
  allocates),
* the traced **peak** inside the phase (``tracemalloc.reset_peak`` on
  entry, peak reading at exit),
* the **top-N allocation sites** by net growth, aggregated across all
  executions of that phase kind (snapshot diff, grouped by
  ``file:lineno``).

The report merges into the performance-attribution document
(:func:`repro.obs.attribution.attribute_run` ``memory=`` parameter) and
renders as a section of ``repro report``.

tracemalloc instruments every Python-level allocation, so profiling is
*not* free (typically 2–4× slower with snapshot diffs) — this is a
diagnosis tool, opt-in via ``--memprof``, never a default.  The default
is :data:`NULL_MEMPROF`, for which ``RunContext.phase`` enters no probe
at all.  NumPy buffers are traced too (NumPy routes its data allocator
through tracemalloc's ``np`` domain), which is what makes the per-phase
deltas meaningful for this pipeline's array-heavy kernels.
"""

from __future__ import annotations

import tracemalloc
from typing import Any

__all__ = [
    "PhaseMemoryProfiler",
    "NullMemoryProfiler",
    "NULL_MEMPROF",
    "as_memprof",
]


class _PhaseProbe:
    """Context manager measuring one phase execution."""

    __slots__ = ("_prof", "_name", "_entry_bytes", "_entry_snapshot")

    def __init__(self, prof: "PhaseMemoryProfiler", name: str) -> None:
        self._prof = prof
        self._name = name
        self._entry_bytes = 0
        self._entry_snapshot: tracemalloc.Snapshot | None = None

    def __enter__(self) -> "_PhaseProbe":
        if not tracemalloc.is_tracing():  # pragma: no cover - defensive
            return self
        self._entry_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if self._prof.top_sites > 0:
            self._entry_snapshot = tracemalloc.take_snapshot()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if not tracemalloc.is_tracing():  # pragma: no cover - defensive
            return
        current, peak = tracemalloc.get_traced_memory()
        self._prof._record(
            self._name,
            net_bytes=current - self._entry_bytes,
            peak_bytes=max(0, peak - self._entry_bytes),
        )
        if self._entry_snapshot is not None:
            try:
                exit_snapshot = tracemalloc.take_snapshot()
                # tracemalloc's own bookkeeping dominates small diffs;
                # drop it so the top sites point at the pipeline.
                own = tracemalloc.Filter(False, tracemalloc.__file__)
                diff = exit_snapshot.filter_traces((own,)).compare_to(
                    self._entry_snapshot.filter_traces((own,)), "lineno"
                )
            except Exception:  # pragma: no cover - never fail the run
                return
            finally:
                self._entry_snapshot = None
            for stat in diff:
                if stat.size_diff == 0:
                    continue
                frame = stat.traceback[0]
                site = f"{frame.filename}:{frame.lineno}"
                self._prof._record_site(self._name, site, stat.size_diff)


class PhaseMemoryProfiler:
    """Attribute allocation deltas and sites to pipeline phases.

    Parameters
    ----------
    top_sites:
        Allocation sites kept per phase kind in the report (by absolute
        net growth).  ``0`` disables snapshot diffs entirely — phase
        deltas and peaks still record, at a fraction of the overhead.
    frames:
        Traceback depth passed to ``tracemalloc.start`` (deeper frames
        cost memory per live allocation; the report only uses the
        innermost frame, so the default stays shallow).
    """

    enabled = True

    def __init__(self, *, top_sites: int = 5, frames: int = 1) -> None:
        if top_sites < 0:
            raise ValueError("top_sites must be >= 0")
        if frames < 1:
            raise ValueError("frames must be >= 1")
        self.top_sites = top_sites
        self.frames = frames
        self._owns_tracing = False
        self._phases: dict[str, dict] = {}
        self._sites: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------- lifecycle
    def start(self) -> "PhaseMemoryProfiler":
        """Begin tracing (idempotent; respects a caller's own tracing)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start(self.frames)
            self._owns_tracing = True
        return self

    def stop(self) -> dict:
        """Stop tracing (if this profiler started it) and return the report."""
        if self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracing = False
        return self.report()

    def __enter__(self) -> "PhaseMemoryProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ----------------------------------------------------------- hooks
    def phase(self, name: str) -> _PhaseProbe:
        """Measure one execution of phase ``name`` (entered by
        :meth:`~repro.core.engine.RunContext.phase`).

        Attribution is by phase *kind* (levels of the same phase
        aggregate), matching how the span attribution reports.
        """
        return _PhaseProbe(self, name)

    def _record(self, name: str, *, net_bytes: int, peak_bytes: int) -> None:
        entry = self._phases.setdefault(
            name, {"calls": 0, "net_bytes": 0, "peak_bytes": 0}
        )
        entry["calls"] += 1
        entry["net_bytes"] += int(net_bytes)
        entry["peak_bytes"] = max(entry["peak_bytes"], int(peak_bytes))

    def _record_site(self, name: str, site: str, size_diff: int) -> None:
        sites = self._sites.setdefault(name, {})
        sites[site] = sites.get(site, 0) + int(size_diff)

    # ---------------------------------------------------------- report
    def report(self) -> dict:
        """The attribution block: per-phase deltas plus top-N sites."""
        phases = {}
        for name, entry in self._phases.items():
            sites = sorted(
                self._sites.get(name, {}).items(),
                key=lambda kv: (-abs(kv[1]), kv[0]),
            )[: self.top_sites]
            phases[name] = {
                **entry,
                "top_sites": [
                    {"site": site, "net_bytes": size} for site, size in sites
                ],
            }
        return {
            "tool": "tracemalloc",
            "frames": self.frames,
            "top_sites": self.top_sites,
            "phases": phases,
        }


class NullMemoryProfiler:
    """Inert profiler: no tracing, no phase probe, empty report."""

    enabled = False

    def start(self) -> "NullMemoryProfiler":
        return self

    def stop(self) -> dict:
        return {}

    def __enter__(self) -> "NullMemoryProfiler":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def report(self) -> dict:
        return {}


#: Shared inert instance (stateless, safe to reuse across runs).
NULL_MEMPROF = NullMemoryProfiler()


def as_memprof(
    memprof: "PhaseMemoryProfiler | NullMemoryProfiler | None",
) -> "PhaseMemoryProfiler | NullMemoryProfiler":
    """Normalize an optional profiler argument (``None`` -> null)."""
    return NULL_MEMPROF if memprof is None else memprof
