"""The engine's one phase channel: :meth:`RunContext.phase`.

Every score/match/contract execution goes through one context manager
that opens the phase span, publishes the phase to telemetry, and enters
the guardian's watchdog and the memory profiler's probe.  These tests
pin its contract end to end: order and multiplicity of phases, probe
accounting, breach nesting, and that an unguarded, unprofiled run enters
no guardian or profiler handle at all.
"""

import pytest

from repro.core import AgglomerationEngine, RunContext, TerminationCriteria
from repro.errors import GuardianBreach, RunAbortedError
from repro.generators import planted_partition_graph
from repro.obs import Tracer
from repro.obs.memprof import NULL_MEMPROF, PhaseMemoryProfiler, _PhaseProbe
from repro.obs.telemetry import TelemetrySampler
from repro.resilience import FaultPlan
from repro.resilience.guardian import NULL_GUARDIAN, RunGuardian, _PhaseGuard

PHASES = ("score", "match", "contract")
_FLOOR = TerminationCriteria(min_communities=1, coverage=None)


@pytest.fixture(scope="module")
def graph():
    return planted_partition_graph(300, seed=5)


def _phase_children(tracer):
    """Phase-span names under each level span, in start order."""
    children = {}
    for s in sorted(tracer.spans, key=lambda s: (s.start_ns, s.span_id)):
        if s.name in PHASES:
            parent = next(p for p in tracer.spans if p.span_id == s.parent_id)
            assert parent.name == "level" and parent.level == s.level
            children.setdefault(s.level, []).append(s.name)
    return children


class TestFullServices:
    def test_each_level_enters_each_phase_once_in_order(self, graph):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=60.0)
        published = []
        publish = sampler.publish_phase

        def spy(phase, level=None):
            published.append((phase, level))
            publish(phase, level)

        sampler.publish_phase = spy
        prof = PhaseMemoryProfiler(top_sites=0)
        ctx = RunContext.create(
            tracer=tracer,
            guardian=RunGuardian("sample"),
            telemetry=sampler,
            memprof=prof,
        )
        with prof, sampler:
            result = AgglomerationEngine(termination=_FLOOR).run(graph, ctx)

        assert result.n_levels > 1
        children = _phase_children(tracer)
        for level in range(result.n_levels):
            assert children[level] == list(PHASES)
        # A run that stops at a local maximum scores one more level.
        extra = set(children) - set(range(result.n_levels))
        assert all(children[level] == ["score"] for level in extra)

        # Telemetry sees exactly the phases the spans record, in order.
        entered = [
            (name, level)
            for level in sorted(children)
            for name in children[level]
        ]
        assert [p for p in published if p[0] in PHASES] == entered

        # One probe record per phase span.
        report = prof.report()["phases"]
        for name in PHASES:
            assert report[name]["calls"] == len(tracer.find(name))
        assert report["match"]["calls"] == result.n_levels


class TestOrder:
    def test_probe_records_before_watchdog_checks_inside_open_span(
        self, graph, monkeypatch
    ):
        tracer = Tracer()
        prof = PhaseMemoryProfiler(top_sites=0)
        guardian = RunGuardian("off")
        ctx = RunContext.create(tracer=tracer, guardian=guardian, memprof=prof)
        guardian.bind(ctx, graph)
        events = []
        record = PhaseMemoryProfiler._record
        guard_exit = _PhaseGuard.__exit__

        def spy_record(self, name, **kw):
            events.append(("probe", name))
            record(self, name, **kw)

        def spy_exit(self, *exc):
            events.append(("watchdog", tracer._stack[-1].name))
            return guard_exit(self, *exc)

        monkeypatch.setattr(PhaseMemoryProfiler, "_record", spy_record)
        monkeypatch.setattr(_PhaseGuard, "__exit__", spy_exit)
        with prof:
            with ctx.phase("match", 0):
                pass
        assert events == [("probe", "match"), ("watchdog", "match")]


class TestBreachNesting:
    def test_stall_fault_breach_nests_in_its_match_span(self, graph):
        tracer = Tracer()
        guardian = RunGuardian(
            "off",
            phase_deadline_s=0.25,
            faults=FaultPlan.stall_phase("match", [1], delay_s=0.4),
        )
        ctx = RunContext.create(tracer=tracer, guardian=guardian)
        # audit "off" leaves abort as the only rung
        with pytest.warns(GuardianBreach, match="deadline"), pytest.raises(
            RunAbortedError
        ):
            AgglomerationEngine(termination=_FLOOR).run(graph, ctx)
        breaches = [
            b
            for b in tracer.find("guardian_breach")
            if b.attrs["phase"] == "match" and b.level == 1
        ]
        assert len(breaches) == 1
        parent = next(
            s for s in tracer.spans if s.span_id == breaches[0].parent_id
        )
        assert (parent.name, parent.level) == ("match", 1)


class TestDefaultRun:
    def test_default_context_enters_no_guardian_or_probe(
        self, graph, monkeypatch
    ):
        def forbidden(self):
            raise AssertionError(f"{type(self).__name__} entered")

        monkeypatch.setattr(_PhaseGuard, "__enter__", forbidden)
        monkeypatch.setattr(_PhaseProbe, "__enter__", forbidden)
        ctx = RunContext.create()
        assert ctx.guardian is NULL_GUARDIAN and ctx.memprof is NULL_MEMPROF
        result = AgglomerationEngine(termination=_FLOOR).run(graph, ctx)
        assert result.n_levels > 1

    def test_null_services_have_no_phase_handles(self):
        assert not hasattr(NULL_GUARDIAN, "phase")
        assert not hasattr(NULL_MEMPROF, "phase")

    def test_phase_yields_the_span_handle(self):
        tracer = Tracer()
        ctx = RunContext.create(tracer=tracer)
        with ctx.phase("contract", 4) as sp:
            sp.set(items=7)
        (span,) = tracer.spans
        assert (span.name, span.level, span.items) == ("contract", 4, 7)

    def test_phase_span_closes_with_the_error(self):
        tracer = Tracer()
        ctx = RunContext.create(tracer=tracer)
        with pytest.raises(ValueError):
            with ctx.phase("score", 0):
                raise ValueError("kernel failure")
        assert tracer.spans[0].attrs["error"] == "ValueError"
