"""Trace sinks: JSONL export/import and the console profile table.

The JSONL format is one event object per line so traces stream and
``grep``/``jq`` cleanly:

* line 1 — header: ``{"event": "header", "schema": "repro-run-trace",
  "version": 1, "meta": {...}}``
* one ``{"event": "span", ...}`` line per finished span, in completion
  order, carrying ``id``/``parent``/``name``/``level``/``start_ns``/
  ``end_ns``/``duration_s``/``items``/``attrs``;
* (schema v3) one ``{"event": "counter_sample", "type": "counter",
  "name": ..., "ts_ns": ..., "value": ...}`` line per telemetry
  time-series sample, in record order — these interleave with the run's
  history rather than summarizing it;
* one line per end-of-run metric: ``{"event": "counter" | "gauge" |
  "histogram", "name": ..., ...}``;
* a trailer: ``{"event": "end", "n_spans": N}`` — its presence proves
  the trace was not truncated mid-write.

Forward compatibility: :func:`read_trace` *skips* record kinds it does
not know (counting them in ``TraceData.skipped_records`` and warning
once per file) instead of raising, so a reader from this version never
bricks on a future schema's new record types.

:func:`read_trace` round-trips the file back into :class:`Span` objects
and a metrics snapshot.  :func:`render_profile` turns a span list into
the paper-style per-level score/match/contract table, including the
contraction share of phase runtime that §IV-C reports as 40–80 %.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.trace import (
    SCHEMA_VERSION,
    CounterSample,
    NullTracer,
    Span,
    Tracer,
)
from repro.util.atomicio import atomic_write

__all__ = [
    "write_trace",
    "read_trace",
    "TraceData",
    "UnknownTraceRecordWarning",
    "phase_totals",
    "render_profile",
]

_SCHEMA_NAME = "repro-run-trace"

#: Schema versions :func:`read_trace` can load.  v1 lacked per-span
#: ``pid``/``tid``/``epoch_ns``; those default to ``None``/0 on import.
#: v2 lacked counter samples; ``TraceData.samples`` is empty for it.
_READABLE_VERSIONS = (1, 2, SCHEMA_VERSION)


class UnknownTraceRecordWarning(UserWarning):
    """A trace contained record kinds this reader does not know.

    Raised (as a warning, once per file) by :func:`read_trace` when it
    skips records — the forward-compatibility contract that lets a v3
    reader survive v4 traces.
    """

#: The pipeline phases of one agglomeration level, in execution order.
PHASES = ("score", "match", "contract")


def _span_event(span: Span) -> dict:
    return {
        "event": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "level": span.level,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "duration_s": span.duration_s,
        "items": span.items,
        "pid": span.pid,
        "tid": span.tid,
        "epoch_ns": span.epoch_ns,
        "attrs": span.attrs,
    }


def _sample_event(sample: CounterSample) -> dict:
    # ``type`` is the v3 record-type discriminator new record families
    # carry; readers that do not know a type skip the record.
    return {
        "event": "counter_sample",
        "type": "counter",
        "name": sample.name,
        "ts_ns": sample.ts_ns,
        "value": sample.value,
        "unit": sample.unit,
        "pid": sample.pid,
    }


def write_trace(
    tracer: Tracer | NullTracer, path: str | os.PathLike, *, meta: dict | None = None
) -> int:
    """Write a tracer's spans and metrics to a JSONL file, atomically.

    Returns the number of span events written.  Writing a
    :class:`NullTracer` produces a valid (empty) trace.

    The trace is written to a temporary file in the destination
    directory, fsynced, then ``os.replace``-d into place (the same
    durability rule as :mod:`repro.resilience.checkpoint`): a crash
    mid-export can never leave a truncated file under the final name —
    a file that would otherwise still parse cleanly up to the missing
    trailer.
    """
    snapshot = tracer.metrics.snapshot()
    n_spans = 0
    with atomic_write(path) as fh:
        fh.write(
            json.dumps(
                {
                    "event": "header",
                    "schema": _SCHEMA_NAME,
                    "version": SCHEMA_VERSION,
                    "meta": meta or {},
                }
            )
            + "\n"
        )
        for span in tracer.spans:
            fh.write(json.dumps(_span_event(span)) + "\n")
            n_spans += 1
        for sample in list(tracer.counter_samples):
            fh.write(json.dumps(_sample_event(sample)) + "\n")
        for name, value in snapshot["counters"].items():
            fh.write(
                json.dumps({"event": "counter", "name": name, "value": value})
                + "\n"
            )
        for name, g in snapshot["gauges"].items():
            fh.write(json.dumps({"event": "gauge", "name": name, **g}) + "\n")
        for name, h in snapshot["histograms"].items():
            fh.write(
                json.dumps({"event": "histogram", "name": name, **h}) + "\n"
            )
        fh.write(json.dumps({"event": "end", "n_spans": n_spans}) + "\n")
    return n_spans


@dataclass
class TraceData:
    """A parsed run trace."""

    meta: dict = field(default_factory=dict)
    version: int = SCHEMA_VERSION
    spans: list[Span] = field(default_factory=list)
    samples: list[CounterSample] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, dict] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    complete: bool = False
    #: Records skipped because their kind is unknown to this reader
    #: (forward compatibility with future schema versions).
    skipped_records: int = 0

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def sample_series(self, name: str) -> list[CounterSample]:
        """One counter's time series, in record (= time) order."""
        return [s for s in self.samples if s.name == name]


def read_trace(
    path: str | os.PathLike, *, require_complete: bool = False
) -> TraceData:
    """Load a JSONL trace written by :func:`write_trace`.

    With ``require_complete=True`` a file missing its ``end`` trailer —
    the signature of a truncated export — is rejected with
    :class:`~repro.errors.ReproError` instead of returned with
    ``complete=False``.  A record that is not valid JSON, or not a JSON
    object, raises ``ReproError("<path>:<line>: …")`` naming its line in
    the file (blank lines counted).
    """
    data = TraceData()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [
                (lineno, ln)
                for lineno, ln in enumerate(fh.read().splitlines(), 1)
                if ln.strip()
            ]
    except OSError as exc:
        raise ReproError(f"{path}: cannot read trace: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReproError(f"{path}: not valid UTF-8: {exc}") from exc
    if not lines:
        raise ReproError(f"{path}: empty trace file")
    events = []
    for lineno, ln in lines:
        try:
            ev = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{path}:{lineno}: not valid JSONL: {exc.msg} "
                f"(column {exc.colno})"
            ) from exc
        if events and not isinstance(ev, dict):
            raise ReproError(
                f"{path}:{lineno}: trace record is not a JSON object"
            )
        events.append((lineno, ev))

    header = events[0][1]
    if (
        not isinstance(header, dict)
        or header.get("event") != "header"
        or header.get("schema") != _SCHEMA_NAME
    ):
        raise ReproError(f"{path}: not a {_SCHEMA_NAME} file")
    version = header.get("version")
    if version not in _READABLE_VERSIONS:
        # Older-than-v1 or non-integer versions are malformed; *newer*
        # versions load best-effort — known record kinds parse, unknown
        # ones are skipped below with a counted warning.
        if not isinstance(version, int) or version < SCHEMA_VERSION:
            raise ReproError(
                f"{path}: unsupported trace version {version!r}"
            )
        warnings.warn(
            UnknownTraceRecordWarning(
                f"{path}: trace version {version} is newer than this "
                f"reader (v{SCHEMA_VERSION}); loading best-effort"
            ),
            stacklevel=2,
        )
    data.meta = header.get("meta", {})
    data.version = header["version"]

    unknown_kinds: dict = {}
    for lineno, ev in events[1:]:
        kind = ev.get("event")
        try:
            if kind == "span":
                data.spans.append(
                    Span(
                        name=ev["name"],
                        span_id=ev["id"],
                        parent_id=ev["parent"],
                        level=ev["level"],
                        start_ns=ev["start_ns"],
                        end_ns=ev["end_ns"],
                        items=ev.get("items", 0),
                        pid=ev.get("pid"),
                        tid=ev.get("tid"),
                        epoch_ns=ev.get("epoch_ns", 0),
                        attrs=ev.get("attrs", {}),
                    )
                )
            elif kind == "counter_sample":
                if ev.get("type", "counter") != "counter":
                    # A future sample family (e.g. distributions): skip
                    # it like any other unknown record type.
                    data.skipped_records += 1
                    unknown_kinds[f"counter_sample/{ev.get('type')!r}"] = (
                        unknown_kinds.get(
                            f"counter_sample/{ev.get('type')!r}", 0
                        )
                        + 1
                    )
                else:
                    data.samples.append(
                        CounterSample(
                            name=ev["name"],
                            ts_ns=int(ev["ts_ns"]),
                            value=float(ev["value"]),
                            unit=ev.get("unit", ""),
                            pid=ev.get("pid"),
                        )
                    )
            elif kind == "counter":
                data.counters[ev["name"]] = ev["value"]
            elif kind == "gauge":
                data.gauges[ev["name"]] = {
                    k: ev[k] for k in ("value", "min", "max", "n_sets")
                }
            elif kind == "histogram":
                data.histograms[ev["name"]] = {
                    k: ev[k] for k in ("edges", "counts", "total", "sum")
                }
            elif kind == "end":
                if ev.get("n_spans") != len(data.spans):
                    raise ReproError(
                        f"{path}: trailer says {ev.get('n_spans')} spans, "
                        f"file has {len(data.spans)}"
                    )
                data.complete = True
            else:
                # Unknown record kind: a newer writer's schema.  Skip
                # with accounting instead of raising, so old readers
                # never brick on new record types.
                data.skipped_records += 1
                unknown_kinds[str(kind)] = unknown_kinds.get(str(kind), 0) + 1
        except KeyError as exc:
            raise ReproError(
                f"{path}:{lineno}: malformed {kind} event: {exc}"
            ) from exc
    if unknown_kinds:
        detail = ", ".join(
            f"{kind} ×{n}" for kind, n in sorted(unknown_kinds.items())
        )
        warnings.warn(
            UnknownTraceRecordWarning(
                f"{path}: skipped {data.skipped_records} record(s) of "
                f"unknown kind ({detail}) — written by a newer schema?"
            ),
            stacklevel=2,
        )
    if require_complete and not data.complete:
        raise ReproError(
            f"{path}: trace has no end trailer (truncated export?)"
        )
    return data


# -------------------------------------------------------------- summaries
def phase_totals(spans: list[Span]) -> dict[str, float]:
    """Total seconds per pipeline phase plus the contraction share.

    Returns ``{"score": s, "match": s, "contract": s, "total": s,
    "contract_share": fraction}`` where ``total`` sums the three phases
    and ``contract_share`` is contraction's fraction of that total (the
    quantity the paper reports as 40–80 % of runtime).
    """
    totals = {p: 0.0 for p in PHASES}
    for s in spans:
        if s.name in totals:
            totals[s.name] += s.duration_s
    total = sum(totals.values())
    totals["total"] = total
    totals["contract_share"] = totals["contract"] / total if total > 0 else 0.0
    return totals


def _format_table(headers: list[str], rows: list[list[str]], title: str) -> str:
    widths = [
        max(len(h), *(len(r[k]) for r in rows)) if rows else len(h)
        for k, h in enumerate(headers)
    ]

    def fmt(row: list[str]) -> str:
        return "  ".join(c.rjust(widths[k]) for k, c in enumerate(row)).rstrip()

    lines = [title, fmt(headers), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _group_runs(spans: list[Span]) -> list[tuple[str, list[Span]]]:
    """Split spans into runs by their ``"run"`` root span, if any."""
    runs = [s for s in spans if s.name == "run"]
    if not runs:
        return [("run", list(spans))]
    by_id = {s.span_id: s for s in spans}

    def root_of(s: Span) -> int | None:
        seen = set()
        cur: Span | None = s
        while cur is not None and cur.span_id not in seen:
            if cur.name == "run":
                return cur.span_id
            seen.add(cur.span_id)
            cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
        return None

    out = []
    for run in runs:
        rid = run.span_id
        members = [s for s in spans if root_of(s) == rid]
        out.append((str(run.attrs.get("graph", f"run {rid}")), members))
    return out


def render_profile(spans: list[Span]) -> str:
    """Per-level phase-time table(s) with the contraction share.

    One table per ``"run"`` root span (or a single table when the trace
    has none), matching the paper's per-phase execution profile:
    level, entering sizes, seconds in score/match/contract, and the
    contraction percentage of total phase time.
    """
    if not spans:
        return "profile: no spans recorded"
    blocks = []
    for title, members in _group_runs(spans):
        per_level: dict[int, dict[str, float]] = {}
        level_attrs: dict[int, dict] = {}
        for s in members:
            if s.name in PHASES and s.level is not None:
                per_level.setdefault(s.level, {p: 0.0 for p in PHASES})[
                    s.name
                ] += s.duration_s
            if s.name == "level" and s.level is not None:
                level_attrs[s.level] = s.attrs
        if not per_level:
            continue
        rows = []
        for lvl in sorted(per_level):
            t = per_level[lvl]
            a = level_attrs.get(lvl, {})
            lvl_total = sum(t.values())
            rows.append(
                [
                    str(lvl),
                    str(a.get("n_vertices", "-")),
                    str(a.get("n_edges", "-")),
                    f"{t['score'] * 1e3:.2f}",
                    f"{t['match'] * 1e3:.2f}",
                    f"{t['contract'] * 1e3:.2f}",
                    f"{lvl_total * 1e3:.2f}",
                    f"{100.0 * t['contract'] / lvl_total:.1f}"
                    if lvl_total > 0
                    else "-",
                ]
            )
        totals = phase_totals(members)
        rows.append(
            [
                "all",
                "",
                "",
                f"{totals['score'] * 1e3:.2f}",
                f"{totals['match'] * 1e3:.2f}",
                f"{totals['contract'] * 1e3:.2f}",
                f"{totals['total'] * 1e3:.2f}",
                f"{100.0 * totals['contract_share']:.1f}",
            ]
        )
        table = _format_table(
            [
                "level",
                "verts",
                "edges",
                "score ms",
                "match ms",
                "contract ms",
                "total ms",
                "contract %",
            ],
            rows,
            title=f"phase profile — {title}",
        )
        blocks.append(
            table
            + f"\ncontraction share of phase time: "
            f"{100.0 * totals['contract_share']:.1f}%"
        )
    if not blocks:
        return "profile: no phase spans recorded"
    return "\n\n".join(blocks)
