"""Causal request tracing: who caused what, across shards and faults.

A :class:`TraceContext` names one request's position in the admission
pipeline — ``trace_id`` for the whole request story, ``span_id`` for the
current hop, ``parent_id`` for the hop that caused it.  Contexts are
**derived, never drawn**: the root id is a pure function of the rid and
every child id is the parent's id plus a path segment, so two identical
seeded runs produce byte-identical causal records (no counters, no RNG,
no wall clock).

The gateway mints a root context per submission and threads children
through the whole pipeline::

    req-7                      submit / batch / decision
    req-7/prepare:ingress      2PC phase one on the ingress shard
    req-7/commit:egress        2PC phase two on the egress shard
    req-7/readmit:12           backlog re-admission (fresh rid 12)

Every :class:`~repro.gateway.rpc.Channel` delivery carries the context as
an explicit argument, and a :class:`CausalObserver` turns deliveries and
chaos faults (drops, duplicates, delays, partitions, crashes) into
tracer instants and flight-recorder rows — so a request's timeline shows
exactly which delivery was lost, on which edge, at which simulated time.

:func:`explain_request` is the read side: it reconstructs one request's
full causal story from a :class:`~repro.obs.artifact.RunTelemetry`
artifact (plus, optionally, the gateway journal) — the backend of
``grid-obs explain <rid>``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .artifact import RunTelemetry
    from .recorder import FlightRecorder
    from .telemetry import Telemetry

__all__ = [
    "CausalObserver",
    "Hop",
    "TraceContext",
    "child_of",
    "explain_request",
    "hop",
    "hop_args",
]


class TraceContext(NamedTuple):
    """One request's position in the causal tree (immutable, derived).

    A named tuple rather than a frozen dataclass: contexts are minted on
    every traced admission, and a tuple is several times cheaper to build.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def root(cls, rid: int) -> TraceContext:
        """The root context of request ``rid`` — a pure function of the rid."""
        marker = f"req-{rid}"
        return cls(marker, marker)

    def child(self, segment: str) -> TraceContext:
        """A child hop named by appending ``segment`` to the span path."""
        return TraceContext(self.trace_id, f"{self.span_id}/{segment}", self.span_id)

    def fields(self) -> dict[str, Any]:
        """The explicit-propagation form carried on events and spans."""
        out: dict[str, Any] = {"trace": self.trace_id, "span": self.span_id}
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        return out


#: One causal hop as the sinks store it: ``(name, t, cat, tid, trace,
#: span, parent, fields)`` — the context flattened into its three ids.
#: Its record fields are the context's :meth:`TraceContext.fields`
#: followed by ``fields``, built only when a sink is read (see
#: :func:`hop_args`): recording a hop keeps one tuple and one dict.
Hop = tuple[str, float, str, int, str, str, "str | None", dict[str, Any]]


def hop(
    name: str, t: float, cat: str, tid: int, ctx: TraceContext, fields: dict[str, Any]
) -> Hop:
    """The :data:`Hop` record of one causal hop."""
    return (name, t, cat, tid, ctx.trace_id, ctx.span_id, ctx.parent_id, fields)


def hop_args(record: Hop) -> dict[str, Any]:
    """The field dict of a recorded hop, in recording order."""
    args: dict[str, Any] = {"trace": record[4], "span": record[5]}
    if record[6] is not None:
        args["parent"] = record[6]
    args.update(record[7])
    return args


def child_of(ctx: TraceContext | None, segment: str) -> TraceContext | None:
    """``ctx.child(segment)``, propagating ``None`` (tracing disabled)."""
    return None if ctx is None else ctx.child(segment)


class CausalObserver:
    """Turns channel deliveries and chaos faults into causal records.

    One observer serves a whole gateway: the coordinator hands it to every
    :class:`~repro.gateway.rpc.Channel`, which reports each delivery (and
    each injected fault) together with the :class:`TraceContext` the call
    carried.  Records go to the telemetry tracer (``cat="rpc"`` /
    ``cat="chaos"`` instants) and, when attached, the
    :class:`~repro.obs.recorder.FlightRecorder` — both keyed to simulated
    time, both deterministic.

    The telemetry handle is *provided*, not captured: the gateway may swap
    or scope its handle per run, so the observer re-reads it per record.
    A call with ``ctx=None`` (tracing disabled) is a no-op.
    """

    def __init__(
        self,
        telemetry: Callable[[], Telemetry],
        *,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self._telemetry = telemetry
        self.recorder = recorder

    def delivery(
        self,
        op: str,
        *,
        shard: int,
        now: float,
        ctx: TraceContext | None,
        **detail: Any,
    ) -> None:
        """One protocol call reached the broker (possibly after faults)."""
        if ctx is None:
            return
        self._note(hop(f"rpc.{op}", now, "rpc", shard, ctx, {"shard": shard, **detail}))

    def fault(
        self,
        kind: str,
        op: str,
        *,
        shard: int,
        now: float,
        ctx: TraceContext | None,
        **detail: Any,
    ) -> None:
        """A chaos fault struck the delivery (drop / duplicate / delay /
        partition / crash) — annotated as a span event on the request's
        timeline so the lost hop is visible."""
        if ctx is None:
            return
        self._note(
            hop(f"chaos.{kind}", now, "chaos", shard, ctx, {"shard": shard, "op": op, **detail})
        )

    def _note(self, record: Hop) -> None:
        tel = self._telemetry()
        if tel.enabled:
            tel.tracer.hop(record)
        if self.recorder is not None:
            self.recorder.hop(f"rpc.shard{record[3]}", record)


# ----------------------------------------------------------------------
# The read side: reconstruct one request's causal story
# ----------------------------------------------------------------------

def iter_captures(artifact: Any) -> Iterable[Mapping[str, Any]]:
    """Capture entries of a :class:`RunTelemetry` *or* its JSON-dict form."""
    if hasattr(artifact, "captures"):
        return artifact.captures()
    return artifact.get("captures", [])


def _trace_of(fields: Mapping[str, Any]) -> str | None:
    trace = fields.get("trace")
    return trace if isinstance(trace, str) else None


def _mentions(fields: Mapping[str, Any], rid: int) -> bool:
    return fields.get("rid") == rid or fields.get("origin") == rid


def _render_fields(fields: Mapping[str, Any]) -> str:
    parts = []
    for key in sorted(fields):
        value = fields[key]
        parts.append(f"{key}={json.dumps(value, sort_keys=True, default=str)}")
    return " ".join(parts)


def explain_request(
    artifact: RunTelemetry | Mapping[str, Any],
    rid: int,
    *,
    journal: Iterable[Any] | None = None,
) -> str | None:
    """Reconstruct request ``rid``'s full causal timeline from ``artifact``.

    Two passes: first collect every trace id that mentions the rid (the
    root ``req-<rid>`` plus any trace a re-admission or rebooking linked
    it into via ``origin``), then gather every journal op, event and span
    belonging to those traces and merge them into one time-ordered,
    deterministic text timeline.  ``journal`` may be a
    :class:`~repro.control.journal.Journal` (or any iterable of entries
    with ``op`` / ``now`` / ``args``).  Returns ``None`` when the
    artifact carries no record of the rid at all.
    """
    marker = f"req-{rid}"
    traces: set[str] = {marker}
    for entry in iter_captures(artifact):
        for event in entry.get("events", []):
            fields = event.get("fields", {})
            if _mentions(fields, rid):
                trace = _trace_of(fields)
                if trace is not None:
                    traces.add(trace)
        for span in entry.get("spans", []):
            args = span.get("args", {})
            if _mentions(args, rid):
                trace = _trace_of(args)
                if trace is not None:
                    traces.add(trace)

    # (time, insertion order) keys keep the merge stable and byte-identical
    # across runs: journal rows sort before events before spans at one
    # instant, and within each source record order is preserved.
    rows: list[tuple[float, int, str]] = []
    order = 0
    matched = 0

    if journal is not None:
        for entry in journal:
            args = dict(getattr(entry, "args", {}) or {})
            if not _mentions(args, rid):
                continue
            rows.append(
                (
                    float(entry.now),
                    order,
                    f"journal    {entry.op:<22} {_render_fields(args)}",
                )
            )
            order += 1
            matched += 1

    for entry in iter_captures(artifact):
        label = str(entry.get("label", ""))
        for event in entry.get("events", []):
            fields = dict(event.get("fields", {}))
            if _trace_of(fields) not in traces and not _mentions(fields, rid):
                continue
            rows.append(
                (
                    float(event["time"]),
                    order,
                    f"event      {str(event['name']):<22} "
                    f"[{label}] {_render_fields(fields)}",
                )
            )
            order += 1
            matched += 1
        for span in entry.get("spans", []):
            args = dict(span.get("args", {}))
            if _trace_of(args) not in traces and not _mentions(args, rid):
                continue
            kind = str(span.get("kind", "span"))
            name = str(span["name"])
            cat = str(span.get("cat", ""))
            source = {"chaos": "chaos", "rpc": "rpc"}.get(cat, kind)
            rows.append(
                (
                    float(span["start"]),
                    order,
                    f"{source:<10} {name:<22} [{label}] {_render_fields(args)}",
                )
            )
            order += 1
            matched += 1

    if matched == 0:
        return None
    rows.sort(key=lambda row: (row[0], row[1]))
    lines = [
        f"causal timeline for rid {rid} (trace {marker}; "
        f"{matched} record(s), {len(traces)} trace(s))"
    ]
    for t, _, text in rows:
        lines.append(f"t={t:<12.6g} {text}")
    return "\n".join(lines)
