"""Per-layer wall-clock tracing, installed from the outside.

The traced run patches the public entry points of every layer of the
admission path inside the server process (``serve.http`` →
``serve.app`` → ``serve.frontier`` → ``gateway.gateway`` →
``gateway.twophase`` → ``gateway.rpc`` → ``gateway.broker`` →
``core.booking`` → ``core.capacity``, plus ``control.journal`` and the
``obs`` sinks) with wrappers that record one span per call in memory:
name, start, end, parent span and, where the arguments carry it, the
request id.  Nothing in ``src/`` knows it is being traced.

A span's *self time* is its duration minus the time its child spans
cover.  Children of one span never overlap — the server is one thread
and each asyncio task carries its own current span in a
:class:`~contextvars.ContextVar` — so covered time is the sum of the
children's durations.  Spans of kind ``wait`` (stream reads waiting for
the client, submissions parked on the frontier) are structure only:
their self time is idle time, not work, and no layer is charged for it.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.gateway.twophase as twophase_module
import repro.serve.app as app_module
from repro.control.journal import Journal
from repro.core.capacity.breakpoint import BreakpointProfile
from repro.core.capacity.vector import VectorProfile
from repro.gateway.broker import ShardBroker
from repro.gateway.gateway import Gateway
from repro.gateway.rpc import Channel
from repro.gateway.twophase import TwoPhaseCoordinator
from repro.obs.causal import CausalObserver
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SloWatchdog
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import SpanTracer
from repro.serve.app import ServeApp
from repro.serve.frontier import AdmissionFrontier

__all__ = [
    "DECILES",
    "LAYERS",
    "Probe",
    "SpanRecorder",
    "fit_linear",
    "install_probes",
    "layer_metrics",
]

#: Layers in admission-path order; each reports a ``latency_share``.
LAYERS = (
    "serve.http",
    "serve.app",
    "serve.frontier",
    "gateway.gateway",
    "gateway.twophase",
    "gateway.rpc",
    "gateway.broker",
    "core.booking",
    "core.capacity",
    "control.journal",
    "obs",
)

#: Deciles the timed phase is cut into for per-decile costs.
DECILES = 10

_NO_PARENT = -1


@dataclass(frozen=True)
class Probe:
    """One patched entry point: ``owner.attr`` records spans named ``span``."""

    owner: Any
    attr: str
    span: str
    layer: str
    #: ``work`` (self time is charged to the layer) or ``wait`` (idle).
    kind: str = "work"
    #: Called as ``before(args, kwargs)`` outside the timed section; its
    #: value is kept as the span's fact (or fed to ``after``).
    before: Callable[..., Any] | None = None
    #: Called as ``after(fact, args, kwargs, result)``; its value replaces
    #: the fact.
    after: Callable[..., Any] | None = None
    #: ``rid(args, kwargs, result)`` — the request id the call serves.
    rid: Callable[..., int] | None = None


class SpanRecorder:
    """In-memory span log plus the facts probes read off their calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(name_id, start, end, parent, rid)``; a span's index is its id.
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.kind_of: list[str] = []
        self.facts: dict[int, Any] = {}
        self._ids: dict[str, int] = {}
        self._current: ContextVar[int] = ContextVar("perfbench_span", default=_NO_PARENT)

    def name_id(self, name: str, layer: str, kind: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.kind_of.append(kind)
        return found

    def wrap(self, probe: Probe, original: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``original``."""
        name_id = self.name_id(probe.span, probe.layer, probe.kind)
        spans, facts, current, clock = self.spans, self.facts, self._current, self.clock
        before, after, rid_of = probe.before, probe.after, probe.rid

        def open_span(args: tuple, kwargs: dict) -> tuple[int, Any, float]:
            fact = before(args, kwargs) if before is not None else None
            sid = len(spans)
            spans.append(None)
            return sid, fact, clock()

        def close_span(sid: int, parent: int, start: float, fact: Any, args, kwargs, result):
            end = clock()
            rid = rid_of(args, kwargs, result) if rid_of is not None else -1
            spans[sid] = (name_id, start, end, parent, rid)
            if after is not None:
                fact = after(fact, args, kwargs, result)
            if fact is not None:
                facts[sid] = fact

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                sid, fact, start = open_span(args, kwargs)
                token = current.set(sid)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    current.reset(token)
                    close_span(sid, parent, start, fact, args, kwargs, result)

            return traced_async

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            sid, fact, start = open_span(args, kwargs)
            token = current.set(sid)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                current.reset(token)
                close_span(sid, parent, start, fact, args, kwargs, result)

        return traced

    def finished(self) -> Iterator[tuple[int, int, float, float, int, int]]:
        """``(sid, name_id, start, end, parent, rid)`` of every closed span."""
        for sid, span in enumerate(self.spans):
            if span is not None:
                yield (sid, *span)


# ----------------------------------------------------------------------
# The probe table
# ----------------------------------------------------------------------
def _kw_rid(args: tuple, kwargs: dict, result: Any) -> int:
    return int(kwargs.get("rid", -1))


def _ticket_rid(args: tuple, kwargs: dict, result: Any) -> int:
    return result.rid if result is not None else -1


def _request_rid(args: tuple, kwargs: dict, result: Any) -> int:
    return args[1].rid


def _reserve_outcome(fact: Any, args: tuple, kwargs: dict, outcome: Any) -> Any:
    return None if outcome is None else (outcome.fastpath, outcome.local)


def _fit_segments(args: tuple, kwargs: dict) -> int:
    view, request = args[0], args[1]
    return (
        view.ingress_timeline(request.ingress).num_segments
        + view.egress_timeline(request.egress).num_segments
    )


def _fit_outcome(segments: int, args: tuple, kwargs: dict, allocation: Any) -> Any:
    probe = kwargs.get("probe")
    candidates = probe.candidates if probe is not None else 0
    return (segments, candidates, allocation is not None)


def _profile_segments(args: tuple, kwargs: dict) -> int:
    return args[0].num_segments


class _FrontierWatch:
    """Park instants of submissions waiting on the frontier, in FIFO order.

    A flush takes every parked submission at once, so the ``len(frontier)``
    oldest park instants belong to the wave it decides.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.parked: deque[float] = deque()

    def park_one(self, args: tuple, kwargs: dict) -> None:
        self.parked.append(self.clock())

    def park_wave(self, args: tuple, kwargs: dict) -> None:
        now = self.clock()
        self.parked.extend(now for _ in args[1])

    def wave(self, args: tuple, kwargs: dict) -> tuple[int, float] | None:
        size = len(args[0])
        if not size:
            return None
        now = self.clock()
        waited = sum(now - self.parked.popleft() for _ in range(size))
        return size, waited


def _probes(watch: _FrontierWatch) -> list[Probe]:
    probes = [
        Probe(app_module, "read_request", "serve.http.read", "serve.http"),
        Probe(asyncio.StreamReader, "readuntil", "io.wait", "io", kind="wait"),
        Probe(asyncio.StreamReader, "readexactly", "io.wait", "io", kind="wait"),
        Probe(app_module, "render_response", "serve.http.render", "serve.http"),
        Probe(ServeApp, "dispatch", "serve.app.dispatch", "serve.app"),
        Probe(
            AdmissionFrontier, "submit", "serve.frontier.park", "serve.frontier",
            kind="wait", before=watch.park_one,
        ),
        Probe(
            AdmissionFrontier, "submit_wave", "serve.frontier.park", "serve.frontier",
            kind="wait", before=watch.park_wave,
        ),
        Probe(
            AdmissionFrontier, "flush", "serve.frontier.flush", "serve.frontier",
            before=watch.wave,
        ),
        Probe(Gateway, "submit", "gateway.gateway.submit", "gateway.gateway", rid=_ticket_rid),
        Probe(Gateway, "submit_many", "gateway.gateway.submit_many", "gateway.gateway"),
        Probe(Gateway, "drain", "gateway.gateway.drain", "gateway.gateway"),
        Probe(Gateway, "cancel", "gateway.gateway.cancel", "gateway.gateway"),
        Probe(
            TwoPhaseCoordinator, "reserve", "gateway.twophase.reserve", "gateway.twophase",
            after=_reserve_outcome, rid=_request_rid,
        ),
        Probe(
            TwoPhaseCoordinator, "release_pair", "gateway.twophase.release_pair",
            "gateway.twophase",
        ),
        Probe(
            twophase_module, "earliest_fit", "core.booking.earliest_fit", "core.booking",
            before=_fit_segments, after=_fit_outcome, rid=_request_rid,
        ),
        Probe(Journal, "append", "control.journal.append", "control.journal"),
        Probe(Telemetry, "emit", "obs.emit", "obs"),
        Probe(CausalObserver, "delivery", "obs.causal", "obs"),
        Probe(CausalObserver, "fault", "obs.causal", "obs"),
    ]
    for method in ("book_pair", "prepare", "commit", "abort_hold", "release"):
        probes.append(
            Probe(Channel, method, f"gateway.rpc.{method}", "gateway.rpc", rid=_kw_rid)
        )
        probes.append(Probe(ShardBroker, method, f"gateway.broker.{method}", "gateway.broker"))
    probes.append(
        Probe(ShardBroker, "cached_peak", "gateway.broker.cached_peak", "gateway.broker")
    )
    for backend in (BreakpointProfile, VectorProfile):
        probes.append(
            Probe(
                backend, "add", "core.capacity.add", "core.capacity", before=_profile_segments
            )
        )
        for query in ("breakpoints", "max_usage", "min_usage", "usage_at", "global_max"):
            probes.append(Probe(backend, query, "core.capacity.query", "core.capacity"))
    for owner, methods in (
        (MetricsRegistry, ("counter", "gauge", "histogram")),
        (Counter, ("inc",)),
        (Gauge, ("inc", "set", "set_max")),
        (Histogram, ("observe",)),
        (SpanTracer, ("begin", "finish", "complete", "instant")),
        (SloWatchdog, ("admission", "sample", "evaluate")),
    ):
        for method in methods:
            probes.append(Probe(owner, method, f"obs.{owner.__name__}.{method}", "obs"))
    return probes


@contextmanager
def install_probes(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every layer's entry points for the duration of the block."""
    watch = _FrontierWatch(recorder.clock)
    undo: list[tuple[Any, str, Any]] = []
    try:
        for probe in _probes(watch):
            raw = (
                probe.owner.__dict__[probe.attr]
                if isinstance(probe.owner, type)
                else getattr(probe.owner, probe.attr)
            )
            undo.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, recorder.wrap(probe, getattr(probe.owner, probe.attr)))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(
    recorder: SpanRecorder, *, submissions: int, cpu_s: float
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``submissions`` is the number decided while tracing and ``cpu_s`` the
    server's CPU seconds over the same time — the denominator of each
    layer's ``latency_share``.
    """
    names, layer_of, kind_of, facts = (
        recorder.names,
        recorder.layer_of,
        recorder.kind_of,
        recorder.facts,
    )
    spans = list(recorder.finished())
    child_time = [0.0] * len(recorder.spans)
    layer_by_sid = [""] * len(recorder.spans)
    for sid, name_id, start, end, parent, _rid in spans:
        layer_by_sid[sid] = layer_of[name_id]
        if parent != _NO_PARENT:
            child_time[parent] += end - start

    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
    obs_entries = capacity_calls = 0
    waves = wave_members = reserves = fastpath = cross_shard = 0
    waited = 0.0
    fits: list[tuple[float, float, float, int, bool]] = []  # start, us, segments, cands, ok
    adds: list[tuple[float, float, int]] = []  # start, us, segments
    first_submit, last_submit = float("inf"), float("-inf")
    for sid, name_id, start, end, parent, _rid in spans:
        duration = end - start
        name, layer = names[name_id], layer_of[name_id]
        tally = by_name.setdefault(name, [0, 0.0, 0.0])
        tally[0] += 1
        tally[1] += duration
        tally[2] += duration - child_time[sid]
        if kind_of[name_id] == "work" and layer in layer_self:
            layer_self[layer] += duration - child_time[sid]
        # A hop into obs: an obs call not made from inside another obs call.
        if layer == "obs" and (parent == _NO_PARENT or layer_by_sid[parent] != "obs"):
            obs_entries += 1
        capacity_calls += layer == "core.capacity"
        fact = facts.get(sid)
        if name == "gateway.gateway.submit":
            first_submit, last_submit = min(first_submit, start), max(last_submit, end)
        elif fact is None:
            continue
        elif name == "serve.frontier.flush":
            waves += 1
            wave_members += fact[0]
            waited += fact[1]
        elif name == "gateway.twophase.reserve":
            reserves += 1
            fastpath += fact[0]
            cross_shard += not fact[1]
        elif name == "core.booking.earliest_fit":
            fits.append((start, duration * 1e6, fact[0] / 2.0, fact[1], fact[2]))
        elif name == "core.capacity.add":
            adds.append((start, duration * 1e6, fact))

    def per_call(kind: int, *span_names: str) -> float:
        """Mean inclusive (``kind=1``) or self (``kind=2``) µs per call."""
        calls = sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in span_names)
        return _mean(sum(by_name.get(n, (0, 0.0, 0.0))[kind] for n in span_names), calls) * 1e6

    def family(prefix: str) -> list[str]:
        return [n for n in by_name if n.startswith(prefix)]

    per_submit = max(1, submissions)
    metrics: dict[str, float] = {
        "serve.http.read_us": per_call(2, "serve.http.read"),
        "serve.http.render_us": per_call(1, "serve.http.render"),
        "serve.app.dispatch_self_us": per_call(2, "serve.app.dispatch"),
        "serve.frontier.wait_ms": _mean(waited, wave_members) * 1e3,
        "serve.frontier.wave_size": _mean(wave_members, waves),
        "gateway.gateway.submit_self_us": sum(by_name[n][2] for n in family("gateway.gateway."))
        / per_submit
        * 1e6,
        "obs.self_us_per_submit": layer_self["obs"] / per_submit * 1e6,
        "obs.calls_per_submit": obs_entries / per_submit,
        "gateway.twophase.reserve_self_us": per_call(2, "gateway.twophase.reserve"),
        "gateway.twophase.fastpath_ratio": _mean(fastpath, reserves),
        "gateway.twophase.cross_shard_ratio": _mean(cross_shard, reserves),
        "gateway.rpc.self_us": per_call(2, *family("gateway.rpc.")),
        "gateway.broker.us_per_call": per_call(1, *family("gateway.broker.")),
        "core.booking.fit_us": _mean(sum(f[1] for f in fits), len(fits)),
        "core.booking.candidates_per_fit": _mean(sum(f[3] for f in fits), len(fits)),
        "core.booking.fit_accept_ratio": _mean(sum(f[4] for f in fits), len(fits)),
        "core.capacity.add_us": _mean(sum(a[1] for a in adds), len(adds)),
        "core.capacity.query_us": per_call(1, "core.capacity.query"),
        "core.capacity.calls_per_submit": capacity_calls / per_submit,
        "control.journal.append_us": per_call(1, "control.journal.append"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.latency_share"] = layer_self[layer] / cpu_s if cpu_s else 0.0
    attributed = sum(layer_self.values())
    metrics["unattributed.latency_share"] = max(0.0, 1.0 - attributed / cpu_s) if cpu_s else 0.0

    add_deciles = _deciles(adds, first_submit, last_submit)
    fit_deciles = _deciles([f[:3] for f in fits], first_submit, last_submit)
    for index, (us, _segments) in enumerate(add_deciles):
        metrics[f"core.capacity.add_us.d{index}"] = us
    for prefix, deciles in (
        ("core.capacity.add_us", add_deciles),
        ("core.booking.fit_us", fit_deciles),
    ):
        populated = [(segments, us) for us, segments in deciles if segments > 0]
        model = fit_linear([p[0] for p in populated], [p[1] for p in populated])
        for key, value in model.items():
            metrics[f"{prefix}.{key}"] = value
    return metrics


def _deciles(
    samples: list[tuple[float, float, float]], lo: float, hi: float
) -> list[tuple[float, float]]:
    """Mean cost and mean segments per time decile of ``[lo, hi]``."""
    sums = [[0.0, 0.0, 0] for _ in range(DECILES)]
    width = (hi - lo) / DECILES if hi > lo else 0.0
    for start, us, segments in samples:
        index = min(DECILES - 1, max(0, int((start - lo) / width))) if width else 0
        sums[index][0] += us
        sums[index][1] += segments
        sums[index][2] += 1
    return [(_mean(us, n), _mean(segs, n)) for us, segs, n in sums]


def fit_linear(xs: list[float], ys: list[float]) -> dict[str, float]:
    """Least-squares ``y = alpha * x + gamma`` with R² and MAPE.

    The per-layer cost model: ``x`` is the mean number of segments per
    capacity profile a call touched, ``y`` its mean wall cost, one point
    per decile of the timed phase.  With fewer than two distinct ``x``
    values there is no slope to fit; every coefficient is then 0.
    """
    if len(xs) < 2 or len(set(xs)) < 2:
        return {"alpha": 0.0, "gamma": 0.0, "r2": 0.0, "mape": 0.0}
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    alpha, gamma = np.polyfit(x, y, 1)
    predicted = alpha * x + gamma
    residual = float(np.sum((y - predicted) ** 2))
    spread = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - residual / spread if spread > 0 else 1.0
    positive = y > 0
    mape = float(np.mean(np.abs((y - predicted)[positive] / y[positive]))) if positive.any() else 0.0
    return {"alpha": float(alpha), "gamma": float(gamma), "r2": r2, "mape": mape}
