"""SLO watchdog: declarative service-level rules over windowed aggregates.

A :class:`SloRule` names one bound on one gateway health metric — an
``accept_rate`` floor, a ``p99_admission_latency`` ceiling (simulated
time), a ``max_hold_age`` ceiling, a ``backlog_depth`` ceiling or an
``overcommit_proximity`` ceiling — optionally restricted to a sliding
window of recent simulated time.  The :class:`SloWatchdog` ingests
admission decisions and health samples from the gateway, evaluates every
rule at each batch flush, and emits edge-triggered :class:`SloBreach`
records (plus an ``slo.breach`` telemetry event, an
``slo_breaches_total`` counter and a flight-recorder row) when a bound
is first crossed.

The chaos matrix (:func:`repro.control.faults.run_chaos_matrix`) runs a
watchdog per cell so each cell reports both invariant *and* SLO
verdicts; ``grid-obs slo`` replays the same evaluation offline against a
:class:`~repro.obs.artifact.RunTelemetry` artifact and a rules file.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.errors import ConfigurationError, ReproError
from .causal import iter_captures

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .artifact import RunTelemetry
    from .recorder import FlightRecorder
    from .telemetry import Telemetry

__all__ = [
    "SLO_METRICS",
    "SloBreach",
    "SloRule",
    "SloWatchdog",
    "default_slo_rules",
    "evaluate_artifact",
    "load_rules",
]

#: The gateway health metrics a rule may bound.
SLO_METRICS = (
    "accept_rate",
    "p99_admission_latency",
    "max_hold_age",
    "backlog_depth",
    "overcommit_proximity",
)

_BOUNDS = ("floor", "ceiling")


class SloRuleError(ReproError, ValueError):
    """A rule (or rules file) is malformed."""


@dataclass(frozen=True, slots=True)
class SloRule:
    """One declarative bound: ``metric`` must stay above/below ``threshold``.

    ``window`` restricts evaluation to the last ``window`` units of
    simulated time (``math.inf`` = whole run so far).
    """

    name: str
    metric: str
    bound: str
    threshold: float
    window: float = math.inf

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise SloRuleError(
                f"rule {self.name!r}: unknown metric {self.metric!r} "
                f"(expected one of {SLO_METRICS})"
            )
        if self.bound not in _BOUNDS:
            raise SloRuleError(
                f"rule {self.name!r}: bound must be 'floor' or 'ceiling', got {self.bound!r}"
            )
        if self.window <= 0:
            raise SloRuleError(f"rule {self.name!r}: window must be positive")

    def violated(self, value: float) -> bool:
        """Whether ``value`` breaks this bound."""
        if self.bound == "floor":
            return value < self.threshold
        return value > self.threshold

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "bound": self.bound,
            "threshold": self.threshold,
            "window": None if math.isinf(self.window) else self.window,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> SloRule:
        try:
            window = data.get("window")
            return cls(
                name=str(data["name"]),
                metric=str(data["metric"]),
                bound=str(data["bound"]),
                threshold=float(data["threshold"]),
                window=math.inf if window is None else float(window),
            )
        except KeyError as exc:
            raise SloRuleError(f"rule is missing required key {exc.args[0]!r}") from exc


@dataclass(frozen=True, slots=True)
class SloBreach:
    """One edge-triggered breach: which rule broke, on what value, when."""

    rule: str
    metric: str
    bound: str
    threshold: float
    value: float
    at: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "bound": self.bound,
            "threshold": self.threshold,
            "value": self.value,
            "at": self.at,
        }


class _Aggregate:
    """One rule's value, maintained incrementally over its window.

    Rows arrive in non-decreasing time (the watchdog checks this).  A row
    leaves the window once ``t < now - window``; because both the rows and
    the evaluation instants are ordered, every eviction happens at the left
    end of a deque, and a row evicted once is out of every later window.
    A whole-run window (``math.inf``) never evicts, so its rows are not kept
    at all: the running aggregate is the whole state.
    """

    __slots__ = ("window", "_rows", "_expiring")

    def __init__(self, window: float) -> None:
        self.window = window
        self._rows: deque[tuple[float, Any]] = deque()
        self._expiring = not math.isinf(window)

    def add(self, t: float, value: Any) -> None:
        raise NotImplementedError

    def _drop(self, value: Any) -> None:
        """Retract one evicted row from the running aggregate."""

    def evict(self, now: float) -> None:
        since = now - self.window
        rows = self._rows
        while rows and rows[0][0] < since:
            self._drop(rows.popleft()[1])

    def value(self) -> float | None:
        raise NotImplementedError


class _AcceptRate(_Aggregate):
    """Accepted share of the admissions in the window."""

    __slots__ = ("_count", "_accepts")

    def __init__(self, window: float) -> None:
        super().__init__(window)
        self._count = 0
        self._accepts = 0

    def add(self, t: float, value: Any) -> None:
        self._count += 1
        self._accepts += bool(value)
        if self._expiring:
            self._rows.append((t, value))

    def _drop(self, value: Any) -> None:
        self._count -= 1
        self._accepts -= bool(value)

    def value(self) -> float | None:
        return self._accepts / self._count if self._count else None


def _p99_rank(n: int) -> int:
    """0-based rank of the p99 in ``n`` ascending values (``n >= 1``)."""
    return max(min(n - 1, math.ceil(0.99 * n) - 1), 0)


def _settle(heap: list[float], gone: dict[float, int]) -> None:
    """Pop lazily deleted keys off the top of ``heap``."""
    while heap:
        pending = gone.get(heap[0])
        if not pending:
            return
        if pending == 1:
            del gone[heap[0]]
        else:
            gone[heap[0]] = pending - 1
        heapq.heappop(heap)


def _compact(heap: list[float], gone: dict[float, int]) -> list[float]:
    """``heap`` without its lazily deleted keys (clears ``gone``)."""
    kept = []
    for key in heap:
        pending = gone.get(key)
        if pending:
            gone[key] = pending - 1
        else:
            kept.append(key)
    gone.clear()
    heapq.heapify(kept)
    return kept


class _P99(_Aggregate):
    """Exact p99 order statistic of the admission latencies in the window.

    Two heaps split the window's latencies at the p99 rank: ``_low`` (a
    max-heap of negated values) holds the smallest ``rank + 1`` values, so
    its top is the answer, and ``_high`` (a min-heap) holds the rest.
    Evicted latencies are deleted lazily — counted in ``_gone_*`` and
    popped when they surface — and a heap is rebuilt once dead keys make up
    half of it, so the state stays O(window).  Insertion and eviction cost
    O(log window); reading the value costs O(1) amortised.
    """

    __slots__ = ("_low", "_high", "_n_low", "_n_high", "_gone_low", "_gone_high")

    def __init__(self, window: float) -> None:
        super().__init__(window)
        self._low: list[float] = []
        self._high: list[float] = []
        self._n_low = 0
        self._n_high = 0
        self._gone_low: dict[float, int] = {}
        self._gone_high: dict[float, int] = {}

    def _in_low(self, latency: float) -> bool:
        _settle(self._low, self._gone_low)
        return self._n_low > 0 and latency <= -self._low[0]

    def add(self, t: float, value: Any) -> None:
        if self._in_low(value):
            heapq.heappush(self._low, -value)
            self._n_low += 1
        else:
            heapq.heappush(self._high, value)
            self._n_high += 1
        self._rebalance()
        if self._expiring:
            self._rows.append((t, value))

    def _drop(self, value: Any) -> None:
        if self._in_low(value):
            self._gone_low[-value] = self._gone_low.get(-value, 0) + 1
            self._n_low -= 1
        else:
            self._gone_high[value] = self._gone_high.get(value, 0) + 1
            self._n_high -= 1
        self._rebalance()
        if len(self._low) > 2 * self._n_low + 32:
            self._low = _compact(self._low, self._gone_low)
        if len(self._high) > 2 * self._n_high + 32:
            self._high = _compact(self._high, self._gone_high)

    def _rebalance(self) -> None:
        n = self._n_low + self._n_high
        target = _p99_rank(n) + 1 if n else 0
        while self._n_low > target:
            _settle(self._low, self._gone_low)
            heapq.heappush(self._high, -heapq.heappop(self._low))
            self._n_low -= 1
            self._n_high += 1
        while self._n_low < target:
            _settle(self._high, self._gone_high)
            heapq.heappush(self._low, -heapq.heappop(self._high))
            self._n_high -= 1
            self._n_low += 1

    def value(self) -> float | None:
        if not self._n_low:
            return None
        _settle(self._low, self._gone_low)
        return -self._low[0]


class _Extreme(_Aggregate):
    """Worst health sample in the window: the minimum under a floor rule,
    the maximum under a ceiling rule.

    The rows deque is a monotonic queue: a sample that a later, no better
    one outlives can never be the answer, so it is dropped on arrival and
    the front is always the extreme.  Under a whole-run window nothing is
    ever evicted, so only the front is kept and the state is one sample.
    """

    __slots__ = ("_floor",)

    def __init__(self, window: float, *, floor: bool) -> None:
        super().__init__(window)
        self._floor = floor

    def add(self, t: float, value: Any) -> None:
        rows = self._rows
        if self._floor:
            while rows and rows[-1][1] >= value:
                rows.pop()
        else:
            while rows and rows[-1][1] <= value:
                rows.pop()
        if self._expiring or not rows:
            rows.append((t, value))

    def value(self) -> float | None:
        return self._rows[0][1] if self._rows else None


def _aggregate_for(rule: SloRule) -> _Aggregate:
    if rule.metric == "accept_rate":
        return _AcceptRate(rule.window)
    if rule.metric == "p99_admission_latency":
        return _P99(rule.window)
    return _Extreme(rule.window, floor=rule.bound == "floor")


class SloWatchdog:
    """Evaluates a rule set over the gateway's windowed health aggregates.

    Breaches are **edge-triggered**: a rule that stays violated across
    many evaluations produces one breach when it first crosses and a new
    one only after it recovers and crosses again.

    Each rule keeps its own incremental aggregate (see :class:`_Aggregate`),
    so an evaluation costs O(1) per rule plus the evictions since the last
    one, however long the run.  The aggregates rely on time moving forward:
    ingested rows must arrive in non-decreasing time and evaluation
    instants must not decrease — the gateway's clock guarantees both, and
    the watchdog raises :class:`~repro.core.errors.ConfigurationError`
    otherwise.
    """

    def __init__(self, rules: Sequence[SloRule]) -> None:
        names = [rule.name for rule in rules]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SloRuleError(f"duplicate rule name(s): {dupes}")
        self.rules = tuple(rules)
        self.breaches: list[SloBreach] = []
        self._aggregates = tuple(_aggregate_for(rule) for rule in self.rules)
        self._accept_rates: tuple[_Aggregate, ...] = ()
        self._latencies: tuple[_Aggregate, ...] = ()
        self._samples: dict[str, tuple[_Aggregate, ...]] = {}
        for rule, aggregate in zip(self.rules, self._aggregates):
            if rule.metric == "accept_rate":
                self._accept_rates += (aggregate,)
            elif rule.metric == "p99_admission_latency":
                self._latencies += (aggregate,)
            else:
                self._samples[rule.metric] = self._samples.get(rule.metric, ()) + (aggregate,)
        self._decisions = 0
        self._last_row = -math.inf
        self._last_eval = -math.inf
        self._active: set[str] = set()
        self._last_values: dict[str, float | None] = {rule.name: None for rule in self.rules}

    @property
    def ok(self) -> bool:
        """True while no rule has ever breached."""
        return not self.breaches

    @property
    def decisions(self) -> int:
        """Admission decisions ingested so far (whatever the rule windows)."""
        return self._decisions

    @property
    def values(self) -> dict[str, float | None]:
        """Each rule's value at the last evaluation (``None``: empty window)."""
        return dict(self._last_values)

    @property
    def active(self) -> tuple[str, ...]:
        """Names of rules violated at the last evaluation (sorted).

        Breaches are edge-triggered, so :attr:`breaches` only ever grows;
        a *liveness* probe (the service plane's ``/healthz``) instead
        needs "is anything wrong right now" — a rule leaves this set as
        soon as an evaluation sees it back inside its bound.
        """
        return tuple(sorted(self._active))

    @property
    def healthy(self) -> bool:
        """True when no rule is violated *currently* (see :attr:`active`)."""
        return not self._active

    def _row_at(self, t: float) -> None:
        if t < self._last_row:
            raise ConfigurationError(f"SLO sample time went backwards: {t} < {self._last_row}")
        self._last_row = t

    def admission(self, t: float, *, accepted: bool, latency: float) -> None:
        """Ingest one admission decision (latency in simulated time)."""
        self._row_at(t)
        self._decisions += 1
        for aggregate in self._accept_rates:
            aggregate.add(t, accepted)
        for aggregate in self._latencies:
            aggregate.add(t, latency)

    def sample(self, metric: str, t: float, value: float) -> None:
        """Ingest one health sample (hold age, backlog depth, utilisation)."""
        self._row_at(t)
        for aggregate in self._samples.get(metric, ()):
            aggregate.add(t, value)

    def evaluate(
        self,
        now: float,
        *,
        telemetry: Telemetry | None = None,
        recorder: FlightRecorder | None = None,
    ) -> list[SloBreach]:
        """Evaluate every rule at ``now``; returns breaches new this call."""
        if now < self._last_eval:
            raise ConfigurationError(
                f"SLO evaluation time went backwards: {now} < {self._last_eval}"
            )
        self._last_eval = now
        fresh: list[SloBreach] = []
        for rule, aggregate in zip(self.rules, self._aggregates):
            aggregate.evict(now)
            value = aggregate.value()
            self._last_values[rule.name] = value
            if value is None or not rule.violated(value):
                self._active.discard(rule.name)
                continue
            if rule.name in self._active:
                continue
            self._active.add(rule.name)
            breach = SloBreach(
                rule=rule.name,
                metric=rule.metric,
                bound=rule.bound,
                threshold=rule.threshold,
                value=value,
                at=now,
            )
            self.breaches.append(breach)
            fresh.append(breach)
            if telemetry is not None and telemetry.enabled:
                telemetry.emit("slo.breach", now, **breach.to_dict())
                telemetry.metrics.counter(
                    "slo_breaches_total", "SLO rule breaches (edge-triggered)."
                ).inc(rule=rule.name)
            if recorder is not None:
                recorder.record("slo", now, "slo.breach", **breach.to_dict())
        return fresh

    def report(self) -> dict[str, Any]:
        """The cell-level verdict: ok flag, breaches, the rule set."""
        return {
            "ok": self.ok,
            "breaches": [breach.to_dict() for breach in self.breaches],
            "rules": [rule.to_dict() for rule in self.rules],
        }


def default_slo_rules(
    *,
    hold_ttl: float = 300.0,
    rpc_deadline: float | None = None,
    backlog_limit: int | None = None,
) -> tuple[SloRule, ...]:
    """A conservative rule set scaled to the gateway's own knobs.

    The latency ceiling budgets for the worst chaos path — a full retry
    ladder on each of the four 2PC legs — so it gates pathology, not
    ordinary chaos-induced slowness.
    """
    deadline = rpc_deadline if rpc_deadline is not None else 60.0
    rules = [
        SloRule("accept-rate-floor", "accept_rate", "floor", 0.02),
        SloRule(
            "admission-p99-ceiling",
            "p99_admission_latency",
            "ceiling",
            max(60.0, 8.0 * deadline),
        ),
        SloRule("hold-age-ceiling", "max_hold_age", "ceiling", 1.5 * hold_ttl),
        SloRule("overcommit-ceiling", "overcommit_proximity", "ceiling", 1.000001),
    ]
    if backlog_limit:
        rules.append(SloRule("backlog-ceiling", "backlog_depth", "ceiling", float(backlog_limit)))
    return tuple(rules)


def load_rules(path: str | Path) -> tuple[SloRule, ...]:
    """Load a rules file: JSON ``{"rules": [...]}`` or a bare list."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict):
        raw = raw.get("rules")
    if not isinstance(raw, list):
        raise SloRuleError(f"{path}: expected a list of rules or {{'rules': [...]}}")
    return tuple(SloRule.from_dict(item) for item in raw)


def evaluate_artifact(
    artifact: RunTelemetry | Mapping[str, Any], rules: Sequence[SloRule]
) -> dict[str, Any]:
    """Replay the watchdog offline over a run artifact's event stream.

    Feeds every capture's ``gateway.submit`` (admission + latency) and
    ``gateway.batch`` (health samples) events through a fresh watchdog in
    time order, evaluating at each flush — the same cadence the live
    gateway uses — and once more at the end of the capture.
    """
    captures: list[dict[str, Any]] = []
    for entry in iter_captures(artifact):
        watchdog = SloWatchdog(rules)
        last_time: float | None = None
        for event in entry.get("events", []):
            t = float(event["time"])
            name = event["name"]
            fields = event.get("fields", {})
            last_time = t
            if name == "gateway.submit" and "latency" in fields:
                watchdog.admission(
                    t,
                    accepted=fields.get("outcome") == "accepted",
                    latency=float(fields["latency"]),
                )
            elif name == "gateway.batch":
                for metric in ("backlog_depth", "max_hold_age", "overcommit_proximity"):
                    if metric in fields:
                        watchdog.sample(metric, t, float(fields[metric]))
                watchdog.evaluate(t)
        if last_time is not None:
            watchdog.evaluate(last_time)
        captures.append({"label": entry.get("label", ""), **watchdog.report()})
    return {
        "ok": all(capture["ok"] for capture in captures),
        "rules": [rule.to_dict() for rule in rules],
        "captures": captures,
    }
