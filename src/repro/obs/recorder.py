"""Bounded flight recorder: the last N events per component, post-mortem.

A :class:`FlightRecorder` keeps a small ring buffer of recent events per
component (``gateway``, ``rpc.shard2``, ``slo``, ...) so that when an
invariant audit fails — or a drill wants a dump on demand — the tail of
what each component was doing is still available, no matter how long the
run was.  Unlike the :class:`~repro.obs.telemetry.Telemetry` handle, the
recorder is *always on* when attached: it records even under
``NullTelemetry``, because the dump is for post-mortems, not metrics.

Dumps are deterministic (sorted components, sorted-keys JSON, simulated
time only) and schema-validated against
:data:`~repro.obs.schema.FLIGHT_RECORDER_SCHEMA`, so two identical
seeded runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .causal import Hop, hop_args
from .ring import Ring
from .schema import validate_flight_dump

__all__ = ["FlightEntry", "FlightRecorder"]

#: Default per-component ring size — enough tail to diagnose a 2PC round
#: without letting long chaos runs grow the recorder unboundedly.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True, slots=True)
class FlightEntry:
    """One recorded event: simulated time, a kind tag and flat fields."""

    t: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"t": self.t, "kind": self.kind, "fields": dict(self.fields)}


def _entry(record: Hop) -> FlightEntry:
    """The flight-recorder row a recorded causal hop stands for."""
    return FlightEntry(record[1], record[0], hop_args(record))


class FlightRecorder:
    """Per-component bounded ring buffers with exact drop accounting.

    Causal hops (:meth:`hop`) are stored as their compact
    :data:`~repro.obs.causal.Hop` tuples and built into
    :class:`FlightEntry` rows only when a tail is read or dumped.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight-recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: dict[str, Ring[FlightEntry | Hop]] = {}
        #: Components whose ring holds hop tuples not yet built into entries.
        self._raw: set[str] = set()

    def _ring(self, component: str) -> Ring[FlightEntry | Hop]:
        ring = self._rings.get(component)
        if ring is None:
            ring = self._rings[component] = Ring(self.capacity)
        return ring

    def record(self, component: str, t: float, kind: str, **fields: Any) -> None:
        """Record one event; the oldest entry falls off a full ring."""
        self._ring(component).append(FlightEntry(t, kind, fields))

    def hop(self, component: str, record: Hop) -> None:
        """Record one causal hop, built into a :class:`FlightEntry` on read."""
        self._ring(component).append(record)
        self._raw.add(component)

    def _entries(self, component: str) -> Ring[FlightEntry]:
        ring = self._rings[component]
        if component in self._raw:
            ring.build(FlightEntry, _entry)
            self._raw.discard(component)
        return ring  # type: ignore[return-value]

    def components(self) -> list[str]:
        """Components with at least one recorded event, sorted."""
        return sorted(self._rings)

    def entries(self, component: str) -> list[FlightEntry]:
        """The retained tail for ``component``, oldest first."""
        if component not in self._rings:
            return []
        return list(self._entries(component))

    def dropped(self, component: str) -> int:
        """How many events fell off ``component``'s ring."""
        ring = self._rings.get(component)
        return 0 if ring is None else ring.dropped

    def dump(self, *, reason: str, now: float) -> dict[str, Any]:
        """A schema-valid post-mortem document of every component's tail."""
        document = {
            "format": "repro-flight-recorder",
            "version": 1,
            "reason": reason,
            "now": now,
            "capacity": self.capacity,
            "components": [
                {
                    "component": component,
                    "dropped": self.dropped(component),
                    "events": [entry.to_dict() for entry in self._entries(component)],
                }
                for component in self.components()
            ],
        }
        validate_flight_dump(document)
        return document

    def dump_json(self, *, reason: str, now: float) -> str:
        """The dump as byte-stable JSON (sorted keys, trailing newline)."""
        return json.dumps(self.dump(reason=reason, now=now), indent=2, sort_keys=True) + "\n"

    def save_dump(self, path: str | Path, *, reason: str, now: float) -> Path:
        """Write the dump to ``path`` and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.dump_json(reason=reason, now=now), encoding="utf-8")
        return target
