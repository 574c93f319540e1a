"""The bounded FIFO every event sink records into.

:class:`Ring` is a ``collections.deque`` with ``maxlen`` plus a drop
counter: an append is O(1) whether or not the ring is full, the oldest
record falls off once it is, and every eviction is counted in
:attr:`Ring.dropped`, so ``len(ring) + ring.dropped`` is the number of
records ever appended.  ``capacity=None`` keeps everything.

The span tracer, the telemetry event log, the flight recorder's
per-component tails and :class:`~repro.sim.trace.EventTrace` all store
their records in one.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Sequence
from typing import Any, Generic, TypeVar

from ..core.errors import ConfigurationError

__all__ = ["Ring"]

T = TypeVar("T")


class Ring(Generic[T]):
    """Bounded FIFO of records with exact drop accounting."""

    __slots__ = ("_items", "dropped")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self._items: deque[T] = deque(maxlen=capacity)
        #: Records evicted by the capacity bound.
        self.dropped = 0

    @property
    def capacity(self) -> int | None:
        """The bound (``None`` when unbounded)."""
        return self._items.maxlen

    def append(self, item: T) -> None:
        """Record one item; a full ring evicts (and counts) its oldest."""
        items = self._items
        if len(items) == items.maxlen:
            self.dropped += 1
        items.append(item)

    def build(self, kind: type, make: Callable[[Any], T]) -> None:
        """Replace each retained record that is not a ``kind`` by ``make(record)``.

        For sinks that record compact tuples and build their record
        objects on read: order and drop count are unchanged, and a built
        record is never built again.
        """
        self._items = deque(
            (item if type(item) is kind else make(item) for item in self._items),
            maxlen=self._items.maxlen,
        )

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index: int | slice) -> T | list[T]:
        if isinstance(index, slice):
            return list(self._items)[index]
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ring):
            return list(self._items) == list(other._items)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return list(self._items) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Ring(capacity={self.capacity}, len={len(self)}, dropped={self.dropped})"
