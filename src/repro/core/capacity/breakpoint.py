"""The breakpoint-list backend: the library's original implementation.

Moved verbatim from the library's original breakpoint-list timeline class
(only the internals were renamed to the kernel's canonical
``_breakpoints`` / ``_values``), so every decision made through it is
bit-identical to the pre-kernel code.  O(log n + k) interval updates and
queries (n breakpoints, k touched segments) on plain Python lists: the
reference backend the vectorized one is fuzzed against.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from typing import ClassVar

import numpy as np

from .interface import CapacityProfile

__all__ = ["BreakpointProfile"]


class BreakpointProfile(CapacityProfile):
    """Breakpoint-list :class:`~repro.core.capacity.interface.CapacityProfile`."""

    __slots__ = ("_breakpoints", "_values", "_peak")

    backend_name: ClassVar[str] = "breakpoint"

    def __init__(self) -> None:
        # _values[k] applies on [_breakpoints[k], _breakpoints[k+1]); the
        # last segment extends to +inf.  The leading -inf sentinel keeps
        # indexing simple.
        self._breakpoints: list[float] = [-math.inf]
        self._values: list[float] = [0.0]
        # Cached global_max: kept up to date by a positive add (the peak
        # can only rise to the touched segments' new max), dropped (None)
        # by a negative one.
        self._peak: float | None = 0.0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _segment_index(self, t: float) -> int:
        """Index of the segment containing time ``t``."""
        return bisect_right(self._breakpoints, t) - 1

    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at ``t`` (if absent) and return its index."""
        idx = self._segment_index(t)
        if self._breakpoints[idx] == t:  # gridlint: disable=GL003 -- breakpoint identity: t was bisected into _breakpoints, only an exact hit reuses the entry
            return idx
        self._breakpoints.insert(idx + 1, t)
        self._values.insert(idx + 1, self._values[idx])
        return idx + 1

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge equal-valued adjacent segments in index range [lo, hi]."""
        lo = max(lo, 1)
        hi = min(hi, len(self._breakpoints) - 1)
        # Walk backwards so deletions do not disturb earlier indices.
        for k in range(hi, lo - 1, -1):
            if k < len(self._breakpoints) and self._values[k] == self._values[k - 1]:
                del self._breakpoints[k]
                del self._values[k]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, t0: float, t1: float, delta: float) -> None:
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        if delta == 0.0:
            return
        i0 = self._ensure_breakpoint(t0)
        i1 = self._ensure_breakpoint(t1)
        values = self._values
        for k in range(i0, i1):
            values[k] += delta
        if delta > 0.0 and self._peak is not None:
            touched = max(values[i0:i1])
            if touched > self._peak:
                self._peak = touched
        else:
            self._peak = None
        self._coalesce(i0 - 1, i1 + 1)

    def clear(self) -> None:
        self._breakpoints = [-math.inf]
        self._values = [0.0]
        self._peak = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def usage_at(self, t: float) -> float:
        return self._values[self._segment_index(t)]

    def max_usage(self, t0: float, t1: float) -> float:
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        i0 = self._segment_index(t0)
        i1 = self._segment_index(t1)
        if self._breakpoints[i1] == t1:  # gridlint: disable=GL003 -- breakpoint identity: half-open [t0, t1) excludes an exactly-aligned final segment
            i1 -= 1
        return max(self._values[i0 : i1 + 1])

    def min_usage(self, t0: float, t1: float) -> float:
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        i0 = self._segment_index(t0)
        i1 = self._segment_index(t1)
        if self._breakpoints[i1] == t1:  # gridlint: disable=GL003 -- breakpoint identity: half-open [t0, t1) excludes an exactly-aligned final segment
            i1 -= 1
        return min(self._values[i0 : i1 + 1])

    def segments(
        self, t0: float | None = None, t1: float | None = None
    ) -> Iterator[tuple[float, float, float]]:
        n = len(self._breakpoints)
        for k in range(n):
            seg_start = self._breakpoints[k]
            seg_end = self._breakpoints[k + 1] if k + 1 < n else math.inf
            if t0 is not None:
                seg_start = max(seg_start, t0)
            if t1 is not None:
                seg_end = min(seg_end, t1)
            if seg_start >= seg_end:
                continue
            if math.isinf(seg_start) or math.isinf(seg_end):
                if self._values[k] == 0.0:
                    continue
            yield (seg_start, seg_end, self._values[k])

    def breakpoints(self, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        pts = self._breakpoints
        i = 0 if lo is None else bisect_right(pts, lo)
        j = len(pts) if hi is None else bisect_right(pts, hi)
        return np.array([t for t in pts[i:j] if math.isfinite(t)], dtype=np.float64)

    @property
    def num_segments(self) -> int:
        return len(self._breakpoints)

    def global_max(self) -> float:
        if self._peak is None:
            self._peak = max(self._values)
        return self._peak

    def is_zero(self, tol: float = 1e-9) -> bool:
        return all(abs(u) <= tol for u in self._values)

    # ------------------------------------------------------------------
    def copy(self) -> BreakpointProfile:
        clone = BreakpointProfile()
        clone._breakpoints = list(self._breakpoints)
        clone._values = list(self._values)
        clone._peak = self._peak
        return clone
