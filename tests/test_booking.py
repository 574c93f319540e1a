"""Earliest-fit candidate enumeration: windowed, and decision-identical.

The search asks every capacity source for the request's window only
(``CapacityProfile.breakpoints(lo, hi)`` and the bounded
``degradation_edges``).  Two checks hold it to that:

- an oracle: the decisions equal those of a reference search that scans
  every breakpoint of both timelines and filters to the window, on
  seeded ledgers with history and degradations, on both backends;
- a structural guard: the search runs against a ledger whose unbounded
  queries raise, so any return of the O(history) scan fails here without
  relying on timing.
"""

import random

import pytest

from repro.control.striped import plan_striped
from repro.core import Degradation, Platform, PortLedger
from repro.core.booking import (
    FitProbe,
    deadline_tolerance,
    earliest_fit,
    earliest_fit_profile,
    shape_profile,
)
from repro.core.capacity import get_default_backend, set_default_backend
from repro.core.profile import RateProfile
from repro.core.request import Request

PORTS = 3
CAP = 100.0


@pytest.fixture(params=["breakpoint", "vector"])
def backend(request):
    previous = get_default_backend()
    set_default_backend(request.param)
    yield request.param
    set_default_backend(previous)


def _busy_ledger(seed, *, bookings=120, degradations=6):
    """A ledger with a long, ragged history and a few capacity dips."""
    rng = random.Random(seed)
    ledger = PortLedger(Platform.uniform(PORTS, PORTS, CAP))
    for _ in range(bookings):
        t0 = float(rng.randrange(0, 400))
        t1 = t0 + float(rng.randrange(1, 40))
        bw = float(rng.randrange(5, 40))
        i, e = rng.randrange(PORTS), rng.randrange(PORTS)
        if ledger.fits(i, e, t0, t1, bw):
            ledger.allocate(i, e, t0, t1, bw)
    for _ in range(degradations):
        t0 = float(rng.randrange(0, 400))
        side = rng.choice(("ingress", "egress"))
        ledger.degrade(
            Degradation(side, rng.randrange(PORTS), t0, t0 + float(rng.randrange(5, 50)), 30.0)
        )
    return ledger


def _requests(seed, n=60):
    rng = random.Random(seed + 1000)
    out = []
    for rid in range(n):
        # Integer grid: window ends fall exactly on breakpoints often.
        t_start = float(rng.randrange(0, 400))
        span = rng.randrange(5, 120)
        out.append(
            Request(
                rid=rid,
                ingress=rng.randrange(PORTS),
                egress=rng.randrange(PORTS),
                volume=float(rng.randrange(5, 95) * span),
                t_start=t_start,
                t_end=t_start + float(span),
                max_rate=CAP,
            )
        )
    return out


def _reference_fit(ledger, request, not_before=None):
    """Earliest fit over candidates from full breakpoint scans (the oracle)."""
    earliest = request.t_start if not_before is None else max(request.t_start, not_before)
    latest = request.t_end - request.min_duration
    if latest < earliest:
        return None, 0
    points = list(ledger.ingress_timeline(request.ingress).breakpoints())
    points.extend(ledger.egress_timeline(request.egress).breakpoints())
    points.extend(ledger.degradation_edges("ingress", request.ingress))
    points.extend(ledger.degradation_edges("egress", request.egress))
    starts = {earliest} | {float(t) for t in points if earliest < t <= latest}
    tol = deadline_tolerance(request.t_end)
    examined = 0
    for sigma in sorted(starts):
        examined += 1
        needed = request.rate_for_deadline(sigma)
        if needed > request.max_rate * (1 + 1e-9):
            continue
        bw = min(needed, request.max_rate)
        tau = sigma + request.volume / bw
        if tau > request.t_end + tol:
            continue
        if ledger.fits(request.ingress, request.egress, sigma, tau, bw):
            return (sigma, tau, bw), examined
    return None, examined


class _WindowOnlyProfile:
    """A profile proxy whose unbounded ``breakpoints()`` raises."""

    def __init__(self, inner):
        self._inner = inner

    def breakpoints(self, lo=None, hi=None):
        if lo is None or hi is None:
            raise AssertionError("unbounded breakpoints() scan on the decision path")
        return self._inner.breakpoints(lo, hi)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _WindowOnlyLedger:
    """A ledger view that only answers windowed candidate queries."""

    def __init__(self, ledger):
        self._ledger = ledger

    def ingress_timeline(self, i):
        return _WindowOnlyProfile(self._ledger.ingress_timeline(i))

    def egress_timeline(self, e):
        return _WindowOnlyProfile(self._ledger.egress_timeline(e))

    def degradation_edges(self, side, port, lo=None, hi=None):
        if lo is None or hi is None:
            raise AssertionError("unbounded degradation_edges() scan on the decision path")
        return self._ledger.degradation_edges(side, port, lo, hi)

    def free_capacity(self, side, port, t0, t1):
        return self._ledger.free_capacity(side, port, t0, t1)

    def fits(self, ingress, egress, t0, t1, bw):
        return self._ledger.fits(ingress, egress, t0, t1, bw)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_earliest_fit_matches_full_scan_oracle(backend, seed):
    ledger = _busy_ledger(seed)
    decided = 0
    for request in _requests(seed):
        for not_before in (None, request.t_start + 3.0):
            probe = FitProbe()
            allocation = earliest_fit(ledger, request, not_before=not_before, probe=probe)
            expected, examined = _reference_fit(ledger, request, not_before)
            got = None if allocation is None else (allocation.sigma, allocation.tau, allocation.bw)
            assert got == expected
            assert probe.candidates == examined
            decided += allocation is not None
    assert decided, "the workload must accept some requests"


def _segments(found):
    """Comparable form of a profile or a profile-carrying allocation."""
    if found is None:
        return None
    profile = getattr(found, "profile", found)
    return tuple(profile.segments)


@pytest.mark.parametrize("seed", [0, 1])
def test_decision_path_never_scans_the_whole_history(backend, seed):
    ledger = _busy_ledger(seed)
    guarded = _WindowOnlyLedger(ledger)
    shaped_any = False
    for request in _requests(seed, n=30):
        probe, guarded_probe = FitProbe(), FitProbe()
        assert earliest_fit(guarded, request, probe=guarded_probe) == earliest_fit(
            ledger, request, probe=probe
        )
        assert guarded_probe == probe
        shaped = shape_profile(ledger, request)
        assert _segments(shape_profile(guarded, request)) == _segments(shaped)
        if shaped is not None:
            shaped_any = True
            assert _segments(earliest_fit_profile(guarded, request, shaped)) == _segments(
                earliest_fit_profile(ledger, request, shaped)
            )
    assert shaped_any
    fixed = RateProfile([(10.0, 20.0, 30.0), (25.0, 30.0, 10.0)])
    request = Request(
        rid=99, ingress=0, egress=1, volume=fixed.volume, t_start=10.0, t_end=300.0,
        max_rate=CAP,
    )
    assert _segments(earliest_fit_profile(guarded, request, fixed)) == _segments(
        earliest_fit_profile(ledger, request, fixed)
    )
    assert plan_striped(
        guarded, ledger.platform, sources=[0, 1, 2], egress=1, volume=3000.0,
        t_start=20.0, t_end=200.0,
    ) == plan_striped(
        ledger, ledger.platform, sources=[0, 1, 2], egress=1, volume=3000.0,
        t_start=20.0, t_end=200.0,
    )
