"""The reservation book: one owner of the reservation table and its recovery verbs.

The paper's admission controller (§5.4) applies one recovery rule per
fault, so both admission front ends — :class:`~repro.control.service.ReservationService`
and the sharded :class:`~repro.gateway.gateway.Gateway` — keep their
reservations here.  The book owns the table, every lifecycle stamp
(gridlint GL004), the degradation list, the recovery verbs (tail release,
in-place tail reshape, the degrade loop) and the snapshot reservation rows.
It reaches capacity only through the :class:`CapacityPort` protocol, which
:class:`~repro.core.ledger.PortLedger` and
:class:`~repro.gateway.twophase.TwoPhaseCoordinator` implement.  Admission,
the re-admission backlog (whose policies differ on purpose), journaling,
stats and telemetry stay in the front ends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Protocol

from ..core.allocation import Allocation
from ..core.booking import LedgerView, RejectReason, shape_profile
from ..core.capacity import CAPACITY_SLACK
from ..core.errors import InternalInvariantError, InvalidRequestError
from ..core.ledger import Degradation
from ..core.platform import Platform
from ..core.profile import RateProfile, Segment
from ..core.request import Request

__all__ = ["CapacityPort", "Reservation", "ReservationBook", "ReservationState"]


class ReservationState(enum.Enum):
    """Lifecycle of a reservation."""

    REJECTED = "rejected"
    CONFIRMED = "confirmed"   # booked, transfer not yet started
    ACTIVE = "active"         # transfer in progress
    COMPLETED = "completed"   # transfer window fully elapsed
    CANCELLED = "cancelled"
    ABORTED = "aborted"       # transfer failed mid-flight
    DISPLACED = "displaced"   # cancelled by a port outage/degradation


#: States whose unconsumed tail still holds capacity.
_LIVE = (ReservationState.CONFIRMED, ReservationState.ACTIVE)


@dataclass
class Reservation:
    """A client's handle on one submitted transfer."""

    rid: int
    request: Request
    allocation: Allocation | None
    cancelled_at: float | None = None
    aborted_at: float | None = None
    displaced_at: float | None = None
    #: rid of the reservation this one re-admits or rebooks, if any.
    origin: int | None = None
    #: Why admission failed (``None`` on confirmed reservations).
    reject_reason: RejectReason | None = None

    @property
    def confirmed(self) -> bool:
        """Was the reservation admitted?"""
        return self.allocation is not None

    @property
    def terminated_at(self) -> float | None:
        """When the reservation ended early (cancel/abort/displacement)."""
        for t in (self.cancelled_at, self.aborted_at, self.displaced_at):
            if t is not None:
                return t
        return None

    @property
    def carried(self) -> float:
        """MB actually delivered before the transfer ended."""
        if self.allocation is None:
            return 0.0
        stop = self.terminated_at
        end = self.allocation.tau if stop is None else min(stop, self.allocation.tau)
        return self.allocation.carried_before(end)

    @property
    def residual(self) -> float:
        """MB still undelivered when the reservation ended early."""
        return max(0.0, self.request.volume - self.carried)

    def state(self, now: float) -> ReservationState:
        """Lifecycle state as of time ``now``."""
        if self.allocation is None:
            return ReservationState.REJECTED
        if self.aborted_at is not None:
            return ReservationState.ABORTED
        if self.displaced_at is not None:
            return ReservationState.DISPLACED
        if self.cancelled_at is not None:
            return ReservationState.CANCELLED
        if now < self.allocation.sigma:
            return ReservationState.CONFIRMED
        if now < self.allocation.tau:
            return ReservationState.ACTIVE
        return ReservationState.COMPLETED


def _live_allocation(reservation: Reservation) -> Allocation:
    """The allocation of a reservation known to be live (a missing one means a corrupt book)."""
    if reservation.allocation is None:
        raise InternalInvariantError(
            f"reservation {reservation.rid} is live but carries no allocation"
        )
    return reservation.allocation


class CapacityPort(Protocol):
    """The capacity surface the book's recovery verbs need.

    ``release_pair`` returns a committed pair booking (the ``segments``
    steps instead of the constant ``(t0, t1, bw)`` rectangle when given);
    ``restore_pair`` re-adds steps without a capacity probe; ``pair_view``
    is the read view :func:`~repro.core.booking.shape_profile` searches.
    """

    def release_pair(
        self, ingress: int, egress: int, t0: float, t1: float, bw: float, *,
        segments: tuple[Segment, ...] | None = None,
    ) -> None: ...

    def restore_pair(self, ingress: int, egress: int, segments: tuple[Segment, ...]) -> None: ...

    def pair_view(self, ingress: int, egress: int) -> LedgerView: ...

    def overcommit_on(self, side: str, port: int, t0: float, t1: float) -> float: ...

    def degrade(self, degradation: Degradation) -> None: ...


class ReservationBook:
    """The reservation table and recovery verbs over one capacity port."""

    def __init__(self, port: CapacityPort, platform: Platform) -> None:
        self._port = port
        self.platform = platform
        self._reservations: dict[int, Reservation] = {}
        self._degradations: list[Degradation] = []

    def __contains__(self, rid: object) -> bool:
        return rid in self._reservations

    def add(
        self, request: Request, allocation: Allocation | None, *,
        origin: int | None = None, reject_reason: RejectReason | None = None,
    ) -> Reservation:
        """Record one admission decision under the request's rid."""
        reservation = Reservation(
            request.rid, request, allocation, origin=origin, reject_reason=reject_reason
        )
        self._reservations[request.rid] = reservation
        return reservation

    def get(self, rid: int) -> Reservation:
        """Look up a reservation by id."""
        try:
            return self._reservations[rid]
        except KeyError:
            raise KeyError(f"unknown reservation {rid}") from None

    def reservations(self) -> list[Reservation]:
        """Every reservation, in rid order."""
        return [self._reservations[rid] for rid in sorted(self._reservations)]

    def degradations(self) -> list[Degradation]:
        """Every capacity degradation applied so far, in order."""
        return list(self._degradations)

    def snapshot_rows(self) -> list[dict[str, Any]]:
        """The canonical, JSON-able reservation rows of a front end's snapshot."""
        return [
            {
                "rid": r.rid,
                "request": r.request.to_dict(),
                "allocation": r.allocation.to_dict() if r.allocation else None,
                "cancelled_at": r.cancelled_at,
                "aborted_at": r.aborted_at,
                "displaced_at": r.displaced_at,
                "origin": r.origin,
                "reject_reason": r.reject_reason.value if r.reject_reason else None,
            }
            for r in self.reservations()
        ]

    # ------------------------------------------------------------------
    def release_tail(self, alloc: Allocation, now: float) -> float:
        """Return the unconsumed part ``[max(now, σ), τ)`` of an allocation; MB released."""
        release_from = max(now, alloc.sigma)
        if release_from >= alloc.tau:
            return 0.0
        if alloc.profile is None:
            self._port.release_pair(alloc.ingress, alloc.egress, release_from, alloc.tau, alloc.bw)
            return alloc.bw * (alloc.tau - release_from)
        tail = alloc.profile.tail_from(release_from)
        if not tail:
            return 0.0
        self._port.release_pair(
            alloc.ingress, alloc.egress, release_from, alloc.tau, alloc.bw,
            segments=tail.segments,
        )
        return tail.volume

    def cancel(self, reservation: Reservation, now: float) -> bool:
        """Release a live reservation's tail and stamp it cancelled; False if not live."""
        if reservation.state(now) not in _LIVE:
            return False
        self.release_tail(_live_allocation(reservation), now)
        reservation.cancelled_at = now
        return True

    def abort(self, reservation: Reservation, now: float) -> float | None:
        """Release a live reservation's tail and stamp it aborted; MB freed, None if not live."""
        if reservation.state(now) not in _LIVE:
            return None
        freed = self.release_tail(_live_allocation(reservation), now)
        reservation.aborted_at = now
        return freed

    def reshape_tail(self, reservation: Reservation, now: float) -> bool:
        """Re-carve a live reservation's unconsumed tail in place.

        The tail ``[max(now, σ), τ)`` returns to capacity and the still
        undelivered volume is re-shaped into the pair's current residual
        valleys of the same window
        (:func:`~repro.core.booking.shape_profile`).  The consumed head is
        kept exactly, so ``carried`` accounting is unchanged.  On failure
        the original tail is restored and capacity left exactly as found.
        Returns True when the reservation was re-shaped.
        """
        if reservation.state(now) not in _LIVE:
            return False
        alloc = _live_allocation(reservation)
        release_from = max(now, alloc.sigma)
        if release_from >= alloc.tau:
            return False
        if alloc.profile is not None:
            old_tail = alloc.profile.tail_from(release_from).segments
        else:
            old_tail = ((release_from, alloc.tau, alloc.bw),)
        residual = max(0.0, reservation.request.volume - alloc.carried_before(release_from))
        if residual <= 0.0 or not old_tail:
            return False
        try:
            target = replace(reservation.request, volume=residual, t_start=release_from)
        except InvalidRequestError:
            return False  # residual window no longer structurally valid
        self._port.release_pair(
            alloc.ingress, alloc.egress, release_from, alloc.tau, alloc.bw,
            segments=old_tail,
        )
        view = self._port.pair_view(alloc.ingress, alloc.egress)
        shaped = shape_profile(view, target, not_before=release_from)
        if shaped is None:
            # Put the tail back exactly, unprobed: it may sit in an
            # already-overcommitted (degraded) region — that was the
            # pre-existing state, not ours to reject.
            self._port.restore_pair(alloc.ingress, alloc.egress, old_tail)
            return False
        if alloc.profile is not None:
            head = alloc.profile.head_until(release_from)
        elif release_from > alloc.sigma:
            head = RateProfile.constant(alloc.sigma, release_from, alloc.bw)
        else:
            head = RateProfile(())
        self._port.restore_pair(alloc.ingress, alloc.egress, shaped.segments)
        reservation.allocation = alloc.with_profile(head.concat(shaped))
        return True

    def degrade(
        self, degradation: Degradation, now: float, *, reshape: bool = False
    ) -> tuple[list[Reservation], list[int], list[float]]:
        """Apply a capacity reduction; displace what no longer fits.

        Live reservations on the port whose tail overlaps the degraded
        window yield latest-start-first — the most recently booked work
        gives way to older commitments — until the port fits under its
        remaining capacity.  With ``reshape`` each victim's tail is first
        re-carved around the window (once per degradation); one that
        still blocks the port is displaced on the next pass.

        Returns the displaced reservations, the reshaped rids and the MB
        each displaced reservation freed (aligned with the first list).
        """
        self._port.degrade(degradation)
        self._degradations.append(degradation)
        side, port = degradation.side, degradation.port
        start, end = degradation.t0, degradation.t1
        displaced: list[Reservation] = []
        reshaped: list[int] = []
        freed: list[float] = []
        cap = self.platform.bin(port) if side == "ingress" else self.platform.bout(port)
        tol = CAPACITY_SLACK * max(1.0, cap)
        while self._port.overcommit_on(side, port, start, end) > tol:
            victim = self._victim(side, port, start, end, now)
            if victim is None:
                break  # remaining overcommit is not ours to resolve
            if reshape and victim.rid not in reshaped and self.reshape_tail(victim, now):
                reshaped.append(victim.rid)
                continue
            freed.append(self.release_tail(_live_allocation(victim), now))
            victim.displaced_at = now
            displaced.append(victim)
        return displaced, reshaped, freed

    def _victim(
        self, side: str, port: int, start: float, end: float, now: float
    ) -> Reservation | None:
        """Latest-starting live reservation using the port inside the window."""
        best: Reservation | None = None
        best_key: tuple[float, int] | None = None
        for reservation in self._reservations.values():
            if reservation.state(now) not in _LIVE:
                continue
            alloc = _live_allocation(reservation)
            on_port = alloc.ingress == port if side == "ingress" else alloc.egress == port
            if not on_port:
                continue
            # Only the not-yet-consumed part [max(now, σ), τ) still holds
            # capacity; it must overlap the degraded window.
            if max(now, alloc.sigma) >= end or alloc.tau <= start:
                continue
            key = (alloc.sigma, reservation.rid)
            if best_key is None or key > best_key:
                best, best_key = reservation, key
        return best
