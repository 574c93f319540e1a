"""Overlay control plane: distributed admission, rate enforcement, faults.

:class:`ControlPlane` simulates the RSVP-like two-phase reservation between
ingress and egress access routers; :class:`TokenBucket` models the
client-side pacing / access-point drop enforcement.
:class:`ReservationService` is the stateful client-facing API, hardened
against mid-flight aborts, port outages, and process crashes
(:mod:`repro.control.faults`, :mod:`repro.control.journal`).
:class:`ReservationBook` owns the reservation table and the recovery
verbs that the service and the sharded gateway share.
"""

from .faults import (
    CHAOS_SCENARIOS,
    AbortFault,
    BrokerCrash,
    ChaosMatrixReport,
    FaultDrillReport,
    FaultInjector,
    GatewayDrillReport,
    PortFault,
    chaos_scenario,
    run_chaos_matrix,
    run_fault_drill,
    run_gateway_fault_drill,
)
from ..core.booking import RejectReason
from .book import Reservation, ReservationBook, ReservationState
from .journal import Journal, JournalEntry
from .messages import MessageType, ReservationMessage
from .plane import ControlPlane
from .router import PortAgent
from .service import ReservationService
from .striped import StripedBooking, book_striped, plan_striped
from .token_bucket import TokenBucket, enforce_series

__all__ = [
    "AbortFault",
    "BrokerCrash",
    "CHAOS_SCENARIOS",
    "ChaosMatrixReport",
    "ControlPlane",
    "FaultDrillReport",
    "FaultInjector",
    "GatewayDrillReport",
    "Journal",
    "JournalEntry",
    "MessageType",
    "PortAgent",
    "PortFault",
    "RejectReason",
    "Reservation",
    "ReservationBook",
    "ReservationService",
    "ReservationState",
    "ReservationMessage",
    "StripedBooking",
    "TokenBucket",
    "book_striped",
    "chaos_scenario",
    "enforce_series",
    "plan_striped",
    "run_chaos_matrix",
    "run_fault_drill",
    "run_gateway_fault_drill",
]
