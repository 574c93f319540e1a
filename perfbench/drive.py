"""The load-generating side: one process, at most two keep-alive connections.

Closed loop: each connection posts the next batch of the plan to
``POST /v1/reservations/batch`` as soon as its previous batch is
answered, until the plan is sent; latency is the round trip.

Open loop: the plan's arrival instants, scaled to the workload's offered
rate, give each single submit a due instant.  A free connection takes
the next due submission, sleeps until it is due and posts it to
``POST /v1/reservations``; when both connections are busy the next
submission goes out late.  Latency is measured from the due instant, so
a stall is charged to every request it delays, and the lateness of each
send is recorded so a run whose generator fell behind shows it.
``repro.loadgen``'s paced mode times from the send instead.

Every response is checked as it arrives: the status, one decision per
submission, outcomes that are ``accepted`` or ``rejected``, and accepted
allocations that carry the submitted volume between the submitted ports
before the deadline.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ReproError
from repro.loadgen import ServiceClient, SubmissionPlan

from .workloads import Workload

__all__ = ["Phase", "Sample", "closed_loop", "open_loop"]

#: Relative tolerance for the volume and deadline checks on a decision.
RTOL = 1e-6
_TRANSPORT_ERRORS = (ReproError, OSError, asyncio.IncompleteReadError, ValueError)


@dataclass(slots=True)
class Sample:
    """One timed submit request."""

    due: float
    sent: float
    done: float
    decided: int

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class Phase:
    """What one timed phase sent, got back and found wrong."""

    started: float = 0.0
    ended: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    accepted: int = 0
    rejected: int = 0
    invalid: int = 0
    transport_errors: int = 0
    http_errors: int = 0
    #: Status reads and cancels sent alongside the submits.
    side_requests: int = 0
    #: Responses that contradict the submission (correctness failures).
    mismatches: list[str] = field(default_factory=list)
    #: The host was so slow that the phase stopped before its plan was sent.
    gave_up: bool = False

    @property
    def decided(self) -> int:
        return self.accepted + self.rejected

    @property
    def failed(self) -> int:
        """Submissions that got no decision: transport, HTTP or ``invalid``."""
        return self.attempted - self.decided


def _check_decision(phase: Phase, body: dict[str, Any], decision: Any) -> str | None:
    """Tally one decision; returns its outcome (``None`` when it is invalid)."""
    outcome = decision.get("outcome") if isinstance(decision, dict) else None
    if outcome == "invalid":
        phase.invalid += 1
        return None
    if outcome == "rejected":
        phase.rejected += 1
        return outcome
    if outcome != "accepted":
        phase.mismatches.append(f"unexpected decision {decision!r}")
        return None
    phase.accepted += 1
    alloc = decision.get("allocation") or {}
    try:
        carried = alloc["bw"] * (alloc["tau"] - alloc["sigma"])
        ports = (alloc["ingress"], alloc["egress"])
        late = alloc["tau"] - body["deadline"]
    except (KeyError, TypeError):
        phase.mismatches.append(f"accepted decision without an allocation: {decision!r}")
        return outcome
    rid = decision.get("rid")
    if ports != (body["ingress"], body["egress"]):
        phase.mismatches.append(f"rid {rid}: ports {ports} != submitted")
    if abs(carried - body["volume"]) > RTOL * body["volume"]:
        phase.mismatches.append(f"rid {rid}: carries {carried} MB, not {body['volume']}")
    if late > RTOL * max(1.0, abs(body["deadline"])):
        phase.mismatches.append(f"rid {rid}: ends {late} s after its deadline")
    return outcome


async def closed_loop(
    host: str,
    port: int,
    plan: SubmissionPlan,
    workload: Workload,
    *,
    give_up_s: float,
) -> Phase:
    """Back-to-back batch POSTs until the plan is sent (or ``give_up_s`` pass)."""
    phase = Phase()
    batch = workload.batch
    cursor = 0

    async def connection() -> None:
        nonlocal cursor
        client = ServiceClient(host, port)
        await client.connect()
        try:
            while cursor + batch <= len(plan):
                if time.perf_counter() >= phase.started + give_up_s:
                    phase.gave_up = True
                    return
                bodies = [plan.body(cursor + k) for k in range(batch)]
                cursor += batch
                phase.attempted += batch
                sent = time.perf_counter()
                try:
                    response = await client.request(
                        "POST", "/v1/reservations/batch", payload={"submissions": bodies}
                    )
                    payload = response.json() if response.status == 200 else None
                except _TRANSPORT_ERRORS:
                    phase.transport_errors += 1
                    continue
                done = time.perf_counter()
                if payload is None:
                    phase.http_errors += 1
                    continue
                decisions = payload.get("decisions", [])
                if len(decisions) != len(bodies):
                    phase.mismatches.append(
                        f"{len(decisions)} decisions for a batch of {len(bodies)}"
                    )
                before = phase.decided
                for body, decision in zip(bodies, decisions):
                    _check_decision(phase, body, decision)
                phase.samples.append(Sample(sent, sent, done, phase.decided - before))
        finally:
            await client.close()

    phase.started = time.perf_counter()
    await asyncio.gather(*(connection() for _ in range(workload.connections)))
    phase.ended = time.perf_counter()
    return phase


async def open_loop(
    host: str, port: int, plan: SubmissionPlan, workload: Workload, *, lead_s: float = 0.05
) -> Phase:
    """Single submits at their due instants, plus status reads and cancels."""
    phase = Phase()
    bodies = [plan.body(k) for k in range(len(plan))]
    wall_per_sim = 1.0 / (workload.rate * workload.mean_interarrival)
    first_at = bodies[0]["at"]
    phase.started = time.perf_counter() + lead_s
    dues = [phase.started + (body["at"] - first_at) * wall_per_sim for body in bodies]
    cursor = 0

    async def side_request(client: ServiceClient, method: str, rid: int) -> Any:
        phase.side_requests += 1
        try:
            response = await client.request(method, f"/v1/reservations/{rid}")
        except _TRANSPORT_ERRORS:
            phase.transport_errors += 1
            return None
        if response.status != 200:
            phase.http_errors += 1
            return None
        return response.json()

    async def connection() -> None:
        nonlocal cursor
        client = ServiceClient(host, port)
        await client.connect()
        try:
            while cursor < len(bodies):
                k = cursor
                cursor += 1
                body, due = bodies[k], dues[k]
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.attempted += 1
                sent = time.perf_counter()
                try:
                    response = await client.request("POST", "/v1/reservations", payload=body)
                    payload = response.json() if response.status in (200, 201) else None
                except _TRANSPORT_ERRORS:
                    phase.transport_errors += 1
                    continue
                done = time.perf_counter()
                if payload is None:
                    phase.http_errors += 1
                    continue
                outcome = _check_decision(phase, body, payload)
                phase.samples.append(Sample(due, sent, done, int(outcome is not None)))
                rid = payload.get("rid")
                if outcome is None or rid is None:
                    continue
                if workload.status_every and k % workload.status_every == 0:
                    status = await side_request(client, "GET", rid)
                    if status is not None and status.get("outcome") != outcome:
                        phase.mismatches.append(
                            f"rid {rid}: status reads {status.get('outcome')}, decided {outcome}"
                        )
                if (
                    outcome == "accepted"
                    and workload.cancel_every
                    and phase.accepted % workload.cancel_every == 0
                ):
                    cancelled = await side_request(client, "DELETE", rid)
                    if cancelled is not None and cancelled.get("rid") != rid:
                        phase.mismatches.append(f"cancel of rid {rid} answered {cancelled!r}")
        finally:
            await client.close()

    await asyncio.gather(*(connection() for _ in range(workload.connections)))
    phase.ended = time.perf_counter()
    return phase
