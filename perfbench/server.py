"""The benchmark's server process: ``repro.serve`` as ``ServeApp`` ships it.

Run by :mod:`perfbench.bench` as a child process, never by hand::

    python -m perfbench.server --workload batch-contended --role serve \\
        --journal out/j.jsonl --report out/serve.json [--trace] [--plant-fault]

It boots a :class:`~repro.serve.ServeApp` with the default telemetry, 4
shards and batch size 8 on a :class:`~repro.serve.LogicalClock` (so the
decisions depend on the submissions, not on timing), prints ``PORT <n>``
once it listens, and serves until SIGTERM.  Roles:

``serve``
    Drains on SIGTERM, then — outside any timed phase — audits the
    drained gateway: :func:`~repro.gateway.invariants.check_gateway`
    against the app's journal with ``expect_quiesced=True`` (which also
    replays the journal) and :func:`~repro.core.verify_schedule` on the
    surviving schedule.  The journal is left on disk for the successor.
    With ``--trace`` every layer is traced while serving (see
    :mod:`perfbench.spans`).  ``--plant-fault`` books capacity behind
    the gateway's back before the audit, which must then fail.
``plain``
    Serves until SIGTERM and stops without draining or auditing: the
    untraced baseline of a traced run.  Reports its CPU seconds and
    submissions.
``successor``
    Resumes from the journal a ``serve`` process left and reports how
    long the resume took and the digest of the resumed state.

Each role writes a JSON report to ``--report`` before it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from repro.core import RequestSet, ScheduleResult, verify_schedule
from repro.core.capacity.backends import get_default_backend
from repro.core.errors import ScheduleViolation
from repro.gateway import Gateway
from repro.gateway.invariants import check_gateway
from repro.serve import LogicalClock, ServeApp, ServeConfig

from .spans import SpanRecorder, install_probes, layer_metrics
from .workloads import GATEWAY_BATCH, WORKLOADS, platform_for

ROLES = ("serve", "plain", "successor")


def build_app(workload_name: str, journal: Path | None) -> ServeApp:
    """The app as it ships, plus the benchmark's shard count and clock."""
    workload = WORKLOADS[workload_name]
    config = ServeConfig(
        platform=platform_for(workload),
        num_shards=4,
        batch_size=GATEWAY_BATCH,
        journal_path=journal,
    )
    return ServeApp(config, clock=LogicalClock())


async def serve_until_signalled(app: ServeApp, *, drain: bool) -> float:
    """Listen, announce the port, serve until SIGTERM; returns CPU seconds spent."""
    _host, port = await app.start("127.0.0.1", 0)
    print(f"PORT {port}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    cpu_start = time.process_time()
    await stop.wait()
    cpu_s = time.process_time() - cpu_start
    if drain:
        await app.drain()
    else:
        await app.stop()
    return cpu_s


def surviving_schedule(gateway: Gateway) -> tuple[RequestSet, ScheduleResult]:
    """Confirmed reservations still holding their full allocation, plus rejects.

    Terminated reservations (cancelled, aborted, displaced) kept only the
    head they consumed, so they are neither accepted nor rejected here.
    """
    requests = []
    result = ScheduleResult(scheduler="gateway")
    for reservation in gateway.reservations():
        if reservation.confirmed and reservation.terminated_at is None:
            requests.append(reservation.request)
            result.accept(reservation.allocation)
        elif not reservation.confirmed:
            requests.append(reservation.request)
            reason = reservation.reject_reason
            result.reject(reservation.rid, reason.value if reason is not None else "capacity")
    return RequestSet(requests), result


def plant_fault(gateway: Gateway) -> None:
    """Book capacity no reservation explains (the gate must catch it)."""
    broker = gateway.brokers[0]
    ingress, egress = (ports[0] for ports in gateway.shard_map.ports_of(0))
    start = max(0.0, gateway.now)
    broker.book_pair(ingress, egress, start, start + 60.0, 1.0)


def audit(app: ServeApp) -> dict[str, Any]:
    """Every correctness check on the drained gateway."""
    gateway = app.gateway
    started = time.perf_counter()
    invariants = check_gateway(gateway, journal=app.journal, expect_quiesced=True)
    requests, result = surviving_schedule(gateway)
    try:
        verify_schedule(gateway.platform, requests, result)
        schedule_error = None
    except ScheduleViolation as exc:
        schedule_error = str(exc)
    return {
        "ok": invariants.ok and schedule_error is None,
        "violations": list(invariants.violations)
        + ([f"verify_schedule: {schedule_error}"] if schedule_error else []),
        "checks": invariants.checks,
        "audit_s": time.perf_counter() - started,
    }


def state_digest(gateway: Gateway) -> str:
    """SHA-256 of the canonical gateway snapshot."""
    text = json.dumps(gateway.snapshot(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timeline_segments(gateway: Gateway) -> int:
    """Segments held across every port timeline of every shard."""
    total = 0
    for shard, broker in enumerate(gateway.brokers):
        ins, outs = gateway.shard_map.ports_of(shard)
        total += sum(broker.timeline("ingress", i).num_segments for i in ins)
        total += sum(broker.timeline("egress", e).num_segments for e in outs)
    return total


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.server", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--role", required=True, choices=ROLES)
    parser.add_argument("--journal", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--plant-fault", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    report: dict[str, Any] = {"role": args.role, "backend": get_default_backend()}
    if args.role == "successor":
        started = time.perf_counter()
        app = build_app(args.workload, args.journal)
        report["resume_s"] = time.perf_counter() - started
        report["journal_ops"] = len(app.journal)
        asyncio.run(serve_until_signalled(app, drain=False))
        report["digest"] = state_digest(app.gateway)
    elif args.role == "plain":
        app = build_app(args.workload, args.journal if workload.journal_on_disk else None)
        report["cpu_s"] = asyncio.run(serve_until_signalled(app, drain=False))
        report["submits"] = app.gateway.stats.submits
    else:
        app = build_app(args.workload, args.journal if workload.journal_on_disk else None)
        recorder = SpanRecorder() if args.trace else None
        with install_probes(recorder) if recorder is not None else nullcontext():
            cpu_s = asyncio.run(serve_until_signalled(app, drain=True))
        stats = app.gateway.stats
        report.update(
            cpu_s=cpu_s,
            peak_rss_mb=peak_rss_mb(),
            submits=stats.submits,
            accepted=stats.accepted,
            rejected=stats.rejected,
            segments_end=timeline_segments(app.gateway),
            journal_ops=len(app.journal),
            journal_bytes=len(app.journal.to_jsonl().encode("utf-8")),
        )
        if recorder is not None:
            report["layers"] = layer_metrics(recorder, submissions=stats.submits, cpu_s=cpu_s)
            del recorder  # the spans are summarised; free them before the audit
        if args.plant_fault:
            plant_fault(app.gateway)
        report["audit"] = audit(app)
        report["digest"] = state_digest(app.gateway)
        if not workload.journal_on_disk:
            app.journal.save(args.journal)
    args.report.write_text(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
