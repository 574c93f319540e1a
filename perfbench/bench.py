"""The repository benchmark: the HTTP admission service, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-contended --seed 1 --seconds 18 --trace 0

A run splits its ``--seconds`` of timed load into :data:`EPISODES`
episodes.  Each episode boots ``repro.serve`` in a fresh child process
(:mod:`perfbench.server`), drives it from this process over the
workload's keep-alive connections (:mod:`perfbench.drive`) with the same
seeded submissions, drains it, audits the drained gateway, and restarts
a successor from its journal.  The run then prints one line per metric and
a JSON result line::

    {"correct": true, "attempted": 5000, "failed": 0, "metrics": {...}}

``--seconds`` fixes the work, not a deadline: an open-loop episode
offers its rate for its share of ``--seconds``, and a closed-loop
episode sends the submissions the workload's nominal rate fits into that
share.  So every run of a workload builds the same history whatever the
program's speed, and a faster program is not charged for the larger
journal, heap and timelines a deadline would let it build.

Time metrics are stated at the reference host speed.  The two-core
virtual machines this runs on change speed by up to half again for tens
of seconds to minutes at a time, on both cores at once, so a raw
wall-clock figure measures the host as much as the program.  A
:class:`~perfbench.speed.Speedometer` samples a fixed interpreter kernel
all through the run; each duration is divided by how many times slower
than the reference the host ran over the whole run, and a closed loop's
throughput is multiplied by it (an open loop's throughput is the rate it
offers, and stays as measured).  The raw wall-clock figures and the
slowdown are printed and kept in the history.

Throughput is taken over the episodes' timed phases together and the
median latency over all their timed requests.  ``setup_s`` is the median
over the episodes' servers and :data:`EXTRA_SETUPS` more that are booted
only to be timed, and ``peak_rss_mb`` the median over the episodes.
``latency_p99_ms`` (over all timed requests), ``decile_growth`` (over
the episodes' tenths pooled) and ``restart_s`` (the median over the
episodes' successors) are printed and kept in the history but are not
end-to-end metrics: the host's speed swings by up to twice within a
fraction of a second, and the slowest hundredth of the requests, one
tenth of the timed phase, or a successor's second of interpreter
start-up and replay follows those swings too closely to repeat within
the benchmark's bounds.  The traced run reports all three, from its untraced episode and
its successor, among the per-layer metrics.

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END_UNITS`).
``--trace 1`` reports the per-layer metrics instead
(:data:`PER_LAYER_UNITS`): it drives a plain server for one episode, then
a traced server (:mod:`perfbench.spans`) with the same submissions, and
compares the two (the tracing overhead).

The run fails (exit status 1, ``"correct": false``) when a correctness
check fails in any episode: a response that contradicts its submission,
client and server disagreeing on what was decided, ``check_gateway`` or
``verify_schedule`` on the drained gateway, or a successor whose
replayed state differs from the drained one.  When the server cannot be
run, or the load could not be measured (fewer than
:data:`MIN_REQUESTS_PER_SECOND` submit requests per second, or a closed
loop that ran :data:`GIVE_UP_FACTOR` times over its time), it exits with
status 2 and prints no result.  Each run appends one line to
``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import platform as host_platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from repro.loadgen import SubmissionPlan, percentile

from .drive import Phase, closed_loop, open_loop
from .spans import DECILES, LAYERS
from .speed import Speedometer
from .workloads import WORKLOADS, Workload, build_plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HISTORY = ROOT / "perfbench" / "history.jsonl"
WORK = ROOT / "perfbench" / "out"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))

#: Fresh servers the timed phase is split across (see the module docstring).
EPISODES = 3
#: Servers each untraced run boots and stops at once, only to time their set-up.
EXTRA_SETUPS = 3
#: The timed phase must carry at least this many submit requests per second
#: of ``--seconds`` (18 s → 1,800, so p99 has 18 samples beyond it).
MIN_REQUESTS_PER_SECOND = 100
#: A closed-loop episode is abandoned once it takes this many times its
#: share of ``--seconds`` (a host that slow would blow the run's time budget).
GIVE_UP_FACTOR = 4.0
#: Ceiling on any one wait for the server (boot, drain and audit, exit).
SERVER_TIMEOUT_S = 120.0

#: End-to-end metrics that are rates; every other time metric is a duration.
RATE_METRICS = {"throughput_sps"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_sps": "1/s",
    "latency_p50_ms": "ms",
    "accept_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric of a traced run (see :mod:`perfbench.spans`).
PER_LAYER_UNITS = {
    "serve.http.read_us": "us",
    "serve.http.render_us": "us",
    "serve.app.dispatch_self_us": "us",
    "serve.frontier.wait_ms": "ms",
    "serve.frontier.wave_size": "count",
    "gateway.gateway.submit_self_us": "us",
    "obs.self_us_per_submit": "us",
    "obs.calls_per_submit": "count",
    "gateway.twophase.reserve_self_us": "us",
    "gateway.twophase.fastpath_ratio": "ratio",
    "gateway.twophase.cross_shard_ratio": "ratio",
    "gateway.rpc.self_us": "us",
    "gateway.broker.us_per_call": "us",
    "core.booking.fit_us": "us",
    "core.booking.candidates_per_fit": "count",
    "core.booking.fit_accept_ratio": "ratio",
    "core.capacity.add_us": "us",
    "core.capacity.query_us": "us",
    "core.capacity.calls_per_submit": "count",
    "core.capacity.segments_end": "count",
    **{f"core.capacity.add_us.d{i}": "us" for i in range(DECILES)},
    **{
        f"{model}.{term}": unit
        for model in ("core.capacity.add_us", "core.booking.fit_us")
        for term, unit in (
            ("alpha", "us/segment"),
            ("gamma", "us"),
            ("r2", "ratio"),
            ("mape", "ratio"),
        )
    },
    "control.journal.append_us": "us",
    "control.journal.bytes_per_submit": "B",
    "control.journal.replay_us_per_op": "us",
    **{f"{layer}.latency_share": "ratio" for layer in LAYERS},
    "unattributed.latency_share": "ratio",
    "trace.throughput_sps": "1/s",
    "trace.untraced_throughput_sps": "1/s",
    "trace.overhead": "ratio",
    "trace.latency_p50_ms": "ms",
    "trace.untraced_latency_p50_ms": "ms",
    "trace.latency_overhead": "ratio",
    "trace.cpu_overhead": "ratio",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "host.slowdown": "ratio",
    "latency_p99_ms": "ms",
    "decile_growth": "ratio",
    "restart_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark could not run or measure (as opposed to a correctness failure)."""


# ----------------------------------------------------------------------
# Server children
# ----------------------------------------------------------------------
@dataclass
class Launch:
    """One server child and when it first answered ``/healthz``."""

    process: subprocess.Popen
    report: Path
    started: float
    port: int = 0
    ready: float = 0.0

    @property
    def ready_s(self) -> float:
        return self.ready - self.started


def _healthz(port: int) -> int:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=SERVER_TIMEOUT_S)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status
    finally:
        connection.close()


class Servers:
    """Launches the server children of one run; reaps every one on exit."""

    def __init__(self, workload: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self._children: list[Launch] = []

    def __enter__(self) -> Servers:
        return self

    def __exit__(self, *exc: object) -> None:
        for child in self._children:
            _reap(child)

    def launch(
        self,
        role: str,
        journal: str,
        *,
        trace: bool = False,
        plant_fault: bool = False,
        want_ok: bool = True,
    ) -> Launch:
        """Start a server child; returns once ``/healthz`` answers.

        ``ready`` is the first 200 — or, with ``want_ok=False``, the
        first answer of any status.
        """
        report = self.work / f"{role}-{len(self._children)}.json"
        command = [
            sys.executable, "-m", "perfbench.server",
            "--workload", self.workload, "--role", role,
            "--journal", str(self.work / journal), "--report", str(report),
        ]  # fmt: skip
        if trace:
            command.append("--trace")
        if plant_fault:
            command.append("--plant-fault")
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True
        )
        child = Launch(process, report, started)
        self._children.append(child)
        ready, _, _ = select.select([process.stdout], [], [], SERVER_TIMEOUT_S)
        line = process.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise BenchmarkError(f"{role} server did not start (it said {line!r})")
        child.port = int(line.split()[1])
        while (status := _healthz(child.port)) != 200 and want_ok:
            if time.perf_counter() - started > SERVER_TIMEOUT_S:
                raise BenchmarkError(f"/healthz kept answering {status}")
            time.sleep(0.01)
        child.ready = time.perf_counter()
        return child

    def stop(self, child: Launch) -> dict[str, Any]:
        """SIGTERM the child, wait for it to exit, and read its report."""
        child.process.send_signal(signal.SIGTERM)
        try:
            code = child.process.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("server did not exit after SIGTERM") from None
        finally:
            _reap(child)
        if code != 0:
            raise BenchmarkError(f"server exited with status {code}")
        return json.loads(child.report.read_text())


def _reap(child: Launch) -> None:
    if child.process.poll() is None:
        child.process.kill()
    child.process.wait()
    child.process.stdout.close()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def drive(args: argparse.Namespace, port: int, plan: SubmissionPlan) -> Phase:
    """Send ``plan`` to the server on ``port`` and time every submit request."""
    workload = WORKLOADS[args.workload]
    if workload.loop == "open":
        return asyncio.run(open_loop("127.0.0.1", port, plan, workload))
    give_up_s = GIVE_UP_FACTOR * args.seconds / EPISODES
    return asyncio.run(closed_loop("127.0.0.1", port, plan, workload, give_up_s=give_up_s))


def require_measurable(phases: list[Phase], seconds: float) -> None:
    """Fail the run when ``phases`` (``seconds`` of load) cannot be measured.

    That is when one ran out of time, or when together they hold fewer
    than :data:`MIN_REQUESTS_PER_SECOND` timed submit requests per second.
    """
    if any(phase.gave_up for phase in phases):
        raise BenchmarkError("an episode ran out of time; the host is too slow")
    held = sum(len(phase.samples) for phase in phases)
    need = MIN_REQUESTS_PER_SECOND * seconds
    if held < need:
        raise BenchmarkError(f"only {held} timed submit requests (need {need:.0f})")


def check(phase: Phase, served: dict, resumed: dict) -> list[str]:
    """Every correctness failure of one episode (empty when it is correct)."""
    problems = list(phase.mismatches[:20])
    problems += [f"audit: {v}" for v in served["audit"]["violations"][:20]]
    if resumed["digest"] != served["digest"]:
        problems.append("the successor's replayed state differs from the drained state")
    if served["submits"] != phase.decided or served["accepted"] != phase.accepted:
        problems.append(
            f"server decided {served['submits']} ({served['accepted']} accepted), "
            f"client saw {phase.decided} ({phase.accepted} accepted)"
        )
    return problems


@dataclass
class Episode:
    """One fresh server driven through its share of the timed phase."""

    phase: Phase
    served: dict[str, Any]
    resumed: dict[str, Any]
    setup: Launch
    restart: Launch
    problems: list[str]


def run_episode(
    args: argparse.Namespace,
    plan: SubmissionPlan,
    servers: Servers,
    index: int,
    *,
    trace: bool = False,
) -> Episode:
    """Boot, drive, drain and audit one server; then restart a successor from its journal."""
    journal = f"journal{index}.jsonl"
    server = servers.launch("serve", journal, trace=trace, plant_fault=args.plant_fault)
    phase = drive(args, server.port, plan)
    served = servers.stop(server)
    successor = servers.launch("successor", journal, want_ok=False)
    resumed = servers.stop(successor)
    return Episode(
        phase=phase,
        served=served,
        resumed=resumed,
        setup=server,
        restart=successor,
        problems=[f"episode {index}: {p}" for p in check(phase, served, resumed)],
    )


def timed_metrics(phases: list[Phase]) -> dict[str, float]:
    """Throughput over the timed phases and latency percentiles over all their requests."""
    latencies = [s.latency for phase in phases for s in phase.samples]
    elapsed = sum(phase.ended - phase.started for phase in phases)
    return {
        "throughput_sps": sum(phase.decided for phase in phases) / elapsed,
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_p99_ms": percentile(latencies, 99.0) * 1e3,
    }


def decile_growth(phases: list[Phase]) -> float:
    """Cost in the last tenth of the timed phase over cost in the first.

    Each phase's timed requests, in completion order, are cut into ten
    runs of equal count; the cost of a tenth is the median latency of
    that tenth of every phase.  A least-squares line through the ten
    costs gives the cost of the first and the last tenth, so one tenth
    the host slowed down is not the whole figure.  In a closed loop
    every request carries the same number of submissions, so this is the
    ratio of cost per submission.
    """
    tenths: list[list[float]] = [[] for _ in range(DECILES)]
    for phase in phases:
        ordered = sorted(phase.samples, key=lambda s: s.done)
        size = max(1, len(ordered) // DECILES)
        for i in range(DECILES):
            tenths[i] += [s.latency for s in ordered[i * size : (i + 1) * size]]
    costs = [percentile(latencies, 50.0) for latencies in tenths]
    alpha, gamma = np.polyfit(np.arange(DECILES, dtype=np.float64), costs, 1)
    first, last = gamma, alpha * (DECILES - 1) + gamma
    return float(last / first) if first > 0 else costs[-1] / costs[0]


def wall_clock(episodes: list[Episode], boots: list[Launch]) -> dict[str, float]:
    """The run's time metrics, as measured (see the module docstring)."""
    return {
        "setup_s": statistics.median(
            [e.setup.ready_s for e in episodes] + [b.ready_s for b in boots]
        ),
        **timed_metrics([e.phase for e in episodes]),
        "restart_s": statistics.median(e.restart.ready_s for e in episodes),
    }


def at_reference(
    measured: dict[str, float], slowdown: float, workload: Workload
) -> dict[str, float]:
    """``measured`` as it would read on the reference host (see :mod:`perfbench.speed`).

    Durations are divided by ``slowdown`` and, in a closed loop, rates
    multiplied by it.  An open loop's throughput is the rate it offers,
    which the host's speed does not set, so it is left as measured.
    """
    scaled = {}
    for name, value in measured.items():
        if name not in RATE_METRICS:
            scaled[name] = value / slowdown
        else:
            scaled[name] = value if workload.loop == "open" else value * slowdown
    return scaled


@dataclass
class Outcome:
    """What one run measured, and the episodes it measured them on."""

    metrics: dict[str, float]
    units: dict[str, str]
    episodes: list[Episode]
    #: How many times slower than the reference host this host ran.
    slowdown: float
    #: The time metrics as measured, before :func:`at_reference`.
    wall_clock: dict[str, float]
    #: Figures printed with the metrics but not among them: name → (value, unit).
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(e.phase.attempted for e in self.episodes)

    @property
    def failed(self) -> int:
        return sum(e.phase.failed for e in self.episodes)

    @property
    def problems(self) -> list[str]:
        return [p for e in self.episodes for p in e.problems]


def run_untraced(args: argparse.Namespace, plan: SubmissionPlan, work: Path) -> Outcome:
    """The end-to-end metrics of :data:`EPISODES` episodes."""
    with Servers(args.workload, work) as servers, Speedometer(
        work / "speed.txt", cwd=ROOT, env=CHILD_ENV
    ) as speed:
        boots = []
        for index in range(EXTRA_SETUPS):
            boots.append(servers.launch("plain", f"boot{index}.jsonl"))
            servers.stop(boots[-1])
        episodes = [run_episode(args, plan, servers, index) for index in range(EPISODES)]
    require_measurable([e.phase for e in episodes], args.seconds)
    slowdown = speed.slowdown()
    measured = wall_clock(episodes, boots)
    decided = sum(e.phase.decided for e in episodes)
    metrics = {
        **at_reference(measured, slowdown, WORKLOADS[args.workload]),
        "accept_rate": sum(e.phase.accepted for e in episodes) / max(1, decided),
        "peak_rss_mb": statistics.median(e.served["peak_rss_mb"] for e in episodes),
    }
    extra = {
        "latency_p99_ms": (metrics["latency_p99_ms"], "ms"),
        "decile_growth": (decile_growth([e.phase for e in episodes]), "ratio"),
        "restart_s": (metrics["restart_s"], "s"),
    }
    metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    return Outcome(metrics, END_TO_END_UNITS, episodes, slowdown, measured, extra)


def run_traced(args: argparse.Namespace, plan: SubmissionPlan, work: Path) -> Outcome:
    """The per-layer metrics of one traced episode, plus the tracing overhead.

    A plain server is driven first with the same submissions; the two
    throughputs, median latencies and server CPU seconds per submission,
    each at the reference host speed over its own phase, give the
    tracing overhead.
    """
    with Servers(args.workload, work) as servers, Speedometer(
        work / "speed.txt", cwd=ROOT, env=CHILD_ENV
    ) as speed:
        plain = servers.launch("plain", "plain.jsonl")
        baseline = drive(args, plain.port, plan)
        untraced_served = servers.stop(plain)
        episode = run_episode(args, plan, servers, 0, trace=True)
    for phase in (baseline, episode.phase):
        require_measurable([phase], args.seconds / EPISODES)
    served, resumed = episode.served, episode.resumed
    traced_slowdown = speed.slowdown(episode.phase.started, episode.phase.ended)
    untraced_slowdown = speed.slowdown(baseline.started, baseline.ended)
    workload = WORKLOADS[args.workload]
    untraced = at_reference(timed_metrics([baseline]), untraced_slowdown, workload)
    traced = at_reference(timed_metrics([episode.phase]), traced_slowdown, workload)

    def cpu_per_submit(report: dict[str, Any], slowdown: float) -> float:
        return report["cpu_s"] / max(1, report["submits"]) / slowdown

    lateness = [s.lateness for s in episode.phase.samples]
    collected = {
        **served["layers"],
        "core.capacity.segments_end": served["segments_end"],
        "control.journal.bytes_per_submit": served["journal_bytes"] / max(1, served["submits"]),
        "control.journal.replay_us_per_op": resumed["resume_s"]
        / max(1, resumed["journal_ops"])
        * 1e6,
        "trace.throughput_sps": traced["throughput_sps"],
        "trace.untraced_throughput_sps": untraced["throughput_sps"],
        "trace.overhead": untraced["throughput_sps"] / traced["throughput_sps"],
        "trace.latency_p50_ms": traced["latency_p50_ms"],
        "trace.untraced_latency_p50_ms": untraced["latency_p50_ms"],
        "trace.latency_overhead": traced["latency_p50_ms"] / untraced["latency_p50_ms"],
        "trace.cpu_overhead": cpu_per_submit(served, traced_slowdown)
        / cpu_per_submit(untraced_served, untraced_slowdown),
        "loadgen.late_p50_ms": percentile(lateness, 50.0) * 1e3,
        "loadgen.late_p99_ms": percentile(lateness, 99.0) * 1e3,
        "host.slowdown": speed.slowdown(),
        "latency_p99_ms": untraced["latency_p99_ms"],
        "decile_growth": decile_growth([baseline]),
        "restart_s": episode.restart.ready_s / speed.slowdown(),
    }
    metrics = {name: collected[name] for name in PER_LAYER_UNITS}
    measured = {**timed_metrics([episode.phase]), "setup_s": episode.setup.ready_s}
    return Outcome(metrics, PER_LAYER_UNITS, [episode], speed.slowdown(), measured)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
#: The benchmark's own output, left out of the dirty check.
_OWN_OUTPUT = ":(exclude)perfbench/history.jsonl"


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """The checked-out commit of ``root`` and whether its tree differs from it.

    Both are ``None`` outside a git repository.  The history this
    benchmark appends to does not count as a change.
    """

    def git(*words: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *words], cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", ".", _OWN_OUTPUT) if sha is not None else None
    return sha, None if status is None else bool(status)


def provenance(args: argparse.Namespace, backend: str) -> dict[str, Any]:
    """Where a result came from: code, interpreter, host and inputs."""
    sha, dirty = git_state(ROOT)
    return {
        "git_sha": sha or "unknown",
        "git_dirty": dirty,
        "python": host_platform.python_version(),
        "nproc": os.cpu_count(),
        "capacity_backend": backend,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": WORKLOADS[args.workload].to_dict(),
    }


def episode_figures(episode: Episode) -> dict[str, float]:
    """One episode's own wall-clock figures, as measured."""
    return {
        "setup_s": episode.setup.ready_s,
        **timed_metrics([episode.phase]),
        "decile_growth": decile_growth([episode.phase]),
        "restart_s": episode.restart.ready_s,
    }


def report(args: argparse.Namespace, outcome: Outcome, origin: dict[str, Any]) -> dict[str, Any]:
    """Print the human-readable lines; returns the JSON result."""
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {outcome.attempted} submissions "
        f"in {len(outcome.episodes)} episode(s)"
    )
    print(f"  provenance: {json.dumps(origin, sort_keys=True)}")
    for index, episode in enumerate(outcome.episodes):
        phase, audit = episode.phase, episode.served["audit"]
        lateness = [s.lateness for s in phase.samples]
        figures = ", ".join(f"{k} {v:.6g}" for k, v in episode_figures(episode).items())
        print(
            f"  episode {index}: {len(phase.samples)} timed submit requests, "
            f"{phase.side_requests} status/cancel requests over "
            f"{phase.ended - phase.started:.2f} s; wall clock: {figures}"
        )
        print(
            f"    errors: {phase.transport_errors} transport, {phase.http_errors} HTTP, "
            f"{phase.invalid} invalid submissions"
        )
        print(
            f"    generator lateness p50/p99/max {percentile(lateness, 50.0) * 1e3:.3f} / "
            f"{percentile(lateness, 99.0) * 1e3:.3f} / {max(lateness, default=0.0) * 1e3:.3f} ms; "
            f"audit {'ok' if audit['ok'] else 'FAILED'} in {audit['audit_s']:.2f} s {audit['checks']}"
        )
    measured = ", ".join(f"{k} {v:.6g}" for k, v in outcome.wall_clock.items())
    print(f"  host slowdown {outcome.slowdown:.4f}; wall clock: {measured}")
    for name, value in outcome.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {outcome.units[name]}")
    for name, (value, unit) in outcome.extra.items():
        print(f"  {name:<40} {value:>14.6g} {unit} (not gated)")
    print(f"  {'error_rate':<40} {error_rate:>14.6g} ratio")
    for problem in outcome.problems:
        print(f"  CORRECTNESS: {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", type=Path, default=HISTORY)
    parser.add_argument(
        "--plant-fault",
        action="store_true",
        help="book capacity behind the gateway's back before the audit (the run must fail)",
    )
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so every child is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    plan = build_plan(WORKLOADS[args.workload], args.seed, args.seconds / EPISODES)
    try:
        outcome = runner(args, plan, work)
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    origin = provenance(args, outcome.episodes[0].served["backend"])
    result = report(args, outcome, origin)
    record = {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "provenance": origin,
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "host_slowdown": outcome.slowdown,
        "wall_clock": outcome.wall_clock,
        "extra": {name: value for name, (value, _unit) in outcome.extra.items()},
        "episodes": [episode_figures(e) for e in outcome.episodes],
        **result,
    }
    args.history.parent.mkdir(parents=True, exist_ok=True)
    with args.history.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
