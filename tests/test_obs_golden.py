"""Golden telemetry exports: every sink serialises byte-for-byte as recorded.

Three seeded runs are driven here and every export surface is compared
against the files under ``tests/data/telemetry_golden/``:

- ``serve``: a :class:`~repro.serve.ServeApp` as it ships (default
  telemetry caps, default SLO rules, 4 shards, batch 8) on a
  :class:`~repro.serve.LogicalClock`, driven through ``dispatch`` with
  batch and single submits, status reads, a cancel and ``/metrics``;
- ``chaos``: a gateway configured like the service plus a flight
  recorder, a partitioned and lossy mesh and a re-admission backlog, so
  the causal stories carry ``readmit:`` and ``rebook:`` lineage, then
  cancel / abort / reshape / degrade / crash / restart;
- ``tight``: the chaos run with small telemetry and recorder caps, so
  the exports are those of rings that evicted most of what they saw.

Exports checked per run: ``Telemetry.snapshot()`` as JSON, the
Prometheus text, the Chrome trace, the span JSONL, ``grid-obs explain``
for several rids, and (gateway runs) the flight-recorder dump.

Regenerate (only when an export is meant to change) with::

    PYTHONPATH=src python -m tests.test_obs_golden tests/data/telemetry_golden
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from repro.control.journal import Journal
from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, Gateway
from repro.gateway.rpc import EdgeChaos, Partition
from repro.loadgen import SubmissionPlan
from repro.obs import FlightRecorder, RunTelemetry, Telemetry
from repro.obs.cli import main as obs_main
from repro.obs.slo import SloWatchdog, default_slo_rules
from repro.schedulers.retry import BackoffSchedule
from repro.serve import LogicalClock, ServeApp, ServeConfig
from repro.serve.app import MAX_EVENTS, MAX_SPANS
from repro.serve.http import HttpRequest

GOLDEN = Path(__file__).parent / "data" / "telemetry_golden"

CELLS = ("serve", "chaos", "tight")


def _explain(artifact: RunTelemetry, journal: Journal, rids: list[int]) -> str:
    """``grid-obs explain`` output for each rid, concatenated."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        art_path = Path(tmp) / "run.json"
        jr_path = Path(tmp) / "run.journal.jsonl"
        artifact.save(art_path)
        journal.save(jr_path)
        for rid in rids:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = obs_main(["explain", str(rid), str(art_path), "--journal", str(jr_path)])
            out.append(f"### rid {rid} (exit {code})\n{buffer.getvalue()}")
    return "".join(out)


def _exports(telemetry: Telemetry, journal: Journal, rids: list[int]) -> dict[str, str]:
    artifact = RunTelemetry("golden")
    artifact.capture("run", telemetry)
    return {
        "snapshot.json": json.dumps(telemetry.snapshot(), sort_keys=True) + "\n",
        "metrics.prom": telemetry.metrics.to_prometheus_text(),
        "chrome.json": json.dumps(telemetry.tracer.to_chrome_trace(), sort_keys=True) + "\n",
        "spans.jsonl": telemetry.tracer.to_jsonl(),
        "explain.txt": _explain(artifact, journal, rids),
    }


# ----------------------------------------------------------------------
# The serve run
# ----------------------------------------------------------------------
def _serve_run() -> dict[str, str]:
    platform = Platform.paper_platform()
    app = ServeApp(
        ServeConfig(platform=platform, num_shards=4, batch_size=8),
        clock=LogicalClock(),
    )
    plan = SubmissionPlan(platform, 48, seed=3, mean_interarrival=40.0)

    async def request(method: str, path: str, payload=None):
        body = json.dumps(payload).encode() if payload is not None else b""
        return await app.dispatch(HttpRequest(method, path, {}, {}, body))

    async def drive() -> None:
        position = 0
        for wave in range(8):
            bodies = [plan.body(position + k) for k in range(4)]
            position += 4
            await request("POST", "/v1/reservations/batch", {"submissions": bodies})
            await request("POST", "/v1/reservations", plan.body(position))
            position += 1
            await request("GET", f"/v1/reservations/{wave}")
            if wave % 4 == 3:
                await request("DELETE", f"/v1/reservations/{wave * 3}")
        await request("GET", "/metrics")
        await request("GET", "/v1/headroom")
        await request("GET", "/v1/reservations/9999")

    asyncio.run(drive())
    app.gateway.drain(app.clock.now())
    return _exports(app.telemetry, app.journal, [0, 1, 9, 21, 38])


# ----------------------------------------------------------------------
# The chaos runs
# ----------------------------------------------------------------------
def _workload(seed: int, n: int, ports: int, horizon: float) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        t0 = rng.uniform(0.0, horizon)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        out.append(
            {
                "ingress": rng.randrange(ports),
                "egress": rng.randrange(ports),
                "volume": rng.uniform(0.2, 0.8) * rate * duration,
                "deadline": t0 + duration,
                "now": t0,
                "max_rate": rate,
            }
        )
    return sorted(out, key=lambda s: s["now"])


def _chaos_run(
    *, max_events: int, max_spans: int, flight_capacity: int
) -> dict[str, str]:
    chaos = ChaosPolicy(
        seed=4,
        default=EdgeChaos(drop=0.1, duplicate=0.05, delay=0.1, delay_cost=2.0),
        partitions=(Partition(shard=1, start=0.0, end=150.0),),
    )
    telemetry = Telemetry(max_events=max_events, max_spans=max_spans)
    recorder = FlightRecorder(capacity=flight_capacity)
    journal = Journal()
    gw = Gateway(
        Platform.uniform(4, 4, 1000.0),
        num_shards=4,
        batch_size=8,
        hold_ttl=120.0,
        chaos=chaos,
        backoff=BackoffSchedule(base=1.0, max_attempts=4),
        rpc_deadline=60.0,
        backlog_limit=8,
        malleable=True,
        journal=journal,
        telemetry=telemetry,
        recorder=recorder,
        slo=SloWatchdog(default_slo_rules(hold_ttl=120.0)),
    )
    for fields in _workload(11, 40, 4, 300.0):
        gw.submit(**fields)
    gw.drain(320.0)
    readmitted = [r for r in gw.reservations() if r.origin is not None]
    assert readmitted, "the partition left nothing to re-admit"
    live = [r for r in gw.reservations() if r.confirmed]
    # A rebooking of a re-admission: rebook:<rid> under readmit:<rid>.
    lineage = readmitted[0]
    req = lineage.request
    rebook = gw.submit(
        ingress=req.ingress,
        egress=req.egress,
        volume=req.volume / 2,
        deadline=req.t_end + 400.0,
        now=330.0,
        max_rate=req.max_rate,
        origin=lineage.rid,
    )
    gw.drain(330.0)
    gw.cancel(live[0].rid, now=340.0)
    gw.abort(live[1].rid, now=345.0)
    gw.reshape(live[2].rid, now=350.0)
    gw.degrade(side="ingress", port=0, amount=600.0, start=350.0, end=900.0, now=350.0)
    gw.crash_broker(2, now=360.0)
    gw.submit(**{**_workload(12, 1, 4, 10.0)[0], "now": 361.0, "deadline": 900.0})
    gw.restart_broker(2, now=370.0)
    gw.drain(380.0)
    rids = sorted(
        {0, 5, lineage.origin, lineage.rid, rebook.rid, live[0].rid, live[1].rid, live[2].rid}
    )
    out = _exports(telemetry, journal, rids)
    out["flight.json"] = recorder.dump_json(reason="golden", now=gw.now)
    return out


def build_cell(cell: str) -> dict[str, str]:
    """Every export of one golden run, by file name."""
    if cell == "serve":
        return _serve_run()
    if cell == "chaos":
        return _chaos_run(max_events=MAX_EVENTS, max_spans=MAX_SPANS, flight_capacity=256)
    if cell == "tight":
        return _chaos_run(max_events=40, max_spans=64, flight_capacity=8)
    raise ValueError(cell)


@pytest.mark.parametrize("cell", CELLS)
def test_exports_match_golden(cell):
    produced = build_cell(cell)
    expected_names = sorted(p.name for p in (GOLDEN / cell).iterdir())
    assert sorted(produced) == expected_names
    for name, text in produced.items():
        golden = (GOLDEN / cell / name).read_text(encoding="utf-8")
        assert text == golden, f"{cell}/{name} differs from the golden export"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    for cell in CELLS:
        (root / cell).mkdir(parents=True, exist_ok=True)
        for name, text in build_cell(cell).items():
            (root / cell / name).write_text(text, encoding="utf-8")
        print(f"wrote {root / cell}")
