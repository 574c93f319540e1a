"""The bounded ring behind every event sink, and the cheap-recording paths.

Every sink (span tracer, telemetry events, flight recorder, simulation
event trace) keeps its records in one :class:`~repro.obs.ring.Ring`:
after ``3 × capacity`` records it holds exactly ``capacity``, counts
``2 × capacity`` drops, keeps the survivors in FIFO order and exports
exactly the last records.  Causal hops are stored compactly and built
into spans / rows on read; those must equal what an eager record gives.
"""

import math
import random

import pytest

from repro.core.capacity import BreakpointProfile, VectorProfile
from repro.core.errors import ConfigurationError
from repro.obs import FlightRecorder, NullTelemetry, SpanTracer, Telemetry, TraceContext
from repro.obs.causal import hop, hop_args
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.ring import Ring
from repro.sim.trace import EventTrace

CAP = 5


class TestRing:
    def test_keeps_the_last_capacity_items_and_counts_drops(self):
        ring = Ring(CAP)
        for i in range(3 * CAP):
            ring.append(i)
        assert len(ring) == CAP
        assert ring.dropped == 2 * CAP
        assert list(ring) == list(range(2 * CAP, 3 * CAP))
        assert ring == list(range(2 * CAP, 3 * CAP))
        assert ring[0] == 2 * CAP and ring[-1] == 3 * CAP - 1
        assert ring[-2:] == [3 * CAP - 2, 3 * CAP - 1]

    def test_unbounded_ring_never_drops(self):
        ring = Ring()
        for i in range(100):
            ring.append(i)
        assert len(ring) == 100 and ring.dropped == 0 and ring.capacity is None

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_capacity_must_be_positive(self, capacity):
        with pytest.raises(ConfigurationError):
            Ring(capacity)

    def test_build_keeps_order_and_drop_count(self):
        ring = Ring(3)
        for i in range(4):
            ring.append(i)
        ring.append("4")
        ring.build(str, str)
        assert list(ring) == ["2", "3", "4"] and ring.dropped == 2 and ring.capacity == 3

    def test_empty_ring_equals_empty_list(self):
        assert Ring(3) == [] and not Ring(3)


class TestSinksAtThreeTimesCapacity:
    def test_span_tracer(self):
        tracer = SpanTracer(capacity=CAP)
        for i in range(3 * CAP):
            tracer.instant("tick", float(i), i=i)
        assert len(tracer) == CAP
        assert tracer.dropped == 2 * CAP
        assert [s.args["i"] for s in tracer] == list(range(2 * CAP, 3 * CAP))
        assert [d["start"] for d in tracer.to_dicts()] == [float(i) for i in range(2 * CAP, 3 * CAP)]
        assert tracer.to_jsonl().count("\n") == CAP
        assert len(tracer.to_chrome_trace()["traceEvents"]) == CAP

    def test_span_tracer_with_hops(self):
        # Hops and eager spans share the ring; hops are built on read.
        tracer = SpanTracer(capacity=CAP)
        ctx = TraceContext.root(1)
        for i in range(3 * CAP):
            if i % 2:
                tracer.hop(hop("hop", float(i), "causal", 0, ctx, {"i": i}))
            else:
                tracer.instant("tick", float(i), i=i)
        assert len(tracer) == CAP and tracer.dropped == 2 * CAP
        assert [s.args["i"] for s in tracer] == list(range(2 * CAP, 3 * CAP))

    def test_telemetry_events(self):
        tel = Telemetry(max_events=CAP)
        for i in range(3 * CAP):
            tel.emit("e", float(i), i=i)
        assert len(tel.events) == CAP
        assert tel.events_dropped == 2 * CAP
        assert [e.fields["i"] for e in tel.events] == list(range(2 * CAP, 3 * CAP))
        snapshot = tel.snapshot()
        assert [e["fields"]["i"] for e in snapshot["events"]] == list(range(2 * CAP, 3 * CAP))
        assert snapshot["dropped"]["events"] == 2 * CAP

    def test_flight_recorder(self):
        recorder = FlightRecorder(capacity=CAP)
        for i in range(3 * CAP):
            recorder.record("gateway", float(i), "tick", i=i)
        entries = recorder.entries("gateway")
        assert len(entries) == CAP
        assert recorder.dropped("gateway") == 2 * CAP
        assert [e.fields["i"] for e in entries] == list(range(2 * CAP, 3 * CAP))
        (component,) = recorder.dump(reason="test", now=99.0)["components"]
        assert component["dropped"] == 2 * CAP
        assert [e["fields"]["i"] for e in component["events"]] == list(range(2 * CAP, 3 * CAP))

    def test_event_trace(self):
        trace = EventTrace(capacity=CAP)
        for i in range(3 * CAP):
            trace.append(float(i), "tick", i)
        assert len(trace) == CAP
        assert trace.dropped == 2 * CAP
        assert [r.payload for r in trace] == list(range(2 * CAP, 3 * CAP))
        summary = trace.summary()
        assert summary["retained"] == CAP and summary["recorded"] == 3 * CAP
        assert summary["first_time"] == float(2 * CAP)

    def test_null_telemetry_records_no_events(self):
        null = NullTelemetry()
        null.emit("e", 0.0, i=1)
        assert null.events == []
        assert null.is_empty()


class TestHopsBuiltOnRead:
    def test_hop_span_equals_the_eager_instant(self):
        ctx = TraceContext.root(3).child("prepare:ingress")
        fields = {"rid": 3, "held": True}
        lazy, eager = SpanTracer(), SpanTracer()
        lazy.hop(hop("rpc.prepare", 2.5, "rpc", 1, ctx, {"shard": 1, **fields}))
        eager.instant("rpc.prepare", 2.5, cat="rpc", tid=1, **{**ctx.fields(), "shard": 1, **fields})
        assert lazy.to_jsonl() == eager.to_jsonl()
        assert lazy.to_chrome_trace() == eager.to_chrome_trace()
        assert list(lazy.to_dicts()[0]["args"]) == ["trace", "span", "parent", "shard", "rid", "held"]

    def test_spans_are_built_once(self):
        tracer = SpanTracer()
        tracer.hop(hop("x", 1.0, "causal", 0, TraceContext.root(1), {"rid": 1}))
        first = next(iter(tracer))
        assert next(iter(tracer)) is first

    def test_hop_args_order(self):
        record = hop("x", 0.0, "rpc", 0, TraceContext.root(2).child("a"), {"shard": 0, "op": "b"})
        assert hop_args(record) == {
            "trace": "req-2", "span": "req-2/a", "parent": "req-2", "shard": 0, "op": "b"
        }
        assert list(hop_args(record)) == ["trace", "span", "parent", "shard", "op"]

    def test_recorder_hop_rows_equal_eager_rows(self):
        ctx = TraceContext.root(4)
        lazy, eager = FlightRecorder(capacity=2), FlightRecorder(capacity=2)
        for i in range(3):
            lazy.hop("gateway", hop("k", float(i), "causal", 0, ctx, {"i": i}))
            eager.record("gateway", float(i), "k", **{**ctx.fields(), "i": i})
        assert lazy.dump_json(reason="r", now=3.0) == eager.dump_json(reason="r", now=3.0)


class TestBoundInstruments:
    def test_unused_bound_leaves_exports_unchanged(self):
        registry = MetricsRegistry()
        registry.bind("counter", "never_total", "Never fired.", outcome="x")
        assert len(registry) == 0 and registry.to_prometheus_text() == ""

    def test_bound_equals_labeled_calls(self):
        bound, direct = MetricsRegistry(), MetricsRegistry()
        c = bound.bind("counter", "c_total", "C.", side="in", port=3)
        h = bound.bind("histogram", "h_seconds", "H.", buckets=(1.0, 2.0), endpoint="/x")
        for value in (0.5, 1.0, 2.5):
            c.inc(2.0)
            h.observe(value)
            direct.counter("c_total", "C.").inc(2.0, port=3, side="in")
            direct.histogram("h_seconds", "H.", buckets=(1.0, 2.0)).observe(value, endpoint="/x")
        assert bound.to_prometheus_text() == direct.to_prometheus_text()
        assert bound.to_dict() == direct.to_dict()

    def test_family_binds_each_value_tuple_once(self):
        registry = MetricsRegistry()
        family = registry.family("counter", "r_total", "R.", "endpoint", "status")
        assert family("/x", 200) is family("/x", 200)
        family("/x", 200).inc()
        family("/y", 404).inc(2.0)
        counter = registry.counter("r_total")
        assert counter.value(endpoint="/x", status=200) == 1.0
        assert counter.value(endpoint="/y", status="404") == 2.0

    def test_bound_counter_cannot_decrease(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().bind("counter", "c_total").inc(-1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().bind("summary", "s")

    def test_bundle_is_built_once_per_handle(self):
        class Bundle:
            def __init__(self, metrics):
                self.metrics = metrics

        tel = Telemetry()
        assert tel.bundle(Bundle) is tel.bundle(Bundle)
        assert tel.bundle(Bundle).metrics is tel.metrics
        assert Telemetry().bundle(Bundle) is not tel.bundle(Bundle)


class TestHistogramBuckets:
    @staticmethod
    def linear_bucket(buckets, value):
        for k, bound in enumerate(buckets):
            if value <= bound:
                return k
        return len(buckets)

    def test_bisect_matches_the_linear_scan(self):
        rng = random.Random(5)
        values = [rng.choice(DEFAULT_BUCKETS) for _ in range(50)]
        values += [rng.uniform(-1.0, 6000.0) for _ in range(200)]
        values += [0.0, -math.inf, math.inf, 1e9]
        hist = Histogram("h")
        expected = [0] * (len(DEFAULT_BUCKETS) + 1)
        for value in values:
            hist.observe(value)
            expected[self.linear_bucket(DEFAULT_BUCKETS, value)] += 1
        assert hist.to_dict()["samples"][0]["counts"] == expected

    def test_nan_lands_in_the_inf_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(float("nan"))
        assert hist.to_dict()["samples"][0]["counts"] == [0, 0, 1]


@pytest.mark.parametrize("backend", [BreakpointProfile, VectorProfile])
class TestIncrementalPeak:
    def test_peak_tracks_every_mutation(self, backend):
        rng = random.Random(11)
        profile = backend()
        for _ in range(300):
            t0 = rng.uniform(0.0, 100.0)
            t1 = t0 + rng.uniform(0.5, 30.0)
            delta = rng.choice([1.0, 2.5, 7.0, -1.0, -2.5])
            profile.add(t0, t1, delta)
            assert profile.global_max() == max(float(v) for v in profile._values)

    def test_positive_adds_keep_the_peak_cached(self, backend):
        profile = backend()
        profile.add(0.0, 10.0, 3.0)
        profile.add(5.0, 20.0, 4.0)
        profile.add(30.0, 40.0, 1.0)
        assert profile._peak == 7.0  # maintained by the adds, never rescanned
        profile.add(5.0, 10.0, -4.0)
        assert profile._peak is None  # a release may lower it: rescan on read
        assert profile.global_max() == 4.0
