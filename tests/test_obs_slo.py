"""Tests for the SLO watchdog (repro.obs.slo).

Declarative rules over windowed aggregates, edge-triggered breach
events, the live gateway integration, the offline artifact replay and
the ``grid-obs slo`` subcommand.
"""

import json
import math
import random

import pytest

from repro.control import CHAOS_SCENARIOS, run_chaos_matrix
from repro.core.errors import ConfigurationError
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import ChaosPolicy, Gateway
from repro.obs import (
    FlightRecorder,
    RunTelemetry,
    SloRule,
    SloWatchdog,
    Telemetry,
    default_slo_rules,
    evaluate_artifact,
    load_rules,
)
from repro.obs.cli import main
from repro.obs.slo import SloBreach, SloRuleError


def platform(n=4, cap=1000.0):
    return Platform.uniform(n, n, cap)


class TestRules:
    def test_unknown_metric_rejected(self):
        with pytest.raises(SloRuleError):
            SloRule("r", "cpu_load", "floor", 0.5)

    def test_bad_bound_rejected(self):
        with pytest.raises(SloRuleError):
            SloRule("r", "accept_rate", "between", 0.5)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(SloRuleError):
            SloRule("r", "accept_rate", "floor", 0.5, window=0.0)

    def test_floor_and_ceiling_semantics(self):
        floor = SloRule("f", "accept_rate", "floor", 0.5)
        assert floor.violated(0.49) and not floor.violated(0.5)
        ceiling = SloRule("c", "backlog_depth", "ceiling", 4.0)
        assert ceiling.violated(4.1) and not ceiling.violated(4.0)

    def test_dict_roundtrip_maps_infinite_window_to_none(self):
        rule = SloRule("r", "accept_rate", "floor", 0.5)
        data = rule.to_dict()
        assert data["window"] is None
        assert SloRule.from_dict(data) == rule
        windowed = SloRule("w", "backlog_depth", "ceiling", 4.0, window=60.0)
        assert SloRule.from_dict(windowed.to_dict()) == windowed

    def test_missing_key_raises(self):
        with pytest.raises(SloRuleError):
            SloRule.from_dict({"name": "r", "metric": "accept_rate"})

    def test_duplicate_rule_names_rejected(self):
        rule = SloRule("dup", "accept_rate", "floor", 0.5)
        with pytest.raises(SloRuleError):
            SloWatchdog([rule, rule])

    def test_default_rules_scale_to_gateway_knobs(self):
        rules = {r.name: r for r in default_slo_rules(hold_ttl=100.0, backlog_limit=8)}
        assert rules["hold-age-ceiling"].threshold == pytest.approx(150.0)
        assert rules["backlog-ceiling"].threshold == pytest.approx(8.0)
        assert "backlog-ceiling" not in {r.name for r in default_slo_rules()}


class TestWatchdog:
    def test_accept_rate_floor_breaches(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        dog.admission(1.0, accepted=False, latency=0.0)
        dog.admission(2.0, accepted=False, latency=0.0)
        breaches = dog.evaluate(2.0)
        assert len(breaches) == 1
        assert breaches[0].value == 0.0 and breaches[0].at == 2.0
        assert not dog.ok

    def test_no_data_is_not_a_breach(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        assert dog.evaluate(10.0) == [] and dog.ok

    def test_breaches_are_edge_triggered(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        dog.admission(1.0, accepted=False, latency=0.0)
        assert len(dog.evaluate(1.0)) == 1
        assert dog.evaluate(2.0) == []  # still violated: no new breach
        dog.admission(3.0, accepted=True, latency=0.0)
        dog.admission(3.5, accepted=True, latency=0.0)
        assert dog.evaluate(4.0) == []  # recovered
        for t in (5.0, 6.0, 7.0):
            dog.admission(t, accepted=False, latency=0.0)
        assert len(dog.evaluate(7.0)) == 1  # re-crossed: one fresh breach
        assert len(dog.breaches) == 2

    def test_windowing_forgets_old_admissions(self):
        dog = SloWatchdog(
            [SloRule("floor", "accept_rate", "floor", 0.5, window=10.0)]
        )
        dog.admission(0.0, accepted=False, latency=0.0)
        dog.admission(50.0, accepted=True, latency=0.0)
        assert dog.evaluate(55.0) == []  # the rejection aged out
        assert dog.ok

    def test_p99_latency_ceiling(self):
        # With 10 decisions the p99 is the max: one slow admission breaches.
        dog = SloWatchdog([SloRule("p99", "p99_admission_latency", "ceiling", 10.0)])
        for k in range(9):
            dog.admission(float(k), accepted=True, latency=1.0)
        assert dog.evaluate(9.0) == []
        dog.admission(9.0, accepted=True, latency=500.0)
        (breach,) = dog.evaluate(10.0)
        assert breach.value == pytest.approx(500.0)

    def test_p99_tolerates_a_true_one_percent_tail(self):
        dog = SloWatchdog([SloRule("p99", "p99_admission_latency", "ceiling", 10.0)])
        for k in range(199):
            dog.admission(float(k), accepted=True, latency=1.0)
        dog.admission(199.0, accepted=True, latency=500.0)  # 0.5% of decisions
        assert dog.evaluate(200.0) == []

    def test_sampled_metric_uses_worst_case_in_window(self):
        dog = SloWatchdog([SloRule("depth", "backlog_depth", "ceiling", 4.0)])
        dog.sample("backlog_depth", 1.0, 6.0)
        dog.sample("backlog_depth", 2.0, 1.0)
        (breach,) = dog.evaluate(2.0)
        assert breach.value == pytest.approx(6.0)  # the max, not the latest

    def test_breach_emits_event_counter_and_flight_row(self):
        telemetry = Telemetry()
        recorder = FlightRecorder()
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        dog.admission(1.0, accepted=False, latency=0.0)
        dog.evaluate(1.0, telemetry=telemetry, recorder=recorder)
        events = [e for e in telemetry.events if e.name == "slo.breach"]
        assert len(events) == 1 and events[0].fields["rule"] == "floor"
        counter = telemetry.metrics.counter("slo_breaches_total", "")
        samples = {tuple(sorted(labels.items())): value for labels, value in counter.samples()}
        assert samples[(("rule", "floor"),)] == 1.0
        (row,) = recorder.entries("slo")
        assert row.kind == "slo.breach" and row.fields["rule"] == "floor"

    def test_report_shape(self):
        dog = SloWatchdog(default_slo_rules())
        report = dog.report()
        assert report["ok"] is True and report["breaches"] == []
        assert {r["name"] for r in report["rules"]} >= {"accept-rate-floor"}


class TestGatewayIntegration:
    def drive(self, gw, n=10):
        for k in range(n):
            gw.submit(
                ingress=k % 4,
                egress=(k + 1) % 4,
                volume=50.0,
                deadline=100.0 + k,
                now=float(k),
            )
        gw.drain(200.0)

    def test_healthy_run_stays_ok(self):
        dog = SloWatchdog(default_slo_rules(hold_ttl=120.0))
        gw = Gateway(platform(), num_shards=2, batch_size=2, hold_ttl=120.0, slo=dog)
        self.drive(gw)
        assert dog.ok, dog.breaches

    def test_watchdog_is_fed_without_telemetry(self):
        dog = SloWatchdog(default_slo_rules(hold_ttl=120.0))
        gw = Gateway(platform(), num_shards=2, batch_size=2, hold_ttl=120.0, slo=dog)
        assert not gw.telemetry.enabled
        self.drive(gw)
        assert dog.decisions == 10, "decisions must reach the watchdog under NullTelemetry"

    def test_partitioned_gateway_breaches_accept_rate(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        telemetry = Telemetry()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=1,
            chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0),
            slo=dog,
            telemetry=telemetry,
        )
        # Cross-shard requests into a dead shard: all reject.
        for k in range(6):
            gw.submit(ingress=0, egress=3, volume=10.0, deadline=50.0 + k, now=float(k))
        gw.drain(60.0)
        assert not dog.ok
        assert any(e.name == "slo.breach" for e in telemetry.events)


class TestOfflineEvaluation:
    def _artifact(self, *, chaos=None):
        telemetry = Telemetry()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=2,
            chaos=chaos,
            telemetry=telemetry,
        )
        for k in range(8):
            gw.submit(
                ingress=0,
                egress=3,
                volume=10.0,
                deadline=100.0 + k,
                now=float(k),
            )
        gw.drain(200.0)
        artifact = RunTelemetry("slo-test")
        artifact.capture("run", telemetry)
        return artifact

    def test_clean_artifact_passes_default_rules(self):
        verdict = evaluate_artifact(self._artifact(), default_slo_rules())
        assert verdict["ok"] is True
        assert verdict["captures"][0]["label"] == "run"

    def test_partitioned_artifact_breaches(self):
        artifact = self._artifact(chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0))
        verdict = evaluate_artifact(
            artifact, [SloRule("floor", "accept_rate", "floor", 0.5)]
        )
        assert verdict["ok"] is False
        assert verdict["captures"][0]["breaches"]

    def test_accepts_the_json_dict_form(self):
        artifact = self._artifact()
        as_dict = json.loads(artifact.to_json())
        assert evaluate_artifact(as_dict, default_slo_rules()) == evaluate_artifact(
            artifact, default_slo_rules()
        )


class TestRulesFileAndCli:
    def _rules_file(self, tmp_path, threshold=0.5):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "name": "floor",
                            "metric": "accept_rate",
                            "bound": "floor",
                            "threshold": threshold,
                            "window": None,
                        }
                    ]
                }
            )
        )
        return path

    def test_load_rules_dict_and_bare_list(self, tmp_path):
        path = self._rules_file(tmp_path)
        (rule,) = load_rules(path)
        assert rule.name == "floor" and rule.threshold == 0.5
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([rule.to_dict()]))
        assert load_rules(bare) == (rule,)

    def test_load_rules_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not-rules": 1}))
        with pytest.raises(SloRuleError):
            load_rules(path)

    def _artifact_file(self, tmp_path, *, chaos=None):
        telemetry = Telemetry()
        gw = Gateway(platform(), num_shards=2, batch_size=2, chaos=chaos, telemetry=telemetry)
        for k in range(6):
            gw.submit(ingress=0, egress=3, volume=10.0, deadline=60.0 + k, now=float(k))
        gw.drain(100.0)
        artifact = RunTelemetry("slo-cli")
        artifact.capture("run", telemetry)
        path = tmp_path / "run.json"
        artifact.save(path)
        return path

    def test_cli_ok_exits_zero(self, tmp_path, capsys):
        art = self._artifact_file(tmp_path)
        assert main(["slo", str(art)]) == 0
        assert "slo: ok" in capsys.readouterr().out

    def test_cli_breach_exits_one(self, tmp_path, capsys):
        art = self._artifact_file(
            tmp_path, chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0)
        )
        rules = self._rules_file(tmp_path)
        assert main(["slo", str(art), "--rules", str(rules)]) == 1
        out = capsys.readouterr().out
        assert "BREACH" in out and "accept_rate" in out

    def test_cli_json_verdict(self, tmp_path, capsys):
        art = self._artifact_file(tmp_path)
        assert main(["slo", str(art), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True and verdict["captures"]


# ----------------------------------------------------------------------
# Oracle: the incremental aggregates against a full rescan
# ----------------------------------------------------------------------
class _RescanWatchdog:
    """Reference evaluation: rescan every kept row at every evaluation.

    This is the watchdog's original O(history) algorithm, kept here as the
    oracle the incremental aggregates must reproduce value for value.
    """

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.breaches = []
        self.values = {rule.name: None for rule in self.rules}
        self._admissions = []
        self._samples = {}
        self._active = set()

    @property
    def active(self):
        return tuple(sorted(self._active))

    def admission(self, t, *, accepted, latency):
        self._admissions.append((t, accepted, latency))

    def sample(self, metric, t, value):
        self._samples.setdefault(metric, []).append((t, value))

    def _prune(self, now):
        finite = [rule.window for rule in self.rules if not math.isinf(rule.window)]
        if len(finite) != len(self.rules):
            return
        horizon = now - max(finite, default=0.0)
        self._admissions = [row for row in self._admissions if row[0] >= horizon]
        for metric, rows in self._samples.items():
            self._samples[metric] = [row for row in rows if row[0] >= horizon]

    def _value_of(self, rule, now):
        since = now - rule.window
        if rule.metric == "accept_rate":
            decided = [row for row in self._admissions if row[0] >= since]
            if not decided:
                return None
            return sum(1 for row in decided if row[1]) / len(decided)
        if rule.metric == "p99_admission_latency":
            latencies = sorted(row[2] for row in self._admissions if row[0] >= since)
            if not latencies:
                return None
            index = min(len(latencies) - 1, math.ceil(0.99 * len(latencies)) - 1)
            return latencies[max(index, 0)]
        rows = [row[1] for row in self._samples.get(rule.metric, ()) if row[0] >= since]
        if not rows:
            return None
        return min(rows) if rule.bound == "floor" else max(rows)

    def evaluate(self, now):
        self._prune(now)
        fresh = []
        for rule in self.rules:
            value = self._value_of(rule, now)
            self.values[rule.name] = value
            if value is None or not rule.violated(value):
                self._active.discard(rule.name)
                continue
            if rule.name in self._active:
                continue
            self._active.add(rule.name)
            breach = SloBreach(rule.name, rule.metric, rule.bound, rule.threshold, value, now)
            self.breaches.append(breach)
            fresh.append(breach)
        return fresh


class _Shadowed(SloWatchdog):
    """A watchdog that replays its input into the rescan oracle and checks
    every evaluation against it."""

    def __init__(self, rules):
        super().__init__(rules)
        self.oracle = _RescanWatchdog(rules)
        self.evaluations = 0

    def admission(self, t, *, accepted, latency):
        super().admission(t, accepted=accepted, latency=latency)
        self.oracle.admission(t, accepted=accepted, latency=latency)

    def sample(self, metric, t, value):
        super().sample(metric, t, value)
        self.oracle.sample(metric, t, value)

    def evaluate(self, now, **kwargs):
        fresh = super().evaluate(now, **kwargs)
        assert fresh == self.oracle.evaluate(now)
        assert self.values == self.oracle.values
        assert self.active == self.oracle.active
        assert self.breaches == self.oracle.breaches
        self.evaluations += 1
        return fresh


SAMPLED = ("max_hold_age", "backlog_depth", "overcommit_proximity")
WINDOWS = (0.5, 1.0, 2.5, 4.0)  # binary fractions: row times land exactly on edges


def _random_rules(rng, kind):
    def window():
        if kind == "whole":
            return math.inf
        if kind == "finite":
            return rng.choice(WINDOWS)
        return rng.choice(WINDOWS + (math.inf,))

    rules = [
        SloRule("accept", "accept_rate", "floor", rng.choice((0.3, 0.5, 0.7)), window()),
        SloRule("p99", "p99_admission_latency", "ceiling", rng.choice((2.0, 5.0, 8.0)), window()),
    ]
    for k, metric in enumerate(SAMPLED):
        bound = rng.choice(("floor", "ceiling"))
        rules.append(SloRule(f"{metric}-{k}", metric, bound, rng.choice((3.0, 5.0)), window()))
    if rng.random() < 0.5:  # a second rule on one metric, other window
        rules.append(SloRule("accept-2", "accept_rate", "floor", 0.5, window()))
    return rules


def _drive(dog, rng, steps):
    """A seeded stream: ordered times with ties, tied and spread values."""
    now = 0.0
    admitted = 0
    for _ in range(steps):
        now += rng.choice((0.0, 0.0, 0.5, 1.0, 1.5))
        for _ in range(rng.randrange(4)):
            latency = rng.choice((1.0, 2.0, 3.0)) if rng.random() < 0.6 else rng.uniform(0, 10)
            dog.admission(now, accepted=rng.random() < 0.55, latency=latency)
            admitted += 1
        for metric in SAMPLED:
            if rng.random() < 0.7:
                dog.sample(metric, now, float(rng.randrange(8)))
        if rng.random() < 0.6:
            dog.evaluate(now)
    dog.evaluate(now)
    return admitted


def _workload(seed, n, ports=8, horizon=400.0):
    """Seeded mixed local/cross-shard requests for the chaos matrix."""
    rng = random.Random(seed)
    requests = []
    for rid in range(n):
        t0 = rng.uniform(0.0, horizon)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(ports),
                egress=rng.randrange(ports),
                volume=rng.uniform(0.2, 0.8) * rate * duration,
                t_start=t0,
                t_end=t0 + duration,
                max_rate=rate,
            )
        )
    return requests


class TestIncrementalMatchesRescan:
    @pytest.mark.parametrize("kind", ["whole", "finite", "mixed"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_streams(self, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        dog = _Shadowed(_random_rules(rng, kind))
        admitted = _drive(dog, rng, steps=150)
        assert dog.evaluations > 50
        assert dog.decisions == admitted
        assert len(dog.breaches) > 1, "thresholds must make rules cross"

    @pytest.mark.parametrize("window", [math.inf, 7.0])
    def test_p99_for_every_n_up_to_300(self, window):
        rng = random.Random(99)
        rule = SloRule("p99", "p99_admission_latency", "ceiling", 50.0, window)
        dog = _Shadowed([rule])
        for n in range(1, 301):
            latency = float(rng.randrange(20)) if n % 3 else rng.uniform(0.0, 100.0)
            dog.admission(float(n), accepted=True, latency=latency)
            dog.evaluate(float(n))
        assert dog.decisions == 300
        assert dog.breaches, "values above the ceiling must have breached"

    def test_admission_exactly_on_window_edge_is_kept(self):
        rule = SloRule("floor", "accept_rate", "floor", 0.5, window=10.0)
        dog = _Shadowed([rule])
        dog.admission(0.0, accepted=False, latency=0.0)
        dog.admission(10.0, accepted=True, latency=0.0)
        dog.evaluate(10.0)  # t = now - window: still inside
        assert dog.values["floor"] == 0.5
        dog.evaluate(10.5)  # now the rejection has aged out
        assert dog.values["floor"] == 1.0

    def test_whole_run_sampled_state_is_constant(self):
        # Strictly decreasing samples are the monotonic queue's worst case;
        # a whole-run window must still keep a single sample.
        dog = SloWatchdog([SloRule("age", "max_hold_age", "ceiling", 1e9)])
        for k in range(500):
            dog.sample("max_hold_age", float(k), float(1000 - k))
        dog.evaluate(500.0)
        assert dog.values["age"] == 1000.0
        assert dog.decisions == 0

    def test_time_must_not_go_backwards(self):
        dog = SloWatchdog(default_slo_rules())
        dog.admission(5.0, accepted=True, latency=1.0)
        with pytest.raises(ConfigurationError):
            dog.admission(4.0, accepted=True, latency=1.0)
        dog.evaluate(6.0)
        with pytest.raises(ConfigurationError):
            dog.evaluate(5.5)

    def test_partitioned_gateway_breaches_match_the_rescan(self):
        rules = [
            SloRule("floor", "accept_rate", "floor", 0.5),
            SloRule("floor-3", "accept_rate", "floor", 0.5, window=3.0),
            SloRule("p99", "p99_admission_latency", "ceiling", 1.0),
            SloRule("age", "max_hold_age", "ceiling", 0.5, window=2.0),
        ]
        dog = _Shadowed(rules)
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=1,
            chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0),
            slo=dog,
        )
        for k in range(6):
            gw.submit(ingress=0, egress=3, volume=10.0, deadline=50.0 + k, now=float(k))
        gw.drain(60.0)
        assert dog.evaluations and dog.breaches

    def test_chaos_matrix_verdicts_match_the_rescan(self, monkeypatch):
        import repro.obs.slo as slo_module

        dogs = []

        def shadowed(rules):
            dog = _Shadowed(rules)
            dogs.append(dog)
            return dog

        monkeypatch.setattr(slo_module, "SloWatchdog", shadowed)
        rules = [
            *default_slo_rules(hold_ttl=120.0, rpc_deadline=60.0, backlog_limit=8),
            SloRule("accept-tight", "accept_rate", "floor", 0.9, window=50.0),
            SloRule("p99-tight", "p99_admission_latency", "ceiling", 5.0, window=80.0),
            SloRule("age-tight", "max_hold_age", "ceiling", 1.0, window=30.0),
        ]
        run_chaos_matrix(
            Platform.uniform(8, 8, 1000.0),
            lambda seed: _workload(seed, n=16),
            seeds=[0],
            scenarios=CHAOS_SCENARIOS,
            horizon=600.0,
            slo_rules=rules,
        )
        assert len(dogs) == len(CHAOS_SCENARIOS)
        assert all(dog.evaluations for dog in dogs)
        assert any(dog.breaches for dog in dogs)
