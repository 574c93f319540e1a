"""The benchmark's own tests.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
The smoke tests run every workload end to end at a tiny size (a one
second timed phase), so the whole file takes a couple of minutes.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    BenchmarkError,
    decile_growth,
    git_state,
    require_measurable,
)
from perfbench.drive import Phase, Sample
from perfbench.spans import Probe, SpanRecorder, fit_linear, layer_metrics
from perfbench.speed import REFERENCE_KERNEL_S, Speedometer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py"]


def run_bench(*args: str, history: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *args, "--history", str(history)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# End to end, at a tiny size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    history = tmp_path / "history.jsonl"
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        history=history,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads(history.read_text().splitlines()[-1])
    provenance = record["provenance"]
    assert provenance["seed"] == 3 and provenance["workload"]["name"] == workload
    assert {"git_sha", "git_dirty", "python", "nproc", "capacity_backend"} <= set(provenance)
    assert record["host_slowdown"] > 0 and len(record["episodes"]) >= 1


def test_planted_fault_fails_the_run(tmp_path):
    done = run_bench(
        "--workload", "batch-contended", "--seed", "3", "--seconds", "1", "--plant-fault",
        history=tmp_path / "history.jsonl",
    )  # fmt: skip
    assert done.returncode == 1, done.stdout + done.stderr
    assert result_of(done)["correct"] is False
    assert "ledger carries" in done.stdout


def test_git_state_ignores_the_history_it_appends_to(tmp_path):
    def git(*words: str) -> None:
        subprocess.run(["git", *words], cwd=tmp_path, check=True, capture_output=True)

    assert git_state(tmp_path) == (None, None)
    history = tmp_path / "perfbench" / "history.jsonl"
    history.parent.mkdir()
    history.write_text("{}\n")
    (tmp_path / "code.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "seed")
    sha, dirty = git_state(tmp_path)
    assert sha is not None and dirty is False
    history.write_text("{}\n{}\n")  # a run appended its line
    assert git_state(tmp_path) == (sha, False)
    (tmp_path / "code.py").write_text("x = 2\n")
    assert git_state(tmp_path) == (sha, True)


def test_an_unmeasurable_episode_is_a_benchmark_error_not_a_wrong_answer():
    samples = [Sample(0.0, 0.0, 1.0, 4)] * 1000
    require_measurable([Phase(samples=samples), Phase(samples=samples)], 18.0)
    with pytest.raises(BenchmarkError, match="too slow"):
        require_measurable([Phase(samples=samples), Phase(samples=samples, gave_up=True)], 18.0)
    with pytest.raises(BenchmarkError, match="timed submit requests"):
        require_measurable([Phase(samples=samples)], 18.0)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(
        "--workload", "batch-contended", "--seed", "1", "--seconds", "1", "--trace", "0",
        history=tmp_path / "history.jsonl", cwd=tmp_path,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_manifest_matches_the_benchmark():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def test_fit_linear_recovers_a_line():
    model = fit_linear([1.0, 2.0, 3.0, 4.0], [5.0, 7.0, 9.0, 11.0])
    assert model["alpha"] == pytest.approx(2.0)
    assert model["gamma"] == pytest.approx(3.0)
    assert model["r2"] == pytest.approx(1.0)
    assert model["mape"] == pytest.approx(0.0, abs=1e-12)
    assert fit_linear([2.0, 2.0], [1.0, 3.0])["alpha"] == 0.0


class _Clock:
    """A clock that advances one unit per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_children_across_awaits():
    clock = _Clock()
    recorder = SpanRecorder(clock=clock)

    def leaf() -> None:
        clock.now += 10.0

    traced_leaf = recorder.wrap(Probe(None, "leaf", "leaf", "core.capacity"), leaf)

    async def outer() -> None:
        traced_leaf()
        await asyncio.sleep(0)
        traced_leaf()

    traced_outer = recorder.wrap(Probe(None, "outer", "outer", "serve.app"), outer)

    async def both() -> None:
        await asyncio.gather(traced_outer(), traced_outer())

    asyncio.run(both())
    spans = list(recorder.finished())
    assert len(spans) == 6
    outers = [s for s in spans if recorder.names[s[1]] == "outer"]
    for sid, _name, start, end, parent, _rid in outers:
        assert parent == -1
        children = [s for s in spans if s[4] == sid]
        assert len(children) == 2
        assert all(recorder.names[c[1]] == "leaf" for c in children)
    metrics = layer_metrics(recorder, submissions=1, cpu_s=100.0)
    # Each leaf lasts 11 clock units (10 of work plus one read).
    assert metrics["core.capacity.latency_share"] == pytest.approx(4 * 11 / 100.0)


def test_speedometer_averages_the_samples_inside_an_interval(tmp_path):
    speed = Speedometer(tmp_path / "speed.txt", cwd=tmp_path, env={})
    assert speed.slowdown(0.0, 1.0) == 1.0  # no samples: the reference speed
    speed.instants = [1.0, 2.0, 3.0, 4.0]
    speed.took = [REFERENCE_KERNEL_S * k for k in (1.0, 2.0, 4.0, 8.0)]
    assert speed.slowdown(1.5, 3.5) == pytest.approx(3.0)
    assert speed.slowdown(2.2, 2.8) == pytest.approx(4.0)  # none inside: the next one
    assert speed.slowdown(9.0, 10.0) == pytest.approx(8.0)


def test_decile_growth_fits_a_line_through_the_tenths():
    # Latency grows from 1 to 10 across the phase; one stall in the last
    # tenth does not move the figure, and a middle tenth a fifth slower
    # moves it less than the tenth itself moved.
    samples = [Sample(float(i), float(i), float(i) + 1.0 + i // 10, 4) for i in range(100)]
    assert decile_growth([Phase(samples=samples)]) == pytest.approx(10.0)
    samples[95] = Sample(95.0, 95.0, 195.0, 4)
    assert decile_growth([Phase(samples=samples)]) == pytest.approx(10.0)
    samples[40:50] = [Sample(float(i), float(i), float(i) + 6.0, 4) for i in range(40, 50)]
    assert decile_growth([Phase(samples=samples)]) == pytest.approx(10.0, rel=0.15)
