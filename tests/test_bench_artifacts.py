"""Committed BENCH artifacts were produced by the committed bench code.

Every ``benchmarks/results/BENCH_*.json`` records the gate it was checked
against.  Each recorded gate constant must equal the constant of the bench
module that writes the file: an artifact whose gate differs was produced
by some other version of the code and is not evidence for this one.  The
constants are read from the module source (no bench is imported or run).
"""

import ast
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"

#: artifact -> (bench module, {key path in the JSON: module constant}).
GATES = {
    "BENCH_capacity.json": (
        "bench_capacity",
        {
            "min_speedup": "MIN_SPEEDUP",
            "workload.build_requests": "BUILD_REQUESTS",
            "workload.probe_requests": "PROBE_REQUESTS",
            "workload.repeats": "REPEATS",
        },
    ),
    "BENCH_chaos.json": ("bench_chaos", {"max_overhead": "MAX_OVERHEAD"}),
    "BENCH_gateway.json": (
        "bench_gateway",
        {
            "min_speedup": "MIN_SPEEDUP",
            "workload.waves": "WAVES",
            "workload.wave_size": "WAVE_SIZE",
        },
    ),
    "BENCH_lint.json": ("bench_lint", {"gate": "MAX_SLOWDOWN"}),
    "BENCH_obs.json": (
        "bench_obs_overhead",
        {
            "booking.max_null_overhead": "MAX_NULL_OVERHEAD",
            "booking.repeats": "REPEATS",
            "tracing.max_tracing_overhead": "MAX_TRACING_OVERHEAD",
            "tracing.max_traced_over_null_wall": "MAX_TRACED_OVER_NULL_WALL",
            "tracing.repeats": "TRACING_REPEATS",
        },
    ),
    "BENCH_profiles.json": ("bench_profiles", {"constant.max_overhead": "MAX_OVERHEAD"}),
    "BENCH_serve.json": (
        "bench_serve",
        {"min_submits": "MIN_SUBMITS", "p99_budget_s": "P99_BUDGET_S"},
    ),
}


def module_constants(module: str) -> dict:
    """Module-level ``NAME = <literal>`` assignments of a bench module."""
    tree = ast.parse((BENCHMARKS / f"{module}.py").read_text(encoding="utf-8"))
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id.isupper():
            try:
                constants[target.id] = ast.literal_eval(value)
            except ValueError:
                continue
    return constants


def lookup(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


def test_every_committed_artifact_is_checked():
    committed = {path.name for path in RESULTS.glob("BENCH_*.json")}
    assert committed == set(GATES)


@pytest.mark.parametrize("artifact", sorted(GATES))
def test_recorded_gates_equal_the_bench_constants(artifact):
    module, fields = GATES[artifact]
    doc = json.loads((RESULTS / artifact).read_text(encoding="utf-8"))
    constants = module_constants(module)
    for path, name in fields.items():
        assert name in constants, f"{module}.{name} is not a literal module constant"
        assert lookup(doc, path) == constants[name], (
            f"{artifact} records {path}={lookup(doc, path)!r}, "
            f"but {module}.{name} is {constants[name]!r}: rebuild the artifact"
        )
