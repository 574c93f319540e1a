"""GL013 — no nondeterministic value may *flow into* journaled state.

GL001/GL002 ban calling wall-clock and ambient-RNG functions at all in
deterministic code; this rule is their dataflow upgrade for the places
the call itself is legal but the *value* must not travel: anything
appended to the journal, recorded via the gateway's ``_record`` helper,
or baked into a ``RejectReason`` is replayed byte-for-byte, so a value
derived from ``time.time()`` or an unseeded draw — even through
arithmetic, f-strings or a local ``_now()`` wrapper — makes the replayed
gateway diverge from the original.

Powered by :class:`repro.analysis.flow.taint.ModuleTaint`: an
intraprocedural taint fixpoint per function plus a one-level call-summary
table, so ``def _stamp(): return time.time()`` followed by
``journal.append(op, t=_stamp())`` is caught without whole-program
analysis.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ..flow.cfg import build_cfg, stmt_exprs
from ..flow.taint import ModuleTaint
from ._common import ImportTracker, terminal_name
from .rng import _ALLOWED as _RNG_ALLOWED
from .rng import _MODULE_PREFIXES as _RNG_PREFIXES
from .wall_clock import _BANNED as _CLOCK_SOURCES

__all__ = ["NondetTaintRule"]

#: Textual pre-filter: a module with none of these cannot have a sink.
_SINK_TOKENS = ("journal", "_record", "RejectReason", "recorder", "SloBreach")


def _source_of(origin: str | None) -> str | None:
    """Taint label for a resolved callable origin, or ``None``."""
    if origin is None:
        return None
    if origin in _CLOCK_SOURCES:
        return origin
    if origin in _RNG_ALLOWED:
        return None
    if origin.startswith(_RNG_PREFIXES):
        return origin
    return None


def _sink_name(call: ast.Call) -> str | None:
    """The replayed-state sink this call writes to, if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "append":
        receiver = terminal_name(func.value)
        if receiver in ("journal", "_journal"):
            return "journal.append"
    if isinstance(func, ast.Attribute) and func.attr in ("record", "hop"):
        # Flight-recorder rows (eager records and causal hops alike) feed
        # post-mortem dumps that must be byte-identical across reruns of
        # one seeded drill.
        receiver = terminal_name(func.value)
        if receiver in ("recorder", "_recorder", "flight_recorder"):
            return f"recorder.{func.attr}"
    name = terminal_name(func)
    if name == "_record":
        return "_record"
    if name == "RejectReason":
        return "RejectReason"
    if name == "SloBreach":
        # Breach events land in artifacts and the chaos-matrix verdicts.
        return "SloBreach"
    return None


class NondetTaintRule(Rule):
    """Flag wall-clock / ambient-RNG values flowing into replayed state."""

    rule_id: ClassVar[str] = "GL013"
    title: ClassVar[str] = "no-nondet-flow"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = (
        "experiments/report_gen.py",
        "benchmarks/",
        "tests/",
        "obs/perfclock.py",
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if not any(token in module.source for token in _SINK_TOKENS):
            return
        tracker = ImportTracker()
        tracker.visit(module.tree)
        taint = ModuleTaint(module.tree, tracker, _source_of)
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.FunctionDef | ast.AsyncFunctionDef):
                continue
            cfg = build_cfg(func)
            result = taint.analyze(cfg)
            for node in cfg.stmt_nodes():
                if node.stmt is None:
                    continue
                state = result.before[node.nid]
                for call in stmt_exprs(node.stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    sink = _sink_name(call)
                    if sink is None:
                        continue
                    labels: set[str] = set()
                    args: list[ast.expr] = list(call.args)
                    args.extend(kw.value for kw in call.keywords)
                    for arg in args:
                        labels |= taint.taint_of(arg, state)
                    if labels:
                        origin = ", ".join(sorted(labels))
                        yield self.finding(
                            module,
                            call,
                            f"value derived from {origin} flows into {sink} in "
                            f"{cfg.name}(); journaled/decision state must be "
                            "deterministic under replay",
                        )
