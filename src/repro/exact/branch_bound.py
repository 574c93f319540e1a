"""Pure-Python branch-and-bound for rigid MAX-REQUESTS.

An independent exact solver (no MILP dependency) used to cross-check the
scipy formulation and to let the benchmarks measure heuristic optimality
gaps on small instances.  Depth-first search over accept/reject decisions
in arrival order, with two prunes:

- **count bound**: accepted so far + requests left ≤ best known;
- **feasibility**: accept branches only when the request fits the current
  partial ledger (Eq. 1 is monotone — adding requests never helps).

Worst case exponential (the problem is NP-complete, §3); intended for
instances up to ~30 requests.
"""

from __future__ import annotations

from ..core.allocation import Allocation, ScheduleResult
from ..core.errors import ConfigurationError
from ..core.ledger import PortLedger
from ..core.problem import ProblemInstance

__all__ = ["max_requests_rigid_bb"]


def max_requests_rigid_bb(problem: ProblemInstance, *, max_nodes: int = 2_000_000) -> ScheduleResult:
    """Optimal rigid accept set by branch and bound.

    Raises ``RuntimeError`` if the node budget is exhausted before the
    search completes (result would not be provably optimal).
    """
    requests = sorted(problem.requests, key=lambda r: (r.t_start, r.rid))
    for request in requests:
        if not request.is_rigid:
            raise ConfigurationError(f"request {request.rid} is flexible; B&B handles rigid only")

    best: list[int] = []
    current: list[int] = []
    ledger = PortLedger(problem.platform)
    nodes = 0
    k = len(requests)

    def dfs(pos: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(f"branch-and-bound node budget ({max_nodes}) exhausted")
        if len(current) + (k - pos) <= len(best):
            return  # cannot beat the incumbent
        if pos == k:
            if len(current) > len(best):
                best = list(current)
            return
        request = requests[pos]
        # Accept branch first: good incumbents early tighten the bound.
        if ledger.fits(request.ingress, request.egress, request.t_start, request.t_end, request.min_rate):
            ledger.allocate(
                request.ingress, request.egress, request.t_start, request.t_end, request.min_rate
            )
            current.append(request.rid)
            dfs(pos + 1)
            current.pop()
            ledger.release_pair(
                request.ingress, request.egress, request.t_start, request.t_end, request.min_rate
            )
        dfs(pos + 1)

    dfs(0)

    result = ScheduleResult(scheduler="branch-bound", meta={"nodes": nodes})
    accepted = set(best)
    by_rid = {r.rid: r for r in requests}
    for rid in accepted:
        request = by_rid[rid]
        result.accept(Allocation.for_request(request, request.min_rate))
    for request in requests:
        if request.rid not in accepted:
            result.reject(request.rid)
    return result
