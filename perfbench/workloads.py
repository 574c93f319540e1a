"""The benchmark's workloads: one seeded traffic mix each.

A workload fixes the platform the server boots on, the
:class:`repro.loadgen.SubmissionPlan` distributions its submissions are
drawn from, and how the single load-generating process drives them
(closed loop on the batch endpoint, or open loop at a fixed offered rate
on the single-submit endpoint).  The seed passed on the command line is
the plan seed; everything else is fixed here so two runs with the same
seed send the same bodies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.platform import Platform
from repro.loadgen import SubmissionPlan
from repro.workload.durations import UniformDurations, paper_durations
from repro.workload.matrix import HotspotPairs, UniformPairs
from repro.workload.volumes import PaperVolumes, UniformVolumes

__all__ = ["GATEWAY_BATCH", "WORKLOADS", "Workload", "build_plan", "platform_for"]

#: Submissions per gateway batch, as ``ServeApp`` ships.
GATEWAY_BATCH = 8

#: Hotspot weights of the contended workload: ports 0 and 1 draw about half
#: of all traffic on each side, so their timelines fill and the search has
#: to look past the window opening.
HOTSPOT_WEIGHTS = (6.0, 3.0, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class Workload:
    """One traffic mix (see the module docstring)."""

    name: str
    why: str
    #: ``uniform16`` (16×16 ports at 1000 MB/s) or ``paper`` (§4.3's 10×10).
    platform: str
    #: ``closed``: back-to-back batch POSTs; ``open``: single submits on a schedule.
    loop: str
    #: Submissions per POST (1 = the single-submit endpoint).
    batch: int
    #: Simulated seconds between planned arrivals.
    mean_interarrival: float
    #: ``short`` (1–100 MB in 30–120 s windows) or ``paper`` (10 GB–1 TB,
    #: log-uniform 2 min – 1 day windows).
    transfers: str
    #: ``uniform`` or ``hotspot`` port pairs.
    pairs: str
    #: Keep-alive connections the load generator drives (one process, at
    #: most two: the host has two cores).  A closed loop uses one: with two
    #: the server's gateway batches mix the two connections' submissions in
    #: whatever order they happen to arrive, so the same submissions build
    #: a different history from run to run and its cost varied by half.
    connections: int = 1
    #: ``poisson`` or ``uniform`` (evenly spaced) planned arrivals.
    shape: str = "poisson"
    #: Open loop only: offered submit requests per wall second.
    rate: float = 0.0
    #: Closed loop only: submissions per second of ``--seconds`` an episode
    #: sends — about what the program decided per wall second when the
    #: benchmark was defined, so an episode lasts about its share of
    #: ``--seconds`` there and every run builds the same history.
    nominal_sps: float = 0.0
    #: Keep the write-ahead journal on disk while serving.
    journal_on_disk: bool = False
    #: Open loop only: a status GET after every Nth submit (0 = none).
    status_every: int = 0
    #: Open loop only: cancel every Nth accepted reservation (0 = none).
    cancel_every: int = 0

    @property
    def round_s(self) -> float:
        """Simulated seconds spanned by the submissions one gateway batch can hold.

        That is one round of the client fleet, or a full gateway batch
        when a round is smaller (a batch then fills across rounds).
        """
        return max(self.connections * self.batch, GATEWAY_BATCH) * self.mean_interarrival

    def plan_size(self, seconds: float) -> int:
        """Submissions one episode sends for ``seconds`` of ``--seconds``."""
        if self.loop == "open":
            return max(1, math.ceil(self.rate * seconds))
        requests = math.ceil(self.nominal_sps * seconds / self.batch)
        return self.batch * max(self.connections, requests)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="batch-contended",
            why=(
                "paper volumes and windows on hotspot pairs of the 10x10 platform: most "
                "submissions miss the fastpath, so earliest_fit and capacity queries dominate"
            ),
            platform="paper",
            loop="closed",
            batch=4,
            mean_interarrival=40.0,
            transfers="paper",
            pairs="hotspot",
            nominal_sps=500.0,
        ),
        Workload(
            name="paced-journal",
            why=(
                "open loop of single submits at a fixed rate with status reads, cancels and "
                "an on-disk journal: per-request HTTP, frontier linger, journal and restart"
            ),
            platform="uniform16",
            loop="open",
            batch=1,
            mean_interarrival=1.0,
            transfers="short",
            pairs="uniform",
            connections=2,
            shape="uniform",
            rate=145.0,
            journal_on_disk=True,
            status_every=10,
            cancel_every=20,
        ),
    )
}


def platform_for(workload: Workload) -> Platform:
    """The platform the server boots on for ``workload``."""
    if workload.platform == "paper":
        return Platform.paper_platform()
    return Platform.uniform(16, 16, 1000.0)


def build_plan(workload: Workload, seed: int, seconds: float) -> SubmissionPlan:
    """The seeded submission plan for one run of ``workload``.

    Every window gets two rounds (:attr:`Workload.round_s`) of slack on
    top of its drawn length: the server decides a batch at the latest
    arrival it has seen, which can run up to a round ahead of an entry's
    own arrival, and a window shorter than that would turn into an
    invalid submission.
    """
    if workload.transfers == "paper":
        volumes, durations = PaperVolumes(), paper_durations()
    else:
        volumes, durations = UniformVolumes(1.0, 100.0), UniformDurations(30.0, 120.0)
    pairs = (
        HotspotPairs(HOTSPOT_WEIGHTS, HOTSPOT_WEIGHTS)
        if workload.pairs == "hotspot"
        else UniformPairs()
    )
    return SubmissionPlan(
        platform_for(workload),
        workload.plan_size(seconds),
        seed=seed,
        shape=workload.shape,
        mean_interarrival=workload.mean_interarrival,
        volumes=volumes,
        durations=durations,
        pairs=pairs,
        deadline_floor=2.0 * workload.round_s,
    )
