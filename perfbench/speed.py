"""Host speed, sampled while the benchmark runs.

Run by :mod:`perfbench.bench` as a child process for the length of a
run::

    python -m perfbench.speed --out out/speed.txt

Every :data:`PERIOD_S` it runs a fixed pure-Python kernel (dict and list
churn, sorting, float arithmetic and string formatting, the operations
the server spends its time on) and writes one line: the
``time.perf_counter()`` instant the kernel ended and the thread CPU
seconds it took.  CPU time, not wall time, so a sample that waited for a
core while the server and load generator held both is not read as a slow
host.  It stops on SIGTERM.

The two-core virtual machines this benchmark runs on change speed by up
to three quarters for tens of seconds to minutes at a time, on both
cores at once, so one run's wall-clock figures measure the host as much
as the program.  :meth:`Speedometer.mean_kernel_s` gives the host's mean
kernel time over any interval of the run; the benchmark divides its time
metrics by ``mean / REFERENCE_KERNEL_S``, which states them at the host
speed the benchmark was calibrated on.  The correction is partial: the
service's closed-loop throughput moved about as the slowdown to the
power 1.5, so scaling removes roughly half of a shift in host speed.
"""

from __future__ import annotations

import argparse
import bisect
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between the starts of two samples.
PERIOD_S = 0.05
#: Thread CPU seconds the kernel took, about on average, on the host the
#: benchmark was calibrated on (a two-vCPU x86-64 KVM guest, CPython 3.11).
#: Fixed for good: changing it rescales every time metric.
REFERENCE_KERNEL_S = 0.0025


def kernel() -> float:
    """A fixed slice of interpreter work; returns a value so none is optimised away."""
    table: dict[int, float] = {}
    rows = []
    total = 0.0
    for i in range(1500):
        table[i * 7 % 1501] = i * 0.5
        rows.append((i * 31 % 97, f"r{i}", i / 3.0))
    rows.sort()
    for key, value in table.items():
        total += value * 1.0001 + key
    for _, label, value in rows:
        total += len(label) + value
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.speed", description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    running = True

    def stop(*_: object) -> None:
        nonlocal running
        running = False

    signal.signal(signal.SIGTERM, stop)
    with args.out.open("w", buffering=1) as out:
        while running:
            started = time.thread_time()
            kernel()
            took = time.thread_time() - started
            out.write(f"{time.perf_counter():.6f} {took:.9f}\n")
            time.sleep(PERIOD_S)
    return 0


class Speedometer:
    """Samples host speed in a child process for the length of a ``with`` block.

    The samples are read back when the block ends; only then do
    :meth:`mean_kernel_s` and :meth:`slowdown` see them.
    """

    def __init__(self, path: Path, *, cwd: Path, env: dict[str, str]) -> None:
        self.path = path
        self._command = [sys.executable, "-m", "perfbench.speed", "--out", str(path)]
        self._cwd, self._env = cwd, env
        self._process: subprocess.Popen | None = None
        self.instants: list[float] = []
        self.took: list[float] = []

    def __enter__(self) -> Speedometer:
        self._process = subprocess.Popen(self._command, cwd=self._cwd, env=self._env)
        return self

    def __exit__(self, *exc: object) -> None:
        process, self._process = self._process, None
        if process is not None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self.path.exists():
            # Only whole lines: the last one may have been cut by the signal.
            for line in self.path.read_text().split("\n")[:-1]:
                instant, took = line.split()
                self.instants.append(float(instant))
                self.took.append(float(took))

    def mean_kernel_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean kernel CPU time of the samples that ended in ``[start, end]``.

        Falls back to the sample nearest the interval when none ended
        inside it, and to :data:`REFERENCE_KERNEL_S` when there are none.
        """
        if not self.took:
            return REFERENCE_KERNEL_S
        lo = bisect.bisect_left(self.instants, start)
        hi = bisect.bisect_right(self.instants, end)
        if hi > lo:
            return sum(self.took[lo:hi]) / (hi - lo)
        return self.took[min(lo, len(self.took) - 1)]

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """How many times slower than the reference host this host ran over ``[start, end]``.

        Without an interval: over the whole ``with`` block.
        """
        return self.mean_kernel_s(start, end) / REFERENCE_KERNEL_S


if __name__ == "__main__":
    sys.exit(main())
