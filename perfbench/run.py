"""Entry point of the repository benchmark (see :mod:`perfbench.bench`).

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-contended --seed 1 --seconds 18 --trace 0

Workloads: ``batch-contended``, ``paced-journal``.  The
program under test is built from the ``src/`` tree next to this
directory; without it the benchmark exits with status 2 and prints no
result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main

    sys.exit(main())
