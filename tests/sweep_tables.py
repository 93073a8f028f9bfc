"""The h = 4 sweep: the three-way harness on every table of the first 4
elements into themselves, at arity 2, on aut(dlo), aut(rado),
aut(ordered-rado) and aut(pureset).

Run by hand, from the repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/sweep_tables.py

pytest does not collect it (its name does not start with test_).  Per
limit it prints the tables that the harness's scan finds canonical, the
tables on which the harness's checks agree, the sha256 of the reports'
reprs (one per line, in table order) and the sweep's time in process.  A
report's repr prints its labels' atom sets, whose order follows the hash
seed, so compare digests only between runs with the same PYTHONHASHSEED.
"""

import hashlib
import itertools
import os
import sys
import time

from canonfn import AutLimit, TableOracle, builtin_limit
from canonfn.canonicity import proposition_harness

HORIZON, ARITY = 4, 2
LIMITS = ("dlo", "rado", "ordered-rado", "pureset")


def sweep(name: str) -> tuple[int, int, str, float]:
    """(canonical, agreeing, digest, seconds) over every table on a fresh limit."""
    limit = builtin_limit(name)
    g = AutLimit(limit)
    pts = [limit.element(i) for i in range(HORIZON)]
    canonical = agreeing = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    for images in itertools.product(pts, repeat=HORIZON):
        report = proposition_harness(TableOracle(limit, limit, dict(zip(pts, images))),
                                     g, g, HORIZON, ARITY)
        canonical += bool(report.verdict)
        agreeing += report.agreement
        digest.update(repr(report).encode() + b"\n")
    return canonical, agreeing, digest.hexdigest(), time.perf_counter() - start


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") is None:
        print("warning: PYTHONHASHSEED is unset; digests differ from run to run",
              file=sys.stderr)
    tables = HORIZON ** HORIZON
    for name in LIMITS:
        canonical, agreeing, digest, seconds = sweep(name)
        print(f"{name}: canonical {canonical}/{tables}, agreement {agreeing}/{tables}, "
              f"reports sha256 {digest}, {seconds:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
