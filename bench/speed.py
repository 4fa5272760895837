"""Machine-speed probe.

On a shared host the same Python code can run ~40% slower from one minute
to the next (seen on a 2-vCPU Xeon VM), because other tenants compete for
the core. Raw wall times then spread more between runs than any change
worth measuring. The benchmark therefore runs a fixed pure-Python scan
before each case it times and reports every time in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / (median of nearby probes)

that is, the time the call would take on a machine where the probe takes
REFERENCE_S. "Nearby" is the probes of the cases up to WINDOW before and
after, so the factor follows the machine's speed through a run while a
single disturbed probe cannot move it. The probe is benchmark code, so a
change to the program cannot move it; raw wall times and the probe median
are printed beside the result.
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations

REFERENCE_S = 0.008
WINDOW = 2

# A fixed quadruple scan over a fixed integer matrix: the same kind of work
# (tuple indexing, int sums and compares, combinations) as the program's
# checks, so that contention slows it about as much as it slows them.
_N = 23
_D = [[abs(i - j) * 7 + i * j % 5 for j in range(_N + 1)] for i in range(_N + 1)]


def probe() -> float:
    """Seconds taken by the fixed scan, now."""
    d = _D
    start = time.perf_counter()
    hits = 0
    for i, j, k, t in combinations(range(1, _N + 1), 4):
        s1, s2, s3 = d[i][j] + d[k][t], d[i][k] + d[j][t], d[i][t] + d[j][k]
        top = max(s1, s2, s3)
        hits += (s1 == top) + (s2 == top) + (s3 == top) + (d[i][k] + d[k][j] == d[i][j])
    return time.perf_counter() - start


def scale(probes) -> float:
    """One factor from wall to reference seconds for a whole pass."""
    return REFERENCE_S / statistics.median(probes)


def factors(probes) -> list[float]:
    """The factor from wall to reference seconds for each sample in turn."""
    return [
        REFERENCE_S / statistics.median(probes[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(len(probes))
    ]
