"""Machine-speed reference for timings taken on a shared host.

On a shared host the speed of a core changes by up to a factor of two for
tens of seconds at a time, as other tenants load its sibling.  Every timing
the benchmark reports is therefore scaled by a fixed reference loop timed
between jobs: a job timed while the loop ran at REFERENCE_S counts as
measured, and a job timed while it ran at twice that counts half.  The loop
does the same kind of work as the package (Fraction arithmetic, tuples,
dict updates), so a slowdown hits both alike.  It lives in the benchmark's
own files, so a change to the package cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: The loop's time on the reference machine (Intel Xeon, 2 vCPUs, Python
#: 3.11.7) while its core was not shared; reported times are scaled to it.
REFERENCE_S = 0.0043

#: Time the loop again once this much job time has passed since the last
#: sample; jobs in between use the mean of the samples around them.
INTERVAL_S = 0.1


def reference_loop() -> float:
    """Seconds taken by a fixed piece of exact arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 1800):
        acc += Fraction(i % 17, 3 ** (i % 5))
        seen[(i % 50, acc.denominator % 7)] = i
    return time.perf_counter() - start
