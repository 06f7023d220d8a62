"""Host speed probe: a fixed piece of pure-Python work, timed.

The benchmark was built on a shared 2-core VM whose core speed changes by up
to 1.8x for stretches of a second to several minutes while other tenants
run.  Every process on the core slows by about the same factor, so a
package call timed between two probe runs keeps a steady ratio to them:
over a minute of alternating probes and g_rb(4,3) tables, the table time
moved 82 % between 10-second windows and the table/probe ratio 5 %.

The benchmark therefore reports times in reference seconds:

    reported = measured * REFERENCE_S / (mean of the probes around it)

which is the measured time when the core runs at the reference speed and
is corrected when it does not.  The probe does not touch the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# Probe time on an unloaded core of the reference machine (2-core VM,
# Python 3.11.7): the 5th percentile of 2000 probes.  Only a unit: any fixed
# value gives comparable runs on one machine.
REFERENCE_S = 0.0033

# Least time between two probes taken at call boundaries.
GAP_S = 0.1


def probe() -> float:
    """Run the fixed work once; returns its duration in seconds."""
    t0 = perf_counter()
    x = 0
    buckets: dict[int, int] = {}
    for _ in range(12000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x & 1023
        buckets[k] = buckets.get(k, 0) + (x >> 7 & 3)
    return perf_counter() - t0
