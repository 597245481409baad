"""A fixed amount of CPU work that tells how fast the machine is right now.

On a shared VM the speed at which one vCPU runs Python changes by up to
1.6x from one second to the next, with the load of other tenants; the
lost time is charged as the process's own CPU time, so CPU clocks do not
remove it. The worker runs this probe before every request and after
the last one, and the runner scales each latency by PROBE_REF_S over the
mean of the probes on either side of it (see run.py).

The work never changes with the program under test, so the scaling
cancels the machine's speed, not the program's.
"""

import time
from fractions import Fraction

# The probe's time at the fast speed of the machine where the benchmark
# was defined (a 2-vCPU Intel Xeon VM), so scaled times read as seconds
# on that machine.
PROBE_REF_S = 1.4e-3
REPEATS = 2


def _work() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i % 7, 1 + i % 5) * Fraction(3, 2)
        table[(i, i % 3)] = acc


def speed_probe() -> float:
    """Fastest of a few timings of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best
