"""A fixed reference loop that measures how fast the host runs right now.

The VM this benchmark was written on shares its host with other tenants,
and the host slows the whole VM for stretches of seconds to minutes: the
same pass of ``routes`` took from 4.1 s to 7.7 s within ten minutes, and
interpreter start-up moved by 40 % with it.  That drift is wider than any
bound a metric may take, so the timed metrics are divided by the speed of
this loop, measured in the same process right next to each timed call,
and reported in seconds at the reference speed ``REFERENCE_S``.

The loop does the kinds of work treewalks does (interpreter loops, big
integer products and exact divisions, Fractions, list and dict traffic),
none of it through treewalks, with the cyclic garbage collector paused so
that the program's own heap cannot slow it.  A sample is the median of a
few back-to-back runs: the host's speed moves within a tenth of a second,
and on ``routes`` a dozen runs on each side of a query tracked its speed
better than two (the scaled latency of one query varied by 9 % instead of
12 %; unscaled, by 18 %).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Time of one loop on the reference host, a 2-vCPU VM with an "Intel Xeon
#: Processor" and Python 3.11, at its usual speed.  Only the ratio of a
#: timed call to the loop timed next to it matters; this constant merely
#: turns that ratio back into seconds.
REFERENCE_S = 0.0035

_BIG = 3**2000


def _loop() -> int:
    acc = 0
    for i in range(18000):
        acc += i * i % 7
    big = _BIG
    for i in range(1, 600):
        big = big * (12345 + i) // (i + 1)
    frac = Fraction(0)
    for i in range(1, 150):
        frac += Fraction(1, i)
    rows = [[i, i + 1] for i in range(2400)]
    index = {i: row for i, row in enumerate(rows)}
    return acc + big.bit_length() + frac.denominator.bit_length() + len(index)


def sample(runs: int) -> float:
    """Seconds of one reference loop now: the median of ``runs`` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()
