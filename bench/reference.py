"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same program runs up to half again as slow for tens of
seconds at a time, and its CPU time slows with it.  :func:`reference_s`
times a small, fixed piece of work of the same kind as chargedfock's state
arithmetic -- dictionaries keyed by tuples of partitions, holding exact
fractions, added, scaled and paired -- with the standard library only, so
no change to the package moves it.  The benchmark runs it before and after
every sample and scales the sample's times by ``REFERENCE_S`` over its
mean, which takes the host's swings out of the reported seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the median of reference_s on the 2-vCPU, 2.1 GHz Xeon host the
# benchmark was set up on (Python 3.11): scaled times read as seconds there
REFERENCE_S = 0.2


def _work() -> Fraction:
    a = {}
    for i in range(1, 40000):
        key = (i % 5 - 2, tuple(range(i % 4, i % 9)), (i % 7,))
        a[key] = a.get(key, 0) + Fraction(i % 97 - 48, i % 89 + 1)
    b = {k: v * Fraction(3, 7) for k, v in a.items()}
    return sum(v * b.get(k, 0) for k, v in a.items())


def reference_s() -> float:
    """Seconds the fixed reference work takes right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
