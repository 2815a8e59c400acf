"""The one timer of the time-ratio guards.

A guard times the same work at two sizes, 4x apart, and bounds the ratio
of the two times (:func:`ratio`), so it tells a linear cost (a ratio near
4) from a quadratic one (near 16) without a bound in seconds.  Each time
is the best of three runs: the least is the run the host's load disturbed
least.
"""

import time


def best_of_3(run) -> float:
    """The least wall time, in seconds, of three calls of ``run``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def ratio(run, small, large) -> float:
    """:func:`best_of_3` of ``run(large)`` over that of ``run(small)``."""
    return best_of_3(lambda: run(large)) / best_of_3(lambda: run(small))
