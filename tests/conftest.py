"""A time limit per test, so that a hang fails the suite instead of
stalling it, and one Hypothesis profile for every property test.

Each test gets ``LIMIT_S`` seconds of wall time; the slowest test takes
about 5 s.  ``SIGALRM`` then raises in the test, which fails it and lets
the run go on.  Code that never returns to the interpreter cannot take
that signal, so ``faulthandler`` prints every thread's traceback and ends
the process after twice the limit.

The profile derandomizes Hypothesis and gives it no example database, so
each property test draws the same examples on every run, and none are
saved under ``.hypothesis/`` or replayed from there.
"""

import faulthandler
import signal

import pytest
from hypothesis import settings

settings.register_profile("sglink", derandomize=True, database=None)
settings.load_profile("sglink")

LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """The running test went past ``LIMIT_S``; not an ``Exception``, so a
    test that catches every error still stops."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {LIMIT_S} s limit")


@pytest.fixture(autouse=True)
def _time_limit():
    faulthandler.dump_traceback_later(2 * LIMIT_S, exit=True)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        faulthandler.cancel_dump_traceback_later()
