"""The walk's id pools against the pool they replaced, kept here as a
reference.

``ReferenceFreshIds`` below is ``moves._FreshIds`` as it stood when the
pool kept the numbers k of the ids ``prefix`` + k in use, parsed from
every id it was given; copied verbatim, apart from the name.  Its ``use``
took a number, or None for an id of another form, which ``number`` gave.
Today's pool keeps no ids of its own: it reads the ids in use, as strings
of any form, from a map the caller keeps (a ``WalkState`` hands it its
crossing, vertex or edge map), and parses digits only in ``free``.  Here
``run_both`` keeps that map as a set: it adds each id ``new`` hands out
and each id it uses, and discards each id it frees.  On seeded sequences of
``new``, use and ``free``, over ids of the form ``prefix`` + k and ids of
other forms (a leading zero, the bare prefix, 25 digits, non-ASCII
digits, another prefix), both must hand out the same ids.
"""

import heapq
import random

from sglink.moves import _FreshIds


class ReferenceFreshIds:
    """The smallest unused id of the form ``prefix`` + k, k = 1, 2, ...

    Every unused k below ``_next`` is in the ``_free`` heap (entries taken
    again since are dropped when they reach the top), so ids freed by a
    contraction are handed out again, smallest first, without counting up
    from 1.
    """

    def __init__(self, prefix: str, ids):
        self.prefix = prefix
        self._used: set[int] = set()
        self._free: list[int] = []
        self._next = 1
        for s in ids:
            self.use(self.number(s))

    def number(self, s: str) -> int | None:
        """The k of an id ``prefix`` + k, None for an id of another form."""
        rest = s[len(self.prefix):]
        # f"{prefix}{k}" never has a leading zero; 19 digits are never reached
        if (s.startswith(self.prefix) and rest.isascii() and rest.isdigit()
                and rest[0] != "0" and len(rest) < 19):
            return int(rest)
        return None

    def _smallest(self) -> int:
        free, used = self._free, self._used
        while free and free[0] in used:
            heapq.heappop(free)
        if free:
            return free[0]
        while self._next in used:
            self._next += 1
        return self._next

    def peek(self) -> tuple[str, int]:
        """The id :meth:`new` would hand out next, and its number."""
        k = self._smallest()
        return f"{self.prefix}{k}", k

    def new(self) -> str:
        k = self._smallest()
        self._used.add(k)
        return f"{self.prefix}{k}"

    def use(self, k: int | None) -> None:
        """Mark number ``k`` used; None, for an id of another form, is a no-op."""
        if k is not None:
            self._used.add(k)

    def free(self, s: str) -> None:
        k = self.number(s)
        if k is not None:
            self._used.discard(k)
            if k < self._next:
                heapq.heappush(self._free, k)


ODD = ["v", "v0", "v01", "v007", "v" + "1" * 25, "v" + "9" * 18, "v" + "1" * 19,
       "v\u0661\u0662", "v\u00b2", "v\uff13", "w3", "v1_2", "x1", "V4"]


def run_both(rng: random.Random, steps: int) -> int:
    """One seeded sequence on both pools; returns how many ids ``new``
    handed out, after checking each against the reference."""
    start = rng.sample([f"v{k}" for k in range(1, 40)], rng.randint(0, 12))
    start += rng.sample(ODD, rng.randint(0, len(ODD)))
    rng.shuffle(start)
    used = set(start)  # the map a state keeps, which the pool reads
    ref, pool = ReferenceFreshIds("v", start), _FreshIds("v", used)
    held = list(start)
    handed = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.45:
            s = pool.new()
            assert s == ref.new()
            used.add(s)
            held.append(s)
            handed += 1
        elif op < 0.6:
            s = rng.choice(ODD + [f"v{k}" for k in range(1, 60)])
            ref.use(ref.number(s))
            used.add(s)
            held.append(s)
        elif held:
            # mostly ids in use, as a contraction frees them; sometimes any
            s = held.pop(rng.randrange(len(held))) if rng.random() < 0.9 else rng.choice(ODD)
            ref.free(s)
            used.discard(s)
            pool.free(s)
    return handed


def test_pools_hand_out_the_same_ids():
    rng = random.Random(25)
    assert sum(run_both(rng, rng.randint(1, 120)) for _ in range(400)) > 5000

