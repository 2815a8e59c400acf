"""Seeded inputs for the benchmark, built without calling sglink.

Canonical diagrams, random homotopy walks and integer matrices are made
here by the benchmark's own code, so the inputs stay the same when the
program's generator or move sampler changes.  The program only ever sees
the files written by this module.
"""

from __future__ import annotations

import random
from pathlib import Path

# The homotopy-preserving move kinds of `sglink perturb`; each keeps both
# strands of a changed or added crossing in one component, so the divisor
# chain is fixed.
_KINDS = ("crossing_change", "clasp", "contract_edge", "split_vertex")


class WalkDiagram:
    """Mutable two-component diagram: edges keep their passages as an
    ordered list of crossing ids, so indices are always 0..p-1."""

    def __init__(self):
        self.component: dict[str, int] = {}     # vertex -> 1 or 2
        self.edges: dict[str, list[str]] = {}   # eid -> [tail, head]
        self.passages: dict[str, list[str]] = {}
        self.crossings: dict[str, list] = {}    # xid -> [over eid, under eid, sign]
        self.intra: list[str] = []               # crossings with both strands in one component
        self._next = {"v": 0, "e": 0, "x": 0}

    def fresh(self, prefix: str) -> str:
        self._next[prefix] += 1
        return f"{prefix}{self._next[prefix]}"

    def add_edge(self, eid: str, tail: str, head: str) -> None:
        self.edges[eid] = [tail, head]
        self.passages[eid] = []

    def clasp(self, e: str, pos_e: int, f: str, pos_f: int, eps: int) -> None:
        """Two crossings of sign eps: e over f, then f over e just after."""
        xa, xb = self.fresh("x"), self.fresh("x")
        self.crossings[xa] = [e, f, eps]
        self.crossings[xb] = [f, e, eps]
        self.passages[e][pos_e:pos_e] = [xa, xb]
        self.passages[f][pos_f:pos_f] = [xa, xb]
        if self.component[self.edges[e][0]] == self.component[self.edges[f][0]]:
            self.intra += (xa, xb)

    def edges_of(self, comp: int) -> list[str]:
        return sorted(eid for eid, (tail, _) in self.edges.items() if self.component[tail] == comp)

    def ends_at(self, vid: str) -> list[tuple[str, str]]:
        ends = []
        for eid, (tail, head) in self.edges.items():
            if tail == vid:
                ends.append((eid, "tail"))
            if head == vid:
                ends.append((eid, "head"))
        return sorted(ends)

    def step(self, kind: str, rng: random.Random) -> bool:
        """Apply one move of ``kind`` at random; False when it does not apply."""
        if kind == "crossing_change":
            if not self.intra:
                return False
            c = self.crossings[rng.choice(self.intra)]
            c[0], c[1], c[2] = c[1], c[0], -c[2]
        elif kind == "clasp":
            edges = self.edges_of(rng.randint(1, 2))
            if len(edges) < 2:
                return False
            e, f = rng.sample(edges, 2)
            self.clasp(e, rng.randint(0, len(self.passages[e])),
                       f, rng.randint(0, len(self.passages[f])), rng.choice((1, -1)))
        elif kind == "contract_edge":
            free = sorted(eid for eid, (tail, head) in self.edges.items()
                          if tail != head and not self.passages[eid])
            if not free:
                return False
            eid = rng.choice(free)
            keep, drop = self.edges.pop(eid)
            del self.passages[eid]
            del self.component[drop]
            for ends in self.edges.values():
                ends[:] = [keep if v == drop else v for v in ends]
        else:
            vid = rng.choice(sorted(self.component))
            moved = [end for end in self.ends_at(vid) if rng.random() < 0.5]
            new_vid, new_eid = self.fresh("v"), self.fresh("e")
            self.component[new_vid] = self.component[vid]
            for eid, end in moved:
                self.edges[eid][0 if end == "tail" else 1] = new_vid
            self.add_edge(new_eid, vid, new_vid)
        return True

    def walk(self, steps: int, rng: random.Random) -> None:
        """Each move kind equally often, in a seeded order, so that walks of
        one length add the same number of crossings on every seed; a kind
        that does not apply is replaced by a vertex split, which always does."""
        kinds = [_KINDS[i % len(_KINDS)] for i in range(steps)]
        rng.shuffle(kinds)
        for kind in kinds:
            if not self.step(kind, rng):
                self.step("split_vertex", rng)

    def sgd(self, header: str) -> str:
        index = {}
        for eid, xids in self.passages.items():
            for i, xid in enumerate(xids):
                index[xid, eid] = i
        lines = [f"# {header}", "sgd 1"]
        lines += [f"vertex {v}" for v in sorted(self.component)]
        lines += [f"edge {eid} {t} {h}" for eid, (t, h) in sorted(self.edges.items())]
        for xid, (over, under, sign) in sorted(self.crossings.items()):
            lines.append(f"crossing {xid} over {over} {index[xid, over]} "
                         f"under {under} {index[xid, under]} sign {'+' if sign > 0 else '-'}")
        return "\n".join(lines) + "\n"


def canonical(m: int, n: int, chain: tuple[int, ...]) -> WalkDiagram:
    """Two bouquets of m and n loops, loop i of each clasped chain[i] times,
    so the linking matrix is diag(chain) and the invariant is the chain."""
    d = WalkDiagram()
    d.component.update(u1=1, u2=2)
    loops_a = [f"a{i + 1:02d}" for i in range(m)]
    loops_b = [f"b{j + 1:02d}" for j in range(n)]
    for eid in loops_a:
        d.add_edge(eid, "u1", "u1")
    for eid in loops_b:
        d.add_edge(eid, "u2", "u2")
    for a, b, di in zip(loops_a, loops_b, chain):
        for _ in range(di):
            d.clasp(a, len(d.passages[a]), b, len(d.passages[b]), 1)
    return d


def walk_chain(rank: int) -> tuple[int, ...]:
    """A full-length chain 1..1 2..2 6..6 (halves and quarters of the rank),
    so the linking matrix is square and nonsingular."""
    half, quarter = rank // 2, rank // 4
    return (1,) * (rank - half) + (2,) * (half - quarter) + (6,) * quarter


def random_chain(size: int, rng: random.Random) -> tuple[int, ...]:
    """A full-length divisibility chain with a few seeded steps up."""
    chain, d = [], 1
    for _ in range(size):
        if rng.random() < 0.2:
            d *= rng.choice((2, 3))
        chain.append(d)
    return tuple(chain)


def dense_matrix(size: int, bound: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]


def unimodular(size: int, ops: int, rng: random.Random) -> list[list[int]]:
    """Product of elementary row operations (swap, add +-1 or +-2 times
    another row), so its determinant is +-1 by construction."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(ops):
        i, j = rng.sample(range(size), 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            q = rng.choice((-2, -1, 1, 2))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


def chain_matrix(chain: tuple[int, ...], rng: random.Random, ops: int) -> list[list[int]]:
    """A * diag(chain) * B with unimodular A and B: its divisors are the chain."""
    n = len(chain)
    a, b = unimodular(n, ops, rng), unimodular(n, ops, rng)
    ad = [[a[i][k] * chain[k] for k in range(n)] for i in range(n)]
    return [[sum(ad[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def write_matrix(path: Path, rows: list[list[int]]) -> None:
    text = f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    path.write_text(text, encoding="utf-8")
