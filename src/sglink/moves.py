"""Diagram moves and the canonical two-bouquet generator.

Four rewrites are implemented: crossing changes, clasp insertion (a pair of
same-sign crossings joining two edges, the diagrammatic Hopf chord), edge
contraction of a crossing-free edge, and vertex splitting, its inverse.  A
move is homotopy preserving when it is a contraction or splitting, or when
both strands it touches lie in one component; the divisor-chain invariant
is unchanged by every such move, which the random walk exercises.

The canonical generator builds, for ranks (m, n) and a divisor chain d, two
bouquets joined by parallel clasps so that loop i of each side links loop i
of the other exactly d_i times.  All diagrams produced here are realizable
by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError
from .sgd import Crossing, Diagram, Edge

__all__ = [
    "MoveRecord",
    "crossing_change",
    "clasp",
    "contract_edge",
    "split_vertex",
    "canonical_diagram",
    "random_homotopy_walk",
    "walk_steps",
    "replay_steps",
    "apply_move",
    "format_move",
    "parse_move",
]

KINDS = ("crossing_change", "clasp", "contract_edge", "split_vertex")


@dataclass(frozen=True)
class MoveRecord:
    """One applied move: kind, its parameter tokens, and whether it
    preserves the divisor-chain invariant."""

    kind: str
    params: tuple[str, ...]
    homotopy_preserving: bool


def _fresh_ids(prefix: str, taken: set[str], count: int) -> list[str]:
    out = []
    k = 1
    while len(out) < count:
        cand = f"{prefix}{k}"
        if cand not in taken:
            out.append(cand)
        k += 1
    return out


def crossing_change(d: Diagram, xid: str) -> Diagram:
    """Swap over and under strands of one crossing and negate its sign.

    An involution: applying it twice restores the diagram.
    """
    if xid not in d.crossing_map:
        raise DomainError(f"unknown crossing {xid!r}")
    new = tuple(
        Crossing(c.id, c.under, c.over, -c.sign) if c.id == xid else c
        for c in d.crossings
    )
    return Diagram(d.vertices, d.edges, new)


def clasp(d: Diagram, e: str, pos_e: int, f: str, pos_f: int, eps: int) -> Diagram:
    """Insert a clasp (two same-sign crossings) joining edges e and f.

    Crossing A puts e over f with sign eps at passages (pos_e, pos_f);
    crossing B puts f over e at the next passage of each edge.  Existing
    passages at or past the insertion points shift by two.  When e and f
    lie in distinct components, every linking number changes by
    eps * z[e] * w[f] -- a rank-1 matrix update.
    """
    if e == f:
        raise DomainError("clasp requires two distinct edges")
    if eps not in (1, -1):
        raise DomainError("eps must be +1 or -1")
    for eid, pos in ((e, pos_e), (f, pos_f)):
        if eid not in d.edge_map:
            raise DomainError(f"unknown edge {eid!r}")
        if not 0 <= pos <= d.passage_count(eid):
            raise DomainError(
                f"insertion index {pos} out of range 0..{d.passage_count(eid)} on edge {eid!r}"
            )

    def shift(ref: tuple[str, int]) -> tuple[str, int]:
        eid, idx = ref
        if eid == e and idx >= pos_e:
            idx += 2
        if eid == f and idx >= pos_f:
            idx += 2
        return (eid, idx)

    crossings = [Crossing(c.id, shift(c.over), shift(c.under), c.sign) for c in d.crossings]
    xa, xb = _fresh_ids("x", set(d.crossing_map), 2)
    crossings.append(Crossing(xa, (e, pos_e), (f, pos_f), eps))
    crossings.append(Crossing(xb, (f, pos_f + 1), (e, pos_e + 1), eps))
    return Diagram(d.vertices, d.edges, tuple(crossings))


def contract_edge(d: Diagram, eid: str) -> Diagram:
    """Contract a crossing-free non-loop edge, merging its head into its tail.

    Component count, component ranks, and the divisor-chain invariant are
    all unchanged.  Edges carrying passages cannot be contracted: that
    would require sliding crossings along the edge.
    """
    edge = d.edge_map.get(eid)
    if edge is None:
        raise DomainError(f"unknown edge {eid!r}")
    if edge.tail == edge.head:
        raise DomainError(f"cannot contract loop {eid!r}")
    if d.passage_count(eid) != 0:
        raise DomainError(f"cannot contract edge {eid!r}: it carries crossing passages")
    keep, drop = edge.tail, edge.head
    edges = tuple(
        Edge(x.id, keep if x.tail == drop else x.tail, keep if x.head == drop else x.head)
        for x in d.edges
        if x.id != eid
    )
    vertices = tuple(v for v in d.vertices if v != drop)
    return Diagram(vertices, edges, d.crossings)


def _ends_at(d: Diagram, vid: str) -> list[tuple[str, str]]:
    ends = []
    for e in d.edges:
        if e.tail == vid:
            ends.append((e.id, "tail"))
        if e.head == vid:
            ends.append((e.id, "head"))
    return sorted(ends)


def split_vertex(
    d: Diagram,
    vid: str,
    part1: Sequence[tuple[str, str]],
    part2: Sequence[tuple[str, str]],
    new_vid: str,
    new_eid: str,
) -> Diagram:
    """Split a vertex in two, joined by a fresh crossing-free edge.

    ``part1`` and ``part2`` partition the edge-ends incident to ``vid``
    (pairs of edge id and "tail"/"head"; a loop contributes both ends).
    Ends in part1 stay at ``vid``, ends in part2 move to ``new_vid``, and
    the new edge runs from ``vid`` to ``new_vid``, so contracting it undoes
    the split.
    """
    vertices = set(d.vertices)
    if vid not in vertices:
        raise DomainError(f"unknown vertex {vid!r}")
    if new_vid in vertices:
        raise DomainError(f"vertex id {new_vid!r} already in use")
    if new_eid in d.edge_map:
        raise DomainError(f"edge id {new_eid!r} already in use")
    p1, p2 = set(part1), set(part2)
    ends = set(_ends_at(d, vid))
    if p1 & p2 or p1 | p2 != ends or len(p1) + len(p2) != len(ends):
        raise DomainError("partition must cover the incident edge-ends exactly once")

    def endpoint(eid: str, end: str, old: str) -> str:
        return new_vid if (eid, end) in p2 else old

    edges = [
        Edge(
            e.id,
            endpoint(e.id, "tail", e.tail) if e.tail == vid else e.tail,
            endpoint(e.id, "head", e.head) if e.head == vid else e.head,
        )
        for e in d.edges
    ]
    edges.append(Edge(new_eid, vid, new_vid))
    return Diagram(d.vertices + (new_vid,), tuple(edges), d.crossings)


def canonical_diagram(m: int, n: int, chain: Sequence[int]) -> Diagram:
    """Two bouquets with ranks (m, n), loop i clasped to loop i d_i times.

    The chain must consist of positive integers each dividing the next,
    with length at most min(m, n).  The resulting linking matrix is
    diagonal with entries d_i, so the diagram's invariant is exactly the
    chain (or zero for an empty chain), and over/under counts agree
    everywhere.
    """
    if m < 0 or n < 0:
        raise DomainError("ranks must be nonnegative")
    chain = tuple(int(x) for x in chain)
    if len(chain) > min(m, n):
        raise DomainError(f"chain of length {len(chain)} needs ranks >= {len(chain)}")
    for x in chain:
        if x <= 0:
            raise DomainError("divisors must be positive")
    for a, b in zip(chain, chain[1:]):
        if b % a:
            raise DomainError(f"{a} does not divide {b}")

    wa, wb = len(str(max(m, 1))), len(str(max(n, 1)))
    loops_a = [f"a{str(i + 1).zfill(wa)}" for i in range(m)]
    loops_b = [f"b{str(j + 1).zfill(wb)}" for j in range(n)]
    # clasp t (counted over the whole chain), the j-th on loop pair i, is
    # crossings x{2t+1} (a_i over b_i at passage 2j) and x{2t+2} (b_i over
    # a_i at passage 2j+1): what clasping each loop pair at its end gives
    crossings = []
    for a, b, di in zip(loops_a, loops_b, chain):
        for p in range(0, 2 * di, 2):
            t = len(crossings)
            crossings.append(Crossing(f"x{t + 1}", (a, p), (b, p), 1))
            crossings.append(Crossing(f"x{t + 2}", (b, p + 1), (a, p + 1), 1))
    return Diagram(
        ("u1", "u2"),
        tuple(Edge(eid, "u1", "u1") for eid in loops_a)
        + tuple(Edge(eid, "u2", "u2") for eid in loops_b),
        tuple(crossings),
    )


# fewest parameters each move kind takes (split_vertex lists ends after three)
_ARITY = {"crossing_change": 1, "clasp": 5, "contract_edge": 1, "split_vertex": 3}


def _record(d: Diagram, kind: str, params: tuple[str, ...]) -> MoveRecord:
    if len(params) < _ARITY.get(kind, 0):
        raise DomainError(f"move {kind!r} is missing parameters")
    if kind == "crossing_change":
        c = d.crossing_map.get(params[0])
        if c is None:
            raise DomainError(f"unknown crossing {params[0]!r}")
        preserving = d.component_of_edge(c.over[0]) == d.component_of_edge(c.under[0])
    elif kind == "clasp":
        preserving = d.component_of_edge(params[0]) == d.component_of_edge(params[2])
    else:
        preserving = True
    return MoveRecord(kind, params, preserving)


def apply_move(d: Diagram, move: MoveRecord) -> Diagram:
    """Replay one recorded move on a diagram."""
    kind, p = move.kind, move.params
    if kind == "crossing_change":
        return crossing_change(d, p[0])
    if kind == "clasp":
        try:
            pos_e, pos_f, eps = int(p[1]), int(p[3]), int(p[4])
        except ValueError:
            raise DomainError(f"bad clasp parameters {' '.join(p)!r}") from None
        return clasp(d, p[0], pos_e, p[2], pos_f, eps)
    if kind == "contract_edge":
        return contract_edge(d, p[0])
    if kind == "split_vertex":
        vid, new_vid, new_eid = p[0], p[1], p[2]
        part2 = [tuple(tok.split(".", 1)) for tok in p[3:]]
        moved = set(part2)
        part1 = [end for end in _ends_at(d, vid) if end not in moved]
        return split_vertex(d, vid, part1, part2, new_vid, new_eid)
    raise DomainError(f"unknown move kind {kind!r}")


def format_move(move: MoveRecord) -> str:
    return " ".join((move.kind,) + move.params)


def parse_move(line: str) -> tuple[str, tuple[str, ...]]:
    """Split a move line into (kind, params); validation happens on apply."""
    toks = line.split()
    if not toks or toks[0] not in KINDS:
        raise DomainError(f"bad move line {line!r}")
    return toks[0], tuple(toks[1:])


def _sample_move(d: Diagram, rng: random.Random) -> MoveRecord | None:
    """One attempt at drawing an applicable homotopy-preserving move."""
    kind = rng.choice(KINDS)
    if kind == "crossing_change":
        candidates = [
            c.id for c in d.crossings
            if d.component_of_edge(c.over[0]) == d.component_of_edge(c.under[0])
        ]
        if not candidates:
            return None
        return _record(d, kind, (rng.choice(candidates),))
    if kind == "clasp":
        comp = d.components[rng.randrange(len(d.components))]
        if len(comp.edge_ids) < 2:
            return None
        e, f = rng.sample(comp.edge_ids, 2)
        pos_e = rng.randint(0, d.passage_count(e))
        pos_f = rng.randint(0, d.passage_count(f))
        eps = rng.choice((1, -1))
        return _record(d, kind, (e, str(pos_e), f, str(pos_f), str(eps)))
    if kind == "contract_edge":
        candidates = [
            e.id for e in d.edges
            if e.tail != e.head and d.passage_count(e.id) == 0
        ]
        if not candidates:
            return None
        return _record(d, kind, (rng.choice(candidates),))
    # split_vertex: always applicable
    vid = rng.choice(d.vertices)
    taken_v = set(d.vertices)
    taken_e = set(d.edge_map)
    new_vid = _fresh_ids("v", taken_v, 1)[0]
    new_eid = _fresh_ids("e", taken_e, 1)[0]
    part2 = tuple(f"{eid}.{end}" for eid, end in _ends_at(d, vid) if rng.random() < 0.5)
    return _record(d, "split_vertex", (vid, new_vid, new_eid) + part2)


def walk_steps(d: Diagram, steps: int, seed: int) -> Iterator[tuple[MoveRecord, Diagram]]:
    """Yield (record, diagram) after each move of a random homotopy walk.

    Moves are drawn from the four homotopy-preserving families: crossing
    changes within one component, clasps within one component, contractions
    of crossing-free edges, and vertex splittings.  Kinds are sampled
    uniformly and inapplicable draws are skipped; vertex splitting is always
    applicable, so the walk always completes.  Reproducible from the seed.
    """
    rng = random.Random(seed)
    cur = d
    for _ in range(steps):
        move = None
        while move is None:
            move = _sample_move(cur, rng)
        cur = apply_move(cur, move)
        yield move, cur


def replay_steps(d: Diagram, text: str) -> Iterator[tuple[MoveRecord, Diagram]]:
    """Yield (record, diagram) after each move of a move list, one move per
    line as :func:`format_move` writes it; ``#`` comments and blank lines
    are skipped.  Lines are parsed lazily, so the moves before a bad line
    are all applied first."""
    cur = d
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        move = _record(cur, *parse_move(line))
        cur = apply_move(cur, move)
        yield move, cur


def random_homotopy_walk(d: Diagram, steps: int, seed: int) -> tuple[Diagram, list[MoveRecord]]:
    """Apply ``steps`` random homotopy-preserving moves; returns the final
    diagram and the move list for replay."""
    records = []
    cur = d
    for rec, cur in walk_steps(d, steps, seed):
        records.append(rec)
    return cur, records
