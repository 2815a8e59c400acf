"""Diagram moves and the canonical two-bouquet generator.

Four rewrites are implemented: crossing changes, clasp insertion (a pair of
same-sign crossings joining two edges, the diagrammatic Hopf chord), edge
contraction of a crossing-free edge, and vertex splitting, its inverse.  A
move is homotopy preserving when it is a contraction or splitting, or when
both strands it touches lie in one component; the divisor-chain invariant
is unchanged by every such move, which the random walk exercises.

Every move has one implementation, a method of :class:`WalkState`: a
mutable working copy of a diagram, built once, that each move updates in
time proportional to what the move touches.  Edges hold their crossing
passages as ordered lists of crossing ends, so a clasp is two list
inserts; the state also keeps the sign sums of the inter-component
(over edge, under edge) pairs, which determine the linking matrix, so a
walk can read the matrix off running sums.  The module functions
(``crossing_change``, ``clasp``, ...) apply one move to an immutable
``Diagram`` through a state; ``walk_steps`` and ``replay_steps`` drive
one state through a whole walk and build a ``Diagram`` only when asked.

The canonical generator builds, for ranks (m, n) and a divisor chain d, two
bouquets joined by parallel clasps so that loop i of each side links loop i
of the other exactly d_i times.  All diagrams produced here are realizable
by construction.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError
from .homology import CycleBasis, fundamental_basis
from .linking import LinkingMatrix, matrix_from_pairs, pair_signs
from .sgd import Crossing, Diagram, Edge, validate

__all__ = [
    "MoveRecord",
    "WalkState",
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

# fewest parameters each move kind takes (split_vertex lists ends after three)
_ARITY = {"crossing_change": 1, "clasp": 5, "contract_edge": 1, "split_vertex": 3}


@dataclass(frozen=True)
class MoveRecord:
    """One applied move: kind, its parameter tokens, and whether it
    preserves the divisor-chain invariant."""

    kind: str
    params: tuple[str, ...]
    homotopy_preserving: bool


def _discard(ordered: list[str], item: str) -> None:
    """Remove ``item`` from a sorted list if it is there."""
    i = bisect_left(ordered, item)
    if i < len(ordered) and ordered[i] == item:
        del ordered[i]


class _FreshIds:
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
            self.take(s)

    def _number(self, s: str) -> int | None:
        rest = s[len(self.prefix):]
        # f"{prefix}{k}" never has a leading zero; 19 digits are never reached
        if (s.startswith(self.prefix) and rest.isascii() and rest.isdigit()
                and rest[0] != "0" and len(rest) < 19):
            return int(rest)
        return None

    def peek(self) -> str:
        free, used = self._free, self._used
        while free and free[0] in used:
            heapq.heappop(free)
        if free:
            return f"{self.prefix}{free[0]}"
        while self._next in used:
            self._next += 1
        return f"{self.prefix}{self._next}"

    def new(self) -> str:
        s = self.peek()
        self.take(s)
        return s

    def take(self, s: str) -> None:
        k = self._number(s)
        if k is not None:
            self._used.add(k)

    def free(self, s: str) -> None:
        k = self._number(s)
        if k is not None:
            self._used.discard(k)
            if k < self._next:
                heapq.heappush(self._free, k)


class WalkState:
    """A valid diagram as a mutable working state that moves update in place;
    building one from a diagram that fails ``sgd.validate`` raises
    ``DomainError``.

    - Each edge holds its passages as a list of crossing ends ``(xid, 0)``
      and ``(xid, 1)``; a passage's index is its place in the list.
    - Each crossing keeps the edges of its two ends, which end is over, and
      its sign; a crossing change flips the over end and negates the sign.
    - ``pair_signs`` sums the signs per (over edge, under edge) pair, for
      pairs in distinct components only: the others add nothing to a
      linking matrix.
    - The intra-component crossings and the contractible edges (crossing
      free, not loops) are kept in id order, as the walk draws from them.
    - Each vertex keeps its incident edge ends; each component keeps its
      vertices and edges in id order, and components are numbered by their
      smallest vertex id, as ``Diagram.components`` numbers them.
    - ``revision`` goes up with every move that changes the graph or an
      inter-component sign sum; a linking matrix read at one revision holds
      for as long as the revision stays the same.

    :meth:`diagram` builds the ``Diagram`` in time linear in its size.
    """

    def __init__(self, d: Diagram):
        problems = validate(d)
        if problems:
            raise DomainError("invalid diagram: " + "; ".join(v.message for v in problems))
        self._comp_of: dict[str, int] = {}  # vertex -> component key
        self._comp_vertices: list[list[str]] = []
        self._comp_edges: list[list[str]] = []
        for key, comp in enumerate(d.components):
            self._comp_of.update(dict.fromkeys(comp.vertices, key))
            self._comp_vertices.append(list(comp.vertices))
            self._comp_edges.append(list(comp.edge_ids))
        self._order = list(range(len(self._comp_vertices)))  # keys by number
        self._bases: dict[int, CycleBasis] = {}  # key -> basis last built
        self._vertices = list(d.vertices)
        self._edges = dict(d.edge_map)
        self._ends: dict[str, set[tuple[str, str]]] = {v: set() for v in d.vertices}
        slots: dict[str, list] = {eid: [] for eid in self._edges}
        self._crossings: dict[str, list] = {}  # xid -> [edge of end 0, of end 1, over end, sign]
        self._intra: list[str] = []
        for e in d.edges:
            self._ends[e.tail].add((e.id, "tail"))
            self._ends[e.head].add((e.id, "head"))
        for c in d.crossings:
            self._crossings[c.id] = [c.over[0], c.under[0], 0, c.sign]
            slots[c.over[0]].append((c.over[1], (c.id, 0)))
            slots[c.under[0]].append((c.under[1], (c.id, 1)))
            if self._comp(c.over[0]) == self._comp(c.under[0]):
                self._intra.append(c.id)
        self._passages = {eid: [end for _, end in sorted(s)] for eid, s in slots.items()}
        self.pair_signs = pair_signs(
            c for c in d.crossings if self._comp(c.over[0]) != self._comp(c.under[0])
        )
        self._contractible = [e.id for e in d.edges
                              if e.tail != e.head and not self._passages[e.id]]
        self._xids = _FreshIds("x", self._crossings)
        self._vids = _FreshIds("v", self._vertices)
        self._eids = _FreshIds("e", self._edges)
        self.revision = 0
        self._matrix: tuple[int, LinkingMatrix] | None = None  # (revision, matrix read at it)

    # -- reading --------------------------------------------------------

    def _comp(self, eid: str) -> int:
        edge = self._edges.get(eid)
        if edge is None:
            raise DomainError(f"unknown edge {eid!r}")
        return self._comp_of[edge.tail]

    def ends_at(self, vid: str) -> list[tuple[str, str]]:
        """The (edge id, "tail"/"head") ends at a vertex, sorted."""
        return sorted(self._ends.get(vid, ()))

    def basis(self, k: int) -> CycleBasis:
        """The default fundamental basis of component ``k``, as
        ``cycle_basis`` gives it.  It is rebuilt only when a move changed
        that component's graph or its number since the last call."""
        if not 1 <= k <= len(self._order):
            raise DomainError(f"no such component {k} (diagram has {len(self._order)})")
        key = self._order[k - 1]
        b = self._bases.get(key)
        if b is None or b.component != k:
            b = self._bases[key] = fundamental_basis(
                k, self._comp_vertices[key], self._comp_edges[key], self._edges)
        return b

    def linking_matrix(self) -> LinkingMatrix:
        """The linking matrix over the default bases, read off the running
        sign sums; read again only after the revision changed."""
        if len(self._order) != 2:
            raise DomainError(f"diagram has {len(self._order)} components, expected 2")
        if self._matrix is None or self._matrix[0] != self.revision:
            self._matrix = (self.revision,
                            matrix_from_pairs(self.pair_signs, self.basis(1), self.basis(2)))
        return self._matrix[1]

    def diagram(self) -> Diagram:
        """The ``Diagram`` this state holds now."""
        at = {}
        for eid, ends in self._passages.items():
            for i, end in enumerate(ends):
                at[end] = (eid, i)
        crossings = [
            Crossing(xid, at[xid, over], at[xid, 1 - over], sign)
            for xid, (_, _, over, sign) in self._crossings.items()
        ]
        return Diagram(tuple(self._vertices), tuple(self._edges.values()), tuple(crossings))

    # -- moves ----------------------------------------------------------

    def crossing_change(self, xid: str) -> None:
        """Swap over and under strands of one crossing and negate its sign.

        An involution: applying it twice restores the diagram.
        """
        c = self._crossings.get(xid)
        if c is None:
            raise DomainError(f"unknown crossing {xid!r}")
        over, sign = c[2], c[3]
        c[2], c[3] = 1 - over, -sign
        o, u = c[over], c[1 - over]
        if self._comp(o) != self._comp(u):
            self._add_sign(o, u, -sign)
            self._add_sign(u, o, -sign)
            self.revision += 1

    def clasp(self, e: str, pos_e: int, f: str, pos_f: int, eps: int) -> None:
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
            if eid not in self._edges:
                raise DomainError(f"unknown edge {eid!r}")
            count = len(self._passages[eid])
            if not 0 <= pos <= count:
                raise DomainError(
                    f"insertion index {pos} out of range 0..{count} on edge {eid!r}"
                )
        for eid in (e, f):
            if not self._passages[eid]:
                _discard(self._contractible, eid)
        xa, xb = self._xids.new(), self._xids.new()
        self._crossings[xa] = [e, f, 0, eps]
        self._crossings[xb] = [f, e, 0, eps]
        self._passages[e][pos_e:pos_e] = [(xa, 0), (xb, 1)]
        self._passages[f][pos_f:pos_f] = [(xa, 1), (xb, 0)]
        if self._comp(e) == self._comp(f):
            insort(self._intra, xa)
            insort(self._intra, xb)
        else:
            self._add_sign(e, f, eps)
            self._add_sign(f, e, eps)
            self.revision += 1

    def contract_edge(self, eid: str) -> None:
        """Contract a crossing-free non-loop edge, merging its head into its tail.

        Component count, component ranks, and the divisor-chain invariant are
        all unchanged.  Edges carrying passages cannot be contracted: that
        would require sliding crossings along the edge.
        """
        edge = self._edges.get(eid)
        if edge is None:
            raise DomainError(f"unknown edge {eid!r}")
        if edge.tail == edge.head:
            raise DomainError(f"cannot contract loop {eid!r}")
        if self._passages[eid]:
            raise DomainError(f"cannot contract edge {eid!r}: it carries crossing passages")
        keep, drop = edge.tail, edge.head
        key = self._comp_of.pop(drop)
        del self._edges[eid], self._passages[eid]
        _discard(self._contractible, eid)
        self._ends[keep].discard((eid, "tail"))
        moved = self._ends.pop(drop)
        moved.discard((eid, "head"))
        self._ends[keep] |= moved
        self._move_ends(moved, keep)
        _discard(self._vertices, drop)
        _discard(self._comp_vertices[key], drop)
        _discard(self._comp_edges[key], eid)
        self._vids.free(drop)
        self._eids.free(eid)
        self._graph_changed(key)

    def split_vertex(
        self,
        vid: str,
        part1: Sequence[tuple[str, str]],
        part2: Sequence[tuple[str, str]],
        new_vid: str,
        new_eid: str,
    ) -> None:
        """Split a vertex in two, joined by a fresh crossing-free edge.

        ``part1`` and ``part2`` partition the edge-ends incident to ``vid``
        (pairs of edge id and "tail"/"head"; a loop contributes both ends).
        Ends in part1 stay at ``vid``, ends in part2 move to ``new_vid``, and
        the new edge runs from ``vid`` to ``new_vid``, so contracting it undoes
        the split.
        """
        if vid not in self._ends:
            raise DomainError(f"unknown vertex {vid!r}")
        if new_vid in self._ends:
            raise DomainError(f"vertex id {new_vid!r} already in use")
        if new_eid in self._edges:
            raise DomainError(f"edge id {new_eid!r} already in use")
        p1, p2 = set(part1), set(part2)
        ends = self._ends[vid]
        if p1 & p2 or p1 | p2 != ends or len(p1) + len(p2) != len(ends):
            raise DomainError("partition must cover the incident edge-ends exactly once")
        key = self._comp_of[vid]
        self._comp_of[new_vid] = key
        self._move_ends(p2, new_vid)
        ends -= p2
        ends.add((new_eid, "tail"))
        p2.add((new_eid, "head"))
        self._ends[new_vid] = p2
        self._edges[new_eid] = Edge(new_eid, vid, new_vid)
        self._passages[new_eid] = []
        insort(self._contractible, new_eid)
        insort(self._vertices, new_vid)
        insort(self._comp_vertices[key], new_vid)
        insort(self._comp_edges[key], new_eid)
        self._vids.take(new_vid)
        self._eids.take(new_eid)
        self._graph_changed(key)

    def _add_sign(self, o: str, u: str, s: int) -> None:
        total = self.pair_signs.get((o, u), 0) + s
        if total:
            self.pair_signs[o, u] = total
        else:
            self.pair_signs.pop((o, u), None)

    def _move_ends(self, ends, vid: str) -> None:
        """Re-attach edge ends to ``vid``, keeping the contractible edges
        current (an end moved can make a loop or undo one)."""
        for x, side in ends:
            e = self._edges[x]
            was = e.tail != e.head and not self._passages[x]
            e = self._edges[x] = Edge(x, vid, e.head) if side == "tail" else Edge(x, e.tail, vid)
            now = e.tail != e.head and not self._passages[x]
            if now and not was:
                insort(self._contractible, x)
            elif was and not now:
                _discard(self._contractible, x)

    def _graph_changed(self, key: int) -> None:
        self._bases.pop(key, None)
        self._order.sort(key=lambda k: self._comp_vertices[k][0])
        self.revision += 1

    # -- move records ---------------------------------------------------

    def record(self, kind: str, params: tuple[str, ...]) -> MoveRecord:
        """The record of a move as it would apply here, with whether it
        preserves the invariant; rejects unknown crossings and edges."""
        if len(params) < _ARITY.get(kind, 0):
            raise DomainError(f"move {kind!r} is missing parameters")
        if kind == "crossing_change":
            c = self._crossings.get(params[0])
            if c is None:
                raise DomainError(f"unknown crossing {params[0]!r}")
            preserving = self._comp(c[0]) == self._comp(c[1])
        elif kind == "clasp":
            preserving = self._comp(params[0]) == self._comp(params[2])
        else:
            preserving = True
        return MoveRecord(kind, params, preserving)

    def apply(self, move: MoveRecord) -> None:
        """Apply one recorded move."""
        kind, p = move.kind, move.params
        if kind == "crossing_change":
            self.crossing_change(p[0])
        elif kind == "clasp":
            try:
                pos_e, pos_f, eps = int(p[1]), int(p[3]), int(p[4])
            except ValueError:
                raise DomainError(f"bad clasp parameters {' '.join(p)!r}") from None
            self.clasp(p[0], pos_e, p[2], pos_f, eps)
        elif kind == "contract_edge":
            self.contract_edge(p[0])
        elif kind == "split_vertex":
            vid, new_vid, new_eid = p[0], p[1], p[2]
            part2 = [tuple(tok.split(".", 1)) for tok in p[3:]]
            moved = set(part2)
            part1 = [end for end in self.ends_at(vid) if end not in moved]
            self.split_vertex(vid, part1, part2, new_vid, new_eid)
        else:
            raise DomainError(f"unknown move kind {kind!r}")

    def sample(self, rng: random.Random) -> MoveRecord | None:
        """One attempt at drawing an applicable homotopy-preserving move.

        Candidates are taken in id order, so a seed draws the same moves
        whatever the state's history."""
        kind = rng.choice(KINDS)
        if kind == "crossing_change":
            if not self._intra:
                return None
            return self.record(kind, (rng.choice(self._intra),))
        if kind == "clasp":
            edge_ids = self._comp_edges[self._order[rng.randrange(len(self._order))]]
            if len(edge_ids) < 2:
                return None
            e, f = rng.sample(edge_ids, 2)
            pos_e = rng.randint(0, len(self._passages[e]))
            pos_f = rng.randint(0, len(self._passages[f]))
            eps = rng.choice((1, -1))
            return self.record(kind, (e, str(pos_e), f, str(pos_f), str(eps)))
        if kind == "contract_edge":
            if not self._contractible:
                return None
            return self.record(kind, (rng.choice(self._contractible),))
        # split_vertex: always applicable
        vid = rng.choice(self._vertices)
        new_vid, new_eid = self._vids.peek(), self._eids.peek()
        part2 = tuple(f"{eid}.{end}" for eid, end in self.ends_at(vid) if rng.random() < 0.5)
        return self.record("split_vertex", (vid, new_vid, new_eid) + part2)


def _applied(d: Diagram, move, *args) -> Diagram:
    """The diagram a ``WalkState`` method makes of a copy of ``d``."""
    state = WalkState(d)
    move(state, *args)
    return state.diagram()


def crossing_change(d: Diagram, xid: str) -> Diagram:
    """:meth:`WalkState.crossing_change` on a copy of ``d``."""
    return _applied(d, WalkState.crossing_change, xid)


def clasp(d: Diagram, e: str, pos_e: int, f: str, pos_f: int, eps: int) -> Diagram:
    """:meth:`WalkState.clasp` on a copy of ``d``."""
    return _applied(d, WalkState.clasp, e, pos_e, f, pos_f, eps)


def contract_edge(d: Diagram, eid: str) -> Diagram:
    """:meth:`WalkState.contract_edge` on a copy of ``d``."""
    return _applied(d, WalkState.contract_edge, eid)


def split_vertex(
    d: Diagram,
    vid: str,
    part1: Sequence[tuple[str, str]],
    part2: Sequence[tuple[str, str]],
    new_vid: str,
    new_eid: str,
) -> Diagram:
    """:meth:`WalkState.split_vertex` on a copy of ``d``."""
    return _applied(d, WalkState.split_vertex, vid, part1, part2, new_vid, new_eid)


def apply_move(d: Diagram, move: MoveRecord) -> Diagram:
    """Replay one recorded move on a diagram."""
    return _applied(d, WalkState.apply, move)


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


def format_move(move: MoveRecord) -> str:
    return " ".join((move.kind,) + move.params)


def parse_move(line: str) -> tuple[str, tuple[str, ...]]:
    """Split a move line into (kind, params); validation happens on apply."""
    toks = line.split()
    if not toks or toks[0] not in KINDS:
        raise DomainError(f"bad move line {line!r}")
    return toks[0], tuple(toks[1:])


def walk_steps(d: Diagram, steps: int, seed: int) -> Iterator[tuple[MoveRecord, WalkState]]:
    """Yield (record, state) after each move of a random homotopy walk.

    Moves are drawn from the four homotopy-preserving families: crossing
    changes within one component, clasps within one component, contractions
    of crossing-free edges, and vertex splittings.  Kinds are sampled
    uniformly and inapplicable draws are skipped; vertex splitting is always
    applicable, so the walk always completes.  Reproducible from the seed.
    Every item carries the same :class:`WalkState`, updated in place; call
    its ``diagram()`` for a ``Diagram`` of a step.
    """
    rng = random.Random(seed)
    state = WalkState(d)
    for _ in range(steps):
        move = None
        while move is None:
            move = state.sample(rng)
        state.apply(move)
        yield move, state


def replay_steps(d: Diagram, text: str) -> Iterator[tuple[MoveRecord, WalkState]]:
    """Yield (record, state) after each move of a move list, one move per
    line as :func:`format_move` writes it; ``#`` comments and blank lines
    are skipped.  Lines are parsed lazily, so the moves before a bad line
    are all applied first.  As in :func:`walk_steps`, every item carries
    the same state, updated in place."""
    state = WalkState(d)
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        move = state.record(*parse_move(line))
        state.apply(move)
        yield move, state


def random_homotopy_walk(d: Diagram, steps: int, seed: int) -> tuple[Diagram, list[MoveRecord]]:
    """Apply ``steps`` random homotopy-preserving moves; returns the final
    diagram and the move list for replay."""
    records = []
    state = None
    for rec, state in walk_steps(d, steps, seed):
        records.append(rec)
    return (d if state is None else state.diagram()), records
