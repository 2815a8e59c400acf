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
walk can read the matrix off running sums.  One move on an immutable
``Diagram`` is ``WalkState(d)``, then the move's method, then
:meth:`WalkState.diagram`; ``walk_steps`` and ``replay_steps`` drive one
state through a whole walk and build a ``Diagram`` only when asked.
Walks, replays and :func:`apply_move` run every move the same way: the
move's record names the method, which is called on the move's arguments.
A walk draws the record and the arguments together
(:meth:`WalkState.sample`); a replay reads both off the record's tokens
(:meth:`WalkState.read`), which it checks first.  A walk draws each integer
with one call to ``Random._randbelow``, the call that ``choice``,
``randrange`` and ``sample`` make, in the order they make it, so a seed
draws the moves those methods would draw.

A state also keeps a spanning tree of each component, taken from
``homology.spanning_tree`` and carried through each split and
contraction; a component's basis is the fundamental basis of its tree,
made by ``homology.cycle_basis`` at each read and never kept.  Such a
move is a homotopy equivalence of one component, and the fundamental
bases of two spanning trees differ by a unimodular change of basis, so
the matrix over the kept bases keeps its divisors.  Each move is
certified in constant time (no passage on the edge it adds or removes,
and a tree one edge short of its component's vertex count); a failed
certificate raises :class:`MoveCheckError`, which names the move.  A
tree that does not span its component fails when its basis is read.

The canonical generator builds, for ranks (m, n) and a divisor chain d, two
bouquets joined by parallel clasps so that loop i of each side links loop i
of the other exactly d_i times.  All diagrams produced here are realizable
by construction.
"""

from __future__ import annotations

import heapq
import random
import re
from bisect import bisect_left, insort
from typing import Iterator, Sequence

from .errors import DomainError, SelfCheckError
from .homology import CycleBasis, cycle_basis, spanning_tree
from .linking import LinkingMatrix, matrix_from_pairs
from .sgd import Component, Diagram, Edge, _is_id, pair_signs, validate
from .value import Value

__all__ = [
    "MoveCheckError",
    "MoveRecord",
    "WalkState",
    "canonical_diagram",
    "random_homotopy_walk",
    "walk_steps",
    "replay_steps",
    "apply_move",
    "format_move",
    "parse_move",
]

# the move kinds, in the order a walk draws from, with the parameters each
# takes; split_vertex lists the ends it moves after its three
_ARITY = {"crossing_change": 1, "clasp": 5, "contract_edge": 1, "split_vertex": 3}
KINDS = tuple(_ARITY)

# a replayed clasp integer: ASCII, as in SGD and matrix files (int() also
# takes other Unicode digits and "_" between digits)
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class MoveRecord(Value):
    """One applied move: kind, its parameter tokens, and whether it
    preserves the divisor-chain invariant."""

    _fields = ("kind", "params", "homotopy_preserving")

    def __init__(self, kind: str, params: tuple[str, ...], homotopy_preserving: bool):
        held = self.__dict__
        held["kind"] = kind
        held["params"] = params
        held["homotopy_preserving"] = homotopy_preserving


class MoveCheckError(SelfCheckError):
    """A move failed its certificate; ``move`` is the move that did."""

    def __init__(self, move: MoveRecord, reason: str):
        self.move = move
        super().__init__(f"{reason}, in move {format_move(move)}")


def _discard(ordered: list[str], item: str) -> None:
    """Remove ``item`` from a sorted list if it is there."""
    i = bisect_left(ordered, item)
    if i < len(ordered) and ordered[i] == item:
        del ordered[i]


class _FreshIds:
    """The smallest unused id of the form ``prefix`` + k, k = 1, 2, ...

    ``used`` is the state's own map of the ids in use, of any form, which
    the pool only reads.  Every k below ``_next`` whose id is unused is in
    the ``_free`` heap (entries used again since are dropped when they
    reach the top), so ids freed by a contraction are handed out again,
    smallest first, without counting up from 1.  An id handed out leaves
    the heap or moves ``_next`` past it, so the crossing pool, which frees
    nothing, hands a clasp two ids on two calls in a row; an id freed twice
    can sit in the heap twice, so the other pools hand out one per split.
    """

    def __init__(self, prefix: str, used):
        self.prefix = prefix
        self._used = used
        self._free: list[int] = []
        self._next = 1

    def new(self) -> str:
        prefix, free, used = self.prefix, self._free, self._used
        # a candidate is popped before its id is tested, so each id is
        # formatted once
        while free:
            s = f"{prefix}{heapq.heappop(free)}"
            if s not in used:
                return s
        k = self._next
        s = f"{prefix}{k}"
        while s in used:
            k += 1
            s = f"{prefix}{k}"
        self._next = k + 1
        return s

    def free(self, s: str) -> None:
        rest = s[len(self.prefix):]
        # f"{prefix}{k}" never has a leading zero; 19 digits are never reached
        if (s.startswith(self.prefix) and rest.isascii() and rest.isdigit()
                and rest[0] != "0" and len(rest) < 19):
            k = int(rest)
            if k < self._next:
                heapq.heappush(self._free, k)


class WalkState:
    """A valid diagram as a mutable working state that moves update in place;
    building one from a diagram that fails ``sgd.validate`` raises
    ``DomainError``.  A diagram ``parse_sgd`` has checked is not validated
    again.

    - Each edge keeps its ends as a mutable ``[tail, head]`` pair, which
      splits and contractions re-attach in place; ``Edge`` values are built
      only when read, by :attr:`edge_map` and :meth:`diagram`.
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
      smallest vertex id, as ``Diagram.components`` numbers them.  A split
      or contraction renumbers them, with a sort, only when it moved its
      component's smallest vertex past a neighbour's.
    - Each component keeps a spanning tree, its edges in join order:
      ``spanning_tree``'s at the start, then wherever the moves took it.
      A split adds its new edge, a contraction removes its edge, or, for
      a non-tree edge, the smallest tree edge on its fundamental cycle.
      :meth:`basis` makes the fundamental basis of the tree with
      ``cycle_basis`` at each read; no basis is kept.
    - With two components the entries of the linking matrix over the kept
      bases are kept once read.  A split or the contraction of a tree edge
      leaves them as they are.  A changed inter-component sign sum, the
      rare contraction of a non-tree edge (which changes the basis) or a
      renumbering of the components drops them, and the next read takes
      them off the sums again.  :meth:`linking_entries` reads kept
      entries with no basis made; :meth:`linking_matrix` makes both bases.
    - The pools of fresh crossing, vertex and edge ids read the state's
      own maps of the ids in use, and keep no set of their own.

    A split or contraction is certified before it returns, and raises
    ``SelfCheckError`` when a check fails: the edge it adds or removes
    carries no passage, and the kept tree has one edge fewer than its
    component has vertices.  A tree that does not span its component
    raises ``SelfCheckError`` when its basis is read.

    :meth:`diagram` builds the ``Diagram`` in time linear in its size.
    """

    def __init__(self, d: Diagram):
        if not d._checked:
            problems = validate(d)
            if problems:
                raise DomainError("invalid diagram: " + "; ".join(v.message for v in problems))
        self._comp_of: dict[str, int] = {}  # vertex -> component key
        self._comp_vertices: list[list[str]] = []
        self._comp_edges: list[list[str]] = []
        self._trees: list[dict[str, None]] = []  # component key -> its tree edges
        for key, comp in enumerate(d.components):
            self._comp_of.update(dict.fromkeys(comp.vertices, key))
            self._comp_vertices.append(list(comp.vertices))
            self._comp_edges.append(list(comp.edge_ids))
            self._trees.append(dict.fromkeys(spanning_tree(d, key + 1)))
        self._order = list(range(len(self._comp_vertices)))  # keys by number
        self._vertices = list(d.vertices)
        self._edges = {e.id: [e.tail, e.head] for e in d.edges}  # edge -> [tail, head]
        self._ends: dict[str, set[tuple[str, str]]] = {v: set() for v in d.vertices}
        slots: dict[str, list] = {eid: [] for eid in self._edges}
        self._crossings: dict[str, list] = {}  # xid -> [edge of end 0, of end 1, over end, sign]
        self._intra: list[str] = []
        for e in d.edges:
            self._ends[e.tail].add((e.id, "tail"))
            self._ends[e.head].add((e.id, "head"))
        inter = []
        for row in d.rows:
            xid, over, over_idx, under, under_idx, sign = row
            self._crossings[xid] = [over, under, 0, sign]
            slots[over].append((over_idx, (xid, 0)))
            slots[under].append((under_idx, (xid, 1)))
            if self._comp(over) == self._comp(under):
                self._intra.append(xid)
            else:
                inter.append(row)
        self._passages = {eid: [end for _, end in sorted(s)] for eid, s in slots.items()}
        self.pair_signs = pair_signs(inter)
        self._contractible = [e.id for e in d.edges
                              if e.tail != e.head and not self._passages[e.id]]
        self._xids = _FreshIds("x", self._crossings)
        self._vids = _FreshIds("v", self._ends)
        self._eids = _FreshIds("e", self._edges)
        self._entries: tuple | None = None  # the matrix over the kept bases; None when stale

    # -- reading --------------------------------------------------------

    def _comp(self, eid: str) -> int:
        ends = self._edges.get(eid)
        if ends is None:
            raise DomainError(f"unknown edge {eid!r}")
        return self._comp_of[ends[0]]

    @property
    def edge_map(self) -> dict[str, Edge]:
        """Edge id -> ``Edge``, as ``Diagram.edge_map``: a new map, built
        from the ends the state holds when read."""
        return {eid: Edge(eid, tail, head) for eid, (tail, head) in self._edges.items()}

    def _key(self, k: int) -> int:
        """The key of component number ``k``."""
        if not 1 <= k <= len(self._order):
            raise DomainError(f"no such component {k} (diagram has {len(self._order)})")
        return self._order[k - 1]

    def component(self, k: int) -> Component:
        """Component number ``k`` as ``Diagram.component`` gives it."""
        key = self._key(k)
        return Component(k, tuple(self._comp_vertices[key]), tuple(self._comp_edges[key]))

    def basis(self, k: int) -> CycleBasis:
        """The kept basis of component ``k``: ``cycle_basis`` over the
        spanning tree the state keeps, which starts as the default tree and
        then goes wherever the graph moves take it, so it is in general not
        the default basis of the diagram the state has become.  Made anew at
        each read.  A kept tree that does not span the component raises
        ``SelfCheckError``."""
        key = self._key(k)
        try:
            return cycle_basis(self, k, tree=tuple(self._trees[key]))
        except DomainError as exc:
            raise SelfCheckError(f"the tree kept for component {k}: {exc}") from None

    def linking_entries(self) -> tuple[tuple[int, ...], ...]:
        """The entries of the linking matrix over the kept bases: the kept
        ones, with no basis made, or, after a move dropped them, those
        :meth:`linking_matrix` reads off the running sign sums.

        A move that changed a sign sum, renumbered the components or
        contracted a non-tree edge drops them.  A split or the contraction
        of a tree edge changes the cycles only on an edge without passages
        and keeps their order, so the entries stay as they were, over the
        new bases."""
        entries = self._entries
        return self.linking_matrix().entries if entries is None else entries

    def linking_matrix(self) -> LinkingMatrix:
        """The linking matrix over the kept bases, each made once here: the
        kept entries, or, when a move dropped them, the entries read off
        the running sign sums over those bases, which are kept again."""
        if len(self._order) != 2:
            raise DomainError(f"diagram has {len(self._order)} components, expected 2")
        b1, b2 = self.basis(1), self.basis(2)
        if self._entries is None:
            mat = matrix_from_pairs(self.pair_signs, b1, b2)
            self._entries = mat.entries
            return mat
        return LinkingMatrix(len(b1.cycles), len(b2.cycles), self._entries, b1, b2)

    def diagram(self) -> Diagram:
        """The ``Diagram`` this state holds now."""
        at = {}
        for eid, ends in self._passages.items():
            for i, end in enumerate(ends):
                at[end] = (eid, i)
        rows = [(xid, *at[xid, over], *at[xid, 1 - over], sign)
                for xid, (_, _, over, sign) in self._crossings.items()]
        return Diagram(self._vertices, self.edge_map.values(), rows)

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
            self._add_signs(o, u, -sign)
            self._entries = None

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
            self._add_signs(e, f, eps)
            self._entries = None

    def contract_edge(self, eid: str) -> None:
        """Contract a crossing-free non-loop edge, merging its head into its tail.

        Component count, component ranks, and the divisor-chain invariant are
        all unchanged.  Edges carrying passages cannot be contracted: that
        would require sliding crossings along the edge.
        """
        keep, drop = self._contractible_edge(eid)
        key = self._comp_of.pop(drop)
        tree = self._trees[key]
        rebased = eid not in tree
        if rebased:
            # the smallest tree edge on the edge's fundamental cycle, read
            # before the graph changes, leaves the tree
            basis = self.basis(self._order.index(key) + 1)
            z = next(c.coeffs for c in basis.cycles if eid in c.coeffs)
            del tree[min(x for x in z if x != eid)]
        else:
            del tree[eid]
        del self._edges[eid]
        passages = self._passages.pop(eid)
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
        self._graph_moved(key, eid, passages, rebased)

    def _contractible_edge(self, eid: str) -> list[str]:
        """The ``[tail, head]`` of edge ``eid``, if it can be contracted."""
        ends = self._edges.get(eid)
        if ends is None:
            raise DomainError(f"unknown edge {eid!r}")
        if ends[0] == ends[1]:
            raise DomainError(f"cannot contract loop {eid!r}")
        if self._passages[eid]:
            raise DomainError(f"cannot contract edge {eid!r}: it carries crossing passages")
        return ends

    def split_vertex(self, vid: str, moved: Sequence[tuple[str, str]], new_vid: str,
                     new_eid: str) -> None:
        """Split a vertex in two, joined by a fresh crossing-free edge.

        ``moved`` lists edge ends incident to ``vid`` (pairs of edge id and
        "tail"/"head"; a loop has both its ends there), each at most once.
        They move to ``new_vid``, the other ends stay at ``vid``, and the new
        edge runs from ``vid`` to ``new_vid``, so contracting it undoes the
        split.  Both new ids must be SGD identifiers.
        """
        if vid not in self._ends:
            raise DomainError(f"unknown vertex {vid!r}")
        for new in (new_vid, new_eid):
            if not (isinstance(new, str) and _is_id(new)):
                raise DomainError(f"identifier {new!r} is not an [A-Za-z0-9_]+ token")
        if new_vid in self._ends:
            raise DomainError(f"vertex id {new_vid!r} already in use")
        if new_eid in self._edges:
            raise DomainError(f"edge id {new_eid!r} already in use")
        ends, away = self._ends[vid], set(moved)
        # ends at vid only, each listed once; the ends not listed stay
        if len(away) != len(moved) or not away <= ends:
            raise DomainError("partition must cover the incident edge-ends exactly once")
        key = self._comp_of[vid]
        self._trees[key][new_eid] = None
        self._comp_of[new_vid] = key
        self._move_ends(away, new_vid)
        ends -= away
        ends.add((new_eid, "tail"))
        away.add((new_eid, "head"))
        self._ends[new_vid] = away
        self._edges[new_eid] = [vid, new_vid]
        self._passages[new_eid] = []
        insort(self._contractible, new_eid)
        insort(self._vertices, new_vid)
        insort(self._comp_vertices[key], new_vid)
        insort(self._comp_edges[key], new_eid)
        self._graph_moved(key, new_eid, self._passages[new_eid])

    def _add_signs(self, a: str, b: str, s: int) -> None:
        """Add ``s`` to the sign sums of (a, b) and of (b, a), dropping a sum
        that reaches 0."""
        sums = self.pair_signs
        for key in ((a, b), (b, a)):
            total = sums.get(key, 0) + s
            if total:
                sums[key] = total
            else:
                sums.pop(key, None)

    def _move_ends(self, ends, vid: str) -> None:
        """Re-attach edge ends to ``vid``, keeping the contractible edges
        current (an end moved can make a loop or undo one)."""
        for x, side in ends:
            pair, free = self._edges[x], not self._passages[x]
            was = free and pair[0] != pair[1]
            pair[side == "head"] = vid
            now = free and pair[0] != pair[1]
            if now and not was:
                insort(self._contractible, x)
            elif was and not now:
                _discard(self._contractible, x)

    def _graph_moved(self, key: int, eid: str, passages, rebased: bool = False) -> None:
        """Certify a split or contraction of component ``key`` that added or
        removed edge ``eid``, whose passages were ``passages``, and renumber
        the components.  A non-tree contraction (``rebased``) or a
        renumbering drops the matrix."""
        if passages:
            raise SelfCheckError(f"the edge {eid!r} added or removed carries crossing passages")
        order, comp_vertices = self._order, self._comp_vertices
        i = order.index(key)
        edges, vertices = len(self._trees[key]), len(comp_vertices[key])
        if edges != vertices - 1:
            raise SelfCheckError(f"the tree kept for component {i + 1} "
                                 f"has {edges} edges for {vertices} vertices")
        # only this component's first vertex can have changed, so the
        # order holds unless it passed a neighbour's
        first = comp_vertices[key][0]
        if ((i and comp_vertices[order[i - 1]][0] > first)
                or (i + 1 < len(order) and first > comp_vertices[order[i + 1]][0])):
            order.sort(key=lambda k: comp_vertices[k][0])
            self._entries = None
        elif rebased:
            self._entries = None

    # -- move records ---------------------------------------------------

    def read(self, kind: str, params: tuple[str, ...]) -> tuple[MoveRecord, tuple]:
        """A move given as tokens, as :func:`format_move` writes them: its
        record, with whether it preserves the invariant here, and the
        arguments of its method.  Rejects, in this order, an unknown kind, a
        wrong parameter count, an unknown crossing or clasp edge and clasp
        integers that are not ASCII decimals; the method checks the rest."""
        arity = _ARITY.get(kind)
        if arity is None:
            raise DomainError(f"unknown move kind {kind!r}")
        p = params
        if len(p) < arity:
            raise DomainError(f"move {kind!r} is missing parameters")
        if len(p) > arity and kind != "split_vertex":
            raise DomainError(f"move {kind!r} has {len(p)} parameters, expected {arity}")
        preserving = True
        if kind == "crossing_change":
            c = self._crossings.get(p[0])
            if c is None:
                raise DomainError(f"unknown crossing {p[0]!r}")
            preserving = self._comp(c[0]) == self._comp(c[1])
            args = p
        elif kind == "clasp":
            preserving = self._comp(p[0]) == self._comp(p[2])
            try:
                if not (_INT_RE.match(p[1]) and _INT_RE.match(p[3]) and _INT_RE.match(p[4])):
                    raise ValueError
                args = (p[0], int(p[1]), p[2], int(p[3]), int(p[4]))
            except ValueError:  # an odd spelling, or past the int/str digit limit
                raise DomainError(f"bad clasp parameters {' '.join(p)!r}") from None
        elif kind == "contract_edge":
            args = p
        else:
            args = (p[0], [tuple(tok.split(".", 1)) for tok in p[3:]], p[1], p[2])
        return MoveRecord(kind, p, preserving), args

    def apply(self, move: MoveRecord) -> None:
        """Apply one recorded move, read as a replay reads it; a failed
        certificate raises :class:`MoveCheckError` naming it."""
        self._run(*self.read(move.kind, move.params))

    def _run(self, move: MoveRecord, args: tuple) -> None:
        """Apply ``move``: its method on ``args``.  A failed certificate
        raises :class:`MoveCheckError` naming the move."""
        try:
            getattr(self, move.kind)(*args)
        except SelfCheckError as exc:
            raise MoveCheckError(move, str(exc)) from None

    def sample(self, rng: random.Random) -> tuple[MoveRecord, tuple] | None:
        """One attempt at drawing an applicable homotopy-preserving move:
        its record and the arguments of its method, as :meth:`read` gives
        them.  Every move drawn lies within one component, so the record
        says it preserves the invariant.  Candidates are taken in id order,
        so a seed draws the same moves whatever the state's history.

        Each integer is drawn with one call to ``rng._randbelow``, the call
        that ``choice``, ``randrange`` and ``sample`` make for it, in the
        order they make it, so a seed draws the moves those methods would:
        ``seq[below(len(seq))]`` is ``choice(seq)``, ``below(n)`` is
        ``randrange(n)``, and a pair of distinct edges is drawn as
        ``sample(edge_ids, 2)`` draws it.  A split's ends are kept with
        ``rng.random()``.  A state with no vertex raises ``DomainError``
        before anything is drawn."""
        if not self._vertices:
            raise DomainError("a walk needs a vertex to split")
        below = rng._randbelow
        kind = KINDS[below(len(KINDS))]
        if kind == "crossing_change":
            intra = self._intra
            if not intra:
                return None
            args = tokens = (intra[below(len(intra))],)
        elif kind == "clasp":
            order = self._order
            edge_ids = self._comp_edges[order[below(len(order))]]
            n = len(edge_ids)
            if n < 2:
                return None
            # sample(edge_ids, 2): up to 21 edges it draws from a pool whose
            # slot i takes the last edge, above that it draws again on i
            i = below(n)
            if n <= 21:
                j = below(n - 1)
                if j == i:
                    j = n - 1
            else:
                j = below(n)
                while j == i:
                    j = below(n)
            e, f = edge_ids[i], edge_ids[j]
            # below(n + 1) draws as randint(0, n) does
            pos_e = below(len(self._passages[e]) + 1)
            pos_f = below(len(self._passages[f]) + 1)
            eps = (1, -1)[below(2)]
            args = (e, pos_e, f, pos_f, eps)
            tokens = (e, str(pos_e), f, str(pos_f), str(eps))
        elif kind == "contract_edge":
            contractible = self._contractible
            if not contractible:
                return None
            args = tokens = (contractible[below(len(contractible))],)
        else:  # split_vertex: always applicable
            vid = self._vertices[below(len(self._vertices))]
            new_vid, new_eid = self._vids.new(), self._eids.new()
            draw = rng.random
            moved = [end for end in sorted(self._ends[vid]) if draw() < 0.5]
            args = (vid, moved, new_vid, new_eid)
            tokens = (vid, new_vid, new_eid, *(f"{eid}.{side}" for eid, side in moved))
        return MoveRecord(kind, tokens, True), args


def apply_move(d: Diagram, move: MoveRecord) -> Diagram:
    """Replay one recorded move on a diagram."""
    state = WalkState(d)
    state.apply(move)
    return state.diagram()


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
    rows = []
    for a, b, di in zip(loops_a, loops_b, chain):
        for p in range(0, 2 * di, 2):
            t = len(rows)
            rows.append((f"x{t + 1}", a, p, b, p, 1))
            rows.append((f"x{t + 2}", b, p + 1, a, p + 1, 1))
    return Diagram(
        ("u1", "u2"),
        [Edge(eid, "u1", "u1") for eid in loops_a] + [Edge(eid, "u2", "u2") for eid in loops_b],
        rows,
    )


def format_move(move: MoveRecord) -> str:
    return " ".join((move.kind,) + move.params)


def parse_move(line: str) -> tuple[str, tuple[str, ...]]:
    """Split a move line into (kind, params); validation happens on apply."""
    toks = line.split()
    if not toks or toks[0] not in KINDS:
        raise DomainError(f"bad move line {line!r}")
    return toks[0], tuple(toks[1:])


def walk_steps(d: Diagram | WalkState, steps: int,
               seed: int) -> Iterator[tuple[MoveRecord, WalkState]]:
    """Yield (record, state) after each move of a random homotopy walk.

    Moves are drawn from the four homotopy-preserving families: crossing
    changes within one component, clasps within one component, contractions
    of crossing-free edges, and vertex splittings.  Kinds are sampled
    uniformly and inapplicable draws are skipped; vertex splitting is always
    applicable, so the walk always completes on a diagram with a vertex;
    on one without, it raises ``DomainError``.  Reproducible from the seed.
    Every item carries the same :class:`WalkState`, updated in place; call
    its ``diagram()`` for a ``Diagram`` of a step.  ``d`` may be such a
    state already, which the walk then updates.  Every split and
    contraction is certified, and a failed certificate raises
    :class:`MoveCheckError`.
    """
    rng = random.Random(seed)
    state = d if isinstance(d, WalkState) else WalkState(d)
    sample, run = state.sample, state._run
    for _ in range(steps):
        drawn = sample(rng)
        while drawn is None:
            drawn = sample(rng)
        run(*drawn)
        yield drawn[0], state


def replay_steps(d: Diagram | WalkState, text: str) -> Iterator[tuple[MoveRecord, WalkState]]:
    """Yield (record, state) after each move of a move list, one move per
    line as :func:`format_move` writes it; ``#`` comments and blank lines
    are skipped.  Lines are parsed lazily, so the moves before a bad line
    are all applied first.  As in :func:`walk_steps`, every item carries
    the same state, updated in place, and ``d`` may be that state."""
    state = d if isinstance(d, WalkState) else WalkState(d)
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        move, args = state.read(*parse_move(line))
        state._run(move, args)
        yield move, state


def random_homotopy_walk(d: Diagram, steps: int, seed: int) -> tuple[Diagram, list[MoveRecord]]:
    """Apply ``steps`` random homotopy-preserving moves; returns the final
    diagram and the move list for replay."""
    records = []
    state = None
    for rec, state in walk_steps(d, steps, seed):
        records.append(rec)
    return (d if state is None else state.diagram()), records
