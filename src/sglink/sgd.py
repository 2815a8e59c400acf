"""Combinatorial spatial-graph diagrams and their line-oriented text format.

A diagram is a Gauss-code-like object: vertices, oriented edges, and signed
crossings between edge passages.  Each edge carries an ordered sequence of
crossing passages indexed 0..p-1 along its tail-to-head traversal; every
passage is referenced by exactly one crossing, as its over or under strand.
A crossing's sign is +1 when the ordered pair (over-strand tangent,
under-strand tangent), both taken tail-to-head, forms a right-handed planar
frame.  Planar realizability is not certified here; the linking module
offers an over/under-count comparison as a necessary condition.

The SGD text format is line oriented and UTF-8.  ``#`` starts a comment,
blank lines are ignored, and the first significant line must be the header
``sgd 1``.  Declarations come in order: vertices, then edges, then
crossings; forward references are errors.

    sgd 1
    vertex <vid>
    edge <eid> <tail-vid> <head-vid>
    crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->

Identifiers are opaque ASCII tokens matching [A-Za-z0-9_]+.  Serialization
is canonical (identifiers emitted in sorted order), so structurally equal
diagrams produce identical bytes.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, SgdParseError

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN_RE = re.compile(r"\S+")

SGD_HEADER = "sgd 1"


@dataclass(frozen=True)
class Edge:
    """Oriented edge; tail == head is a loop."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Crossing:
    """Signed crossing between two (edge id, passage index) references."""

    id: str
    over: tuple[str, int]
    under: tuple[str, int]
    sign: int


@dataclass(frozen=True)
class Component:
    """One connected component of the abstract graph, 1-based index."""

    index: int
    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]


@dataclass(frozen=True)
class Violation:
    """A named invariant breach tied to the offending entity."""

    code: str
    entity: str
    message: str


@dataclass(frozen=True)
class Diagram:
    """Immutable diagram value; constituents are normalized to sorted order."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...] = ()
    crossings: tuple[Crossing, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        object.__setattr__(self, "crossings", tuple(sorted(self.crossings, key=lambda c: c.id)))

    @cached_property
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def crossing_map(self) -> dict[str, Crossing]:
        return {c.id: c for c in self.crossings}

    @cached_property
    def passage_counts(self) -> dict[str, int]:
        counts = {e.id: 0 for e in self.edges}
        for c in self.crossings:
            for eid, _ in (c.over, c.under):
                if eid in counts:
                    counts[eid] += 1
        return counts

    def passage_count(self, eid: str) -> int:
        if eid not in self.passage_counts:
            raise DomainError(f"unknown edge {eid!r}")
        return self.passage_counts[eid]

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Connected components of the abstract graph, sorted by their
        lexicographically smallest vertex id and numbered from 1."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.edges:
            if e.tail in parent and e.head in parent:
                parent[find(e.tail)] = find(e.head)
        groups: dict[str, list[str]] = defaultdict(list)
        for v in self.vertices:
            groups[find(v)].append(v)
        parts = sorted(groups.values(), key=lambda vs: vs[0])
        members = {v: i for i, vs in enumerate(parts) for v in vs}
        edge_groups: dict[int, list[str]] = defaultdict(list)
        for e in self.edges:
            if e.tail in members:
                edge_groups[members[e.tail]].append(e.id)
        return tuple(
            Component(i + 1, tuple(vs), tuple(sorted(edge_groups.get(i, ()))))
            for i, vs in enumerate(parts)
        )

    @cached_property
    def _edge_component(self) -> dict[str, int]:
        return {eid: comp.index for comp in self.components for eid in comp.edge_ids}

    def component_of_edge(self, eid: str) -> int:
        if eid not in self._edge_component:
            raise DomainError(f"unknown edge {eid!r}")
        return self._edge_component[eid]

    def component_of_vertex(self, vid: str) -> int:
        for comp in self.components:
            if vid in comp.vertices:
                return comp.index
        raise DomainError(f"unknown vertex {vid!r}")

    def component(self, index: int) -> Component:
        if not 1 <= index <= len(self.components):
            raise DomainError(
                f"no such component {index} (diagram has {len(self.components)})"
            )
        return self.components[index - 1]


def validate(d: Diagram) -> list[Violation]:
    """Check every diagram invariant; an empty list means the diagram is valid.

    Violations are data, not errors.  Codes: ``bad-identifier``,
    ``duplicate-id``, ``dangling-vertex``, ``dangling-edge``,
    ``crossing-degenerate``, ``bad-sign``, ``passage-duplicate`` and
    ``passage-gap``.
    """
    out: list[Violation] = []
    for token in (*d.vertices, *(e.id for e in d.edges), *(c.id for c in d.crossings)):
        if not _ID_RE.match(token):
            out.append(
                Violation("bad-identifier", token,
                          f"identifier {token!r} is not an [A-Za-z0-9_]+ token")
            )
    seen_v: set[str] = set()
    for v in d.vertices:
        if v in seen_v:
            out.append(Violation("duplicate-id", v, f"vertex id {v!r} declared twice"))
        seen_v.add(v)
    seen_e: set[str] = set()
    for e in d.edges:
        if e.id in seen_e:
            out.append(Violation("duplicate-id", e.id, f"edge id {e.id!r} declared twice"))
        seen_e.add(e.id)
        for endpoint in (e.tail, e.head):
            if endpoint not in seen_v:
                out.append(
                    Violation("dangling-vertex", e.id,
                              f"edge {e.id!r} references missing vertex {endpoint!r}")
                )
    refs: dict[str, list[int]] = defaultdict(list)
    seen_x: set[str] = set()
    for c in d.crossings:
        if c.id in seen_x:
            out.append(Violation("duplicate-id", c.id, f"crossing id {c.id!r} declared twice"))
        seen_x.add(c.id)
        if c.sign not in (1, -1):
            out.append(Violation("bad-sign", c.id, f"crossing {c.id!r} sign must be +1 or -1"))
        if c.over == c.under:
            out.append(
                Violation("crossing-degenerate", c.id,
                          f"crossing {c.id!r} over and under reference the same passage")
            )
        for eid, idx in (c.over, c.under):
            if eid not in seen_e:
                out.append(
                    Violation("dangling-edge", c.id,
                              f"crossing {c.id!r} references missing edge {eid!r}")
                )
            else:
                refs[eid].append(idx)
    for eid in sorted(refs):
        indices = refs[eid]
        dups = sorted(i for i, k in Counter(indices).items() if k > 1)
        if dups:
            out.append(
                Violation("passage-duplicate", eid,
                          f"edge {eid!r} passage indices used twice: {dups}")
            )
        elif sorted(indices) != list(range(len(indices))):
            out.append(
                Violation("passage-gap", eid,
                          f"edge {eid!r} passage indices {sorted(indices)} are not 0..{len(indices) - 1}")
            )
    return out


def _error(message: str, raw: str, lineno: int, k: int) -> SgdParseError:
    """The error for token ``k`` of a rejected line.  Tokens carry no
    positions, so the column is worked out here, from that one line (a
    comment only follows the tokens that count)."""
    starts = [m.start() for m in _TOKEN_RE.finditer(raw)]
    return SgdParseError(message, lineno, starts[k] + 1)


def _check_id(words: list[str], k: int, raw: str, lineno: int) -> str:
    if not _ID_RE.match(words[k]):
        raise _error(f"bad identifier {words[k]!r}", raw, lineno, k)
    return words[k]


def parse_sgd(text: str, check: bool = True) -> Diagram:
    """Parse SGD text into a Diagram.

    Syntax problems (bad tokens, wrong declaration order, duplicate or
    forward references) raise SgdParseError with the line and column.  With
    ``check`` (the default) the structural invariants are also enforced and
    their violations raised; pass ``check=False`` to obtain the raw diagram
    for use with :func:`validate`.
    """
    # declarations so far, keyed by id in file order
    vertices: dict[str, None] = {}
    edges: dict[str, Edge] = {}
    crossings: dict[str, Crossing] = {}
    saw_header = False
    section = "vertex"  # advances vertex -> edge -> crossing

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if not saw_header:
            if words != SGD_HEADER.split():
                raise _error(f"expected header {SGD_HEADER!r}", raw, lineno, 0)
            saw_header = True
            continue
        kind = words[0]

        if kind == "vertex":
            if section != "vertex":
                raise _error("vertex declared after edges or crossings", raw, lineno, 0)
            if len(words) != 2:
                raise _error("expected: vertex <vid>", raw, lineno, 0)
            vid = _check_id(words, 1, raw, lineno)
            if vid in vertices:
                raise _error(f"duplicate vertex id {vid!r}", raw, lineno, 1)
            vertices[vid] = None
        elif kind == "edge":
            if section == "crossing":
                raise _error("edge declared after crossings", raw, lineno, 0)
            section = "edge"
            if len(words) != 4:
                raise _error("expected: edge <eid> <tail> <head>", raw, lineno, 0)
            eid = _check_id(words, 1, raw, lineno)
            if eid in edges:
                raise _error(f"duplicate edge id {eid!r}", raw, lineno, 1)
            tail = _check_id(words, 2, raw, lineno)
            head = _check_id(words, 3, raw, lineno)
            for k in (2, 3):
                if words[k] not in vertices:
                    raise _error(f"edge references undeclared vertex {words[k]!r}", raw, lineno, k)
            edges[eid] = Edge(eid, tail, head)
        elif kind == "crossing":
            section = "crossing"
            if len(words) != 10 or words[2] != "over" or words[5] != "under" or words[8] != "sign":
                raise _error(
                    "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->",
                    raw, lineno, 0,
                )
            xid = _check_id(words, 1, raw, lineno)
            if xid in crossings:
                raise _error(f"duplicate crossing id {xid!r}", raw, lineno, 1)
            refs = []
            for k in (3, 6):
                eid = _check_id(words, k, raw, lineno)
                if eid not in edges:
                    raise _error(f"crossing references undeclared edge {eid!r}", raw, lineno, k)
                idx = words[k + 1]
                if not (idx.isascii() and idx.isdigit()):
                    raise _error(f"bad passage index {idx!r}", raw, lineno, k + 1)
                refs.append((eid, int(idx)))
            sign = words[9]
            if sign not in ("+", "-"):
                raise _error(f"bad sign {sign!r}, expected + or -", raw, lineno, 9)
            crossings[xid] = Crossing(xid, refs[0], refs[1], 1 if sign == "+" else -1)
        else:
            raise _error(f"unknown declaration {kind!r}", raw, lineno, 0)

    if not saw_header:
        raise SgdParseError(f"missing header {SGD_HEADER!r}", 1, 1)
    d = Diagram(tuple(vertices), tuple(edges.values()), tuple(crossings.values()))
    if check:
        problems = validate(d)
        if problems:
            detail = "; ".join(v.message for v in problems)
            raise SgdParseError(f"invalid diagram: {detail}")
    return d


def serialize_sgd(d: Diagram) -> str:
    """Canonical SGD text for a diagram; equal diagrams yield identical bytes.

    Vertices, edges and crossings are written in the order the diagram
    holds them, which ``Diagram`` normalises to sorted order by id.
    """
    lines = [SGD_HEADER]
    for v in d.vertices:
        lines.append(f"vertex {v}")
    for e in d.edges:
        lines.append(f"edge {e.id} {e.tail} {e.head}")
    for c in d.crossings:
        sign = "+" if c.sign > 0 else "-"
        lines.append(
            f"crossing {c.id} over {c.over[0]} {c.over[1]} "
            f"under {c.under[0]} {c.under[1]} sign {sign}"
        )
    return "\n".join(lines) + "\n"
