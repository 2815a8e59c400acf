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


def _check_id(token: str, line: int, col: int) -> str:
    if not _ID_RE.match(token):
        raise SgdParseError(f"bad identifier {token!r}", line, col)
    return token


def parse_sgd(text: str, check: bool = True) -> Diagram:
    """Parse SGD text into a Diagram.

    Syntax problems (bad tokens, wrong declaration order, duplicate or
    forward references) raise SgdParseError with the line and column.  With
    ``check`` (the default) the structural invariants are also enforced and
    their violations raised; pass ``check=False`` to obtain the raw diagram
    for use with :func:`validate`.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    crossings: list[Crossing] = []
    vertex_ids: set[str] = set()
    edge_ids: set[str] = set()
    crossing_ids: set[str] = set()
    saw_header = False
    section = "vertex"  # advances vertex -> edge -> crossing

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if not toks:
            continue
        if not saw_header:
            if [t for t, _ in toks] != SGD_HEADER.split():
                raise SgdParseError(f"expected header {SGD_HEADER!r}", lineno, toks[0][1])
            saw_header = True
            continue
        kind, kind_col = toks[0]
        words = [t for t, _ in toks]

        if kind == "vertex":
            if section != "vertex":
                raise SgdParseError("vertex declared after edges or crossings", lineno, kind_col)
            if len(words) != 2:
                raise SgdParseError("expected: vertex <vid>", lineno, kind_col)
            vid = _check_id(toks[1][0], lineno, toks[1][1])
            if vid in vertex_ids:
                raise SgdParseError(f"duplicate vertex id {vid!r}", lineno, toks[1][1])
            vertex_ids.add(vid)
            vertices.append(vid)
        elif kind == "edge":
            if section == "crossing":
                raise SgdParseError("edge declared after crossings", lineno, kind_col)
            section = "edge"
            if len(words) != 4:
                raise SgdParseError("expected: edge <eid> <tail> <head>", lineno, kind_col)
            eid = _check_id(toks[1][0], lineno, toks[1][1])
            if eid in edge_ids:
                raise SgdParseError(f"duplicate edge id {eid!r}", lineno, toks[1][1])
            tail = _check_id(toks[2][0], lineno, toks[2][1])
            head = _check_id(toks[3][0], lineno, toks[3][1])
            for vid, col in ((tail, toks[2][1]), (head, toks[3][1])):
                if vid not in vertex_ids:
                    raise SgdParseError(f"edge references undeclared vertex {vid!r}", lineno, col)
            edge_ids.add(eid)
            edges.append(Edge(eid, tail, head))
        elif kind == "crossing":
            section = "crossing"
            if len(words) != 10 or words[2] != "over" or words[5] != "under" or words[8] != "sign":
                raise SgdParseError(
                    "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->",
                    lineno, kind_col,
                )
            xid = _check_id(toks[1][0], lineno, toks[1][1])
            if xid in crossing_ids:
                raise SgdParseError(f"duplicate crossing id {xid!r}", lineno, toks[1][1])
            refs = []
            for eid_tok, idx_tok in ((toks[3], toks[4]), (toks[6], toks[7])):
                eid = _check_id(eid_tok[0], lineno, eid_tok[1])
                if eid not in edge_ids:
                    raise SgdParseError(f"crossing references undeclared edge {eid!r}",
                                        lineno, eid_tok[1])
                if not (idx_tok[0].isascii() and idx_tok[0].isdigit()):
                    raise SgdParseError(f"bad passage index {idx_tok[0]!r}", lineno, idx_tok[1])
                refs.append((eid, int(idx_tok[0])))
            sign_tok, sign_col = toks[9]
            if sign_tok not in ("+", "-"):
                raise SgdParseError(f"bad sign {sign_tok!r}, expected + or -", lineno, sign_col)
            crossing_ids.add(xid)
            crossings.append(Crossing(xid, refs[0], refs[1], 1 if sign_tok == "+" else -1))
        else:
            raise SgdParseError(f"unknown declaration {kind!r}", lineno, kind_col)

    if not saw_header:
        raise SgdParseError(f"missing header {SGD_HEADER!r}", 1, 1)
    d = Diagram(tuple(vertices), tuple(edges), tuple(crossings))
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
