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

A crossing is one plain row ``(id, over edge, over index, under edge,
under index, sign)``; a ``Diagram`` holds its rows in id order
(``Diagram.rows``).  The parser, the sign sums, validation, serialization
and the move engine all read and write rows, the one crossing form.

:func:`validate` lists every violation in one pass over the diagram.  The
parser checks each line as it reads it, which rules out every violation
but the degenerate crossings and passage indices, and tests those on the
indices it collected; it calls :func:`validate` only to word its error.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import NoReturn

from .errors import DomainError, SelfCheckError, SgdParseError
from .value import Value

_ID = r"[A-Za-z0-9_]+"
_ID_RE = re.compile(_ID + r"\Z")
_TOKEN_RE = re.compile(r"\S+")
# A whole declaration line in one match: keywords, identifiers, ASCII
# digits and sign, separated by what str.split splits on, then an optional
# comment.  Groups 1, 2-4 and 5-10 hold the fields of a vertex, edge and
# crossing line, and the last group to match names the line's kind; a
# blank or comment-only line matches with none.  Every token class
# excludes blanks, so a failed match backtracks in time linear in the line.
_LINE_RE = re.compile(
    rf"\s*(?:(?:vertex\s+(?P<vertex>{_ID})"
    rf"|edge\s+({_ID})\s+({_ID})\s+(?P<edge>{_ID})"
    rf"|crossing\s+({_ID})\s+over\s+({_ID})\s+([0-9]+)\s+under\s+({_ID})\s+([0-9]+)"
    r"\s+sign\s+(?P<crossing>[+-]))\s*)?(?:#.*)?",
    re.DOTALL,
)

SGD_HEADER = "sgd 1"


class Edge(Value):
    """Oriented edge; tail == head is a loop."""

    _fields = ("id", "tail", "head")

    def __init__(self, id: str, tail: str, head: str):
        held = self.__dict__
        held["id"] = id
        held["tail"] = tail
        held["head"] = head


class Component(Value):
    """One connected component of the abstract graph, 1-based index."""

    _fields = ("index", "vertices", "edge_ids")

    def __init__(self, index: int, vertices: tuple[str, ...], edge_ids: tuple[str, ...]):
        held = self.__dict__
        held["index"] = index
        held["vertices"] = vertices
        held["edge_ids"] = edge_ids


class Violation(Value):
    """A named invariant breach tied to the offending entity."""

    _fields = ("code", "entity", "message")

    def __init__(self, code: str, entity: str, message: str):
        held = self.__dict__
        held["code"] = code
        held["entity"] = entity
        held["message"] = message


def pair_signs(rows) -> dict[tuple[str, str], int]:
    """Sum of the crossing signs per (over edge, under edge) pair, over
    crossing rows as :attr:`Diagram.rows` holds them."""
    sums: dict[tuple[str, str], int] = {}
    for _, over, _, under, _, sign in rows:
        key = (over, under)
        sums[key] = sums.get(key, 0) + sign
    return sums


class Diagram(Value):
    """Immutable diagram value: vertex ids, edges and crossing rows
    ``(id, over edge, over index, under edge, under index, sign)``, each
    held in sorted id order (a stable sort, linear on input already in
    order).  ``Diagram(vertices, edges, rows)`` takes ``Edge`` objects and
    rows as given, and keeps rows that cannot be sorted by id in the order
    given; :func:`validate` checks a diagram built so.  Two
    diagrams are equal, and hash alike, when their vertices, edges and
    rows are equal.
    """

    _fields = ("vertices", "edges", "rows")

    # set by parse_sgd(check=True) on a diagram it returns: such a diagram
    # has passed every check validate() runs
    _checked = False

    def __init__(self, vertices, edges=(), rows=()):
        held = self.__dict__
        held["vertices"] = tuple(sorted(vertices))
        held["edges"] = tuple(sorted(edges, key=attrgetter("id")))
        rows = tuple(rows)
        try:
            rows = tuple(sorted(rows, key=itemgetter(0)))
        except (LookupError, TypeError):  # a row validate reports as bad-row
            pass
        held["rows"] = rows

    @cached_property
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def sign_sums(self) -> dict[tuple[str, str], int]:
        """:func:`pair_signs` of the crossings, made once and shared by every
        count over this diagram; read it, never change it."""
        return pair_signs(self.rows)

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

    def component(self, index: int) -> Component:
        if not 1 <= index <= len(self.components):
            raise DomainError(
                f"no such component {index} (diagram has {len(self.components)})"
            )
        return self.components[index - 1]


_ROW_TYPES = (str, str, int, str, int, int)  # a crossing row's fields


def validate(d: Diagram) -> list[Violation]:
    """Check every diagram invariant; an empty list means the diagram is valid.

    Violations are data, not errors.  Codes: ``bad-identifier``,
    ``duplicate-id``, ``dangling-vertex``, ``dangling-edge``, ``bad-row``,
    ``crossing-degenerate``, ``bad-sign``, ``passage-duplicate`` and
    ``passage-gap``.  They are listed identifiers first, then vertices,
    edges and crossings in the diagram's order, then passage indices by
    edge id.  A crossing lists its duplicate id, bad sign, degeneracy and
    dangling edges in that order.  A row that is not a 6-tuple (str id,
    str edge, int index, str edge, int index, int sign) is one ``bad-row``
    violation, and none of its other checks run.
    """
    out: list[Violation] = []
    well_formed = [isinstance(row, tuple) and len(row) == 6
                   and all(map(isinstance, row, _ROW_TYPES)) for row in d.rows]
    xids = (row[0] for row, ok in zip(d.rows, well_formed) if ok)
    for token in (*d.vertices, *(e.id for e in d.edges), *xids):
        if not _ID_RE.match(token):
            out.append(Violation(
                "bad-identifier", token, f"identifier {token!r} is not an [A-Za-z0-9_]+ token"))
    seen_v: set[str] = set()
    for v in d.vertices:
        if v in seen_v:
            out.append(Violation("duplicate-id", v, f"vertex id {v!r} declared twice"))
        seen_v.add(v)
    # each edge's passage indices, in the order the crossings name them
    refs: dict[str, list[int]] = {}
    for e in d.edges:
        if e.id in refs:
            out.append(Violation("duplicate-id", e.id, f"edge id {e.id!r} declared twice"))
        refs[e.id] = []
        for endpoint in (e.tail, e.head):
            if endpoint not in seen_v:
                out.append(Violation(
                    "dangling-vertex", e.id,
                    f"edge {e.id!r} references missing vertex {endpoint!r}"))
    seen_x: set[str] = set()
    for row, ok in zip(d.rows, well_formed):
        if not ok:
            out.append(Violation("bad-row", repr(row), f"crossing row {row!r} is not "
                                 "(id, over edge, over index, under edge, under index, sign)"))
            continue
        xid, over, over_idx, under, under_idx, sign = row
        if xid in seen_x:
            out.append(Violation("duplicate-id", xid, f"crossing id {xid!r} declared twice"))
        seen_x.add(xid)
        if sign not in (1, -1):
            out.append(Violation("bad-sign", xid, f"crossing {xid!r} sign must be +1 or -1"))
        if over == under and over_idx == under_idx:
            out.append(Violation(
                "crossing-degenerate", xid,
                f"crossing {xid!r} over and under reference the same passage"))
        for eid, idx in ((over, over_idx), (under, under_idx)):
            if eid in refs:
                refs[eid].append(idx)
            else:
                out.append(Violation(
                    "dangling-edge", xid, f"crossing {xid!r} references missing edge {eid!r}"))
    for eid in sorted(refs):
        indices = sorted(refs[eid])
        if indices == list(range(len(indices))):
            continue
        dups = sorted(i for i, k in Counter(indices).items() if k > 1)
        if dups:
            out.append(Violation(
                "passage-duplicate", eid, f"edge {eid!r} passage indices used twice: {dups}"))
        else:
            out.append(Violation(
                "passage-gap", eid,
                f"edge {eid!r} passage indices {indices} are not 0..{len(indices) - 1}"))
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


def _reject(raw: str, lineno: int, section: str, vertices, edges, crossings) -> NoReturn:
    """Raise the error for a declaration line that ``_LINE_RE`` rejected or
    that clashes with the declarations before it.

    The checks run token by token in a fixed order, and the first that
    fails names the error and its column.  They build nothing: only
    :func:`parse_sgd`'s pattern match accepts a line, so a line that passes
    every check here means the two disagree, which is a bug.
    """
    words = raw.split("#", 1)[0].split()
    kind = words[0]
    if kind == "vertex":
        if section != "vertex":
            raise _error("vertex declared after edges or crossings", raw, lineno, 0)
        if len(words) != 2:
            raise _error("expected: vertex <vid>", raw, lineno, 0)
        if _check_id(words, 1, raw, lineno) in vertices:
            raise _error(f"duplicate vertex id {words[1]!r}", raw, lineno, 1)
    elif kind == "edge":
        if section == "crossing":
            raise _error("edge declared after crossings", raw, lineno, 0)
        if len(words) != 4:
            raise _error("expected: edge <eid> <tail> <head>", raw, lineno, 0)
        if _check_id(words, 1, raw, lineno) in edges:
            raise _error(f"duplicate edge id {words[1]!r}", raw, lineno, 1)
        _check_id(words, 2, raw, lineno)
        _check_id(words, 3, raw, lineno)
        for k in (2, 3):
            if words[k] not in vertices:
                raise _error(f"edge references undeclared vertex {words[k]!r}", raw, lineno, k)
    elif kind == "crossing":
        if len(words) != 10 or words[2] != "over" or words[5] != "under" or words[8] != "sign":
            raise _error(
                "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->",
                raw, lineno, 0,
            )
        if _check_id(words, 1, raw, lineno) in crossings:
            raise _error(f"duplicate crossing id {words[1]!r}", raw, lineno, 1)
        for k in (3, 6):
            eid = _check_id(words, k, raw, lineno)
            if eid not in edges:
                raise _error(f"crossing references undeclared edge {eid!r}", raw, lineno, k)
            idx = words[k + 1]
            if not (idx.isascii() and idx.isdigit()):
                raise _error(f"bad passage index {idx!r}", raw, lineno, k + 1)
            try:
                int(idx)
            except ValueError:  # past the interpreter's int/str digit limit
                raise _error(f"bad passage index of {len(idx)} digits",
                             raw, lineno, k + 1) from None
        if words[9] not in ("+", "-"):
            raise _error(f"bad sign {words[9]!r}, expected + or -", raw, lineno, 9)
    else:
        raise _error(f"unknown declaration {kind!r}", raw, lineno, 0)
    raise SelfCheckError(f"line {lineno} failed the declaration pattern but no token check")


def parse_sgd(text: str, check: bool = True) -> Diagram:
    """Parse SGD text into a Diagram.

    Each declaration line is checked as it is read: its identifiers, its
    keywords, indices and sign, and that its id is new and every id it
    references was declared before it.  A line that fails raises
    SgdParseError with the line and column.  With ``check`` (the default)
    the finished diagram must also have no degenerate crossing and each
    edge's passage indices must run 0..p-1 (:func:`validate`'s passage
    checks; the line checks already rule out every other violation).  Pass
    ``check=False`` to obtain the raw diagram for use with :func:`validate`.

    One pass over the lines makes the diagram's crossing rows and each
    edge's passage indices, which ``check`` tests directly;
    :func:`validate` runs only to word the error.  A checked diagram is
    marked, so a ``moves.WalkState`` built on it does not run
    :func:`validate` again.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        words = raw.split("#", 1)[0].split()
        if words:
            if words != SGD_HEADER.split():
                raise _error(f"expected header {SGD_HEADER!r}", raw, lineno, 0)
            break
    else:
        raise SgdParseError(f"missing header {SGD_HEADER!r}", 1, 1)

    # declarations so far: vertices and edges keyed by id in file order,
    # each edge's passage indices, crossing ids, and Diagram.rows in file order
    vertices: dict[str, None] = {}
    edges: dict[str, Edge] = {}
    passages: dict[str, list[int]] = {}
    crossings: set[str] = set()
    rows: list[tuple] = []
    section = "vertex"  # advances vertex -> edge -> crossing

    for lineno, raw in lines:
        m = _LINE_RE.fullmatch(raw)
        kind = m.lastgroup if m else None
        if kind == "crossing":
            xid, o_eid, o_idx, u_eid, u_idx, sign = m.group(5, 6, 7, 8, 9, 10)
            over, under = passages.get(o_eid), passages.get(u_eid)
            if xid not in crossings and over is not None and under is not None:
                try:
                    o_at, u_at = int(o_idx), int(u_idx)
                except ValueError:  # past the interpreter's int/str digit limit
                    pass
                else:
                    crossings.add(xid)
                    rows.append((xid, o_eid, o_at, u_eid, u_at, 1 if sign == "+" else -1))
                    over.append(o_at)
                    under.append(u_at)
                    section = "crossing"
                    continue
        elif kind == "edge":
            eid, tail, head = m.group(2, 3, 4)
            if section != "crossing" and eid not in edges and tail in vertices and head in vertices:
                edges[eid] = Edge(eid, tail, head)
                passages[eid] = []
                section = "edge"
                continue
        elif kind == "vertex":
            if section == "vertex" and m[1] not in vertices:
                vertices[m[1]] = None
                continue
        elif m:
            continue  # blank or comment only
        _reject(raw, lineno, section, vertices, edges, crossings)

    d = Diagram(vertices, edges.values(), rows)
    if check:
        # n distinct indices below n are 0..n-1; a degenerate crossing
        # names one passage twice, so it fails this too
        if any(idx and (max(idx) >= len(idx) or len(set(idx)) < len(idx))
               for idx in passages.values()):
            detail = "; ".join(v.message for v in validate(d))
            raise SgdParseError(f"invalid diagram: {detail}")
        d.__dict__["_checked"] = True
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
    for xid, over, over_idx, under, under_idx, sign in d.rows:
        lines.append(
            f"crossing {xid} over {over} {over_idx} "
            f"under {under} {under_idx} sign {'+' if sign > 0 else '-'}"
        )
    return "\n".join(lines) + "\n"
