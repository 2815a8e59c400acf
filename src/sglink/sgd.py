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
parser checks each line from its whitespace-split tokens as it reads it,
which rules out every violation but the degenerate crossings and passage
indices, and tests those on the indices it collected; it calls
:func:`validate` only to word its error.  A line it does not accept goes
to one function that words the error, its line and its column.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import NoReturn

from .errors import DomainError, SelfCheckError, SgdParseError
from .value import Value

_TOKEN_RE = re.compile(r"\S+")

SGD_HEADER = "sgd 1"


def _is_id(tok: str) -> bool:
    """Whether ``tok`` is an identifier, an [A-Za-z0-9_]+ token: ASCII, and
    alphanumeric once its underscores read as digits."""
    return tok.isascii() and tok.replace("_", "0").isalnum()


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


def _bfs(edges, vertices):
    """Breadth-first spanning forest of ``edges`` on ``vertices``: one
    search from each vertex not yet reached, in the order of ``vertices``,
    over the edges whose two ends are among them, loops left out,
    neighbours in the order of ``edges``.  Returns, per search, its
    discovery edges in order and each reached vertex's (parent edge id,
    parent vertex, depth), the root's (None, None, 0); and vertex -> the
    number of the search that reached it, from 0."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for e in edges:
        if e.tail != e.head and e.tail in adj and e.head in adj:
            adj[e.tail].append((e.id, e.head))
            adj[e.head].append((e.id, e.tail))
    forest: list[tuple[list[str], dict]] = []
    where: dict[str, int] = {}
    for root in adj:
        if root not in where:
            parent, found, queue = {root: (None, None, 0)}, [], deque([root])
            while queue:
                v = queue.popleft()
                depth = parent[v][2] + 1
                for eid, other in adj[v]:
                    if other not in parent:
                        parent[other] = (eid, v, depth)
                        found.append(eid)
                        queue.append(other)
            where.update(dict.fromkeys(parent, len(forest)))
            forest.append((found, parent))
    return forest, where


def _in_id_order(items, key=None) -> tuple:
    """``items`` sorted by ``key``, or as given when they cannot be sorted:
    an id that is not a ``str`` or a malformed row, which :func:`validate`
    reports."""
    items = tuple(items)
    try:
        return tuple(sorted(items, key=key))
    except (LookupError, TypeError):
        return items


class Diagram(Value):
    """Immutable diagram value: vertex ids, edges and crossing rows
    ``(id, over edge, over index, under edge, under index, sign)``, each
    held in sorted id order (a stable sort, linear on input already in
    order).  ``Diagram(vertices, edges, rows)`` takes ``Edge`` objects and
    rows as given, and keeps vertices, edges or rows that cannot be sorted
    by id in the order given; :func:`validate` checks a diagram built so.
    Two diagrams are equal, and hash alike, when their vertices, edges and
    rows are equal.
    """

    _fields = ("vertices", "edges", "rows")

    # set by parse_sgd(check=True) on a diagram it returns: such a diagram
    # has passed every check validate() runs
    _checked = False

    def __init__(self, vertices, edges=(), rows=()):
        held = self.__dict__
        held["vertices"] = _in_id_order(vertices)
        held["edges"] = _in_id_order(edges, attrgetter("id"))
        held["rows"] = _in_id_order(rows, itemgetter(0))

    @cached_property
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def sign_sums(self) -> dict[tuple[str, str], int]:
        """:func:`pair_signs` of the crossings, made once and shared by every
        count over this diagram; read it, never change it."""
        return pair_signs(self.rows)

    @cached_property
    def _forest(self) -> tuple[tuple[Component, list[str], dict], ...]:
        """The diagram's breadth-first spanning forest (:func:`_bfs`, with
        edges and vertices in id order, so each root is its component's
        smallest vertex): per component, in number order, the component,
        its tree edges in discovery order and its parent map."""
        forest, where = _bfs(self.edges, self.vertices)
        edge_ids: list[list[str]] = [[] for _ in forest]
        for e in self.edges:
            if e.tail in where:
                edge_ids[where[e.tail]].append(e.id)
        return tuple((Component(k + 1, tuple(sorted(parent)), tuple(eids)), tree, parent)
                     for k, ((tree, parent), eids) in enumerate(zip(forest, edge_ids)))

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Connected components of the abstract graph, each with the edges
        whose tail is one of its vertices, sorted by their smallest vertex
        id and numbered from 1: the components of ``_forest``."""
        return tuple(comp for comp, _, _ in self._forest)

    def component(self, index: int) -> Component:
        if not 1 <= index <= len(self.components):
            raise DomainError(f"no such component {index} (diagram has {len(self.components)})")
        return self.components[index - 1]


_ROW_TYPES = (str, str, int, str, int, int)  # a crossing row's fields


def validate(d: Diagram) -> list[Violation]:
    """Check every diagram invariant; an empty list means the diagram is valid.

    Violations are data, not errors.  Codes: ``bad-identifier``,
    ``duplicate-id``, ``dangling-vertex``, ``dangling-edge``, ``bad-row``,
    ``crossing-degenerate``, ``bad-sign``, ``passage-duplicate`` and
    ``passage-gap``.  They are listed identifiers first, then vertices,
    edges and crossings in the diagram's order, then passage indices by
    edge in the diagram's order (by id, when the ids can be sorted).  A
    crossing lists its duplicate id, bad sign, degeneracy and dangling
    edges in that order.  A row that is not a 6-tuple (str id,
    str edge, int index, str edge, int index, int sign) is one ``bad-row``
    violation, and none of its other checks run.  A vertex or edge id that
    is not a ``str`` is one ``bad-identifier``, hashable or not, and no
    edge or crossing can reference it.
    """
    out: list[Violation] = []
    well_formed = [isinstance(row, tuple) and len(row) == 6
                   and all(map(isinstance, row, _ROW_TYPES)) for row in d.rows]
    xids = (row[0] for row, ok in zip(d.rows, well_formed) if ok)
    for token in (*d.vertices, *(e.id for e in d.edges), *xids):
        if not (isinstance(token, str) and _is_id(token)):
            out.append(Violation(
                "bad-identifier", token, f"identifier {token!r} is not an [A-Za-z0-9_]+ token"))
    # ids that are not a str, which may not hash, are only bad identifiers:
    # they are neither duplicates nor ids an edge or crossing can reference
    seen_v: set[str] = set()
    for v in d.vertices:
        if isinstance(v, str):
            if v in seen_v:
                out.append(Violation("duplicate-id", v, f"vertex id {v!r} declared twice"))
            seen_v.add(v)
    # each edge's passage indices, in the order the crossings name them
    refs: dict[str, list[int]] = {}
    for e in d.edges:
        if isinstance(e.id, str):
            if e.id in refs:
                out.append(Violation("duplicate-id", e.id, f"edge id {e.id!r} declared twice"))
            refs[e.id] = []
        for endpoint in (e.tail, e.head):
            if not (isinstance(endpoint, str) and endpoint in seen_v):
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
    for eid, indices in refs.items():  # the diagram's edge order
        indices.sort()
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
    if not _is_id(words[k]):
        raise _error(f"bad identifier {words[k]!r}", raw, lineno, k)
    return words[k]


def _reject(raw: str, lineno: int, section: str, vertices, edges, crossings) -> NoReturn:
    """Raise the error for a declaration line that :func:`parse_sgd` did
    not accept: a malformed line, or one that clashes with the
    declarations before it.

    The checks run token by token in a fixed order, and the first that
    fails names the error and its column.  They build nothing: only
    :func:`parse_sgd`'s token checks accept a line, so a line that passes
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
    raise SelfCheckError(f"line {lineno} was not accepted but passes every token check")


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
    :func:`validate` runs only to word the error.  A line is accepted from
    its ``str.split()`` tokens alone: the keyword and token count, the
    keywords inside a crossing, ASCII-digit indices, the sign, the pattern
    of the one id it declares, and lookups of the ids it references among
    those declared; every line it does not accept goes to :func:`_reject`,
    which words the error.  A checked diagram is marked, so a
    ``moves.WalkState`` built on it does not run :func:`validate` again.
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
        words = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not words:
            continue  # blank or comment only
        kind, n = words[0], len(words)
        if kind == "crossing" and n == 10:
            _, xid, kw_over, o_eid, o_idx, kw_under, u_eid, u_idx, kw_sign, sign = words
            over, under = passages.get(o_eid), passages.get(u_eid)
            if (over is not None and under is not None and xid not in crossings
                    and kw_over == "over" and kw_under == "under" and kw_sign == "sign"
                    and (sign == "+" or sign == "-") and _is_id(xid)
                    and o_idx.isdigit() and o_idx.isascii()
                    and u_idx.isdigit() and u_idx.isascii()):
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
        elif kind == "edge" and n == 4:
            _, eid, tail, head = words
            if (section != "crossing" and eid not in edges and tail in vertices
                    and head in vertices and _is_id(eid)):
                edges[eid] = Edge(eid, tail, head)
                passages[eid] = []
                section = "edge"
                continue
        elif kind == "vertex" and n == 2:
            vid = words[1]
            if section == "vertex" and vid not in vertices and _is_id(vid):
                vertices[vid] = None
                continue
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
