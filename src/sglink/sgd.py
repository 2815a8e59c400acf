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
in a fixed order, and raises the first check that fails, naming its line
and column.  The line checks rule out every violation but the degenerate
crossings and passage indices; the parser tests those on the indices it
collected, and calls :func:`validate` only to word that error.  It
leaves nothing on the diagram it returns: a ``Diagram`` is its fields and
the caches its properties make, so a parsed diagram and one built by hand
with the same fields are the same value, and a ``moves.WalkState``
validates either.

A passage index is read with a lookup, not a conversion: ``_INDEX`` maps
the decimal tokens "0" ... "1023" to their ints, so every index of an edge
with fewer than 1024 passages costs one dictionary lookup.  The bound
keeps the table small (about 100 KB, built at import in well under a
millisecond) while it covers every edge of the walked and canonical
diagrams ``bench/run.py`` reads, whose longest edge has 486 passages.  An
index token the table lacks is converted when it is ASCII digits under
the interpreter's int/str digit limit, and is a parse error otherwise.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from functools import cached_property
from operator import attrgetter, itemgetter

from .errors import DomainError, SgdParseError
from .value import Value

_TOKEN_RE = re.compile(r"\S+")

SGD_HEADER = "sgd 1"


def _is_id(tok: str) -> bool:
    """Whether ``tok`` is an identifier, an [A-Za-z0-9_]+ token: ASCII, and
    alphanumeric once its underscores read as digits."""
    return tok.isascii() and tok.replace("_", "0").isalnum()


# the passage-index tokens "0" ... "1023" and their ints (see the module
# docstring); a token it lacks goes to _index
_INDEX = {str(i): i for i in range(1024)}
_SIGN = {"+": 1, "-": -1}


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
    crossing rows as :attr:`Diagram.rows` holds them; every row given
    counts (:attr:`Diagram.sign_sums` gives it the inter-component rows
    only)."""
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
        """:func:`pair_signs` of the crossings whose over and under edges
        lie in distinct components, made once and shared by every count
        over this diagram; read it, never change it.  A pair within one
        component adds nothing to a count between two components, so it is
        left out."""
        comp = {eid: k for k, (c, _, _) in enumerate(self._forest) for eid in c.edge_ids}
        at = comp.get  # an edge no component holds, only hand-built, reads None
        return pair_signs([row for row in self.rows if at(row[1]) != at(row[3])])

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


def _unresolved(words: list[str], ks, declared, what: str, raw: str, lineno: int) -> SgdParseError:
    """The error for a line whose references ``words[k]``, k in ``ks``, are
    not all in ``declared``.  A declared id is an identifier, so a lookup
    that hits needs no identifier check; after one misses, the first
    reference that is no identifier raises its error here, else the error
    returned names the first one not declared."""
    for k in ks:
        _check_id(words, k, raw, lineno)
    k = next(k for k in ks if words[k] not in declared)
    return _error(f"{words[0]} references undeclared {what} {words[k]!r}", raw, lineno, k)


def _index(words: list[str], k: int, raw: str, lineno: int) -> int:
    """Passage index ``words[k]``, a token ``_INDEX`` lacks: its int when it
    is ASCII digits under the interpreter's int/str digit limit, else a
    parse error."""
    idx = words[k]
    if not (idx.isascii() and idx.isdigit()):
        raise _error(f"bad passage index {idx!r}", raw, lineno, k)
    try:
        return int(idx)
    except ValueError:  # past the interpreter's int/str digit limit
        raise _error(f"bad passage index of {len(idx)} digits", raw, lineno, k) from None


def parse_sgd(text: str, check: bool = True) -> Diagram:
    """Parse SGD text into a Diagram.

    Each declaration line is checked as it is read, from its
    ``str.split()`` tokens: its keyword and section, its token count and
    the keywords inside a crossing, the id it declares (an identifier, and
    new), the ids it references (declared on an earlier line), then a
    crossing's indices and sign.  The first check that fails raises
    SgdParseError with the line and column of the token at fault.  With
    ``check`` (the default) the finished diagram must also have no
    degenerate crossing and each edge's passage indices must run 0..p-1
    (:func:`validate`'s passage checks; the line checks already rule out
    every other violation).  Pass ``check=False`` to obtain the raw diagram
    for use with :func:`validate`.

    One pass over the lines makes the diagram's crossing rows and each
    edge's passage indices, which ``check`` tests directly;
    :func:`validate` runs only to word the error.  On a line that passes,
    each reference is one lookup among the ids declared, and a crossing's
    indices and sign are lookups in ``_INDEX`` and ``_SIGN``; only a
    lookup that misses calls a function, which words the error or converts
    an index past the table.
    """
    index, signs = _INDEX.get, _SIGN.get
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
    # each edge's passage indices, and Diagram.rows keyed by crossing id in file order
    vertices: dict[str, None] = {}
    edges: dict[str, Edge] = {}
    passages: dict[str, list[int]] = {}
    crossings: dict[str, tuple] = {}
    section = "vertex"  # advances vertex -> edge -> crossing

    for lineno, raw in lines:
        words = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not words:
            continue  # blank or comment only
        kind = words[0]
        if kind == "crossing":
            try:
                _, xid, kw_o, o_eid, o_idx, kw_u, u_eid, u_idx, kw_s, sign = words
            except ValueError:  # not ten tokens
                kw_o = None  # fails the keyword check below
            if kw_o != "over" or kw_u != "under" or kw_s != "sign":
                raise _error(
                    "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->",
                    raw, lineno, 0,
                )
            # _is_id, inlined on the path every crossing takes; a miss
            # raises through _check_id
            if not (xid.isascii() and (xid.isalnum() or "_" in xid
                                       and xid.replace("_", "0").isalnum())):
                _check_id(words, 1, raw, lineno)
            if xid in crossings:
                raise _error(f"duplicate crossing id {xid!r}", raw, lineno, 1)
            over = passages.get(o_eid)
            if over is None:
                raise _unresolved(words, (3,), passages, "edge", raw, lineno)
            o_at = index(o_idx)
            if o_at is None:
                o_at = _index(words, 4, raw, lineno)
            under = passages.get(u_eid)
            if under is None:
                raise _unresolved(words, (6,), passages, "edge", raw, lineno)
            u_at = index(u_idx)
            if u_at is None:
                u_at = _index(words, 7, raw, lineno)
            s = signs(sign)
            if s is None:
                raise _error(f"bad sign {sign!r}, expected + or -", raw, lineno, 9)
            crossings[xid] = (xid, o_eid, o_at, u_eid, u_at, s)
            over.append(o_at)
            under.append(u_at)
            section = "crossing"
        elif kind == "edge":
            if section == "crossing":
                raise _error("edge declared after crossings", raw, lineno, 0)
            if len(words) != 4:
                raise _error("expected: edge <eid> <tail> <head>", raw, lineno, 0)
            _, eid, tail, head = words
            if _check_id(words, 1, raw, lineno) in edges:
                raise _error(f"duplicate edge id {eid!r}", raw, lineno, 1)
            if tail not in vertices or head not in vertices:
                raise _unresolved(words, (2, 3), vertices, "vertex", raw, lineno)
            edges[eid] = Edge(eid, tail, head)
            passages[eid] = []
            section = "edge"
        elif kind == "vertex":
            if section != "vertex":
                raise _error("vertex declared after edges or crossings", raw, lineno, 0)
            if len(words) != 2:
                raise _error("expected: vertex <vid>", raw, lineno, 0)
            vid = _check_id(words, 1, raw, lineno)
            if vid in vertices:
                raise _error(f"duplicate vertex id {vid!r}", raw, lineno, 1)
            vertices[vid] = None
        else:
            raise _error(f"unknown declaration {kind!r}", raw, lineno, 0)

    d = Diagram(vertices, edges.values(), crossings.values())
    if check:
        # n distinct indices below n are 0..n-1; a degenerate crossing
        # names one passage twice, so it fails this too
        if any(idx and (max(idx) >= len(idx) or len(set(idx)) < len(idx))
               for idx in passages.values()):
            detail = "; ".join(v.message for v in validate(d))
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
    for xid, over, over_idx, under, under_idx, sign in d.rows:
        lines.append(
            f"crossing {xid} over {over} {over_idx} "
            f"under {under} {under_idx} sign {'+' if sign > 0 else '-'}"
        )
    return "\n".join(lines) + "\n"
