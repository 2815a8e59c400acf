"""``parse_sgd`` against the parser it replaced, kept here as a reference.

``reference_parse_sgd`` below is ``parse_sgd`` as it stood when every token
was paired with its column and three id sets stood beside three lists,
copied verbatim.  Today's parser splits a line into bare tokens and works
out a column only for a line it rejects.  On good input both must build
equal diagrams; on mutated input both must raise the same error: type,
text, line and column.  The mutations lay tabs, runs of spaces, other
Unicode blanks and mid-line ``#`` comments before the failing token, so
the column arithmetic is exercised, not just the messages.

``HeadDiagram`` and ``head_parse_sgd`` below are ``Diagram`` and
``parse_sgd`` as they stood when a diagram held one frozen ``Crossing``
per crossing and the parser made them all, with the ``pair_signs``,
``validate`` and ``serialize_sgd`` that read them; copied verbatim, apart
from the names.  Today's diagram holds plain rows, its one crossing form,
and ``Crossing`` survives only as ``gen``'s copy for these references;
``gen.rows_of`` gives the rows of their crossing objects where they meet
today's diagrams.  Both must agree on every diagram, valid or not, and in
every error.  ``head_parse_sgd`` accepts a line with one match of
``_LINE_RE``, kept here with it; today's ``parse_sgd`` checks the line's
``str.split()`` tokens instead.  A line it does not accept goes to
``head_reject``, which checks the line's tokens again to word the error:
``head_reject`` and ``head_check_id`` are ``sgd._reject`` and
``sgd._check_id`` as they stood when the parser kept that second copy of
the line grammar, copied verbatim, apart from the names.  Today's parser
raises at the check that fails.
"""

import random
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

import pytest

from gen import Crossing, crossings_of, passage_counts, random_diagram, rows_of
from sglink import (
    DomainError,
    FrozenValueError,
    SelfCheckError,
    SgdParseError,
    canonical_diagram,
    classify,
    linking_matrix,
    lk_invariant,
    over_under_consistent,
    parse_sgd,
    serialize_sgd,
    smith_normal_form,
)
from sglink import moves, sgd
from sglink.moves import WalkState, random_homotopy_walk, walk_steps
from sglink.sgd import (
    _TOKEN_RE,
    SGD_HEADER,
    Component,
    Diagram,
    Edge,
    Violation,
    _error,
    _is_id,
    validate,
)
from timing import ratio

DATA = Path(__file__).parent / "data"

# ``sgd._ID_RE`` as it stood when every identifier check matched it, copied
# verbatim; the references read it, and today's ``sgd._is_id`` must agree.
_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# ``sgd._LINE_RE`` as it stood when ``parse_sgd`` accepted each line with
# one match, copied verbatim; ``head_parse_sgd`` reads it.
_ID = r"[A-Za-z0-9_]+"
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


def _check_id(token: str, line: int, col: int) -> str:
    if not _ID_RE.match(token):
        raise SgdParseError(f"bad identifier {token!r}", line, col)
    return token


def reference_parse_sgd(text: str, check: bool = True) -> Diagram:
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
    d = Diagram(tuple(vertices), tuple(edges), rows_of(crossings))
    if check:
        problems = validate(d)
        if problems:
            detail = "; ".join(v.message for v in problems)
            raise SgdParseError(f"invalid diagram: {detail}")
    return d


def head_pair_signs(crossings) -> dict[tuple[str, str], int]:
    """Sum of the crossing signs per (over edge, under edge) pair."""
    sums: dict[tuple[str, str], int] = {}
    for c in crossings:
        key = (c.over[0], c.under[0])
        sums[key] = sums.get(key, 0) + c.sign
    return sums


@dataclass(frozen=True)
class HeadDiagram:
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
    def sign_sums(self) -> dict[tuple[str, str], int]:
        """:func:`head_pair_signs` of the crossings, made once and shared by every
        count over this diagram; read it, never change it."""
        return head_pair_signs(self.crossings)

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

    def component(self, index: int) -> Component:
        if not 1 <= index <= len(self.components):
            raise DomainError(
                f"no such component {index} (diagram has {len(self.components)})"
            )
        return self.components[index - 1]


def head_reference_violations(d: HeadDiagram) -> list[tuple[tuple, Violation]]:
    """Identifier, uniqueness, reference and sign checks: what
    :func:`head_parse_sgd` checks line by line.  Each violation comes with its
    place in :func:`head_validate`'s order: (0,) before the crossings, (1, i, k)
    for check k on crossing i, (2,) after them."""
    out: list[tuple[tuple, Violation]] = []
    for token in (*d.vertices, *(e.id for e in d.edges), *(c.id for c in d.crossings)):
        if not _ID_RE.match(token):
            out.append(((0,), Violation(
                "bad-identifier", token, f"identifier {token!r} is not an [A-Za-z0-9_]+ token")))
    seen_v: set[str] = set()
    for v in d.vertices:
        if v in seen_v:
            out.append(((0,), Violation("duplicate-id", v, f"vertex id {v!r} declared twice")))
        seen_v.add(v)
    seen_e: set[str] = set()
    for e in d.edges:
        if e.id in seen_e:
            out.append(((0,), Violation("duplicate-id", e.id, f"edge id {e.id!r} declared twice")))
        seen_e.add(e.id)
        for endpoint in (e.tail, e.head):
            if endpoint not in seen_v:
                out.append(((0,), Violation(
                    "dangling-vertex", e.id,
                    f"edge {e.id!r} references missing vertex {endpoint!r}")))
    seen_x: set[str] = set()
    for i, c in enumerate(d.crossings):
        if c.id in seen_x:
            out.append(((1, i, 0), Violation(
                "duplicate-id", c.id, f"crossing id {c.id!r} declared twice")))
        seen_x.add(c.id)
        if c.sign not in (1, -1):
            out.append(((1, i, 0), Violation(
                "bad-sign", c.id, f"crossing {c.id!r} sign must be +1 or -1")))
        for eid, _ in (c.over, c.under):
            if eid not in seen_e:
                out.append(((1, i, 2), Violation(
                    "dangling-edge", c.id, f"crossing {c.id!r} references missing edge {eid!r}")))
    return out


def head_passage_violations(d: HeadDiagram) -> list[tuple[tuple, Violation]]:
    """Degenerate-crossing and passage-index checks: what
    ``head_parse_sgd(check=True)`` adds to its line checks.  Each violation comes
    with its place in :func:`head_validate`'s order."""
    out: list[tuple[tuple, Violation]] = []
    refs: dict[str, list[int]] = defaultdict(list)
    edge_map = d.edge_map
    for i, c in enumerate(d.crossings):
        over, under = c.over, c.under
        if over == under:
            out.append(((1, i, 1), Violation(
                "crossing-degenerate", c.id,
                f"crossing {c.id!r} over and under reference the same passage")))
        if over[0] in edge_map:
            refs[over[0]].append(over[1])
        if under[0] in edge_map:
            refs[under[0]].append(under[1])
    for eid in sorted(refs):
        indices = sorted(refs[eid])
        if indices == list(range(len(indices))):
            continue
        dups = sorted(i for i, k in Counter(indices).items() if k > 1)
        if dups:
            out.append(((2,), Violation(
                "passage-duplicate", eid, f"edge {eid!r} passage indices used twice: {dups}")))
        else:
            out.append(((2,), Violation(
                "passage-gap", eid,
                f"edge {eid!r} passage indices {indices} are not 0..{len(indices) - 1}")))
    return out


def head_validate(d: HeadDiagram) -> list[Violation]:
    """Check every diagram invariant; an empty list means the diagram is valid.

    Violations are data, not errors.  Codes: ``bad-identifier``,
    ``duplicate-id``, ``dangling-vertex``, ``dangling-edge``,
    ``crossing-degenerate``, ``bad-sign``, ``passage-duplicate`` and
    ``passage-gap``.  They are listed identifiers first, then vertices,
    edges and crossings in the diagram's order, then passage indices by
    edge id.
    """
    found = head_reference_violations(d) + head_passage_violations(d)
    found.sort(key=itemgetter(0))  # stable: checks that share a place keep their order
    return [v for _, v in found]


def head_check_id(words: list[str], k: int, raw: str, lineno: int) -> str:
    if not _is_id(words[k]):
        raise _error(f"bad identifier {words[k]!r}", raw, lineno, k)
    return words[k]


def head_reject(raw: str, lineno: int, section: str, vertices, edges, crossings) -> NoReturn:
    """Raise the error for a declaration line that :func:`head_parse_sgd` did
    not accept: a malformed line, or one that clashes with the
    declarations before it.

    The checks run token by token in a fixed order, and the first that
    fails names the error and its column.  They build nothing: only
    :func:`head_parse_sgd`'s token checks accept a line, so a line that passes
    every check here means the two disagree, which is a bug.
    """
    words = raw.split("#", 1)[0].split()
    kind = words[0]
    if kind == "vertex":
        if section != "vertex":
            raise _error("vertex declared after edges or crossings", raw, lineno, 0)
        if len(words) != 2:
            raise _error("expected: vertex <vid>", raw, lineno, 0)
        if head_check_id(words, 1, raw, lineno) in vertices:
            raise _error(f"duplicate vertex id {words[1]!r}", raw, lineno, 1)
    elif kind == "edge":
        if section == "crossing":
            raise _error("edge declared after crossings", raw, lineno, 0)
        if len(words) != 4:
            raise _error("expected: edge <eid> <tail> <head>", raw, lineno, 0)
        if head_check_id(words, 1, raw, lineno) in edges:
            raise _error(f"duplicate edge id {words[1]!r}", raw, lineno, 1)
        head_check_id(words, 2, raw, lineno)
        head_check_id(words, 3, raw, lineno)
        for k in (2, 3):
            if words[k] not in vertices:
                raise _error(f"edge references undeclared vertex {words[k]!r}", raw, lineno, k)
    elif kind == "crossing":
        if len(words) != 10 or words[2] != "over" or words[5] != "under" or words[8] != "sign":
            raise _error(
                "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->",
                raw, lineno, 0,
            )
        if head_check_id(words, 1, raw, lineno) in crossings:
            raise _error(f"duplicate crossing id {words[1]!r}", raw, lineno, 1)
        for k in (3, 6):
            eid = head_check_id(words, k, raw, lineno)
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


def head_parse_sgd(text: str, check: bool = True) -> HeadDiagram:
    """Parse SGD text into a HeadDiagram.

    Each declaration line is checked as it is read: its identifiers, its
    keywords, indices and sign, and that its id is new and every id it
    references was declared before it.  A line that fails raises
    SgdParseError with the line and column.  With ``check`` (the default)
    the finished diagram must also have no degenerate crossing and each
    edge's passage indices must run 0..p-1 (:func:`head_validate`'s passage
    checks; the line checks already rule out every other violation).  Pass
    ``check=False`` to obtain the raw diagram for use with :func:`head_validate`.
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

    # declarations so far, keyed by id in file order
    vertices: dict[str, None] = {}
    edges: dict[str, Edge] = {}
    crossings: dict[str, Crossing] = {}
    section = "vertex"  # advances vertex -> edge -> crossing

    for lineno, raw in lines:
        m = _LINE_RE.fullmatch(raw)
        kind = m.lastgroup if m else None
        if kind == "crossing":
            xid, o_eid, o_idx, u_eid, u_idx, sign = m.group(5, 6, 7, 8, 9, 10)
            if xid not in crossings and o_eid in edges and u_eid in edges:
                try:
                    over, under = (o_eid, int(o_idx)), (u_eid, int(u_idx))
                except ValueError:  # past the interpreter's int/str digit limit
                    pass
                else:
                    crossings[xid] = Crossing(xid, over, under, 1 if sign == "+" else -1)
                    section = "crossing"
                    continue
        elif kind == "edge":
            eid, tail, head = m.group(2, 3, 4)
            if section != "crossing" and eid not in edges and tail in vertices and head in vertices:
                edges[eid] = Edge(eid, tail, head)
                section = "edge"
                continue
        elif kind == "vertex":
            if section == "vertex" and m[1] not in vertices:
                vertices[m[1]] = None
                continue
        elif m:
            continue  # blank or comment only
        head_reject(raw, lineno, section, vertices, edges, crossings)

    d = HeadDiagram(tuple(vertices), tuple(edges.values()), tuple(crossings.values()))
    if check:
        problems = head_passage_violations(d)
        if problems:
            detail = "; ".join(v.message for _, v in problems)
            raise SgdParseError(f"invalid diagram: {detail}")
    return d


def head_serialize_sgd(d: HeadDiagram) -> str:
    """Canonical SGD text for a diagram; equal diagrams yield identical bytes.

    Vertices, edges and crossings are written in the order the diagram
    holds them, which ``HeadDiagram`` normalises to sorted order by id.
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


SEPARATORS = (" ", "  ", "\t", " \t", "\t\t ", "   ", "　", "\xa0")
BAD_TOKENS = (
    "a-b", "?", "²", "٣", "1²", "*", "+", "-", "-1", "1.5",
    "x!", "é", "over", "under", "sign", "vertex", "zz9",
)
MESSAGES = (
    "expected header", "missing header", "unknown declaration", "bad identifier",
    "vertex declared after", "edge declared after", "expected: vertex",
    "expected: edge", "expected: crossing", "duplicate vertex id",
    "duplicate edge id", "duplicate crossing id", "undeclared vertex",
    "undeclared edge", "bad passage index", "bad sign", "invalid diagram",
)


def outcome(parse, text, check=True):
    """The diagram a parser builds, or the error it raises as comparable data."""
    try:
        return parse(text, check=check)
    except Exception as exc:  # any difference must show
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def assert_same(text):
    """Both parsers agree with and without ``check``; returns the checked outcome."""
    for check in (False, True):
        got = outcome(parse_sgd, text, check)
        assert got == outcome(reference_parse_sgd, text, check), (text, check)
    return got


def layout(rng, lines):
    """SGD text from token lists: random blanks between tokens, some lines
    indented, some trailing or token-glued comments, some blank lines."""
    out = []
    for words in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(("", "   ", "# comment only", "\t# vertex q")))
        text = rng.choice(("", "", "", " ", "\t", "  \t")) + rng.choice(SEPARATORS).join(words)
        if rng.random() < 0.2:
            text += rng.choice(SEPARATORS) + rng.choice(("#", "# edge e a a", "#x1 over"))
        out.append(text)
    return "\n".join(out) + rng.choice(("", "\n", "\r\n"))


def mutate(rng, lines):
    """One edit of the kind a hand-written or damaged file carries."""
    i = rng.randrange(len(lines))
    words = lines[i]
    k = rng.randrange(len(words)) if words else 0
    kind = rng.choice(("token", "token", "reuse", "drop", "extra", "move", "dup",
                       "comment", "glued", "index", "sign", "keyword"))
    if kind == "token" and words:
        words[k] = rng.choice(BAD_TOKENS)
    elif kind == "reuse" and words:
        # an id of another line: a duplicate, a wrong reference or a clash
        other = lines[rng.randrange(len(lines))]
        if len(other) > 1:
            words[k] = other[1]
    elif kind == "drop" and words:
        del words[k]
    elif kind == "extra":
        words.insert(k, rng.choice(BAD_TOKENS + ("v1", "0")))
    elif kind == "move":
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(i))
    elif kind == "dup":
        lines.insert(rng.randrange(len(lines) + 1), list(words))
    elif kind == "comment":
        words.insert(k, "#")
    elif kind == "glued" and words:
        words[k] += rng.choice(("#", "#tail", "#" + SGD_HEADER))
    elif kind == "index" and len(words) == 10:
        words[rng.choice((4, 7))] = rng.choice(("²", "٣", "-1", "+2", "9", "0", "01"))
    elif kind == "sign" and len(words) == 10:
        words[9] = rng.choice(("*", "++", "+1", "−", "plus", "+-"))
    elif kind == "keyword" and words:
        words[0] = rng.choice(("vertex", "edge", "crossing", "Vertex", "sgd", "node"))


def walked_canonical(count, steps):
    return [random_homotopy_walk(canonical_diagram(3, 3, (1, 2, 4)), steps, seed)[0]
            for seed in range(count)]


def test_good_input_builds_equal_diagrams():
    rng = random.Random(5)
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.sgd"))]
    texts += [serialize_sgd(random_diagram(rng)) for _ in range(150)]
    texts += [serialize_sgd(d) for d in walked_canonical(6, 40)]
    assert len(texts) > 150
    for text in texts:
        lines = [ln.split() for ln in text.splitlines()]
        for variant in (text, layout(rng, lines)):
            d = assert_same(variant)
            assert isinstance(d, Diagram) and serialize_sgd(d) == text


def test_mutated_input_raises_identical_errors():
    rng = random.Random(11)
    bases = [serialize_sgd(d) for d in walked_canonical(6, 40)]
    bases += [serialize_sgd(random_diagram(rng)) for _ in range(20)]
    texts = ("", "\n\t\n", "# sgd 1\n", "  #\n\n")  # no significant line
    seen, columns = set(), set()
    for trial in range(3000 + len(texts)):
        if trial < len(texts):
            got = assert_same(texts[trial])
        else:
            lines = [ln.split() for ln in bases[trial % len(bases)].splitlines()]
            for _ in range(rng.choice((1, 1, 2, 3))):
                mutate(rng, lines)
            got = assert_same(layout(rng, lines))
        if isinstance(got, tuple):
            assert got[0] is SgdParseError
            seen.update(m for m in MESSAGES if m in got[1])
            columns.add(got[3])
    # the edits reach every check, at columns well inside their lines
    assert seen == set(MESSAGES)
    assert len(columns) > 20


SMALL = ["sgd 1", "vertex a", "vertex b", "edge e a a", "edge f b b",
         "crossing x1 over e 0 under f 0 sign +", "crossing x2 over f 1 under e 1 sign +"]
SMALL_TEXT = "\n".join(SMALL) + "\n"


def test_lines_the_pattern_accepts_but_a_check_rejects():
    # Each last line has a valid shape, so _LINE_RE accepts it, and clashes
    # with the lines before it; blanks are tabs and Unicode spaces, and a
    # comment may follow the last token with no blank before it.
    cases = {
        "\tcrossing\u3000x1 over\te 2 under f\xa02 sign -#x1": "duplicate crossing id 'x1'",
        "crossing x3 over  g 2 under e 2 sign +  # g": "crossing references undeclared edge 'g'",
        "crossing x3 over e 2\tunder  g 2 sign +": "crossing references undeclared edge 'g'",
        "vertex\u2003c": "vertex declared after edges or crossings",
        " edge h a b#c": "edge declared after crossings",
    }
    for last, message in cases.items():
        assert _LINE_RE.fullmatch(last).lastgroup is not None, last
        got = assert_same("\n".join(SMALL + [last]) + "\n")
        assert got[:3] == (SgdParseError, f"line {len(SMALL) + 1}, col {got[3]}: {message}",
                           len(SMALL) + 1), last
    decls = SMALL[:3]
    for last, message in {"vertex\ta #": "duplicate vertex id 'a'",
                          "edge e a c": "edge references undeclared vertex 'c'",
                          "edge e b a\nedge e a a": "duplicate edge id 'e'"}.items():
        got = assert_same("\n".join(decls + [last]) + "\n")
        assert got[0] is SgdParseError and message in got[1], last


# underscores, non-ASCII letters and digits that str.isalnum accepts, a
# trailing line break that ``$`` would allow, blanks inside, and nothing
ID_TOKENS = ["_", "__", "a_1", "Z9", "٣", "１", "é", "ß", "Ⅻ", "v1é", "a\n", "a\n\n",
             "a b", "a\tb", "a\xa0b", " a", "a-1", "a.tail", ""]


@pytest.mark.parametrize("tok", ID_TOKENS)
def test_identifier_check_agrees_with_the_pattern(tok):
    # at every call site: the parser, validate and a split's new ids
    is_id = bool(_ID_RE.match(tok))
    assert _is_id(tok) is is_id
    assert_same(f"sgd 1\nvertex {tok}\nedge e a a\n")
    assert_same(f"sgd 1\nvertex a\nedge {tok} a a\n")
    assert_same(f"sgd 1\nvertex a\nedge e a a\ncrossing {tok} over e 0 under e 1 sign +\n")
    assert (not validate(Diagram((tok,)))) is is_id
    state = WalkState(canonical_diagram(1, 1, (1,)))
    vid = state.diagram().vertices[0]
    for new in ((tok, "e_new"), ("v_new", tok)):
        try:
            state.split_vertex(vid, [], *new)
        except DomainError as err:
            assert not is_id and str(err) == f"identifier {tok!r} is not an [A-Za-z0-9_]+ token"
        else:
            assert is_id
            state = WalkState(canonical_diagram(1, 1, (1,)))


def test_index_past_the_digit_limit_is_a_parse_error():
    # the reference parser leaks int()'s ValueError here; the line itself
    # passes the pattern, and int() rejects it
    long = "0" * 5000 + "1"
    line = f"crossing x2 over f {long}\tunder e 1 sign +"
    assert _LINE_RE.fullmatch(line).lastgroup == "crossing"
    for check in (False, True):
        got = outcome(parse_sgd, "\n".join(SMALL[:-1] + [line]), check)
        assert got == (SgdParseError, f"line 7, col 20: bad passage index of 5001 digits", 7, 20)


def test_mid_line_comment_ends_the_declaration():
    text = "\n".join(SMALL[:4] + ["edge f b b#edge g b b", SMALL[5] + "#", SMALL[6] + "\t# x3"])
    assert assert_same(text) == parse_sgd("\n".join(SMALL))


# every line break of str.splitlines; "\x1f" is a blank inside a line
BREAKS = ("\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# (line of SMALL, that line accepted, that line rejected, the error)
TRAPS = [
    (5, "crossing\x1fx1 over e 0 under f\x1f0 sign +", "crossing x\x1f1 over e 0 under f 0 sign +",
     "expected: crossing"),
    (5, "crossing x1 over e 0 under f 0 sign + # \u0663",
     "crossing x1 over e \u0663 under f 0 sign +", "bad passage index '\u0663'"),
    (2, "vertex b  #é", "vertex bé", "bad identifier 'bé'"),
    (6, "crossing x2 over f 1 under e 1 sign +#x3", "crossing x2 over f 1 under e 1 sign#+",
     "expected: crossing"),
    (3, "edge e a a#", "edge# e a a", "expected: edge"),
]


def assert_both_same(text):
    """``parse_sgd`` agrees with both references; returns the checked outcome."""
    got = assert_same(text)
    assert assert_same_storage(text) == got
    return got


def test_every_line_break_reads_as_the_references_read_it():
    assert all(("a" + b + "b").splitlines() == ["a", "b"] for b in BREAKS)
    assert "a\x1fb".splitlines() == ["a\x1fb"] and "a\x1fb".split() == ["a", "b"]
    small = parse_sgd(SMALL_TEXT)
    for b in BREAKS:
        assert assert_both_same(b.join(SMALL) + b) == small
        broken = SMALL[:5] + [SMALL[5].replace(" under", b + "under")] + SMALL[6:]
        got = assert_both_same(b.join(broken) + b)
        assert got[:3] == (SgdParseError, "line 6, col 1: expected: crossing "
                           "<xid> over <eid> <idx> under <eid> <idx> sign <+|->", 6), repr(b)


def test_separator_traps_read_as_the_references_read_them():
    small = parse_sgd(SMALL_TEXT)
    for k, accepted, rejected, message in TRAPS:
        assert assert_both_same("\n".join(SMALL[:k] + [accepted] + SMALL[k + 1:])) == small
        got = assert_both_same("\n".join(SMALL[:k] + [rejected] + SMALL[k + 1:]))
        assert got[0] is SgdParseError and got[2] == k + 1 and message in got[1], rejected


# Tokens about the table of decimal tokens that parse_sgd reads passage
# indices through (sgd._INDEX, "0" ... "1023"): its last entry and the
# first past it, leading zeros, an index past the int/str digit limit, and
# what int() would take but an index is not.  Then signs about the two-entry
# sign table, and crossing ids with and without an underscore.
TABLE_INDICES = ("1023", "1024", "00", "007", "0" * 5000 + "1", "\u0663", "\uff11", "+1", "1_0")
TABLE_SIGNS = ("+", "-", "\xb1", "+1", "\u2212", "++")
TABLE_IDS = ("x_1", "x1_", "_", "x1", "x-1", "x_\xe9", "x\xe9")


def edited(lines, k, slot, token):
    """``lines`` joined as SGD text, with token ``slot`` of line ``k``
    replaced by ``token``."""
    words = lines[k].split()
    words[slot] = token
    return "\n".join(lines[:k] + [" ".join(words)] + lines[k + 1:]) + "\n"


def test_crossing_tokens_about_the_tables_read_as_the_references_read_them():
    assert sgd._INDEX["1023"] == 1023 and "1024" not in sgd._INDEX and "00" not in sgd._INDEX
    # the tokens each line of SMALL accepts: on line 6, "00" names a passage
    # that line 5 names "0", and x1 is line 5's id
    accepted = {5: {"00", "+", "-", "x_1", "x1_", "_", "x1"}, 6: {"+", "-", "x_1", "x1_", "_"}}
    for k in (5, 6):
        cases = [(slot, tok) for slot in (4, 7) for tok in TABLE_INDICES]
        cases += [(9, tok) for tok in TABLE_SIGNS] + [(1, tok) for tok in TABLE_IDS]
        for slot, tok in cases:
            text = edited(SMALL, k, slot, tok)
            if len(tok) > sys.get_int_max_str_digits():
                # the first reference leaks int()'s ValueError here
                got = assert_same_storage(text)
                assert got[1].endswith(f"bad passage index of {len(tok)} digits"), got
            else:
                got = assert_both_same(text)
            assert isinstance(got, Diagram) is (tok in accepted[k]), (k, slot, tok)
    # "0" and "00" on one edge name one passage twice
    got = assert_both_same(edited(SMALL, 6, 7, "00"))
    assert got[:2] == (SgdParseError, "invalid diagram: edge 'e' passage indices used twice: [0]")
    assert assert_both_same(edited(SMALL, 5, 4, "00")) == parse_sgd(SMALL_TEXT)


def test_an_edge_past_the_table_reads_as_the_references_read_it():
    text = serialize_sgd(canonical_diagram(1, 1, (600,)))
    d = parse_sgd(text)
    assert max(row[2] for row in d.rows) == 1199  # past the table's 1023
    rng = random.Random(37)
    lines = text.splitlines()
    for variant in (text, layout(rng, [ln.split() for ln in lines]), shuffled_sections(rng, text)):
        assert assert_both_same(variant) == d
    past = [(i, slot) for i, ln in enumerate(lines) if ln.startswith("crossing ")
            for slot in (4, 7) if int(ln.split()[slot]) >= len(sgd._INDEX)]
    assert len(past) == 2 * (1200 - 1024)
    for trial in range(30):
        i, slot = rng.choice(past)
        index = lines[i].split()[slot]
        token = (index.zfill(len(index) + 1 + trial % 3),  # the same passage
                 str(int(index) + rng.choice((-1, 1, 2000))),  # a duplicate or a gap
                 rng.choice(("\u0663" + index, index + "_0", "-" + index)))[trial % 3]
        got = assert_both_same(edited(lines, i, slot, token))
        assert (got == d) is (trial % 3 == 0), (i, slot, token)


def test_failed_match_is_linear_in_the_line():
    # a long run of blanks costs time linear in the line, in the token
    # checks and in the column a rejected line reports: 4x the blanks takes
    # about 4x the time, where a quadratic step would take about 16x
    for head, tail in (("", "x"), ("vertex", "a b"), ("crossing x over e 0", "?")):
        def reject(size, head=head, tail=tail):
            with pytest.raises(SgdParseError):
                parse_sgd("sgd 1\n" + head + " " * size + tail)

        assert ratio(reject, 250_000, 10**6) < 8, (head, tail)


def assert_same_storage(text):
    """``parse_sgd`` against ``head_parse_sgd``, with and without ``check``:
    the same error, or diagrams that agree in everything a reader sees.
    Returns the checked outcome."""
    for check in (False, True):
        got, want = outcome(parse_sgd, text, check), outcome(head_parse_sgd, text, check)
        if isinstance(want, tuple):
            assert got == want, (text, check)
            continue
        assert isinstance(got, Diagram), (text, check, got)
        rows = rows_of(want.crossings)
        built = Diagram(want.vertices, want.edges, rows)
        assert got == built and hash(got) == hash(built)
        assert (got.vertices, got.edges, got.rows) == (want.vertices, want.edges, rows)
        assert list(got.sign_sums.items()) == list(want.sign_sums.items())
        assert passage_counts(got) == want.passage_counts
        assert {c.id: c for c in crossings_of(got)} == want.crossing_map
        assert got.components == want.components
        assert serialize_sgd(got).encode() == head_serialize_sgd(want).encode()
        assert validate(got) == head_validate(want)
        assert repr(got) == (f"Diagram(vertices={want.vertices!r}, edges={want.edges!r}, "
                             f"rows={rows!r})")
    return got


def shuffled_sections(rng, text):
    """``text`` with its vertex, edge and crossing lines each shuffled
    within their section."""
    lines = text.splitlines()
    out = [lines[0]]
    for kind in ("vertex", "edge", "crossing"):
        part = [ln for ln in lines if ln.startswith(kind + " ")]
        rng.shuffle(part)
        out += part
    return "\n".join(out) + "\n"


def file_order_ids(text):
    return [ln.split()[1] for ln in text.splitlines() if ln.startswith("crossing ")]


def storage_corpus(rng):
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.sgd"))]
    texts += [serialize_sgd(random_diagram(rng)) for _ in range(100)]
    texts += [serialize_sgd(canonical_diagram(m, n, chain))
              for m, n, chain in ((0, 0, ()), (1, 1, (7,)), (3, 2, (1, 2)), (4, 4, (1, 2, 4, 8)))]
    texts += [serialize_sgd(d) for d in walked_canonical(4, 60)]
    return texts


def test_rows_agree_with_the_object_diagram():
    rng = random.Random(23)
    resorted = 0
    for text in storage_corpus(rng):
        lines = [ln.split() for ln in text.splitlines()]
        shuffled = shuffled_sections(rng, text)
        ids = file_order_ids(shuffled)
        resorted += ids != sorted(ids)
        for variant in (text, layout(rng, lines), shuffled):
            d = assert_same_storage(variant)
            assert serialize_sgd(d) == text
    assert resorted > 50  # the out-of-order path is taken


def test_parsed_diagram_equals_one_built_from_its_rows():
    rng = random.Random(29)
    built = [random_diagram(rng) for _ in range(60)]
    for state, seed in ((WalkState(canonical_diagram(3, 3, (1, 2, 4))), 3),
                        (WalkState(canonical_diagram(2, 4, (2,))), 4)):
        for _, state in walk_steps(state, 80, seed):
            d = state.diagram()
            built.append(Diagram(d.vertices, d.edges, d.rows))
            built.append(d)
    for d in built:
        parsed = parse_sgd(serialize_sgd(d))
        assert parsed == d and hash(parsed) == hash(d)
        assert parsed.rows == d.rows
        assert parsed.sign_sums == d.sign_sums


def test_passage_mutations_raise_identical_errors():
    rng = random.Random(31)
    bases = [t for t in storage_corpus(rng) if "crossing " in t]
    kinds = Counter()
    for trial in range(1500):
        text = bases[trial % len(bases)]
        if trial % 3 == 0:
            text = shuffled_sections(rng, text)
        lines = text.splitlines()
        rows = [i for i, ln in enumerate(lines) if ln.startswith("crossing ")]
        for i in rng.sample(rows, min(len(rows), rng.choice((1, 1, 2)))):
            words = lines[i].split()
            edit = rng.choice(("shift", "copy", "degenerate"))
            k = rng.choice((4, 7))
            if edit == "shift":  # a gap, or a duplicate of a neighbour
                words[k] = str(max(0, int(words[k]) + rng.choice((-1, 1, 2, 5))))
            elif edit == "copy":  # another crossing's passage
                other = lines[rng.choice(rows)].split()
                words[k - 1:k + 1] = other[3:5] if rng.random() < 0.5 else other[6:8]
            else:  # over and under on one passage
                words[6:8] = words[3:5]
            lines[i] = " ".join(words)
        got = assert_same_storage("\n".join(lines) + "\n")
        if isinstance(got, tuple):
            assert got[0] is SgdParseError and got[2:] == (None, None)
            for code in ("passage indices used twice", "are not 0..", "the same passage"):
                kinds[code] += code in got[1]
    assert min(kinds.values()) > 50 and len(kinds) == 3


ODD_IDS = ("a-b", "é", "", "v 1", "x.1")
CODES = {"bad-identifier", "duplicate-id", "dangling-vertex", "dangling-edge",
         "crossing-degenerate", "bad-sign", "passage-duplicate", "passage-gap"}
STACKED = {"duplicate-id", "bad-sign", "crossing-degenerate", "dangling-edge"}


def hand_built(rng):
    """Vertices, edges and crossings of a diagram built by hand, with every
    violation mixed in: odd and reused ids, edges and crossings naming
    what is not there, bad signs, degenerate crossings and passage gaps
    and duplicates.  Some carry a crossing with four violations at once."""
    def ident(prefix, count):
        return rng.choice(ODD_IDS) if rng.random() < 0.1 else f"{prefix}{rng.randrange(count)}"

    vertices = [ident("v", 6) for _ in range(rng.randint(0, 6))]
    edges = [Edge(ident("e", 8), ident("v", 7), ident("v", 7)) for _ in range(rng.randint(0, 8))]
    eids = [e.id for e in edges] + ["zz"]
    crossings = []
    for _ in range(rng.randint(0, 10)):
        over = (rng.choice(eids), rng.randrange(4))
        under = over if rng.random() < 0.15 else (rng.choice(eids), rng.randrange(4))
        crossings.append(Crossing(ident("x", 10), over, under, rng.choice((1, -1, 1, -1, 0, 2))))
    if crossings and rng.random() < 0.3:
        # a duplicate id, a bad sign, degenerate, and twice a dangling edge
        crossings.append(Crossing(crossings[0].id, ("zz", 0), ("zz", 0), 0))
    return vertices, edges, crossings


def test_validate_lists_what_the_reference_lists_on_hand_built_diagrams():
    # the reference orders its violations by a sort over place keys; where
    # one crossing has several, the keys decided their order
    rng = random.Random(41)
    codes = Counter()
    stacked = 0
    for _ in range(600):
        parts = hand_built(rng)
        vertices, edges, crossings = parts
        got = validate(Diagram(vertices, edges, rows_of(crossings)))
        assert got == head_validate(HeadDiagram(*parts)), parts
        codes.update(v.code for v in got)
        by_entity = defaultdict(set)
        for v in got:
            by_entity[v.entity].add(v.code)
        stacked += any(found >= STACKED for found in by_entity.values())
    assert set(codes) == CODES and min(codes.values()) > 50
    assert stacked > 50


def test_invariant_and_walk_keep_only_rows():
    # the rows are the one crossing form: what the pipeline and a walk
    # leave on a diagram is its fields, the parser's mark and the caches
    # the counts read, the breadth-first forest among them, and no crossing
    # objects
    kept = {"vertices", "edges", "rows", "_checked", "edge_map", "sign_sums", "components",
            "_forest"}
    for path in sorted(DATA.glob("*.sgd")):
        d = parse_sgd(path.read_text(encoding="utf-8"))
        if len(d.components) == 2:
            linking_matrix(d)
            over_under_consistent(d)
        state = WalkState(d)
        for _, state in walk_steps(state, 30, 5):
            pass
        final = state.diagram()
        assert parse_sgd(serialize_sgd(final)) == final
        for x in (d, final):
            assert set(vars(x)) <= kept and not hasattr(x, "crossings")


def test_constructor_takes_vertices_edges_and_rows_out_of_id_order(monkeypatch):
    # Diagram(vertices, edges, rows) sorts each part by id and keeps the
    # rows as given: it equals and hashes like the diagram its text parses
    # to, and shows its rows in repr; as the parser has not checked it, a
    # walk state built on it runs validate
    d = parse_sgd(serialize_sgd(canonical_diagram(2, 2, (1, 5))))  # x10 < x2
    vertices, edges, rows = d.vertices[::-1], d.edges[::-1], d.rows[::-1]
    assert [r[0] for r in rows][-3:] == ["x11", "x10", "x1"]
    built = Diagram(vertices, edges, rows)
    parsed = parse_sgd(serialize_sgd(built))
    assert built == parsed == d and hash(built) == hash(parsed)
    assert (built.vertices, built.edges, built.rows) == (
        tuple(sorted(vertices)), tuple(sorted(edges, key=lambda e: e.id)), tuple(sorted(rows)))
    assert repr(built) == f"Diagram(vertices=('u1', 'u2'), edges={d.edges!r}, rows={d.rows!r})"
    calls = []
    monkeypatch.setattr(moves, "validate", lambda x: calls.append(x) or validate(x))
    WalkState(parsed)
    assert calls == []
    assert WalkState(built).diagram() == built and calls == [built]


def immutable(value, names) -> None:
    """Setting or deleting each name raises ``FrozenValueError`` itself,
    not a subclass nor a bare ``AttributeError``, and changes nothing."""
    before = repr(value), dict(vars(value))
    for name in names:
        for attempt in (lambda: setattr(value, name, ()), lambda: delattr(value, name)):
            with pytest.raises(AttributeError) as caught:
                attempt()
            assert caught.type is FrozenValueError, (type(value), name, caught.type)
    assert (repr(value), vars(value)) == before


def test_diagram_stays_immutable():
    d = parse_sgd(SMALL_TEXT)
    immutable(d, ("vertices", "edges", "rows", "sign_sums"))
    assert d == parse_sgd(SMALL_TEXT)


VALUE_TYPES = {"Diagram", "Edge", "Component", "Violation", "Cycle", "CycleBasis",
               "LinkingMatrix", "SnfCertificate", "IntMatrix", "LkInvariant", "MoveRecord",
               "Verdict"}


def test_every_value_type_stays_immutable():
    d = canonical_diagram(2, 2, (1, 3))
    mat = linking_matrix(d)
    cert = smith_normal_form(mat)
    _, moves = random_homotopy_walk(d, steps=5, seed=3)
    bad = Diagram(("a",), (Edge("e", "a", "b"),))
    values = [d, d.edges[0], d.components[0], validate(bad)[0],
              mat.basis1.cycles[0], mat.basis1, mat, cert, cert.U, lk_invariant(mat),
              moves[0], classify(d, d)]
    assert {type(v).__name__ for v in values} == VALUE_TYPES
    for value in values:
        immutable(value, [*vars(value), "unheld"])
