"""The moves and the walk against the code they replaced, kept here as a
reference.

The functions below, from ``_fresh_ids`` to ``replay_steps``, are the move
engine as it stood when every move built a new ``Diagram``, copied
verbatim but for the lookups a ``Diagram`` no longer offers (passage
counts, the component of an edge, crossings by id), which ``gen`` and the
crossing list provide, for ``gen``'s conversions between the
``Crossing`` objects they build and the rows a ``Diagram`` holds
(``crossings_of`` and ``rows_of``), and for the words of a bad split end:
a replayed token that is no ``<edge>.tail`` or ``<edge>.head``, and a
moved end that is not at the vertex or is listed twice, is named with its
fault, the first in the order listed.  Today each move is a method of
``moves.WalkState``, which a walk updates in place, and one move on a
diagram is ``gen.moved``.  Both must draw the same moves from a seed,
reach the same diagrams, and reject the same bad moves with the same
error text.
The corpus covers canonical diagrams, random diagrams with self-crossings
on one edge and any number of components, and walks that contract ``u1``
away, so the components renumber.
"""

import random
from typing import Iterator, Sequence

from gen import (
    Crossing,
    component_of_edge,
    crossings_of,
    edge_components,
    moved,
    passage_counts,
    random_diagram,
    rows_of,
)
from sglink import DomainError, canonical_diagram, cycle_basis, linking_matrix, serialize_sgd
from sglink import moves
from sglink.linking import matrix_from_pairs
from sglink.moves import KINDS, MoveRecord, format_move, parse_move
from sglink.sgd import Diagram, Edge, pair_signs


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
    if xid not in {c.id for c in crossings_of(d)}:
        raise DomainError(f"unknown crossing {xid!r}")
    new = tuple(
        Crossing(c.id, c.under, c.over, -c.sign) if c.id == xid else c
        for c in crossings_of(d)
    )
    return Diagram(d.vertices, d.edges, rows_of(new))


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
        if not 0 <= pos <= passage_counts(d)[eid]:
            raise DomainError(
                f"insertion index {pos} out of range 0..{passage_counts(d)[eid]} on edge {eid!r}"
            )

    def shift(ref: tuple[str, int]) -> tuple[str, int]:
        eid, idx = ref
        if eid == e and idx >= pos_e:
            idx += 2
        if eid == f and idx >= pos_f:
            idx += 2
        return (eid, idx)

    crossings = [Crossing(c.id, shift(c.over), shift(c.under), c.sign) for c in crossings_of(d)]
    xa, xb = _fresh_ids("x", {c.id for c in crossings_of(d)}, 2)
    crossings.append(Crossing(xa, (e, pos_e), (f, pos_f), eps))
    crossings.append(Crossing(xb, (f, pos_f + 1), (e, pos_e + 1), eps))
    return Diagram(d.vertices, d.edges, rows_of(crossings))


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
    if passage_counts(d)[eid] != 0:
        raise DomainError(f"cannot contract edge {eid!r}: it carries crossing passages")
    keep, drop = edge.tail, edge.head
    edges = tuple(
        Edge(x.id, keep if x.tail == drop else x.tail, keep if x.head == drop else x.head)
        for x in d.edges
        if x.id != eid
    )
    vertices = tuple(v for v in d.vertices if v != drop)
    return Diagram(vertices, edges, d.rows)


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
    for k, end in enumerate(part2):
        if end not in ends:
            raise DomainError(f"split end {'.'.join(end)!r} is not at vertex {vid!r}")
        if end in part2[:k]:
            raise DomainError(f"split end {'.'.join(end)!r} is listed twice")
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
    return Diagram(d.vertices + (new_vid,), tuple(edges), d.rows)


# fewest parameters each move kind takes (split_vertex lists ends after three)
_ARITY = {"crossing_change": 1, "clasp": 5, "contract_edge": 1, "split_vertex": 3}


def _record(d: Diagram, kind: str, params: tuple[str, ...]) -> MoveRecord:
    if len(params) < _ARITY.get(kind, 0):
        raise DomainError(f"move {kind!r} is missing parameters")
    if kind == "crossing_change":
        c = {c.id: c for c in crossings_of(d)}.get(params[0])
        if c is None:
            raise DomainError(f"unknown crossing {params[0]!r}")
        preserving = component_of_edge(d, c.over[0]) == component_of_edge(d, c.under[0])
    elif kind == "clasp":
        preserving = component_of_edge(d, params[0]) == component_of_edge(d, params[2])
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
        for tok, end in zip(p[3:], part2):
            if len(end) == 1 or end[1] not in ("tail", "head"):
                raise DomainError(f"split end {tok!r} is not <edge>.tail or <edge>.head")
        moved = set(part2)
        part1 = [end for end in _ends_at(d, vid) if end not in moved]
        return split_vertex(d, vid, part1, part2, new_vid, new_eid)
    raise DomainError(f"unknown move kind {kind!r}")


def _sample_move(d: Diagram, rng: random.Random) -> MoveRecord | None:
    """One attempt at drawing an applicable homotopy-preserving move."""
    kind = rng.choice(KINDS)
    if kind == "crossing_change":
        comp = edge_components(d)
        candidates = [c.id for c in crossings_of(d) if comp[c.over[0]] == comp[c.under[0]]]
        if not candidates:
            return None
        return _record(d, kind, (rng.choice(candidates),))
    if kind == "clasp":
        comp = d.components[rng.randrange(len(d.components))]
        if len(comp.edge_ids) < 2:
            return None
        e, f = rng.sample(comp.edge_ids, 2)
        pos_e = rng.randint(0, passage_counts(d)[e])
        pos_f = rng.randint(0, passage_counts(d)[f])
        eps = rng.choice((1, -1))
        return _record(d, kind, (e, str(pos_e), f, str(pos_f), str(eps)))
    if kind == "contract_edge":
        counts = passage_counts(d)
        candidates = [e.id for e in d.edges if e.tail != e.head and counts[e.id] == 0]
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



# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """What a call gives: the SGD text of its diagram, or its error."""
    try:
        return serialize_sgd(fn(*args))
    except (DomainError, TypeError) as exc:
        return (type(exc), str(exc))


def assert_state_matches(state, d):
    """The state's bookkeeping against ``d``, its diagram worked out anew:
    the diagram itself, the inter-component sign sums, the kept basis of
    every component, which must be the fundamental basis of its kept tree
    in ``d``, and, for two components, the matrix over those bases, which
    must equal the one rebuilt from ``d``'s crossings."""
    assert state.diagram() == d
    comp = edge_components(d)
    inter = [r for r in d.rows if comp[r[1]] != comp[r[3]]]
    assert {k: s for k, s in state.pair_signs.items() if s} == {
        k: s for k, s in pair_signs(inter).items() if s}
    for comp in d.components:
        b = state.basis(comp.index)
        assert b == cycle_basis(d, comp.index, tree=b.tree_edges)
    if len(d.components) == 2:
        mat = linking_matrix(state)
        assert mat.entries == matrix_from_pairs(d.sign_sums, mat.basis1, mat.basis2).entries


def assert_same_walk(d, steps, seed, every_step=True):
    """Walk ``d`` with both engines; the move lines must match and so must
    the diagrams, at every step or at the end.  Returns the reference's
    diagrams."""
    ref = list(walk_steps(d, steps, seed))
    count = 0
    for rec, state in moves.walk_steps(d, steps, seed):
        assert format_move(rec) == format_move(ref[count][0]), (seed, count)
        assert rec == ref[count][0]
        if every_step:
            assert_state_matches(state, ref[count][1])
        count += 1
    assert count == len(ref) == steps
    final = ref[-1][1] if ref else d
    got, records = moves.random_homotopy_walk(d, steps, seed)
    assert serialize_sgd(got) == serialize_sgd(final)
    assert [format_move(r) for r in records] == [format_move(r) for r, _ in ref]
    return [step for _, step in ref]


def assert_same_replay(d, text):
    """Replay a move list with both engines: same records, same diagram
    after every line, and the same error at the same line if one fails."""
    ref, new = replay_steps(d, text), moves.replay_steps(d, text)
    count = 0
    while True:
        try:
            want = next(ref)
        except StopIteration:
            want = None
        except DomainError as exc:
            want = exc
        try:
            got = next(new)
        except StopIteration:
            got = None
        except DomainError as exc:
            got = exc
        if isinstance(want, DomainError) or isinstance(got, DomainError):
            assert (type(got), str(got)) == (type(want), str(want)), (count, text)
            return count, str(got)
        if want is None or got is None:
            assert want is None and got is None
            return count, None
        assert got[0] == want[0]
        assert_state_matches(got[1], want[1])
        count += 1


CANONICAL = [(3, 3, (1, 2, 4)), (2, 2, (1, 6)), (1, 1, (3,)), (6, 5, (1, 2)),
             (3, 2, (5, 10)), (0, 0, ()), (2, 3, ()), (11, 11, (1,) * 11)]


def test_canonical_walks_match():
    for spec in CANONICAL:
        d = canonical_diagram(*spec)
        for seed in range(4):
            assert_same_walk(d, 60, seed)
    # longer walks, compared at the end only
    for seed in (7, 9101):
        assert_same_walk(canonical_diagram(3, 3, (1, 2, 4)), 1500, seed, every_step=False)


def test_random_diagram_walks_match():
    rng = random.Random(61)
    self_crossings = many_components = 0
    for _ in range(80):
        d = random_diagram(rng)
        self_crossings += any(over == under for _, over, _, under, _, _ in d.rows)
        many_components += len(d.components) > 2
        assert_same_walk(d, 30, rng.randrange(2**32))
    assert self_crossings > 10 and many_components > 10


def test_walk_contracting_u1_renumbers_components():
    # seed 22 contracts u1 away at step 28; component 1 is then the one
    # around u2, and numbers swap again as later moves change the smallest
    # vertex ids
    d = canonical_diagram(3, 3, (1, 2, 4))
    steps = assert_same_walk(d, 120, 22)
    renumbered = [k for k, step in enumerate(steps) if component_of_edge(step, "a1") == 2]
    assert renumbered and renumbered[0] == 28
    assert "u1" not in steps[28].vertices
    for k in renumbered[:3]:
        st = steps[k]
        text = "".join(f"{format_move(rec)}\n" for rec, _ in walk_steps(d, k + 1, 22))
        assert assert_same_replay(d, text) == (k + 1, None)
        assert serialize_sgd(moves.random_homotopy_walk(d, k + 1, 22)[0]) == serialize_sgd(st)


def test_replays_match():
    rng = random.Random(62)
    for spec in CANONICAL[:5]:
        d = canonical_diagram(*spec)
        _, records = moves.random_homotopy_walk(d, 80, rng.randrange(2**32))
        text = "# a comment\n\n" + "".join(f"{format_move(r)}  # step\n" for r in records)
        assert assert_same_replay(d, text) == (80, None)


def test_inter_component_replays_match():
    # crossing changes and clasps across the components change the sums
    # the linking matrix is read off; a walk never draws them
    rng = random.Random(64)
    for spec in CANONICAL[:5]:
        d = canonical_diagram(*spec)
        for _ in range(6):
            _, records = moves.random_homotopy_walk(d, 30, rng.randrange(2**32))
            lines = [format_move(r) for r in records]
            walked = d
            for r in records:
                walked = apply_move(walked, r)
            comps = walked.components
            for _ in range(12):
                kind = rng.choice(("crossing_change", "clasp"))
                if kind == "crossing_change" and walked.rows:
                    line = f"crossing_change {rng.choice(walked.rows)[0]}"
                elif len(comps) == 2 and comps[0].edge_ids and comps[1].edge_ids:
                    e, f = rng.choice(comps[0].edge_ids), rng.choice(comps[1].edge_ids)
                    if rng.random() < 0.5:
                        e, f = f, e
                    counts = passage_counts(walked)
                    line = (f"clasp {e} {rng.randint(0, counts[e])} "
                            f"{f} {rng.randint(0, counts[f])} {rng.choice((1, -1))}")
                else:
                    continue
                lines.append(line)
                walked = apply_move(walked, _record(walked, *parse_move(line)))
            text = "".join(f"{ln}\n" for ln in lines)
            assert assert_same_replay(d, text) == (len(lines), None)


def test_bad_replay_lines_raise_the_same_errors():
    hopf = canonical_diagram(1, 1, (1,))
    walked, records = moves.random_homotopy_walk(canonical_diagram(2, 2, (1, 2)), 40, 3)
    ok = "".join(f"{format_move(r)}\n" for r in records[:5])
    bad = [
        "crossing_change x999", "crossing_change", "clasp a1 0", "clasp zz 0 b1 0 1",
        "clasp a1 0 zz 0 1", "clasp a1 x b1 0 1", "clasp a1 0 b1 0 2", "clasp a1 0 a1 0 1",
        "clasp a1 9 b1 0 1", "clasp a1 0 b1 -1 1", "clasp a1 0 b1 0 +1", "clasp a1 0 b1 0 -1",
        "clasp a1 0 b1 1" + "0" * 5000 + " 1", "contract_edge", "contract_edge a1",
        "contract_edge zz", "split_vertex u1", "split_vertex zz v1 e1",
        "split_vertex u1 u2 e1", "split_vertex u1 v1 a1", "split_vertex u1 v1 e1 a1",
        "split_vertex u1 v1 e1 a1.side", "split_vertex u1 v1 e1 a1.tail",
        "split_vertex u1 v1 e1 b1.tail", "teleport a1",
        "contract_edge e1\ncontract_edge e1", "split_vertex u1 v1 e1\ncontract_edge e1\n"
        "split_vertex u1 v1 e1 a1.head a1.tail\nclasp e1 0 a1 0 1\ncontract_edge e1",
    ]
    errors = set()
    for start in (hopf, walked):
        for line in bad:
            for text in (line + "\n", ok + line + "\n"):
                errors.add(assert_same_replay(start, text)[1])
    assert len(errors) > 15


def test_single_moves_match_on_random_arguments():
    rng = random.Random(63)
    for _ in range(300):
        d = random_diagram(rng)
        eids = [e.id for e in d.edges] + ["zz"]
        xids = [r[0] for r in d.rows] + ["x999"]
        vids = list(d.vertices) + ["zz"]
        xid = rng.choice(xids)
        assert outcome(moved, d, "crossing_change", xid) == outcome(crossing_change, d, xid)
        e, f = rng.choice(eids), rng.choice(eids)
        count = max(passage_counts(d).values(), default=0)
        args = (e, rng.randint(-1, count + 1), f, rng.randint(-1, count + 1),
                rng.choice((1, -1, -1, 1, 0)))
        assert outcome(moved, d, "clasp", *args) == outcome(clasp, d, *args)
        eid = rng.choice(eids)
        assert outcome(moved, d, "contract_edge", eid) == outcome(contract_edge, d, eid)
        vid = rng.choice(vids)
        ends = _ends_at(d, vid)
        rng.shuffle(ends)
        away = ends[rng.randint(0, len(ends)):]
        if rng.random() < 0.2:
            away.append(rng.choice(ends + [("zz", "tail")]))
        new_vid = rng.choice(vids + ["v9", "w1"])
        new_eid = rng.choice(eids + ["e9", "f1"])
        # the reference keeps what a replay kept: the ends not moved
        stay = [end for end in ends if end not in away]
        want = outcome(split_vertex, d, vid, stay, away, new_vid, new_eid)
        assert outcome(moved, d, "split_vertex", vid, away, new_vid, new_eid) == want
