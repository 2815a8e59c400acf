"""Seeded random generators, diagram lookups the package does not keep,
one move on a diagram, the crossing objects of the reference copies, and
one injected move fault, shared across the test modules."""

from __future__ import annotations

import random

from sglink import Diagram, DomainError, Edge, IntMatrix, canonical_diagram
from sglink.moves import MoveRecord, WalkState, random_homotopy_walk, walk_steps
from sglink.value import Value


def random_diagram(rng: random.Random, max_vertices=8, max_edges=10, max_crossings=12) -> Diagram:
    """A structurally valid diagram with random passage interleavings.

    Any number of components; crossings are assigned fresh passage slots and
    then each edge's indices are permuted, which keeps them a 0..p-1 range.
    """
    vertices = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    edges = [
        Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(0, max_edges))
    ]
    rows = []
    counter = {e.id: 0 for e in edges}
    if edges:
        for i in range(rng.randint(0, max_crossings)):
            over = rng.choice(edges).id
            under = rng.choice(edges).id
            oi = counter[over]
            counter[over] += 1
            ui = counter[under]
            counter[under] += 1
            rows.append((f"x{i}", over, oi, under, ui, rng.choice((1, -1))))
        perm = {}
        for eid, count in counter.items():
            p = list(range(count))
            rng.shuffle(p)
            perm[eid] = p
        rows = [(xid, over, perm[over][oi], under, perm[under][ui], sign)
                for xid, over, oi, under, ui, sign in rows]
    return Diagram(tuple(vertices), tuple(edges), tuple(rows))


def moved(d: Diagram, kind: str, *args) -> Diagram:
    """The diagram one move makes of ``d``: ``WalkState(d)``, the state's
    method ``kind`` on ``args``, then ``.diagram()``."""
    state = WalkState(d)
    getattr(state, kind)(*args)
    return state.diagram()


class Crossing(Value):
    """Signed crossing between two (edge id, passage index) references: the
    crossing object diagrams held before rows were their one crossing
    form, which the reference copies in the tests still build."""

    _fields = ("id", "over", "under", "sign")

    def __init__(self, id: str, over: tuple[str, int], under: tuple[str, int], sign: int):
        held = self.__dict__
        held["id"] = id
        held["over"] = over
        held["under"] = under
        held["sign"] = sign


def rows_of(crossings) -> tuple[tuple, ...]:
    """The rows ``(id, over edge, over index, under edge, under index,
    sign)`` of ``Crossing`` objects, in their order."""
    return tuple((c.id, *c.over, *c.under, c.sign) for c in crossings)


def crossings_of(d: Diagram) -> tuple[Crossing, ...]:
    """The ``Crossing`` objects of a diagram's rows, in id order."""
    return tuple(Crossing(xid, (oe, oi), (ue, ui), sign)
                 for xid, oe, oi, ue, ui, sign in d.rows)


def random_matrix(rng: random.Random, max_dim=6, bound=20) -> IntMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix(m, n, tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                                 for _ in range(m)))


def sparse_matrix(rng: random.Random, rows: int, cols: int, density: float,
                  bound=9) -> IntMatrix:
    """A rows x cols matrix whose entries are each nonzero with probability
    ``density``, a nonzero drawn from [-bound, bound]."""
    return IntMatrix(rows, cols, tuple(
        tuple(rng.choice((-1, 1)) * rng.randint(1, bound) if rng.random() < density else 0
              for _ in range(cols))
        for _ in range(rows)))


def transposed(m: IntMatrix) -> IntMatrix:
    """The transpose of ``m``."""
    return IntMatrix(m.cols, m.rows, tuple(zip(*m.entries)) if m.rows else ((),) * m.cols)


def divisor_chains(max_len: int, max_d: int) -> list[tuple[int, ...]]:
    """Every divisibility chain with entries <= max_d, lengths 0..max_len."""
    chains: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        frontier = [
            c + (d,)
            for c in frontier
            for d in range(1, max_d + 1)
            if not c or d % c[-1] == 0
        ]
        chains.extend(frontier)
    return chains


def random_chain(rng: random.Random, max_len: int, max_d=12) -> tuple[int, ...]:
    chain: list[int] = []
    for _ in range(rng.randint(0, max_len)):
        last = chain[-1] if chain else 1
        chain.append(rng.choice([d for d in range(last, max_d + 1) if d % last == 0]))
    return tuple(chain)


def random_canonical(rng: random.Random, max_rank=4, max_d=12, walk_steps=0) -> Diagram:
    """Canonical diagram with random ranks and chain, optionally perturbed."""
    m = rng.randint(1, max_rank)
    n = rng.randint(1, max_rank)
    chain = random_chain(rng, min(m, n), max_d)
    d = canonical_diagram(m, n, chain)
    if walk_steps:
        d, _ = random_homotopy_walk(d, walk_steps, rng.randrange(2**32))
    return d


def random_unimodular(size: int, seed: int, ops: int = 30) -> IntMatrix:
    """Product of ``ops`` random elementary matrices; determinant is +-1.

    Operations are swaps, negations, and adding a nonzero multiple in
    [-3, 3] of one row to another.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(ops):
        if size == 0:
            break
        kind = rng.choice(("swap", "negate", "add")) if size > 1 else "negate"
        if kind == "negate":
            i = rng.randrange(size)
            m[i] = [-x for x in m[i]]
        elif kind == "swap":
            i, j = rng.sample(range(size), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i, j = rng.sample(range(size), 2)
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return IntMatrix(size, size, tuple(map(tuple, m)))


def random_spanning_tree(d: Diagram, component: int, rng: random.Random) -> list[str]:
    """Uniformly shuffled Kruskal tree of one component, for checking that
    results do not depend on the choice of tree."""
    comp = d.component(component)
    edges = [eid for eid in comp.edge_ids if d.edge_map[eid].tail != d.edge_map[eid].head]
    rng.shuffle(edges)
    parent = {v: v for v in comp.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for eid in edges:
        e = d.edge_map[eid]
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
            tree.append(eid)
    return tree


def passage_counts(d: Diagram) -> dict[str, int]:
    """Edge id -> how many crossing passages the edge carries, read off
    ``d.rows``."""
    counts = {e.id: 0 for e in d.edges}
    for _, over, _, under, _, _ in d.rows:
        for eid in (over, under):
            if eid in counts:
                counts[eid] += 1
    return counts


def sign_delta(d: Diagram) -> dict[tuple[str, str], int]:
    """(e, f) -> Delta(e, f) = S(e, f) - S(f, e) where it is nonzero, S
    being ``d.sign_sums``, the sign sum per (over edge, under edge) pair."""
    sums = d.sign_sums
    out = {(o, u): s - sums.get((u, o), 0) for (o, u), s in sums.items()}
    out.update({(u, o): -t for (o, u), t in out.items()})
    return {pair: t for pair, t in out.items() if t}


def edge_components(d: Diagram) -> dict[str, int]:
    """Edge id -> the index of the component the edge lies in."""
    return {eid: comp.index for comp in d.components for eid in comp.edge_ids}


def component_of_edge(d: Diagram, eid: str) -> int:
    """:func:`edge_components` of one edge; an unknown edge raises
    ``DomainError``."""
    comps = edge_components(d)
    if eid not in comps:
        raise DomainError(f"unknown edge {eid!r}")
    return comps[eid]


def walk_to_first_split(d: Diagram, steps: int, seed: int) -> list[tuple[Diagram, MoveRecord]]:
    """(diagram before, move) for each move of ``walk_steps(d, steps,
    seed)`` up to the first split."""
    out = []
    before = d
    for rec, state in walk_steps(d, steps, seed):
        out.append((before, rec))
        if rec.kind == "split_vertex":
            break
        before = state.diagram()
    return out


def leaving_split_edge_out(graph_moved):
    """``WalkState._graph_moved`` after a split that left its new edge out
    of the kept tree: the tree is one edge short when the move is
    certified."""

    def leaving(state, key, eid, *rest):
        state._trees[key].pop(eid, None)  # a contraction's edge is out already
        return graph_moved(state, key, eid, *rest)
    return leaving
