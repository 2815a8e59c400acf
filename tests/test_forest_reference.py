"""The breadth-first forest against the code it replaced, kept here as a
reference.

``reference_components`` is ``Diagram.components`` as it stood when it
joined vertices by union-find, and ``reference_adjacency``,
``reference_bfs``, ``reference_spanning_tree`` and
``reference_cycle_basis`` are ``homology._adjacency``, ``_bfs``,
``spanning_tree`` and ``cycle_basis`` as they stood when each call built
its component's adjacency and searched it again; copied verbatim, apart
from their names (``components`` was a method, so its argument is still
``self``).  Today a diagram searches each component once, in its
breadth-first forest, and reads components, default trees and their
parents off that.  On valid diagrams both must give the same components,
the same trees in the same order and the same default bases: on random
diagrams, canonical ones and walked ones.  The counting tests pin one
search per component for ``invariant --json`` and for ``WalkState(d)``.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from pathlib import Path
from typing import Mapping, Sequence

import pytest

import sglink.cli as cli
from gen import random_canonical, random_diagram
from sglink import DomainError, canonical_diagram, cycle_basis, parse_sgd, spanning_tree, validate
from sglink import homology, sgd
from sglink.homology import Cycle, CycleBasis
from sglink.moves import WalkState, walk_steps
from sglink.sgd import Component, Diagram, Edge

DATA = Path(__file__).parent / "data"


def reference_components(self) -> tuple[Component, ...]:
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


def reference_adjacency(edge_map: Mapping[str, Edge], edge_ids) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {}
    for eid in edge_ids:
        e = edge_map[eid]
        if e.tail == e.head:
            continue  # loops never join distinct vertices
        adj.setdefault(e.tail, []).append((eid, e.head))
        adj.setdefault(e.head, []).append((eid, e.tail))
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def reference_bfs(adj: dict[str, list[tuple[str, str]]], root: str):
    """Breadth-first search from ``root``, neighbors in ascending edge-id
    order.  Returns the discovery edges in order and, for every reached
    vertex, its (parent edge id, parent vertex, depth); the root maps to
    (None, None, 0)."""
    parent: dict[str, tuple[str | None, str | None, int]] = {root: (None, None, 0)}
    queue = deque([root])
    found: list[str] = []
    while queue:
        v = queue.popleft()
        depth = parent[v][2] + 1
        for eid, other in adj.get(v, ()):
            if other not in parent:
                parent[other] = (eid, v, depth)
                found.append(eid)
                queue.append(other)
    return found, parent


def reference_spanning_tree(d: Diagram, component: int) -> list[str]:
    """Deterministic spanning tree of one component, as an edge-id list.

    Breadth-first from the smallest vertex id, neighbors explored in
    ascending edge-id order; loops are never tree edges.  Edge ids are
    returned in discovery order.
    """
    comp = d.component(component)
    return reference_bfs(reference_adjacency(d.edge_map, comp.edge_ids), comp.vertices[0])[0]


def reference_cycle_basis(d: Diagram, component: int, tree: Sequence[str] | None = None) -> CycleBasis:
    """Fundamental cycle basis of one component.

    One cycle per non-tree edge in ascending edge-id order: the edge itself
    with coefficient +1 (traversed tail to head) plus the unique tree path
    from its head back to its tail, tree edges signed by traversal
    direction.  ``tree`` overrides the deterministic spanning tree; it must
    be a spanning tree of the same component.  ``d`` may be anything with
    a diagram's ``component(k)`` and ``edge_map``, as a ``moves.WalkState``
    has.
    """
    comp = d.component(component)
    vertices, edge_ids, edge_map = comp.vertices, comp.edge_ids, d.edge_map
    if tree is None:
        tree, parent = reference_bfs(reference_adjacency(edge_map, edge_ids), vertices[0])
    else:
        parent = None
    tree_set = set(tree)
    if len(tree_set) != len(tree) or not tree_set <= set(edge_ids):
        raise DomainError("tree edges must be distinct edges of the component")
    if len(tree) != len(vertices) - 1:
        raise DomainError("not a spanning tree: wrong edge count")
    if parent is None:
        _, parent = reference_bfs(reference_adjacency(edge_map, tree), vertices[0])
    if len(parent) != len(vertices):
        raise DomainError("not a spanning tree: it does not reach every vertex")

    cycles = []
    for eid in edge_ids:
        if eid in tree_set:
            continue
        e = edge_map[eid]
        # The tree path from head to tail: up from the head to the common
        # ancestor, then down to the tail.  An edge is +1 when the path
        # runs along it from its tail to its head.
        up: list[tuple[str, int]] = []
        down: list[tuple[str, int]] = []
        u, v = e.head, e.tail
        du, dv = parent[u][2], parent[v][2]
        while u != v:
            if du >= dv:
                tid, pu, _ = parent[u]
                up.append((tid, 1 if edge_map[tid].tail == u else -1))
                u, du = pu, du - 1
            else:
                tid, pv, _ = parent[v]
                down.append((tid, 1 if edge_map[tid].tail == pv else -1))
                v, dv = pv, dv - 1
        coeffs = {eid: 1}
        coeffs.update(up)
        coeffs.update(reversed(down))
        cycles.append(Cycle(component, coeffs))
    return CycleBasis(component, tuple(tree), tuple(cycles))



def assert_same_forest(d: Diagram) -> None:
    assert d.components == reference_components(d)
    for comp in d.components:
        k = comp.index
        assert spanning_tree(d, k) == reference_spanning_tree(d, k)
        assert cycle_basis(d, k) == reference_cycle_basis(d, k)


def test_random_diagrams_match():
    rng = random.Random(2026)
    seen = 0
    for _ in range(1200):
        d = random_diagram(rng)
        assert validate(d) == []
        assert_same_forest(d)
        seen += len(d.components)
    assert seen > 2000


def test_large_random_diagrams_match():
    rng = random.Random(2027)
    for _ in range(150):
        assert_same_forest(random_diagram(rng, max_vertices=40, max_edges=60, max_crossings=30))


def test_canonical_diagrams_match():
    for m in range(1, 5):
        for n in range(1, 5):
            assert_same_forest(canonical_diagram(m, n, ()))
            assert_same_forest(canonical_diagram(m, n, tuple(2 ** i for i in range(min(m, n)))))


def test_walked_diagrams_match():
    rng = random.Random(2028)
    for _ in range(12):
        d = random_canonical(rng)
        for _, state in walk_steps(d, 120, rng.randrange(2**32)):
            pass
        assert_same_forest(state.diagram())
    for path in sorted(DATA.glob("*.sgd")):
        assert_same_forest(parse_sgd(path.read_text(encoding="utf-8")))


@pytest.fixture
def searches(monkeypatch):
    """The root of every breadth-first search run, wherever it runs: the
    first vertex of each parent map ``sgd._bfs`` returns."""
    roots = []

    def counted(edges, vertices):
        forest, where = sgd_bfs(edges, vertices)
        roots.extend(next(iter(parent)) for _, parent in forest)
        return forest, where

    sgd_bfs = sgd._bfs
    monkeypatch.setattr(sgd, "_bfs", counted)
    monkeypatch.setattr(homology, "_bfs", counted)
    return roots


def test_invariant_json_searches_each_component_once(searches, capsys):
    path = DATA / "walked_8_8.sgd"
    assert len(parse_sgd(path.read_text(encoding="utf-8")).components) == 2
    searches.clear()
    assert cli.main(["invariant", "--json", str(path)]) == 0
    assert len(searches) == 2 and len(set(searches)) == 2
    assert '"schema": 1' in capsys.readouterr().out


def test_walk_state_searches_each_component_once(searches):
    d = canonical_diagram(3, 2, (1, 2))
    assert len(d.components) == 2
    WalkState(d)
    assert searches == [c.vertices[0] for c in d.components]
    # the forest is made once: the default bases and trees search no more
    for comp in d.components:
        spanning_tree(d, comp.index)
        cycle_basis(d, comp.index)
    assert len(searches) == 2
    # a given tree is searched, once per basis
    cycle_basis(d, 1, tree=spanning_tree(d, 1))
    assert len(searches) == 3
