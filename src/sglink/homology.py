"""Spanning trees and fundamental cycle bases of diagram components.

First homology of a connected graph is free abelian of rank E - V + 1, and
a basis is given by the fundamental cycles of any spanning tree: one cycle
per non-tree edge, consisting of that edge plus the unique tree path
closing it up.  Cycles are integer coefficient vectors over the edges of
one component, with the boundary-zero property checkable vertex by vertex.

A basis costs one breadth-first search, which records each vertex's
parent edge and depth: over the component's edges for the default tree,
whose discovery edges are that tree, or over the edges of a given tree.
Each fundamental cycle is then read off by walking the two endpoints of
its edge up to their common ancestor, so the whole basis is linear in its
support.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DomainError
from .sgd import Diagram, Edge

__all__ = [
    "Cycle",
    "CycleBasis",
    "spanning_tree",
    "random_spanning_tree",
    "cycle_basis",
    "fundamental_basis",
    "rank",
    "boundary",
]


@dataclass(frozen=True)
class Cycle:
    """Integer 1-cycle supported on the edges of one component.

    ``coeffs`` maps edge id to a nonzero integer coefficient; absent means 0.
    """

    component: int
    coeffs: Mapping[str, int]

    def coeff(self, eid: str) -> int:
        return self.coeffs.get(eid, 0)

    def negated(self) -> "Cycle":
        return Cycle(self.component, {e: -c for e, c in self.coeffs.items()})


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning tree, one per non-tree edge.

    Cycle k has coefficient +1 on its defining non-tree edge and 0 on the
    other non-tree edges, so the basis matrix restricted to non-tree edges
    is the identity.
    """

    component: int
    tree_edges: tuple[str, ...]
    cycles: tuple[Cycle, ...]


def _adjacency(edge_map: Mapping[str, Edge], edge_ids) -> dict[str, list[tuple[str, str]]]:
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


def _bfs(adj: dict[str, list[tuple[str, str]]], root: str):
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


def spanning_tree(d: Diagram, component: int) -> list[str]:
    """Deterministic spanning tree of one component, as an edge-id list.

    Breadth-first from the smallest vertex id, neighbors explored in
    ascending edge-id order; loops are never tree edges.  Edge ids are
    returned in discovery order.
    """
    comp = d.component(component)
    return _bfs(_adjacency(d.edge_map, comp.edge_ids), comp.vertices[0])[0]


def random_spanning_tree(d: Diagram, component: int, rng: random.Random) -> list[str]:
    """Uniformly shuffled Kruskal tree; for basis-independence testing."""
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


def cycle_basis(d: Diagram, component: int, tree: Sequence[str] | None = None) -> CycleBasis:
    """Fundamental cycle basis of one component.

    One cycle per non-tree edge in ascending edge-id order: the edge itself
    with coefficient +1 (traversed tail to head) plus the unique tree path
    from its head back to its tail, tree edges signed by traversal
    direction.  ``tree`` overrides the deterministic spanning tree; it must
    be a spanning tree of the same component.
    """
    comp = d.component(component)
    return fundamental_basis(component, comp.vertices, comp.edge_ids, d.edge_map, tree)


def fundamental_basis(
    component: int,
    vertices: Sequence[str],
    edge_ids: Sequence[str],
    edge_map: Mapping[str, Edge],
    tree: Sequence[str] | None = None,
) -> CycleBasis:
    """:func:`cycle_basis` of a component given by its sorted vertex and
    edge ids and an edge id -> Edge map, for callers that keep a graph
    without building a ``Diagram`` (the ``perturb`` walk)."""
    if tree is None:
        tree, parent = _bfs(_adjacency(edge_map, edge_ids), vertices[0])
    else:
        parent = None
    tree_set = set(tree)
    if len(tree_set) != len(tree) or not tree_set <= set(edge_ids):
        raise DomainError("tree edges must be distinct edges of the component")
    if len(tree) != len(vertices) - 1:
        raise DomainError("not a spanning tree: wrong edge count")
    if parent is None:
        _, parent = _bfs(_adjacency(edge_map, tree), vertices[0])
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


def rank(d: Diagram, component: int) -> int:
    """First-homology rank of one component: E - V + 1."""
    comp = d.component(component)
    return len(comp.edge_ids) - len(comp.vertices) + 1


def boundary(d: Diagram, cycle: Cycle) -> dict[str, int]:
    """Signed incidence sum at every vertex; all zero for a genuine cycle.

    Incidence of an edge at a vertex is +1 at its head plus -1 at its tail,
    so loops contribute nothing.
    """
    sums: dict[str, int] = {}
    for eid, coeff in cycle.coeffs.items():
        e = d.edge_map[eid]
        sums[e.head] = sums.get(e.head, 0) + coeff
        sums[e.tail] = sums.get(e.tail, 0) - coeff
    return {v: s for v, s in sums.items() if s != 0}
