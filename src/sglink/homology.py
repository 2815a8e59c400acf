"""Spanning trees and fundamental cycle bases of diagram components.

First homology of a connected graph is free abelian of rank E - V + 1, and
a basis is given by the fundamental cycles of any spanning tree: one cycle
per non-tree edge, consisting of that edge plus the unique tree path
closing it up.  Cycles are integer coefficient vectors over the edges of
one component, with zero boundary at every vertex.

A basis reads each vertex's parent edge and depth in its tree.  The
default trees and their parents are a diagram's breadth-first forest,
one search per component made once per diagram, so :func:`spanning_tree`
and the default :func:`cycle_basis` search nothing; a given tree costs
one search over its own edges.  Each fundamental cycle is then read off by
walking the two endpoints of its edge up to their common ancestor, so the
whole basis is linear in its support.

:func:`cycle_basis` is the one basis builder: the commands, the linking
matrix and every basis a ``moves.WalkState`` hands out come from it; a
state takes its start trees from :func:`spanning_tree`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DomainError
from .sgd import Diagram, Edge, _bfs
from .value import Value

__all__ = [
    "Cycle",
    "CycleBasis",
    "spanning_tree",
    "cycle_basis",
]


class Cycle(Value):
    """Integer 1-cycle supported on the edges of one component.

    ``coeffs`` maps edge id to a nonzero integer coefficient; absent means 0.
    """

    _fields = ("component", "coeffs")

    def __init__(self, component: int, coeffs: Mapping[str, int]):
        held = self.__dict__
        held["component"] = component
        held["coeffs"] = coeffs


class CycleBasis(Value):
    """Fundamental cycles of a spanning tree, one per non-tree edge.

    Cycle k has coefficient +1 on its defining non-tree edge and 0 on the
    other non-tree edges, so the basis matrix restricted to non-tree edges
    is the identity.
    """

    _fields = ("component", "tree_edges", "cycles")

    def __init__(self, component: int, tree_edges: tuple[str, ...], cycles: tuple[Cycle, ...]):
        held = self.__dict__
        held["component"] = component
        held["tree_edges"] = tree_edges
        held["cycles"] = cycles


def _check_ends(edge_map: Mapping[str, Edge], comp, parent: Mapping) -> None:
    """Raise ``DomainError`` unless the tree whose parent map is ``parent``
    reaches the head of each edge of ``comp``."""
    for eid in comp.edge_ids:
        head = edge_map[eid].head
        if head not in parent:
            raise DomainError(
                f"edge {eid!r} of component {comp.index} ends at undeclared vertex {head!r}")


def spanning_tree(d: Diagram, component: int) -> list[str]:
    """Deterministic spanning tree of one component, as a new edge-id list.

    The component's tree in the diagram's breadth-first forest: searched
    from the smallest vertex id, neighbors in ascending edge-id order;
    loops are never tree edges.  Edge ids are in discovery order.
    """
    comp = d.component(component)
    _, tree, parent = d._forest[component - 1]
    _check_ends(d.edge_map, comp, parent)
    return list(tree)


def cycle_basis(d: Diagram, component: int, tree: Sequence[str] | None = None) -> CycleBasis:
    """Fundamental cycle basis of one component.

    One cycle per non-tree edge in ascending edge-id order: the edge itself
    with coefficient +1 (traversed tail to head) plus the unique tree path
    from its head back to its tail, tree edges signed by traversal
    direction.  Without ``tree``, ``d`` is a ``Diagram``, and the tree and
    its parents are the component's in its breadth-first forest.  A given
    ``tree`` must be a spanning tree of the same component; one search
    over it checks that and finds the parents.  ``d`` may then be anything
    with a diagram's ``component(k)`` and ``edge_map``, as a
    ``moves.WalkState`` has.  An edge to an undeclared vertex raises
    ``DomainError``, here and in :func:`spanning_tree`.
    """
    comp = d.component(component)
    vertices, edge_ids, edge_map = comp.vertices, comp.edge_ids, d.edge_map
    parent = None
    if tree is None:
        _, tree, parent = d._forest[component - 1]
    tree_set = set(tree)
    if parent is None:
        if len(tree_set) != len(tree) or not tree_set <= set(edge_ids):
            raise DomainError("tree edges must be distinct edges of the component")
        if len(tree) != len(vertices) - 1:
            raise DomainError("not a spanning tree: wrong edge count")
        trees, _ = _bfs(map(edge_map.__getitem__, tree), vertices)
        if len(trees) != 1:
            raise DomainError("not a spanning tree: it does not reach every vertex")
        _, parent = trees[0]
    _check_ends(edge_map, comp, parent)

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

