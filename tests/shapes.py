"""Diagram families parameterised by size: shapes that random draws,
canonical bouquets and walks never make.

Each shape has two components.  Component 1 is a graph whose fundamental
cycles, over the default tree, run long; component 2 is one loop ``l``,
clasped once with one edge of component 1, so the linking matrix is
r x 1.  With ``unmatched`` the loop also passes over that edge once more,
a crossing with no partner: the over and under counts then differ, and
the diagram fails the over/under check.
"""

from __future__ import annotations

from sglink import Diagram, Edge


def _clasped(vertices: list[str], edges: list[Edge], eid: str, unmatched: bool) -> Diagram:
    """The graph, plus loop ``l`` at vertex ``z`` clasped once with edge
    ``eid``, and, with ``unmatched``, one more crossing of ``l`` over it."""
    rows = [("x1", eid, 0, "l", 0, 1), ("x2", "l", 1, eid, 1, 1)]
    if unmatched:
        rows.append(("x3", "l", 2, eid, 2, 1))
    return Diagram(vertices + ["z"], edges + [Edge("l", "z", "z")], rows)


def theta(length: int, unmatched: bool = False) -> Diagram:
    """Theta L: root ``a``, the smallest vertex id, two paths of ``length``
    edges from it to ``x`` (path ``p``) and ``y`` (path ``q``), and
    ``length`` parallel ``x``-``y`` edges; the loop is clasped with the
    first edge of path ``p``.  Each of the L fundamental cycles runs along
    both paths, so the bases hold L(2L + 1) coefficients, and the matrix is
    L x 1 with every entry 1."""
    w = len(str(length))
    p = ["a"] + [f"p{i:0{w}d}" for i in range(1, length + 1)]
    q = ["a"] + [f"q{i:0{w}d}" for i in range(1, length + 1)]
    edges = [Edge(f"e{i + 1:0{w}d}", p[i], p[i + 1]) for i in range(length)]
    edges += [Edge(f"f{i + 1:0{w}d}", q[i], q[i + 1]) for i in range(length)]
    edges += [Edge(f"m{i + 1:0{w}d}", p[-1], q[-1]) for i in range(length)]
    return _clasped(p + q[1:], edges, edges[0].id, unmatched)


def grid(n: int, unmatched: bool = False) -> Diagram:
    """The n x n grid graph, vertex ``g{i}{j}`` joined to its right and
    lower neighbours by edges ``h{i}{j}`` and ``v{i}{j}``; the loop is
    clasped with ``h`` of the corner, the smallest vertex id.  The matrix
    is (n - 1)^2 x 1."""
    w = len(str(n))

    def g(i, j):
        return f"g{i:0{w}d}{j:0{w}d}"

    edges = [Edge(f"h{g(i, j)[1:]}", g(i, j), g(i, j + 1)) for i in range(n) for j in range(n - 1)]
    edges += [Edge(f"v{g(i, j)[1:]}", g(i, j), g(i + 1, j)) for i in range(n - 1) for j in range(n)]
    return _clasped([g(i, j) for i in range(n) for j in range(n)], edges, edges[0].id, unmatched)
