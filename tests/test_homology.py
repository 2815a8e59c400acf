"""Spanning trees, fundamental cycles, and the boundary-zero oracle."""

import random

import pytest

from gen import random_diagram, random_spanning_tree
from oracles import boundary
from sglink import Diagram, DomainError, Edge, cycle_basis, linking_matrix, parse_sgd, spanning_tree

TRIANGLE = parse_sgd(
    "sgd 1\nvertex a\nvertex b\nvertex c\n"
    "edge e1 a b\nedge e2 b c\nedge e3 c a\n"
)

BOUQUET = parse_sgd("sgd 1\nvertex v\nedge l1 v v\nedge l2 v v\n")

THETA = parse_sgd("sgd 1\nvertex a\nvertex b\nedge e1 a b\nedge e2 a b\nedge e3 a b\n")

PATH = parse_sgd("sgd 1\nvertex a\nvertex b\nvertex c\nedge e1 a b\nedge e2 b c\n")

# a triangle a-b-c with a pendant edge c-d and a loop at d
KITE = parse_sgd(
    "sgd 1\nvertex a\nvertex b\nvertex c\nvertex d\n"
    "edge e1 a b\nedge e2 b c\nedge e3 c a\nedge e4 c d\nedge e5 d d\n"
)


class TestSpanningTree:
    def test_bouquet_has_empty_tree(self):
        assert spanning_tree(BOUQUET, 1) == []

    def test_triangle_bfs_order(self):
        # BFS from a explores e1 (to b) then e3 (to c)
        assert spanning_tree(TRIANGLE, 1) == ["e1", "e3"]

    def test_path_is_its_own_tree(self):
        assert sorted(spanning_tree(PATH, 1)) == ["e1", "e2"]

    def test_unknown_component(self):
        with pytest.raises(DomainError):
            spanning_tree(TRIANGLE, 2)

    def test_random_tree_is_spanning(self):
        rng = random.Random(5)
        for _ in range(30):
            d = random_diagram(rng)
            for comp in d.components:
                tree = random_spanning_tree(d, comp.index, rng)
                assert len(tree) == len(comp.vertices) - 1
                cycle_basis(d, comp.index, tree=tree)  # accepts it as a tree


class TestCycleBasis:
    def test_bouquet_loops_are_their_own_cycles(self):
        basis = cycle_basis(BOUQUET, 1)
        assert [c.coeffs for c in basis.cycles] == [{"l1": 1}, {"l2": 1}]

    def test_triangle_cycle(self):
        basis = cycle_basis(TRIANGLE, 1)
        assert len(basis.cycles) == 1
        assert basis.cycles[0].coeffs == {"e1": 1, "e2": 1, "e3": 1}
        assert boundary(TRIANGLE, basis.cycles[0]) == {}

    def test_tree_component_has_empty_basis(self):
        assert cycle_basis(PATH, 1).cycles == ()

    def test_theta(self):
        basis = cycle_basis(THETA, 1)
        assert len(basis.cycles) == 2
        for c in basis.cycles:
            assert boundary(THETA, c) == {}

    def test_fundamental_property(self):
        # restricted to non-tree edges, the cycle matrix is the identity
        rng = random.Random(9)
        for _ in range(40):
            d = random_diagram(rng)
            for comp in d.components:
                basis = cycle_basis(d, comp.index)
                non_tree = [e for e in comp.edge_ids if e not in set(basis.tree_edges)]
                for i, c in enumerate(basis.cycles):
                    for j, eid in enumerate(non_tree):
                        assert c.coeffs.get(eid, 0) == (1 if i == j else 0)

    def test_boundary_zero_oracle(self):
        rng = random.Random(10)
        for _ in range(60):
            d = random_diagram(rng)
            for comp in d.components:
                for c in cycle_basis(d, comp.index).cycles:
                    assert boundary(d, c) == {}

    def test_determinism(self):
        rng = random.Random(12)
        for _ in range(20):
            d = random_diagram(rng)
            again = Diagram(d.vertices, d.edges, d.rows)
            for comp in d.components:
                assert cycle_basis(d, comp.index) == cycle_basis(again, comp.index)

    def test_explicit_tree_validation(self):
        with pytest.raises(DomainError):
            cycle_basis(TRIANGLE, 1, tree=["e1"])  # too few edges
        with pytest.raises(DomainError):
            cycle_basis(TRIANGLE, 1, tree=["e1", "e1"])  # repeated

    def test_tree_with_a_cycle_is_rejected(self):
        # right size, but the three triangle edges never reach d
        with pytest.raises(DomainError, match="not a spanning tree"):
            cycle_basis(KITE, 1, tree=["e1", "e2", "e3"])

    def test_tree_with_a_loop_is_rejected(self):
        with pytest.raises(DomainError, match="not a spanning tree"):
            cycle_basis(KITE, 1, tree=["e1", "e2", "e5"])

    def test_explicit_tree_gives_its_own_basis(self):
        basis = cycle_basis(KITE, 1, tree=["e2", "e3", "e4"])
        assert basis.tree_edges == ("e2", "e3", "e4")
        # e1 runs a->b; the tree path back is b->c along e2, c->a along e3
        assert [c.coeffs for c in basis.cycles] == [{"e1": 1, "e2": 1, "e3": 1}, {"e5": 1}]

    def test_default_tree_matches_spanning_tree(self):
        # the default path takes the tree and the parents from one BFS
        rng = random.Random(15)
        for _ in range(60):
            d = random_diagram(rng)
            for comp in d.components:
                assert cycle_basis(d, comp.index) == cycle_basis(
                    d, comp.index, tree=spanning_tree(d, comp.index))

    def test_default_path_checks_the_tree(self):
        # edge e reaches the undeclared vertex w, which the forest's tree,
        # over declared vertices only, does not
        d = Diagram(("v",), (Edge("e", "v", "w"),))
        with pytest.raises(DomainError, match="edge 'e' of component 1 ends at undeclared vertex 'w'"):
            cycle_basis(d, 1)
        with pytest.raises(DomainError, match="undeclared vertex 'w'"):
            spanning_tree(d, 1)

    def test_an_edge_to_an_undeclared_vertex_is_never_a_tree_edge(self):
        # component 1 is u with its loop a and the edge g to a vertex never
        # declared; component 2 is v with its loop b
        d = Diagram(("u", "v"), (Edge("a", "u", "u"), Edge("b", "v", "v"), Edge("g", "u", "ghost")))
        assert [c.edge_ids for c in d.components] == [("a", "g"), ("b",)]
        for read in (lambda: spanning_tree(d, 1), lambda: cycle_basis(d, 1),
                     lambda: cycle_basis(d, 1, tree=[]), lambda: linking_matrix(d)):
            with pytest.raises(DomainError, match="edge 'g' of component 1 ends at undeclared vertex"):
                read()
        with pytest.raises(DomainError, match="wrong edge count"):
            cycle_basis(d, 1, tree=["g"])
        assert spanning_tree(d, 2) == []
        assert [c.coeffs for c in cycle_basis(d, 2).cycles] == [{"b": 1}]

    def test_a_given_tree_through_an_undeclared_vertex_does_not_span(self):
        # u-w joined by a, and g from u to a vertex never declared: the tree
        # {g} has one edge for two vertices, but reaches no vertex of them
        d = Diagram(("u", "w"), (Edge("a", "u", "w"), Edge("g", "u", "ghost")))
        with pytest.raises(DomainError, match="does not reach every vertex"):
            cycle_basis(d, 1, tree=["g"])

    def test_random_tree_bases_are_cycles(self):
        rng = random.Random(13)
        for _ in range(20):
            d = random_diagram(rng)
            for comp in d.components:
                tree = random_spanning_tree(d, comp.index, rng)
                for c in cycle_basis(d, comp.index, tree=tree).cycles:
                    assert boundary(d, c) == {}


class TestRank:
    def test_examples(self):
        assert len(cycle_basis(BOUQUET, 1).cycles) == 2
        assert len(cycle_basis(TRIANGLE, 1).cycles) == 1
        assert len(cycle_basis(THETA, 1).cycles) == 2
        assert len(cycle_basis(PATH, 1).cycles) == 0

    def test_rank_matches_basis_size(self):
        rng = random.Random(14)
        for _ in range(40):
            d = random_diagram(rng)
            for comp in d.components:
                rank = len(comp.edge_ids) - len(comp.vertices) + 1
                assert rank == len(cycle_basis(d, comp.index).cycles)

    def test_parallel_edge_cycle(self):
        # non-tree edge parallel to a tree edge: signs must cancel at both ends
        d = parse_sgd("sgd 1\nvertex a\nvertex b\nedge e1 a b\nedge e2 a b\n")
        basis = cycle_basis(d, 1)
        assert basis.cycles[0].coeffs == {"e2": 1, "e1": -1}
