"""Move engine: involution, rank-1 clasp updates, inverses, canonical forms,
and invariant preservation along random walks."""

import random

import pytest

from gen import divisor_chains, random_canonical, random_chain, random_diagram
from sglink import (
    Crossing,
    Cycle,
    Diagram,
    DomainError,
    Edge,
    LkInvariant,
    apply_move,
    canonical_diagram,
    clasp,
    contract_edge,
    crossing_change,
    cycle_basis,
    diagram_invariant,
    linking_matrix,
    linking_number,
    over_under_consistent,
    parse_sgd,
    rank,
    random_homotopy_walk,
    serialize_sgd,
    split_vertex,
)
from sglink.moves import format_move, parse_move, walk_steps

HOPF = canonical_diagram(1, 1, (1,))


def reference_canonical(m, n, chain):
    """The canonical diagram built clasp by clasp, each at the end of its
    loops: the construction ``canonical_diagram`` must reproduce exactly.
    Quadratic in the number of clasps, so keep inputs small."""
    wa, wb = len(str(max(m, 1))), len(str(max(n, 1)))
    loops_a = [f"a{str(i + 1).zfill(wa)}" for i in range(m)]
    loops_b = [f"b{str(j + 1).zfill(wb)}" for j in range(n)]
    d = Diagram(
        ("u1", "u2"),
        tuple(Edge(eid, "u1", "u1") for eid in loops_a)
        + tuple(Edge(eid, "u2", "u2") for eid in loops_b),
    )
    for i, di in enumerate(chain):
        for _ in range(di):
            d = clasp(d, loops_a[i], d.passage_count(loops_a[i]),
                      loops_b[i], d.passage_count(loops_b[i]), 1)
    return d


def pendant_split(d, vid="u1"):
    """Split off an empty part: adds a crossing-free pendant edge at vid."""
    ends = [(e.id, end) for e in d.edges for end, v in (("tail", e.tail), ("head", e.head))
            if v == vid]
    return split_vertex(d, vid, ends, [], "v9", "e9")


class TestCrossingChange:
    def test_involution(self):
        for xid in ("x1", "x2"):
            assert crossing_change(crossing_change(HOPF, xid), xid) == HOPF

    def test_unknown_crossing(self):
        with pytest.raises(DomainError):
            crossing_change(HOPF, "nope")

    def test_invalid_diagram_is_a_domain_error(self):
        # built by hand, past parse_sgd's check: a crossing on a missing
        # edge, and passage indices with a gap, which a working state would
        # otherwise renumber
        x1, x2 = HOPF.crossing_map["x1"], HOPF.crossing_map["x2"]
        missing = Diagram(HOPF.vertices, HOPF.edges,
                          (x1, Crossing("x2", ("nope", 0), x2.under, x2.sign)))
        gap = Diagram(HOPF.vertices, HOPF.edges,
                      (x1, Crossing("x2", (x2.over[0], 5), x2.under, x2.sign)))
        with pytest.raises(DomainError, match="references missing edge 'nope'"):
            crossing_change(missing, "x1")
        with pytest.raises(DomainError, match="passage"):
            crossing_change(gap, "x1")
        with pytest.raises(DomainError, match="invalid diagram"):
            next(walk_steps(gap, 1, 1))

    def test_inter_component_change_alters_linking(self):
        z, w = Cycle(1, {"a1": 1}), Cycle(2, {"b1": 1})
        # flipping either Hopf crossing leaves one +1 and one -1 over-count
        for xid in ("x1", "x2"):
            flipped = crossing_change(HOPF, xid)
            assert linking_number(flipped, z, w) == 0

    def test_intra_component_change_preserves_invariant(self):
        d = pendant_split(canonical_diagram(2, 2, (1, 6)))
        d = clasp(d, "a1", d.passage_count("a1"), "e9", 0, 1)  # intra-component clasp
        inv = diagram_invariant(d)
        intra = [
            c.id for c in d.crossings
            if d.component_of_edge(c.over[0]) == d.component_of_edge(c.under[0])
        ]
        assert intra
        for xid in intra:
            assert diagram_invariant(crossing_change(d, xid)) == inv


class TestClasp:
    def test_split_bouquets_become_hopf(self):
        d = clasp(canonical_diagram(1, 1, ()), "a1", 0, "b1", 0, 1)
        assert linking_matrix(d).entries == ((1,),)
        assert d == HOPF

    def test_cancelling_pair(self):
        d = clasp(canonical_diagram(1, 1, ()), "a1", 0, "b1", 0, 1)
        d = clasp(d, "a1", 2, "b1", 2, -1)
        assert linking_matrix(d).entries == ((0,),)
        assert over_under_consistent(d)

    def test_intra_component_clasp_preserves_invariant(self):
        d = pendant_split(canonical_diagram(2, 2, (1, 6)))
        inv = diagram_invariant(d)
        d2 = clasp(d, "a1", 0, "e9", 0, -1)
        assert diagram_invariant(d2) == inv

    def test_passage_shift_keeps_diagram_valid(self):
        from sglink import validate

        d = canonical_diagram(1, 1, (3,))
        mid = clasp(d, "a1", 2, "b1", 0, -1)  # insert between existing clasps
        assert validate(mid) == []
        assert linking_matrix(mid).entries == ((2,),)

    def test_rank1_update(self):
        rng = random.Random(31)
        for _ in range(40):
            d = random_canonical(rng, walk_steps=rng.randint(0, 10))
            before = linking_matrix(d)
            comp1, comp2 = d.components
            e = rng.choice(comp1.edge_ids)
            f = rng.choice(comp2.edge_ids)
            eps = rng.choice((1, -1))
            d2 = clasp(d, e, rng.randint(0, d.passage_count(e)),
                       f, rng.randint(0, d.passage_count(f)), eps)
            after = linking_matrix(d2)
            u = [z.coeff(e) for z in before.basis1.cycles]
            v = [w.coeff(f) for w in before.basis2.cycles]
            for i in range(before.rows):
                for j in range(before.cols):
                    assert after.entries[i][j] == before.entries[i][j] + eps * u[i] * v[j]

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            clasp(HOPF, "a1", 0, "a1", 0, 1)
        with pytest.raises(DomainError):
            clasp(HOPF, "a1", 3, "b1", 0, 1)
        with pytest.raises(DomainError):
            clasp(HOPF, "a1", 0, "b1", 0, 2)


class TestContractSplit:
    def triangle_plus_loop(self):
        # component 1: triangle with a loop at a; component 2: one loop
        d = parse_sgd(
            "sgd 1\nvertex a\nvertex b\nvertex c\nvertex z\n"
            "edge e1 a b\nedge e2 b c\nedge e3 c a\nedge l1 a a\nedge m1 z z\n"
        )
        return clasp(d, "l1", 0, "m1", 0, 1)

    def test_contract_tree_edge_preserves_everything(self):
        d = self.triangle_plus_loop()
        inv = diagram_invariant(d)
        r = rank(d, 1)
        d2 = contract_edge(d, "e1")
        assert rank(d2, 1) == r
        assert diagram_invariant(d2) == inv
        assert len(d2.components) == 2

    def test_contract_path_to_point(self):
        d = parse_sgd("sgd 1\nvertex a\nvertex b\nedge e1 a b\n")
        d2 = contract_edge(d, "e1")
        assert d2.vertices == ("a",) and d2.edges == ()

    def test_contract_rejections(self):
        d = self.triangle_plus_loop()
        with pytest.raises(DomainError):
            contract_edge(d, "l1")  # loop
        with pytest.raises(DomainError):
            contract_edge(HOPF, "a1")  # loop carrying passages
        with pytest.raises(DomainError):
            contract_edge(d, "zz")
        d3 = clasp(d, "e1", 0, "m1", 2, 1)
        with pytest.raises(DomainError):
            contract_edge(d3, "e1")  # now carries passages

    def test_split_then_contract_is_identity(self):
        d = self.triangle_plus_loop()
        ends_at_a = [("e1", "tail"), ("e3", "head"), ("l1", "tail"), ("l1", "head")]
        d2 = split_vertex(d, "a", ends_at_a[:2], ends_at_a[2:], "w1", "f1")
        assert rank(d2, 1) == rank(d, 1)
        assert diagram_invariant(d2) == diagram_invariant(d)
        assert contract_edge(d2, "f1") == d

    def test_split_moving_whole_loop(self):
        d = canonical_diagram(2, 1, (1,))
        inv = diagram_invariant(d)
        d2 = split_vertex(d, "u1", [("a1", "tail"), ("a1", "head")],
                          [("a2", "tail"), ("a2", "head")], "w1", "f1")
        assert rank(d2, 1) == 2
        assert diagram_invariant(d2) == inv

    def test_split_rejections(self):
        d = self.triangle_plus_loop()
        with pytest.raises(DomainError):
            split_vertex(d, "a", [("e1", "tail")], [("l1", "tail"), ("l1", "head")], "w1", "f1")
        with pytest.raises(DomainError):
            split_vertex(d, "a", [("e1", "tail"), ("l1", "tail")],
                         [("e3", "head"), ("l1", "tail"), ("l1", "head")], "w1", "f1")
        with pytest.raises(DomainError):
            split_vertex(d, "a", [("e1", "tail"), ("e2", "tail")],
                         [("e3", "head"), ("l1", "tail"), ("l1", "head")], "w1", "f1")
        with pytest.raises(DomainError):
            split_vertex(d, "a", [], [("e1", "tail"), ("e3", "head"),
                                      ("l1", "tail"), ("l1", "head")], "b", "f1")


class TestCanonical:
    def test_hopf(self):
        assert diagram_invariant(HOPF) == LkInvariant.chain(1)

    def test_empty_chain_is_split(self):
        d = canonical_diagram(2, 3, ())
        assert d.crossings == ()
        assert diagram_invariant(d) == LkInvariant.zero()

    def test_chain_1_6(self):
        assert diagram_invariant(canonical_diagram(2, 2, (1, 6))) == LkInvariant.chain(1, 6)

    def test_rejections(self):
        with pytest.raises(DomainError, match="does not divide"):
            canonical_diagram(2, 2, (2, 3))
        with pytest.raises(DomainError):
            canonical_diagram(1, 1, (1, 1))
        with pytest.raises(DomainError):
            canonical_diagram(2, 2, (0,))

    def test_soundness_sampled_to_rank_5(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(150):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            chain = random_chain(rng, min(m, n))
            seen.add((m, n, chain))
        for m, n, chain in sorted(seen):
            d = canonical_diagram(m, n, chain)
            assert diagram_invariant(d) == LkInvariant(chain)
            assert over_under_consistent(d)

    def test_ten_or_more_loops_stay_ordered(self):
        d = canonical_diagram(11, 11, (1,) * 11)
        mat = linking_matrix(d)
        assert all(mat.entries[i][i] == 1 for i in range(11))
        assert diagram_invariant(d) == LkInvariant.chain(*[1] * 11)

    def test_matches_clasp_by_clasp_reference(self):
        rng = random.Random(43)
        cases = {
            (11, 11, (1,) * 11),  # two-digit loop names are zero padded
            (12, 10, (1, 2, 2, 4)),
            (3, 2, (5, 10)),  # ids x10 and up sort between x1 and x2
            (1, 1, (6,)),
            (0, 0, ()),
            (4, 0, ()),
        }
        for k in (1, 2, 9, 50, 137, 300):
            cases.add((1, 1, (k,)))
        for _ in range(60):
            m, n = rng.randint(0, 12), rng.randint(0, 12)
            cases.add((m, n, random_chain(rng, min(m, n))))
        for m, n, chain in sorted(cases):
            got = serialize_sgd(canonical_diagram(m, n, chain))
            assert got == serialize_sgd(reference_canonical(m, n, chain)), (m, n, chain)


class TestWalk:
    def test_zero_steps(self):
        d = canonical_diagram(2, 2, (1, 6))
        final, records = random_homotopy_walk(d, 0, 1)
        assert final == d and records == []

    def test_invariant_preserved(self):
        rng = random.Random(51)
        for _ in range(6):
            chain = random_chain(rng, 2, max_d=6)
            d = canonical_diagram(2, 2, chain)
            inv = diagram_invariant(d)
            for _rec, step in walk_steps(d, 25, rng.randrange(2**32)):
                assert diagram_invariant(step.diagram()) == inv

    def test_state_linking_matrix_matches_its_diagram(self):
        # read off the running sums, inter-component clasps and crossing
        # changes included, and kept while the revision stays
        d = canonical_diagram(2, 3, (2,))
        rng = random.Random(8)
        for rec, state in walk_steps(d, 40, 3):
            if rng.random() < 0.3:
                state.clasp("a1", 0, "b2", 0, rng.choice((1, -1)))
            mat = linking_matrix(state)
            want = linking_matrix(state.diagram())
            assert (mat.entries, mat.basis1, mat.basis2) == (want.entries, want.basis1, want.basis2)
            assert linking_matrix(state) is mat
        with pytest.raises(DomainError, match="default bases"):
            linking_matrix(state, mat.basis1)

    def test_seed_reproducibility(self):
        d = canonical_diagram(2, 2, (1, 6))
        f1, r1 = random_homotopy_walk(d, 30, 77)
        f2, r2 = random_homotopy_walk(d, 30, 77)
        assert f1 == f2 and r1 == r2
        _, r3 = random_homotopy_walk(d, 30, 78)
        assert r1 != r3

    def test_all_moves_recorded_as_preserving(self):
        d = canonical_diagram(3, 3, (2, 4))
        _, records = random_homotopy_walk(d, 60, 5)
        assert len(records) == 60
        assert all(r.homotopy_preserving for r in records)
        assert {r.kind for r in records} == {
            "crossing_change", "clasp", "contract_edge", "split_vertex"
        }

    def test_replay_matches_walk(self):
        d = canonical_diagram(2, 2, (1, 2))
        final, records = random_homotopy_walk(d, 40, 13)
        cur = d
        for rec in records:
            cur = apply_move(cur, rec)
        assert cur == final

    def test_move_line_round_trip(self):
        d = canonical_diagram(2, 2, (1, 2))
        final, records = random_homotopy_walk(d, 40, 14)
        cur = d
        for rec in records:
            kind, params = parse_move(format_move(rec))
            assert (kind, params) == (rec.kind, rec.params)
            cur = apply_move(cur, rec)
        assert cur == final

    def test_random_diagrams_keep_invariant_and_replay(self):
        rng = random.Random(53)
        walked = 0
        while walked < 40:
            d = random_diagram(rng)
            if len(d.components) != 2:
                continue
            walked += 1
            inv = diagram_invariant(d)
            records = []
            for rec, step in walk_steps(d, 20, rng.randrange(2**32)):
                assert rec.homotopy_preserving
                assert diagram_invariant(step.diagram()) == inv, format_move(rec)
                records.append(rec)
            cur = d
            for rec in records:
                cur = apply_move(cur, rec)
            assert cur == step.diagram()

    def test_walk_preserves_realizability(self):
        d = canonical_diagram(2, 2, (2, 2))
        for _rec, step in walk_steps(d, 40, 99):
            pass
        assert over_under_consistent(step.diagram())


class TestFreshIds:
    def test_clasp_ids_avoid_collisions(self):
        d = canonical_diagram(1, 1, (3,))
        assert sorted(d.crossing_map) == ["x1", "x2", "x3", "x4", "x5", "x6"]
        d2 = clasp(d, "a1", 0, "b1", 0, 1)
        assert sorted(d2.crossing_map)[-2:] == ["x7", "x8"]
