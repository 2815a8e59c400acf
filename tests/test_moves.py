"""Move engine: involution, rank-1 clasp updates, inverses, canonical forms,
and invariant preservation along random walks."""

import copy
import random
from collections import Counter

import pytest

from gen import (
    component_of_edge,
    edge_components,
    leaving_split_edge_out,
    moved,
    passage_counts,
    random_canonical,
    random_chain,
    random_diagram,
    sign_delta,
    walk_to_first_split,
)
from sglink import (
    Cycle,
    Diagram,
    DomainError,
    Edge,
    LkInvariant,
    apply_move,
    canonical_diagram,
    cycle_basis,
    diagram_invariant,
    linking_matrix,
    linking_number,
    over_under_consistent,
    parse_sgd,
    random_homotopy_walk,
    serialize_sgd,
    validate,
)
from sglink import moves
from sglink.linking import matrix_from_pairs
from sglink.moves import (
    MoveCheckError,
    MoveRecord,
    format_move,
    parse_move,
    replay_steps,
    walk_steps,
)
from test_walk_reference import _sample_move as reference_sample_move
from test_walk_reference import apply_move as reference_apply_move
from test_walk_reference import assert_state_matches
from test_walk_reference import walk_steps as reference_walk_steps

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
            counts = passage_counts(d)
            d = moved(d, "clasp", loops_a[i], counts[loops_a[i]], loops_b[i], counts[loops_b[i]], 1)
    return d


def pendant_split(d, vid="u1"):
    """Split off an empty part: adds a crossing-free pendant edge at vid."""
    return moved(d, "split_vertex", vid, [], "v9", "e9")


class TestCrossingChange:
    def test_involution(self):
        for xid in ("x1", "x2"):
            assert moved(moved(HOPF, "crossing_change", xid), "crossing_change", xid) == HOPF

    def test_unknown_crossing(self):
        with pytest.raises(DomainError):
            moved(HOPF, "crossing_change", "nope")

    def test_invalid_diagram_is_a_domain_error(self):
        # built by hand, past parse_sgd's check: a crossing on a missing
        # edge, and passage indices with a gap, which a working state would
        # otherwise renumber
        x1, (_, over, _, under, under_idx, sign) = HOPF.rows
        missing = Diagram(HOPF.vertices, HOPF.edges,
                          (x1, ("x2", "nope", 0, under, under_idx, sign)))
        gap = Diagram(HOPF.vertices, HOPF.edges, (x1, ("x2", over, 5, under, under_idx, sign)))
        with pytest.raises(DomainError, match="references missing edge 'nope'"):
            moved(missing, "crossing_change", "x1")
        with pytest.raises(DomainError, match="passage"):
            moved(gap, "crossing_change", "x1")
        with pytest.raises(DomainError, match="invalid diagram"):
            next(walk_steps(gap, 1, 1))

    def test_state_validates_what_the_parser_has_not_checked(self, monkeypatch):
        # parse_sgd(check=True) has run every check validate runs, so a
        # state skips validate for the diagram it returned, and only that
        calls = []
        monkeypatch.setattr(moves, "validate", lambda d: calls.append(d) or validate(d))
        text = serialize_sgd(canonical_diagram(2, 2, (1, 2)))
        checked = parse_sgd(text)
        moves.WalkState(checked)
        assert calls == []
        for d in (parse_sgd(text, check=False),
                  Diagram(checked.vertices, checked.edges, checked.rows)):
            assert d == checked
            moves.WalkState(d)
            assert calls[-1] is d
        # a diagram built by hand, or parsed unchecked, that fails validate
        x1 = HOPF.rows[0]
        degenerate = Diagram(HOPF.vertices, HOPF.edges, (x1, ("x2", *x1[1:3], *x1[1:3], 1)))
        unchecked = parse_sgd(serialize_sgd(degenerate), check=False)
        for d in (degenerate, unchecked):
            with pytest.raises(DomainError, match="over and under reference the same passage"):
                moves.WalkState(d)

    def test_inter_component_change_alters_linking(self):
        z, w = Cycle(1, {"a1": 1}), Cycle(2, {"b1": 1})
        # flipping either Hopf crossing leaves one +1 and one -1 over-count
        for xid in ("x1", "x2"):
            flipped = moved(HOPF, "crossing_change", xid)
            assert linking_number(flipped, z, w) == 0

    def test_intra_component_change_preserves_invariant(self):
        d = pendant_split(canonical_diagram(2, 2, (1, 6)))
        d = moved(d, "clasp", "a1", passage_counts(d)["a1"], "e9", 0, 1)  # intra-component clasp
        inv = diagram_invariant(d)
        comp = edge_components(d)
        intra = [r[0] for r in d.rows if comp[r[1]] == comp[r[3]]]
        assert intra
        for xid in intra:
            assert diagram_invariant(moved(d, "crossing_change", xid)) == inv


class TestClasp:
    def test_split_bouquets_become_hopf(self):
        d = moved(canonical_diagram(1, 1, ()), "clasp", "a1", 0, "b1", 0, 1)
        assert linking_matrix(d).entries == ((1,),)
        assert d == HOPF

    def test_cancelling_pair(self):
        d = moved(canonical_diagram(1, 1, ()), "clasp", "a1", 0, "b1", 0, 1)
        d = moved(d, "clasp", "a1", 2, "b1", 2, -1)
        assert linking_matrix(d).entries == ((0,),)
        assert over_under_consistent(d)

    def test_intra_component_clasp_preserves_invariant(self):
        d = pendant_split(canonical_diagram(2, 2, (1, 6)))
        inv = diagram_invariant(d)
        d2 = moved(d, "clasp", "a1", 0, "e9", 0, -1)
        assert diagram_invariant(d2) == inv

    def test_passage_shift_keeps_diagram_valid(self):
        from sglink import validate

        d = canonical_diagram(1, 1, (3,))
        mid = moved(d, "clasp", "a1", 2, "b1", 0, -1)  # insert between existing clasps
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
            counts = passage_counts(d)
            d2 = moved(d, "clasp", e, rng.randint(0, counts[e]), f, rng.randint(0, counts[f]), eps)
            after = linking_matrix(d2)
            u = [z.coeffs.get(e, 0) for z in before.basis1.cycles]
            v = [w.coeffs.get(f, 0) for w in before.basis2.cycles]
            for i in range(before.rows):
                for j in range(before.cols):
                    assert after.entries[i][j] == before.entries[i][j] + eps * u[i] * v[j]

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            moved(HOPF, "clasp", "a1", 0, "a1", 0, 1)
        with pytest.raises(DomainError):
            moved(HOPF, "clasp", "a1", 3, "b1", 0, 1)
        with pytest.raises(DomainError):
            moved(HOPF, "clasp", "a1", 0, "b1", 0, 2)


class TestContractSplit:
    def triangle_plus_loop(self):
        # component 1: triangle with a loop at a; component 2: one loop
        d = parse_sgd(
            "sgd 1\nvertex a\nvertex b\nvertex c\nvertex z\n"
            "edge e1 a b\nedge e2 b c\nedge e3 c a\nedge l1 a a\nedge m1 z z\n"
        )
        return moved(d, "clasp", "l1", 0, "m1", 0, 1)

    def test_contract_tree_edge_preserves_everything(self):
        d = self.triangle_plus_loop()
        inv = diagram_invariant(d)
        r = len(cycle_basis(d, 1).cycles)
        d2 = moved(d, "contract_edge", "e1")
        assert len(cycle_basis(d2, 1).cycles) == r
        assert diagram_invariant(d2) == inv
        assert len(d2.components) == 2

    def test_contract_path_to_point(self):
        d = parse_sgd("sgd 1\nvertex a\nvertex b\nedge e1 a b\n")
        d2 = moved(d, "contract_edge", "e1")
        assert d2.vertices == ("a",) and d2.edges == ()

    def test_contract_rejections(self):
        d = self.triangle_plus_loop()
        with pytest.raises(DomainError):
            moved(d, "contract_edge", "l1")  # loop
        with pytest.raises(DomainError):
            moved(HOPF, "contract_edge", "a1")  # loop carrying passages
        with pytest.raises(DomainError):
            moved(d, "contract_edge", "zz")
        d3 = moved(d, "clasp", "e1", 0, "m1", 2, 1)
        with pytest.raises(DomainError):
            moved(d3, "contract_edge", "e1")  # now carries passages

    def test_split_then_contract_is_identity(self):
        d = self.triangle_plus_loop()
        ends_at_a = [("e1", "tail"), ("e3", "head"), ("l1", "tail"), ("l1", "head")]
        d2 = moved(d, "split_vertex", "a", ends_at_a[2:], "w1", "f1")
        assert len(cycle_basis(d2, 1).cycles) == len(cycle_basis(d, 1).cycles)
        assert diagram_invariant(d2) == diagram_invariant(d)
        assert moved(d2, "contract_edge", "f1") == d

    def test_split_moving_whole_loop(self):
        d = canonical_diagram(2, 1, (1,))
        inv = diagram_invariant(d)
        d2 = moved(d, "split_vertex", "u1", [("a2", "tail"), ("a2", "head")], "w1", "f1")
        assert len(cycle_basis(d2, 1).cycles) == 2
        assert diagram_invariant(d2) == inv

    def test_split_rejections(self):
        d = self.triangle_plus_loop()
        ends_at_a = [("e1", "tail"), ("e3", "head"), ("l1", "tail"), ("l1", "head")]
        with pytest.raises(DomainError, match="unknown vertex 'zz'"):
            moved(d, "split_vertex", "zz", [], "w1", "f1")
        with pytest.raises(DomainError, match="vertex id 'b' already in use"):
            moved(d, "split_vertex", "a", ends_at_a, "b", "f1")
        with pytest.raises(DomainError, match="edge id 'e2' already in use"):
            moved(d, "split_vertex", "a", ends_at_a, "w1", "e2")
        # an end listed twice, an end at another vertex, an unknown edge and
        # a side that is not one: the moved ends and the rest no longer
        # cover the ends at the vertex exactly once
        for away in (ends_at_a[2:] + [("l1", "head")], ends_at_a[:1] * 2,
                     [("e2", "tail")], ends_at_a[:1] + [("zz", "tail")], [("e1", "side")],
                     ends_at_a + ends_at_a[:1]):
            with pytest.raises(DomainError, match="exactly once"):
                moved(d, "split_vertex", "a", away, "w1", "f1")
        # new ids that SGD cannot write
        for new_vid, new_eid in (("v-1", "f1"), ("w1", "é"), ("w1", "f.x"), ("", "f1"),
                                 ("w1\n", "f1")):
            with pytest.raises(DomainError, match="is not an"):
                moved(d, "split_vertex", "a", ends_at_a[2:], new_vid, new_eid)


class TestCanonical:
    def test_hopf(self):
        assert diagram_invariant(HOPF) == LkInvariant((1,))

    def test_empty_chain_is_split(self):
        d = canonical_diagram(2, 3, ())
        assert d.rows == ()
        assert diagram_invariant(d) == LkInvariant()

    def test_chain_1_6(self):
        assert diagram_invariant(canonical_diagram(2, 2, (1, 6))) == LkInvariant((1, 6))

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
        assert diagram_invariant(d) == LkInvariant((1,) * 11)

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

    def test_diagram_without_a_vertex(self):
        # no vertex to split, so no move can be drawn
        empty = Diagram((), ())
        assert random_homotopy_walk(empty, 0, 1) == (empty, [])
        with pytest.raises(DomainError, match="a walk needs a vertex to split"):
            random_homotopy_walk(empty, 5, 1)
        with pytest.raises(DomainError, match="a walk needs a vertex to split"):
            next(walk_steps(empty, 1, 1))
        # drawing from no vertex would ask for a number below 0, which
        # _randbelow never returns, so sample raises before any draw
        rng = random.Random(1)
        before = rng.getstate()
        with pytest.raises(DomainError, match="a walk needs a vertex to split"):
            moves.WalkState(empty).sample(rng)
        assert rng.getstate() == before

    def test_draws_match_the_public_random_api(self):
        # sample draws through rng._randbelow; the reference sampler calls
        # choice, randrange, randint and sample.  Every attempt, applicable
        # or not, must draw the same move, and the generators must end in
        # the same state, so no draw is added or skipped.  Splits take a
        # component of canonical 11 11 1x11 from 11 edges past 21, where
        # sample(edge_ids, 2) stops drawing from a pool and redraws a
        # repeated index instead, so the clasps meet both ways of drawing.
        d = canonical_diagram(11, 11, (1,) * 11)
        rng, ref_rng = random.Random(5), random.Random(5)
        state, cur = moves.WalkState(d), d
        pooled = Counter()
        for _ in range(300):
            drawn = None
            while drawn is None:
                drawn, want = state.sample(rng), reference_sample_move(cur, ref_rng)
                assert (drawn and drawn[0]) == want
            rec = drawn[0]
            if rec.kind == "clasp":
                pooled[len(cur.component(component_of_edge(cur, rec.params[0])).edge_ids) <= 21] += 1
            state._run(*drawn)
            cur = reference_apply_move(cur, want)
        assert rng.getstate() == ref_rng.getstate()
        assert serialize_sgd(state.diagram()) == serialize_sgd(cur)
        assert pooled[True] >= 5 and pooled[False] >= 5, pooled

    def test_invariant_preserved(self):
        rng = random.Random(51)
        for _ in range(6):
            chain = random_chain(rng, 2, max_d=6)
            d = canonical_diagram(2, 2, chain)
            inv = diagram_invariant(d)
            for _rec, step in walk_steps(d, 25, rng.randrange(2**32)):
                assert diagram_invariant(step.diagram()) == inv

    def test_state_linking_matrix_matches_its_diagram(self):
        # carried through graph moves, read off the running sums again after
        # inter-component clasps, and kept while no move drops it; the
        # bases are the fundamental bases of the trees the state keeps
        d = canonical_diagram(2, 3, (2,))
        rng = random.Random(8)
        for rec, state in walk_steps(d, 40, 3):
            if rng.random() < 0.3:
                state.clasp("a1", 0, "b2", 0, rng.choice((1, -1)))
            mat = linking_matrix(state)
            cur = state.diagram()
            for k, b in ((1, mat.basis1), (2, mat.basis2)):
                assert b == state.basis(k) == cycle_basis(cur, k, tree=b.tree_edges)
            assert mat.entries == matrix_from_pairs(cur.sign_sums, mat.basis1, mat.basis2).entries
            assert linking_matrix(state) == mat

    def test_a_basis_read_never_changes(self):
        # each basis read from the start and after every move, against a
        # deep copy taken when it was read, after the walk went on through
        # splits and contractions of tree and non-tree edges: every move
        # gives each cycle it changes a new dict, so a basis once handed
        # out keeps its values
        d = canonical_diagram(3, 3, (2,))  # loops without passages
        kinds = Counter()
        for seed in (1, 2, 3, 5):
            state, held = moves.WalkState(d), []

            def read():
                bases = (state.basis(1), state.basis(2))
                held.extend((b, copy.deepcopy(b)) for b in bases)
                return {eid for b in bases for eid in b.tree_edges}

            tree = read()
            for rec, _ in walk_steps(state, 200, seed):
                if rec.kind == "contract_edge":
                    kinds["tree" if rec.params[0] in tree else "non-tree"] += 1
                else:
                    kinds[rec.kind] += 1
                tree = read()
            for n, (b, at_read) in enumerate(held):
                assert b == at_read, f"seed {seed}: basis {n} changed after it was read"
        assert kinds["split_vertex"] > 100 and kinds["tree"] > 100 and kinds["non-tree"] == 4

    def test_non_tree_contractions_keep_the_state_true(self):
        # the one move that rebuilds a kept tree from a cycle: after each
        # non-tree contraction, on canonical and random two-component
        # diagrams, the state matches the reference walk's diagram, every
        # kept basis is cycle_basis over its kept tree there, and the matrix
        # is the one rebuilt from its crossings.  The matrix is read after
        # every step, as perturb reads it, so one kept past a contraction
        # that changed it would show: contracting a2, off the tree of the
        # clasped theta u-w, flips the sign of its row.
        theta = parse_sgd("sgd 1\nvertex u\nvertex w\nvertex z\nedge a1 u w\nedge a2 u w\n"
                          "edge b1 z z\ncrossing x1 over a1 0 under b1 0 sign +\n"
                          "crossing x2 over b1 1 under a1 1 sign +\n")
        rng = random.Random(24)
        starts = [canonical_diagram(3, 3, (2,))] * 6 + [theta] * 6
        while len(starts) < 22:
            d = random_diagram(rng, max_crossings=4)
            if len(d.components) == 2:
                starts.append(d)
        non_tree = changed = 0
        for seed, d in enumerate(starts):
            state = moves.WalkState(d)
            tree, entries = set().union(*state._trees), state.linking_entries()
            walked = zip(walk_steps(state, 250, seed), reference_walk_steps(d, 250, seed))
            for (rec, _), (want, expected) in walked:
                assert rec == want
                if rec.kind == "contract_edge" and rec.params[0] not in tree:
                    non_tree += 1
                    assert_state_matches(state, expected)
                    changed += state.linking_entries() != entries
                tree, entries = set().union(*state._trees), state.linking_entries()
        assert non_tree >= 10 and changed >= 1

    def test_a_walk_builds_no_edge_between_steps(self, monkeypatch):
        # a state keeps each edge's ends as a pair that its moves update in
        # place, and builds Edge values only when they are read
        state = moves.WalkState(canonical_diagram(3, 3, (1, 2, 4)))
        real, built = Edge.__init__, Counter()

        def counted(edge, *args):
            built["edges"] += 1
            real(edge, *args)

        monkeypatch.setattr(Edge, "__init__", counted)
        kinds = Counter(rec.kind for rec, _ in walk_steps(state, 200, 7))
        assert kinds["split_vertex"] > 10 and kinds["contract_edge"] > 10
        assert built["edges"] == 0
        edge_map = state.edge_map  # a read builds each edge once
        assert built["edges"] == len(edge_map) > 0

    def test_edges_read_are_the_diagrams(self):
        # after seeded walks, and after recorded moves applied as a replay
        # applies them, inter-component ones included, on canonical and
        # random two-component diagrams: the Edge values a state builds
        # when read are those of its diagram, and a map read earlier keeps
        # the values it was read with
        rng = random.Random(30)
        starts = [canonical_diagram(3, 3, (1, 2, 4)), canonical_diagram(2, 3, (2,))]
        while len(starts) < 14:
            d = random_diagram(rng)
            if len(d.components) == 2:
                starts.append(d)

        def assert_edges_read(state):
            edge_map = state.edge_map
            assert edge_map == state.diagram().edge_map
            assert all(type(e) is Edge for e in edge_map.values())

        for seed, d in enumerate(starts):
            state = moves.WalkState(d)
            at_start = state.edge_map
            for n, _ in enumerate(walk_steps(state, 80, seed)):
                if n % 5 == 0:
                    assert_edges_read(state)
            assert at_start == d.edge_map
            _, records = random_homotopy_walk(d, 40, seed)
            state = moves.WalkState(d)
            for rec in records:
                state.apply(rec)
                assert_edges_read(state)
            for k in (1, 2):
                vid = state.component(k).vertices[0]
                state.apply(MoveRecord("split_vertex", (vid, f"w{k}", f"f{k}"), True))
            state.apply(MoveRecord("clasp", ("f1", "0", "f2", "0", "-1"), False))
            state.apply(MoveRecord("crossing_change", (state.diagram().rows[-1][0],), False))
            assert_edges_read(state)

    def test_every_walk_is_certified(self, monkeypatch):
        # a split that leaves its new edge out of the kept tree fails its
        # certificate in a walk started from a Diagram, with no state
        # handed in, and in every move function built on a state
        d = canonical_diagram(3, 3, (1, 2, 4))
        steps = walk_to_first_split(d, 200, 7)
        assert 1 < len(steps) < 200
        monkeypatch.setattr(moves.WalkState, "_graph_moved",
                            leaving_split_edge_out(moves.WalkState._graph_moved))
        text = "".join(f"{format_move(rec)}\n" for _, rec in steps)
        for run in (lambda: random_homotopy_walk(d, 200, 7),
                    lambda: list(walk_steps(d, 200, 7)),
                    lambda: list(replay_steps(d, text)),
                    lambda: apply_move(*steps[-1])):
            with pytest.raises(MoveCheckError, match=r"the tree kept for component [12] "
                                                     r"has \d+ edges for \d+ vertices") as info:
                run()
            assert info.value.move == steps[-1][1]

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

    def test_hand_built_records_are_read_as_move_lines(self):
        # apply_move reads a record's tokens as a replay reads a move line,
        # so a record built by hand with too few parameters gets the
        # replay's DomainError, not an IndexError, and so do its other
        # faults
        for kind, params in (("crossing_change", ()), ("clasp", ("a1", "0", "b1", "0")),
                             ("contract_edge", ()), ("split_vertex", ("u1", "v9"))):
            with pytest.raises(DomainError) as replayed:
                list(replay_steps(HOPF, f"{' '.join((kind, *params))}\n"))
            assert str(replayed.value) == f"move {kind!r} is missing parameters"
            with pytest.raises(DomainError) as applied:
                apply_move(HOPF, MoveRecord(kind, params, True))
            assert str(applied.value) == str(replayed.value)
        for params, message in ((("a1", "0", "b1", "0", "1", "2"), "has 6 parameters, expected 5"),
                                (("a1", "0", "zz", "0", "1"), "unknown edge 'zz'"),
                                (("a1", "x", "b1", "0", "1"), "bad clasp parameters")):
            with pytest.raises(DomainError, match=message):
                apply_move(HOPF, MoveRecord("clasp", params, True))
        with pytest.raises(DomainError, match="unknown move kind 'teleport'"):
            apply_move(HOPF, MoveRecord("teleport", ("a1",), True))

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

    def test_delta_is_a_move_invariant(self):
        # Delta(e, f) = S(e, f) - S(f, e): a crossing change lowers both
        # S(o, u) and S(u, o) by its sign, a clasp adds its sign to both, and
        # a split or contraction moves only edges without passages.  So
        # canonical starts, where Delta is zero, keep it zero, and the
        # over/under check there counts nothing.  Replays between the walks
        # add the moves a walk never draws: crossing changes and clasps
        # between the components.
        rng = random.Random(57)
        starts = [canonical_diagram(2, 3, (1, 2)), canonical_diagram(4, 4, (2, 2, 4))]
        starts += [random_canonical(rng, walk_steps=10) for _ in range(4)]
        while len(starts) < 16:
            d = random_diagram(rng, max_crossings=20)
            if len(d.components) == 2 and sign_delta(d):
                starts.append(d)
        inter = Counter()
        for k, d in enumerate(starts):
            want = sign_delta(d)
            assert bool(want) == (k >= 6)  # zero on the canonical starts only
            state = moves.WalkState(d)
            for _ in range(4):
                for _rec, state in walk_steps(state, 15, rng.randrange(2**32)):
                    assert sign_delta(state.diagram()) == want
                now = state.diagram()
                comp = edge_components(now)
                lines = [f"crossing_change {xid}" for xid, over, _, under, _, _ in now.rows
                         if comp[over] != comp[under] and rng.random() < 0.5]
                counts = passage_counts(now)
                ones, twos = now.component(1).edge_ids, now.component(2).edge_ids
                for _ in range(2 if ones and twos else 0):
                    e, f = rng.choice(ones), rng.choice(twos)
                    lines.append(f"clasp {e} {rng.randint(0, counts[e])} {f} "
                                 f"{rng.randint(0, counts[f])} {rng.choice((1, -1))}")
                rng.shuffle(lines)
                for rec, state in replay_steps(state, "\n".join(lines)):
                    assert sign_delta(state.diagram()) == want, format_move(rec)
                    inter[rec.kind] += 1
        assert inter["crossing_change"] > 0 and inter["clasp"] > 0

    def test_walk_preserves_realizability(self):
        d = canonical_diagram(2, 2, (2, 2))
        for _rec, step in walk_steps(d, 40, 99):
            pass
        assert over_under_consistent(step.diagram())


class TestFreshIds:
    def test_clasp_ids_avoid_collisions(self):
        d = canonical_diagram(1, 1, (3,))
        assert sorted(r[0] for r in d.rows) == ["x1", "x2", "x3", "x4", "x5", "x6"]
        d2 = moved(d, "clasp", "a1", 0, "b1", 0, 1)
        assert sorted(r[0] for r in d2.rows)[-2:] == ["x7", "x8"]
