"""Linking numbers, the linking matrix, and the over/under smoke test."""

import json
import random
from pathlib import Path

import pytest

import sglink.cli as cli
import sglink.linking as linking
import sglink.sgd as sgd
from gen import random_canonical, random_diagram, random_spanning_tree
from sglink import (
    Cycle,
    DomainError,
    LkInvariant,
    canonical_diagram,
    cycle_basis,
    diagram_invariant,
    linking_matrix,
    linking_number,
    over_under_consistent,
    parse_sgd,
)
from sglink.linking import matrix_from_pairs
from sglink.smith import lk_invariant

HOPF = parse_sgd(
    "sgd 1\nvertex v1\nvertex v2\nedge e1 v1 v1\nedge e2 v2 v2\n"
    "crossing x1 over e1 0 under e2 0 sign +\n"
    "crossing x2 over e2 1 under e1 1 sign +\n"
)

Z = Cycle(1, {"e1": 1})
W = Cycle(2, {"e2": 1})


class TestLinkingNumber:
    def test_hopf_is_one(self):
        assert linking_number(HOPF, Z, W) == 1

    def test_hopf_under_count_agrees(self):
        assert linking_number(HOPF, W, Z) == 1

    def test_zero_cycle(self):
        assert linking_number(HOPF, Cycle(1, {}), W) == 0

    def test_negation(self):
        assert linking_number(HOPF, Cycle(1, {"e1": -1}), W) == -1
        assert linking_number(HOPF, Z, Cycle(2, {"e2": -1})) == -1

    def test_bilinearity(self):
        rng = random.Random(21)
        for _ in range(25):
            d = random_canonical(rng, walk_steps=10)
            b1, b2 = cycle_basis(d, 1), cycle_basis(d, 2)
            if not b1.cycles or not b2.cycles:
                continue
            z1, z2 = rng.choice(b1.cycles), rng.choice(b1.cycles)
            w = rng.choice(b2.cycles)
            total = {}
            for e, c in list(z1.coeffs.items()) + list(z2.coeffs.items()):
                total[e] = total.get(e, 0) + c
            z_sum = Cycle(1, {e: c for e, c in total.items() if c})
            assert linking_number(d, z_sum, w) == linking_number(d, z1, w) + linking_number(d, z2, w)

    def test_same_component_rejected(self):
        with pytest.raises(DomainError):
            linking_number(HOPF, Z, Cycle(1, {"e1": 1}))

    def test_support_outside_component_rejected(self):
        with pytest.raises(DomainError):
            linking_number(HOPF, Cycle(1, {"e2": 1}), W)


class TestLinkingMatrix:
    def test_hopf(self):
        m = linking_matrix(HOPF)
        assert m.entries == ((1,),)

    def test_split_is_zero(self):
        m = linking_matrix(canonical_diagram(2, 2, ()))
        assert m.entries == ((0, 0), (0, 0))

    def test_canonical_diagonal(self):
        assert linking_matrix(canonical_diagram(2, 2, (1, 6))).entries == ((1, 0), (0, 6))

    def test_zero_rank_component(self):
        m = linking_matrix(canonical_diagram(0, 2, ()))
        assert (m.rows, m.cols) == (0, 2)
        assert diagram_invariant(canonical_diagram(0, 2, ())) == LkInvariant()

    def test_component_count_enforced(self):
        with pytest.raises(DomainError):
            linking_matrix(parse_sgd("sgd 1\nvertex a\n"))
        with pytest.raises(DomainError):
            linking_matrix(parse_sgd("sgd 1\nvertex a\nvertex b\nvertex c\n"))

    def test_basis_independence_of_divisors(self):
        rng = random.Random(22)
        for _ in range(25):
            d = random_canonical(rng, walk_steps=8)
            expect = diagram_invariant(d)
            b1 = cycle_basis(d, 1, tree=random_spanning_tree(d, 1, rng))
            b2 = cycle_basis(d, 2, tree=random_spanning_tree(d, 2, rng))
            assert lk_invariant(matrix_from_pairs(d.sign_sums, b1, b2)) == expect


class TestOverUnder:
    def test_realizable_examples(self):
        assert over_under_consistent(HOPF)
        assert over_under_consistent(canonical_diagram(3, 2, (2, 4)))
        # m x 0 and 0 x n matrices compare with their swapped count's transpose
        for m, n in ((2, 0), (0, 3), (0, 0)):
            d = canonical_diagram(m, n, ())
            assert over_under_consistent(d, linking_matrix(d))

    def test_single_crossing_is_inconsistent(self):
        d = parse_sgd(
            "sgd 1\nvertex v1\nvertex v2\nedge e1 v1 v1\nedge e2 v2 v2\n"
            "crossing x1 over e1 0 under e2 0 sign +\n"
        )
        assert linking_number(d, Z, W) == 1
        assert linking_number(d, W, Z) == 0
        assert not over_under_consistent(d)
        assert not over_under_consistent(d, linking_matrix(d))


def brute_counts(d, basis1, basis2):
    """Over and under matrices by the per-pair definition: for each (z, w),
    sum sign * z[over] * w[under] (resp. z[under] * w[over]) over all
    crossings."""
    def count(z, w, z_over):
        total = 0
        for _, over, _, under, _, sign in d.rows:
            a_eid, b_eid = (over, under) if z_over else (under, over)
            total += sign * z.coeffs.get(a_eid, 0) * w.coeffs.get(b_eid, 0)
        return total

    over = [[count(z, w, True) for w in basis2.cycles] for z in basis1.cycles]
    under = [[count(z, w, False) for w in basis2.cycles] for z in basis1.cycles]
    return over, under


def two_component_diagrams(rng, count):
    out = []
    while len(out) < count:
        d = random_diagram(rng, max_vertices=6, max_edges=12, max_crossings=24)
        if len(d.components) == 2:
            out.append(d)
    for _ in range(count):
        out.append(random_canonical(rng, max_rank=4, walk_steps=rng.choice((5, 30))))
    return out


class TestKernelAgainstDefinition:
    def test_matrix_and_over_under_match_brute_force(self):
        rng = random.Random(41)
        disagreements = 0
        for d in two_component_diagrams(rng, 60):
            trees = [(None, None),
                     (random_spanning_tree(d, 1, rng), random_spanning_tree(d, 2, rng))]
            for t1, t2 in trees:
                b1, b2 = cycle_basis(d, 1, tree=t1), cycle_basis(d, 2, tree=t2)
                over, under = brute_counts(d, b1, b2)
                mat = matrix_from_pairs(d.sign_sums, b1, b2)
                assert [list(r) for r in mat.entries] == over
                assert over_under_consistent(d, mat) == (over == under)
                if t1 is None:
                    assert over_under_consistent(d) == (over == under)
                disagreements += over != under
        # the sample must exercise both answers of the over/under check
        assert disagreements > 0

    def test_single_cycle_counts_match_brute_force(self):
        rng = random.Random(42)
        for d in two_component_diagrams(rng, 20):
            trees = [(None, None),
                     (random_spanning_tree(d, 1, rng), random_spanning_tree(d, 2, rng))]
            for t1, t2 in trees:
                b1, b2 = cycle_basis(d, 1, tree=t1), cycle_basis(d, 2, tree=t2)
                over, under = brute_counts(d, b1, b2)
                for i, z in enumerate(b1.cycles):
                    for j, w in enumerate(b2.cycles):
                        assert linking_number(d, z, w) == over[i][j]
                        assert linking_number(d, w, z) == under[i][j]


DATA = Path(__file__).parent / "data"


class TestInvariantCommand:
    def test_builds_bases_and_matrix_once(self, monkeypatch, capsys):
        # one pass over the crossings too: the matrix and the over/under
        # check share the diagram's sign sums, and one incidence per basis
        calls = {"cycle_basis": 0, "linking_matrix": 0, "pair_signs": 0, "_incidence": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(linking, "cycle_basis", counted("cycle_basis", linking.cycle_basis))
        lm = counted("linking_matrix", linking.linking_matrix)
        monkeypatch.setattr(linking, "linking_matrix", lm)
        monkeypatch.setattr(cli, "linking_matrix", lm)
        monkeypatch.setattr(sgd, "pair_signs", counted("pair_signs", sgd.pair_signs))
        monkeypatch.setattr(linking, "_incidence", counted("_incidence", linking._incidence))
        path = str(DATA / "walked_8_8.sgd")
        assert cli.main(["invariant", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["over_under_consistent"] is True
        assert calls == {"cycle_basis": 2, "linking_matrix": 1, "pair_signs": 1, "_incidence": 2}

    def test_show_basis_json_matches_golden(self, capsys):
        # walked_8_8.sgd: canonical 8 8 1 1 2 2 4 4 8 8 after 200 perturb steps
        assert cli.main(["invariant", str(DATA / "walked_8_8.sgd"), "--json", "--show-basis"]) == 0
        golden = (DATA / "walked_8_8.show_basis.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden
