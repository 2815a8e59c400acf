"""Classifier verdicts: soundness against walks, separation, symmetry."""

import random

import pytest

from gen import random_canonical
from sglink import (
    DomainError,
    Result,
    canonical_diagram,
    classify,
    parse_sgd,
    random_homotopy_walk,
)

HOPF = canonical_diagram(1, 1, (1,))
SPLIT = canonical_diagram(1, 1, ())


class TestClassify:
    def test_walked_diagram_is_equivalent(self):
        d = canonical_diagram(2, 2, (1, 6))
        walked, _ = random_homotopy_walk(d, 40, 3)
        v = classify(d, walked)
        assert v.result is Result.EQUIVALENT
        assert v.obstruction is None

    def test_divisor_obstruction(self):
        v = classify(HOPF, canonical_diagram(1, 1, (2,)))
        assert v.result is Result.INEQUIVALENT
        assert v.obstruction == "divisors"
        assert v.pairing == "none"

    def test_rank_obstruction_when_ordered(self):
        v = classify(SPLIT, canonical_diagram(2, 1, ()), ordered=True)
        assert v.result is Result.INEQUIVALENT
        assert v.obstruction == "rank"

    def test_swapped_pairing(self):
        a = canonical_diagram(1, 2, (1,))
        b = canonical_diagram(2, 1, (1,))
        v = classify(a, b)
        assert v.result is Result.EQUIVALENT
        assert v.pairing == "swapped"
        assert classify(a, b, ordered=True).obstruction == "rank"

    def test_ordered_pairing_preferred(self):
        v = classify(HOPF, HOPF)
        assert v.pairing == "ordered"

    def test_reflexivity(self):
        rng = random.Random(61)
        for _ in range(10):
            d = random_canonical(rng, walk_steps=5)
            assert classify(d, d).result is Result.EQUIVALENT

    def test_symmetry(self):
        rng = random.Random(62)
        for _ in range(15):
            a = random_canonical(rng, max_rank=3, walk_steps=4)
            b = random_canonical(rng, max_rank=3, walk_steps=4)
            assert classify(a, b).result == classify(b, a).result

    def test_verdict_carries_evidence(self):
        v = classify(HOPF, SPLIT)
        assert v.ranks == ((1, 1), (1, 1))
        assert [str(i) for i in v.invariants] == ["1", "0"]
        assert "Inequivalent" in v.describe()

    def test_component_count_errors(self):
        three = parse_sgd("sgd 1\nvertex a\nvertex b\nvertex c\n")
        with pytest.raises(DomainError):
            classify(three, HOPF)
        with pytest.raises(DomainError):
            classify(HOPF, three)


class TestHandlebodyMode:
    def test_hopf_vs_split_spines(self):
        v = classify(HOPF, SPLIT)
        assert v.result is Result.INEQUIVALENT
        assert v.obstruction == "divisors"
        assert v.describe(handlebody=True).splitlines() == [
            "Inequivalent (obstruction: divisors)",
            "  A: genera (1, 1), invariant 1",
            "  B: genera (1, 1), invariant 0",
        ]

    def test_self_equivalence(self):
        # the graph reading of the same verdict prints ranks
        assert classify(HOPF, HOPF).describe().splitlines() == [
            "Equivalent (pairing: ordered)",
            "  A: ranks (1, 1), invariant 1",
            "  B: ranks (1, 1), invariant 1",
        ]

    def test_two_walks_from_same_seed_diagram(self):
        d = canonical_diagram(2, 3, (2, 4))
        a, _ = random_homotopy_walk(d, 30, 5)
        b, _ = random_homotopy_walk(d, 30, 6)
        assert classify(a, b).result is Result.EQUIVALENT
