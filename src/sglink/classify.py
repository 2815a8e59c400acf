"""Equivalence decisions for pairs of two-component diagrams.

Two diagrams whose components have matching first-homology ranks are
related by the implemented move set exactly when their divisor-chain
invariants agree, so the decision reduces to comparing ranks and chains.
Rank mismatch already certifies inequivalence: every generating move
preserves component ranks.  The divisor chain is transpose invariant, so
trying the swapped component pairing costs nothing.  Read as spines of
handlebody pairs, the same verdict describes its ranks as genera.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError
from .linking import UNREALIZABLE, linking_matrix, over_under_consistent
from .sgd import Diagram
from .smith import LkInvariant, lk_invariant
from .value import Value

__all__ = ["Result", "Verdict", "classify"]


class Result(Enum):
    EQUIVALENT = "equivalent"
    INEQUIVALENT = "inequivalent"


class Verdict(Value):
    """Outcome of a classification, with the evidence that produced it.

    ``pairing`` is "ordered", "swapped" or "none"; ``obstruction`` is
    "rank", "divisors" or None.
    """

    _fields = ("result", "pairing", "ranks", "invariants", "obstruction")

    def __init__(self, result: Result, pairing: str,
                 ranks: tuple[tuple[int, int], tuple[int, int]],
                 invariants: tuple[LkInvariant, LkInvariant], obstruction: str | None):
        held = self.__dict__
        held["result"] = result
        held["pairing"] = pairing
        held["ranks"] = ranks
        held["invariants"] = invariants
        held["obstruction"] = obstruction

    def describe(self, handlebody: bool = False) -> str:
        label = "genera" if handlebody else "ranks"
        (m, n), (m2, n2) = self.ranks
        a, b = self.invariants
        head = {
            Result.EQUIVALENT: f"Equivalent (pairing: {self.pairing})",
            Result.INEQUIVALENT: f"Inequivalent (obstruction: {self.obstruction})",
        }[self.result]
        return (
            f"{head}\n"
            f"  A: {label} ({m}, {n}), invariant {a}\n"
            f"  B: {label} ({m2}, {n2}), invariant {b}"
        )


def _profile(d: Diagram) -> tuple[tuple[int, int], LkInvariant]:
    """Ranks and invariant of a diagram, both read off its linking matrix."""
    mat = linking_matrix(d)
    return (mat.rows, mat.cols), lk_invariant(mat)


def classify(d: Diagram, d2: Diagram, ordered: bool = False) -> Verdict:
    """Decide whether two diagrams are related by the implemented moves.

    With ``ordered`` the component pairing is fixed by the diagrams'
    deterministic component order; otherwise the swapped pairing is also
    admitted (the invariant is transpose invariant, so only the rank tuples
    need rechecking).  Equivalent means ranks match under some admitted
    pairing and the invariants are equal; otherwise the verdict reports the
    obstruction, "rank" or "divisors".  A diagram that fails the over/under
    check is no spatial graph's diagram, and its invariant depends on how
    its vertices are named, so it raises ``DomainError`` instead, before
    either matrix is made.
    """
    # both checks run before either raises, so B's component count is
    # reported before A's failed check
    for name, ok in zip("AB", [over_under_consistent(d), over_under_consistent(d2)]):
        if not ok:
            raise DomainError(f"diagram {name} {UNREALIZABLE}")
    (m, n), inv = _profile(d)
    (m2, n2), inv2 = _profile(d2)
    pairings = [("ordered", (m2, n2))]
    if not ordered:
        pairings.append(("swapped", (n2, m2)))
    matched = [name for name, ranks2 in pairings if (m, n) == ranks2]
    ranks = ((m, n), (m2, n2))
    if not matched:
        return Verdict(Result.INEQUIVALENT, "none", ranks, (inv, inv2), "rank")
    if inv == inv2:
        return Verdict(Result.EQUIVALENT, matched[0], ranks, (inv, inv2), None)
    return Verdict(Result.INEQUIVALENT, "none", ranks, (inv, inv2), "divisors")
