"""Linking numbers of inter-component cycles and the linking matrix.

The linking number of cycles z and w in distinct components is the signed
count of crossings where a z-supported edge passes over a w-supported edge,
weighted bilinearly by the cycle coefficients.  On realizable diagrams it
is symmetric, lk(z, w) = lk(w, z), which makes the over/under comparison a
cheap realizability smoke test.  Zero-rank components yield 0 x n or m x 0
matrices, not errors.

Every count goes through one kernel in two parts.  :func:`pair_signs`
makes one pass over the crossings and sums their signs per (over edge,
under edge) pair.  :func:`matrix_from_pairs` turns each list of cycles into
a sparse incidence, edge id -> [(cycle index, coefficient)], and adds each
pair's sign sum times the outer product of the two edges' incidence
entries.  The cost is linear in the crossings plus the work of those outer
products, never a rescan of the crossings per cycle pair.  The ``perturb``
walk keeps its own running pair sums (``moves.WalkState``), and
:func:`linking_matrix` given such a state reads the matrix off them with
the same second part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .homology import Cycle, CycleBasis, cycle_basis
from .sgd import Diagram
from .smith import IntMatrix, LkInvariant, lk_invariant

if TYPE_CHECKING:
    from .moves import WalkState

__all__ = [
    "LinkingMatrix",
    "linking_number",
    "linking_matrix",
    "matrix_from_pairs",
    "over_under_consistent",
    "pair_signs",
    "diagram_invariant",
]


@dataclass(frozen=True)
class LinkingMatrix(IntMatrix):
    """Pairwise linking numbers of the two components' basis cycles: an
    integer matrix that also carries the bases its rows and columns index."""

    basis1: CycleBasis
    basis2: CycleBasis


def _check_cycles(d: Diagram, z: Cycle, w: Cycle) -> None:
    if z.component == w.component:
        raise DomainError("cycles must lie in distinct components")
    for c in (z, w):
        stray = sorted(set(c.coeffs) - set(d.component(c.component).edge_ids))
        if stray:
            raise DomainError(f"cycle support {stray} lies outside component {c.component}")


def _incidence(cycles) -> dict[str, list[tuple[int, int]]]:
    """Sparse edge id -> [(cycle index, coefficient)] over a list of cycles."""
    inc: dict[str, list[tuple[int, int]]] = {}
    for k, z in enumerate(cycles):
        for eid, a in z.coeffs.items():
            if a:
                inc.setdefault(eid, []).append((k, a))
    return inc


def _add_outer(mat: list[list[int]], s: int, zs, ws) -> None:
    """mat += s * (outer product of two incidence entries), when both exist."""
    if zs and ws:
        for i, a in zs:
            row, sa = mat[i], s * a
            for j, b in ws:
                row[j] += sa * b


def pair_signs(crossings) -> dict[tuple[str, str], int]:
    """Sum of the crossing signs per (over edge, under edge) pair."""
    sums: dict[tuple[str, str], int] = {}
    for c in crossings:
        key = (c.over[0], c.under[0])
        sums[key] = sums.get(key, 0) + c.sign
    return sums


def _counts_from_pairs(pairs, cycles1, cycles2) -> list[list[int]]:
    """L[i][j] = sum over pairs (o, u) of sign sum * z_i[o] * w_j[u]."""
    inc1, inc2 = _incidence(cycles1), _incidence(cycles2)
    counts = [[0] * len(cycles2) for _ in cycles1]
    for (o, u), s in pairs.items():
        if s:
            _add_outer(counts, s, inc1.get(o), inc2.get(u))
    return counts


def _linking_counts(d: Diagram, cycles1, cycles2) -> list[list[int]]:
    """L[i][j] = sum of sign * z_i[over edge] * w_j[under edge] over all
    crossings."""
    return _counts_from_pairs(pair_signs(d.crossings), cycles1, cycles2)


def linking_number(d: Diagram, z: Cycle, w: Cycle) -> int:
    """Signed count of crossings where z passes over w.

    Sums sign(c) * z[e] * w[f] over crossings whose over strand lies on an
    edge e in z's component and whose under strand lies on an edge f in w's
    component.  Defined as the over-crossing count (not half the total), so
    it is integer valued on any combinatorial input.
    """
    _check_cycles(d, z, w)
    return _linking_counts(d, (z,), (w,))[0][0]


def require_two_components(d: Diagram) -> None:
    if len(d.components) != 2:
        raise DomainError(f"diagram has {len(d.components)} components, expected 2")


def linking_matrix(
    d: Diagram | WalkState,
    basis1: CycleBasis | None = None,
    basis2: CycleBasis | None = None,
) -> LinkingMatrix:
    """Linking matrix over cycle bases of the two components.

    Defaults to the deterministic fundamental bases; explicit bases (for
    example over a randomized spanning tree) let callers confirm that the
    divisor chain does not depend on the choice.  ``d`` may also be a
    ``moves.WalkState``, whose matrix over its default bases is read off
    the inter-component sign sums it keeps running, with no pass over the
    crossings (:meth:`moves.WalkState.linking_matrix`).
    """
    if not isinstance(d, Diagram):
        if basis1 is not None or basis2 is not None:
            raise DomainError("a walk state's linking matrix is over its default bases")
        return d.linking_matrix()
    require_two_components(d)
    if basis1 is None:
        basis1 = cycle_basis(d, 1)
    if basis2 is None:
        basis2 = cycle_basis(d, 2)
    if basis1.component != 1 or basis2.component != 2:
        raise DomainError("bases must belong to components 1 and 2 in that order")
    return matrix_from_pairs(pair_signs(d.crossings), basis1, basis2)


def matrix_from_pairs(pairs, basis1: CycleBasis, basis2: CycleBasis) -> LinkingMatrix:
    """Linking matrix over two bases, read off per-pair sign sums as
    :func:`pair_signs` makes them.  Pairs whose edges lie outside the two
    bases' supports add nothing, so sums kept for inter-component pairs
    only give the same matrix."""
    over = _counts_from_pairs(pairs, basis1.cycles, basis2.cycles)
    return LinkingMatrix(len(basis1.cycles), len(basis2.cycles),
                         tuple(map(tuple, over)), basis1, basis2)


def over_under_consistent(d: Diagram, mat: LinkingMatrix | None = None) -> bool:
    """True when lk(z, w) = lk(w, z) for every basis cycle pair.

    A necessary condition for realizability; canonical diagrams and
    everything the move engine produces satisfy it.  ``mat`` is the
    diagram's linking matrix, built over the default bases when omitted;
    it is compared with the transpose of the count over its bases swapped.
    """
    require_two_components(d)
    if mat is None:
        mat = linking_matrix(d)
    swapped = _linking_counts(d, mat.basis2.cycles, mat.basis1.cycles)
    under = IntMatrix(mat.cols, mat.rows, tuple(map(tuple, swapped))).transpose()
    return mat.entries == under.entries


def diagram_invariant(d: Diagram) -> LkInvariant:
    """Divisor-chain invariant of a two-component diagram."""
    return lk_invariant(linking_matrix(d))
