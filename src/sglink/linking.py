"""The linking matrix of the two components' cycle bases.

The linking number of cycles z and w in distinct components is the signed
count of crossings where a z-supported edge passes over a w-supported edge,
weighted bilinearly by the cycle coefficients.  On realizable diagrams it
is symmetric, lk(z, w) = lk(w, z), which makes the over/under comparison a
cheap realizability smoke test.  Zero-rank components yield 0 x n or m x 0
matrices, not errors.

Every count is a matrix made by one kernel in two parts.
``sgd.pair_signs`` makes one pass over the crossings and sums their signs
per (over edge, under edge) pair; a diagram makes these sums once
(``Diagram.sign_sums``), and every count over it shares them.  The second
part turns each list of cycles into a sparse incidence, edge id ->
[(cycle index, coefficient)], and adds each pair's sign sum times the
outer product of the two edges' incidence entries.  A basis keeps its
incidence once made (``CycleBasis.incidence``), so the matrix and the
over/under check over the same bases make one incidence per basis.  The
cost is linear in the crossings plus the work of those outer products,
never a rescan of the crossings per cycle pair.  :func:`matrix_from_pairs`
is the one count over two bases the caller chooses; :func:`linking_matrix`
is that count over a diagram's default bases, :func:`over_under_consistent`
the count over the same bases of the sums with over and under swapped, and
:func:`linking_number`, the pairing of two arbitrary cycles, the 1 x 1
count, after it checks that each cycle lies in its component.  A walk's
working state (``moves.WalkState``) keeps its own running pair sums and a
spanning tree per component, and :func:`linking_matrix` given such a state
returns the matrix the state keeps over the fundamental bases of those
trees, read off those sums by :func:`matrix_from_pairs`.
"""

from __future__ import annotations

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
    "diagram_invariant",
]


class LinkingMatrix(IntMatrix):
    """Pairwise linking numbers of the two components' basis cycles: an
    integer matrix that also carries the bases its rows and columns index."""

    _fields = IntMatrix._fields + ("basis1", "basis2")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...],
                 basis1: CycleBasis, basis2: CycleBasis):
        super().__init__(rows, cols, entries)
        held = self.__dict__
        held["basis1"] = basis1
        held["basis2"] = basis2


# what a command that refuses a diagram failing over_under_consistent says,
# after the diagram's name: such a diagram is no spatial graph's diagram,
# and its matrix depends on which component is numbered first
UNREALIZABLE = ("fails the over/under check: lk(z, w) != lk(w, z) for some basis "
                "cycles z, w, so it is not realizable")


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


def _basis_incidence(basis: CycleBasis) -> dict[str, list[tuple[int, int]]]:
    """The :func:`_incidence` of a basis's cycles, made on the first call and
    kept as ``basis.incidence``; read it, never change it."""
    inc = basis.incidence
    if inc is None:
        inc = basis.__dict__["incidence"] = _incidence(basis.cycles)
    return inc


def _add_outer(mat: list[list[int]], s: int, zs, ws) -> None:
    """mat += s * (outer product of two incidence entries), when both exist."""
    if zs and ws:
        for i, a in zs:
            row, sa = mat[i], s * a
            for j, b in ws:
                row[j] += sa * b


def _counts(pairs, inc1, inc2, rows: int, cols: int) -> list[list[int]]:
    """L[i][j] = sum over ((e, f), s) in ``pairs`` of s * z_i[e] * w_j[f],
    from the incidences ``inc1`` of the rows z_i and ``inc2`` of the
    columns w_j."""
    counts = [[0] * cols for _ in range(rows)]
    for (e, f), s in pairs:
        if s:
            _add_outer(counts, s, inc1.get(e), inc2.get(f))
    return counts


def linking_number(d: Diagram, z: Cycle, w: Cycle) -> int:
    """Signed count of crossings where z passes over w.

    Sums sign(c) * z[e] * w[f] over crossings whose over strand lies on an
    edge e in z's component and whose under strand lies on an edge f in w's
    component.  Defined as the over-crossing count (not half the total), so
    it is integer valued on any combinatorial input.
    """
    _check_cycles(d, z, w)
    return _counts(d.sign_sums.items(), _incidence((z,)), _incidence((w,)), 1, 1)[0][0]


def require_two_components(d: Diagram) -> None:
    if len(d.components) != 2:
        raise DomainError(f"diagram has {len(d.components)} components, expected 2")


def linking_matrix(d: Diagram | WalkState) -> LinkingMatrix:
    """Linking matrix over the default cycle bases of the two components.

    ``d`` may also be a ``moves.WalkState``; its matrix is over the
    fundamental bases of the spanning trees the state keeps, which start
    as the default trees of the diagram it was built from and go wherever
    the graph moves take them, so in general not the default bases of the
    diagram it holds now (:meth:`moves.WalkState.linking_matrix`).  :func:`matrix_from_pairs`
    counts over bases of the caller's choosing.
    """
    if not isinstance(d, Diagram):
        return d.linking_matrix()
    require_two_components(d)
    return matrix_from_pairs(d.sign_sums, cycle_basis(d, 1), cycle_basis(d, 2))


def matrix_from_pairs(pairs, basis1: CycleBasis, basis2: CycleBasis) -> LinkingMatrix:
    """Linking matrix over two bases, read off per-pair sign sums as
    ``sgd.pair_signs`` makes them.  Pairs whose edges lie outside the two
    bases' supports add nothing, so sums kept for inter-component pairs
    only give the same matrix."""
    rows, cols = len(basis1.cycles), len(basis2.cycles)
    over = _counts(pairs.items(), _basis_incidence(basis1), _basis_incidence(basis2), rows, cols)
    return LinkingMatrix(rows, cols, tuple(map(tuple, over)), basis1, basis2)


def over_under_consistent(d: Diagram, mat: LinkingMatrix | None = None) -> bool:
    """True when lk(z, w) = lk(w, z) for every basis cycle pair.

    A necessary condition for realizability; canonical diagrams and
    everything the move engine produces satisfy it.  ``mat`` is the
    diagram's linking matrix, built over the default bases when omitted;
    it is compared with the count over its bases of the sign sums with
    over and under swapped: basis1's cycles under basis2's.
    """
    require_two_components(d)
    if mat is None:
        mat = linking_matrix(d)
    swapped = (((u, o), s) for (o, u), s in d.sign_sums.items())
    under = _counts(swapped, _basis_incidence(mat.basis1), _basis_incidence(mat.basis2),
                    mat.rows, mat.cols)
    return tuple(map(tuple, under)) == mat.entries


def diagram_invariant(d: Diagram) -> LkInvariant:
    """Divisor-chain invariant of a two-component diagram."""
    return lk_invariant(linking_matrix(d))
