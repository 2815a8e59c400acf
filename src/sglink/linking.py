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
outer product of the two edges' incidence entries.  The cost is linear in
the crossings plus the work of those outer products, never a rescan of
the crossings per cycle pair.  :func:`matrix_from_pairs` is the one count
over two bases the caller chooses; :func:`linking_matrix` is that count
over a diagram's default bases, and :func:`linking_number`, the pairing of
two arbitrary cycles, the 1 x 1 count, after it checks that each cycle
lies in its component.  :func:`over_under_consistent` takes only the
diagram, and counts the differences Delta(e, f) = S(e, f) - S(f, e) of
the sums S: over minus under, zero everywhere when the check holds.  The
count is bilinear, so any pair of bases decides it; the check makes the
default bases only when some Delta is nonzero.  Every move keeps Delta as
it is, so a diagram a walk reaches from a canonical one, where Delta is
zero, passes the check with no basis made and no count at all.  A walk's
working state (``moves.WalkState``) keeps its own running pair sums and a
spanning tree per component, and :func:`linking_matrix` given such a state
returns the matrix over the fundamental bases of those trees, made at that
read: the entries the state keeps, or, when a move dropped them, those
:func:`matrix_from_pairs` reads off the sums.
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


def _counts(pairs, inc1, inc2, rows: int, cols: int) -> list[list[int]]:
    """L[i][j] = sum over ((e, f), s) in ``pairs`` of s * z_i[e] * w_j[f],
    from the incidences ``inc1`` of the rows z_i and ``inc2`` of the
    columns w_j."""
    counts = [[0] * cols for _ in range(rows)]
    for (e, f), s in pairs:
        zs, ws = inc1.get(e), inc2.get(f)
        if s and zs and ws:
            for i, a in zs:
                row, sa = counts[i], s * a
                for j, b in ws:
                    row[j] += sa * b
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
    over = _counts(pairs.items(), _incidence(basis1.cycles), _incidence(basis2.cycles), rows, cols)
    return LinkingMatrix(rows, cols, tuple(map(tuple, over)), basis1, basis2)


def over_under_consistent(d: Diagram) -> bool:
    """True when lk(z, w) = lk(w, z) for every pair of cycles z, w in
    distinct components.

    A necessary condition for realizability; canonical diagrams and
    everything the move engine produces satisfy it.  With S the diagram's
    sign sum per (over edge, under edge) pair, over minus under is the
    count of Delta(e, f) = S(e, f) - S(f, e), and the check holds when
    that count is zero.  The count is bilinear, so it is zero over one
    pair of bases exactly when it is zero over every pair.  One pass over
    the sums finds the pairs where Delta is nonzero; when there are none,
    nothing more is counted, and otherwise the count runs over the default
    bases, made here.
    """
    require_two_components(d)
    sums = d.sign_sums
    delta = {}
    for (o, u), s in sums.items():
        t = s - sums.get((u, o), 0)
        if t:
            delta[o, u] = t
            delta[u, o] = -t
    if not delta:
        return True
    z, w = cycle_basis(d, 1).cycles, cycle_basis(d, 2).cycles
    return not any(map(any, _counts(delta.items(), _incidence(z), _incidence(w), len(z), len(w))))


def diagram_invariant(d: Diagram) -> LkInvariant:
    """Divisor-chain invariant of a two-component diagram."""
    return lk_invariant(linking_matrix(d))
