"""The value types against the dataclasses they replaced, kept here as a
reference.

The eleven classes below are ``Edge``, ``Component`` and ``Violation``
(``sgd``), ``Cycle`` and ``CycleBasis`` (``homology``), ``IntMatrix``,
``SnfCertificate`` and ``LkInvariant`` (``smith``), ``LinkingMatrix``
(``linking``), ``MoveRecord`` (``moves``) and ``Verdict`` (``classify``)
as they stood when each was a frozen dataclass; copied verbatim, names
included, so the package's classes are read as ``sglink.X``.  The
twelfth, ``Crossing``, is gone from the package, as a crossing is now a
plain row of its diagram.  Today's classes are plain classes on one frozen
base with their own ``__init__``.  On a seeded corpus of values made by
the pipeline, both must agree in equality, inequality and hash (the
cross-class ``IntMatrix``/``LinkingMatrix`` case and the unhashable
``Cycle`` included), in ``repr``, in positional and keyword construction,
in the ``TypeError`` of a missing or an extra argument, in the
``DomainError`` of a bad matrix or chain, and through ``copy.copy``,
``copy.deepcopy`` and ``pickle``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Mapping

import pytest

import sglink
from gen import random_diagram, random_matrix, transposed
from sglink.classify import Result
from sglink.errors import DomainError


@dataclass(frozen=True)
class Edge:
    """Oriented edge; tail == head is a loop."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Component:
    """One connected component of the abstract graph, 1-based index."""

    index: int
    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]


@dataclass(frozen=True)
class Violation:
    """A named invariant breach tied to the offending entity."""

    code: str
    entity: str
    message: str


@dataclass(frozen=True)
class Cycle:
    """Integer 1-cycle supported on the edges of one component.

    ``coeffs`` maps edge id to a nonzero integer coefficient; absent means 0.
    """

    component: int
    coeffs: Mapping[str, int]


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning tree, one per non-tree edge.

    Cycle k has coefficient +1 on its defining non-tree edge and 0 on the
    other non-tree edges, so the basis matrix restricted to non-tree edges
    is the identity.
    """

    component: int
    tree_edges: tuple[str, ...]
    cycles: tuple[Cycle, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major, exact arithmetic throughout."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DomainError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DomainError("entry shape does not match declared dimensions")

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b = other.entries
        cols_t = None
        prod = []
        for row in self.entries:
            if 2 * row.count(0) >= len(row):
                # at most half nonzero: sum the rows of ``other`` the nonzeros pick
                acc = [0] * other.cols
                for k in compress(range(len(row)), row):
                    a = row[k]
                    acc = [x + a * y for x, y in zip(acc, b[k])]
                prod.append(tuple(acc))
            else:
                if cols_t is None:
                    cols_t = tuple(zip(*b))
                prod.append(tuple(sum(map(mul, row, col)) for col in cols_t))
        return IntMatrix(self.rows, other.cols, tuple(prod))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination.

        Work follows the nonzeros: a row whose pivot-column entry is 0 is
        only rescaled (``x * p // prev``), and left alone when the pivot
        ``p`` equals the previous pivot, so the determinant of a mostly-zero
        transform costs far less than n**3 steps.
        """
        if self.rows != self.cols:
            raise DomainError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            p = m[k][k]
            tail = m[k][k + 1:]
            for i in range(k + 1, n):
                row = m[i]
                a = row[k]
                if a:
                    row[k + 1:] = [(x * p - a * y) // prev for x, y in zip(row[k + 1:], tail)]
                elif p != prev:
                    row[k + 1:] = [x * p // prev for x in row[k + 1:]]
            prev = p
        return sign * m[n - 1][n - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class SnfCertificate:
    """Diagonal form D with unimodular transforms satisfying U @ M @ V == D."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]


@dataclass(frozen=True)
class LkInvariant:
    """Divisor-chain invariant: empty tuple means the zero invariant.

    A nonempty chain is a sequence of positive integers d1 | d2 | ... | dl.
    Equality is structural.
    """

    divisors: tuple[int, ...] = ()

    def __post_init__(self):
        ds = self.divisors
        if any(d <= 0 for d in ds):
            raise DomainError("chain entries must be positive")
        if any(ds[i + 1] % ds[i] for i in range(len(ds) - 1)):
            raise DomainError("chain entries must form a divisibility chain")

    @property
    def is_zero(self) -> bool:
        return not self.divisors

    def __str__(self) -> str:
        return "0" if self.is_zero else " ".join(str(d) for d in self.divisors)


@dataclass(frozen=True)
class LinkingMatrix(IntMatrix):
    """Pairwise linking numbers of the two components' basis cycles: an
    integer matrix that also carries the bases its rows and columns index."""

    basis1: CycleBasis
    basis2: CycleBasis


@dataclass(frozen=True)
class MoveRecord:
    """One applied move: kind, its parameter tokens, and whether it
    preserves the divisor-chain invariant."""

    kind: str
    params: tuple[str, ...]
    homotopy_preserving: bool


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classification, with the evidence that produced it."""

    result: Result
    pairing: str  # "ordered" | "swapped" | "none"
    ranks: tuple[tuple[int, int], tuple[int, int]]
    invariants: tuple[LkInvariant, LkInvariant]
    obstruction: str | None  # "rank" | "divisors" | None

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


HEAD = {cls.__name__: cls for cls in (Edge, Component, Violation, Cycle, CycleBasis, IntMatrix,
                                      SnfCertificate, LkInvariant, LinkingMatrix, MoveRecord,
                                      Verdict)}


def names(value) -> list[str]:
    """The field names of a value's type, as its dataclass declared them."""
    return [f.name for f in dataclasses.fields(HEAD[type(value).__name__])]


def args(value) -> list:
    return [getattr(value, name) for name in names(value)]


def head(x):
    """The same value built from the dataclasses, nested values too."""
    if type(x).__name__ in HEAD and type(x).__module__.startswith("sglink."):
        return HEAD[type(x).__name__](*map(head, args(x)))
    if isinstance(x, tuple):
        return tuple(map(head, x))
    if isinstance(x, dict):
        return {k: head(v) for k, v in x.items()}
    return x


def outcome(f, *a, **kw):
    """What calling ``f`` gives: ("ok", repr) or (error type, text)."""
    try:
        return "ok", repr(f(*a, **kw))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def corpus(seed: int) -> list:
    """Values of all eleven types, as the pipeline makes them, with equal
    values made twice so that equality has pairs to find."""
    rng = random.Random(seed)
    diagrams = [sglink.canonical_diagram(m, n, chain) for m, n, chain in
                [(1, 1, ()), (1, 1, (1,)), (2, 2, (1, 6)), (3, 2, (2, 4)), (3, 3, (1, 2, 2))]]
    diagrams += [sglink.random_homotopy_walk(diagrams[k], steps=25, seed=seed + k)[0]
                 for k in range(len(diagrams))]
    values = []
    for d in diagrams:
        for again in (d, sglink.parse_sgd(sglink.serialize_sgd(d))):
            mat = sglink.linking_matrix(again)
            values += [*again.edges[:3], *again.components, mat,
                       mat.basis1, mat.basis2, *mat.basis1.cycles[:2],
                       sglink.smith_normal_form(mat), sglink.lk_invariant(mat),
                       sglink.IntMatrix(mat.rows, mat.cols, mat.entries)]
        values += sglink.random_homotopy_walk(d, steps=6, seed=seed)[1]
        values.append(sglink.classify(d, diagrams[rng.randrange(len(diagrams))]))
    for _ in range(30):
        d = random_diagram(rng)
        values += [*d.edges[:2], *d.components[:2]]
        values += sglink.validate(sglink.Diagram(d.vertices[1:], d.edges, d.rows))[:3]
    for _ in range(20):
        m = random_matrix(rng)
        values += [m, sglink.IntMatrix(m.rows, m.cols, m.entries), sglink.smith_normal_form(m)]
    return values


@pytest.fixture(scope="module")
def values():
    vs = corpus(2121)
    assert {type(v).__name__ for v in vs} == set(HEAD)
    return vs


def test_repr_and_hash_agree(values):
    hashed = 0
    for v in values:
        old = head(v)
        assert repr(v) == repr(old)
        assert outcome(hash, v) == outcome(hash, old)
        hashed += outcome(hash, v)[0] == "ok"
    assert 0 < hashed < len(values)  # Cycle, CycleBasis and LinkingMatrix hold dicts


def test_equality_agrees(values):
    rng = random.Random(7)
    olds = [head(v) for v in values]
    pairs = [(i, j) for i in range(len(values)) for j in range(len(values))
             if type(values[i]).__name__ == type(values[j]).__name__ or rng.random() < 0.02]
    equal = 0
    for i, j in pairs:
        a, b = values[i], values[j]
        assert (a == b, a != b) == (olds[i] == olds[j], olds[i] != olds[j]), (a, b)
        equal += i != j and a == b
    assert equal > 50
    for v, old in zip(values, olds):
        for other in (None, tuple(args(v)), vars(v)):
            assert (v == other, v != other) == (old == other, old != other)


def test_values_of_two_classes_with_equal_fields_differ(values):
    # Edge, Component, Violation, CycleBasis and MoveRecord all take three
    # fields, which these checks do not constrain
    unchecked = [name for name in HEAD if name not in ("IntMatrix", "LinkingMatrix", "LkInvariant")]
    classes = {type(v).__name__: type(v) for v in values}
    differ = 0
    for v in values[::5]:
        a = args(v)
        for name in unchecked:
            if name != type(v).__name__ and len(dataclasses.fields(HEAD[name])) == len(a):
                other = classes[name](*a)
                old, old_other = head(v), HEAD[name](*head(a))
                assert (v == other, other == v, v != other) == (
                    old == old_other, old_other == old, old != old_other) == (False, False, True)
                differ += 1
    assert differ > 100


def test_an_int_matrix_never_equals_a_linking_matrix(values):
    mats = [v for v in values if type(v) is sglink.LinkingMatrix]
    for mat in mats:
        plain = sglink.IntMatrix(mat.rows, mat.cols, mat.entries)
        old, old_plain = head(mat), head(plain)
        assert (plain == mat, mat == plain, plain != mat) == (
            old_plain == old, old == old_plain, old_plain != old) == (False, False, True)


def test_construction_agrees(values):
    for v in values:
        a = args(v)
        kw = dict(zip(names(v), a))
        cls, old_cls = type(v), HEAD[type(v).__name__]
        for made, old in ((cls(*a), old_cls(*head(a))), (cls(**kw), old_cls(**head(kw)))):
            assert made == v and repr(made) == repr(old)
    assert repr(sglink.LkInvariant()) == repr(LkInvariant()) == "LkInvariant(divisors=())"


def test_wrong_arguments_raise_the_same_type_error(values):
    seen = set()
    for v in values:
        cls, old_cls = type(v), HEAD[type(v).__name__]
        a = args(v)
        kw = dict(zip(names(v), a))
        calls = [(a[:-1], {}), ([*a, None], {}), ((), {}), (a, {"extra": 1}),
                 ((), {**kw, "extra": 1}), (a[:1], {names(v)[0]: a[0]})]
        if len(a) > 1:
            calls.append(((), dict(list(kw.items())[1:])))
        for pos, named in calls:
            if cls is sglink.LkInvariant and not pos and not named:
                continue  # LkInvariant() is the zero invariant
            got = outcome(cls, *pos, **named)
            assert got[0] is TypeError and got == outcome(old_cls, *head(pos), **head(named))
            seen.add(got[1])
    assert len(seen) > 40


def test_domain_errors_agree():
    rng = random.Random(11)
    basis = sglink.cycle_basis(sglink.canonical_diagram(1, 1, (1,)), 1)
    cases = [(-1, 2, ()), (2, -1, ()), (2, 2, ((1, 2),)), (1, 2, ((1,),)), (0, 0, ()),
             (1, 1, ((5,),)), (2, 1, ((1,), (2, 3)))]
    for _ in range(100):
        m, n = rng.randint(-1, 3), rng.randint(-1, 3)
        cases.append((m, n, tuple(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))
                                  for _ in range(rng.randint(0, 3)))))
    chains = [(), (1,), (0,), (-2,), (2, 3), (2, 4, 6), (3, 6, 12), (1, 0)]
    chains += [tuple(rng.randint(-1, 6) for _ in range(rng.randint(0, 4))) for _ in range(100)]
    kinds = set()
    for case in cases:
        for cls, old_cls, extra in ((sglink.IntMatrix, IntMatrix, ()),
                                    (sglink.LinkingMatrix, LinkingMatrix, (basis, basis))):
            got = outcome(cls, *case, *extra)
            assert got == outcome(old_cls, *case, *head(extra)), case
            kinds.add(got[:2] if got[0] is DomainError else got[0])
    for chain in chains:
        got = outcome(sglink.LkInvariant, chain)
        assert got == outcome(LkInvariant, chain), chain
        kinds.add(got[:2] if got[0] is DomainError else got[0])
    assert len(kinds) == 5  # "ok" and four DomainError texts


def test_copies_and_pickles_agree(values):
    for v in values:
        old = head(v)
        for make in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            made, made_old = make(v), make(old)
            assert type(made) is type(v) and vars(made) == vars(v)
            assert repr(made) == repr(made_old) == repr(v)
            assert outcome(hash, made) == outcome(hash, made_old)


def test_methods_agree(values):
    for v in values:
        old = head(v)
        if isinstance(v, sglink.LkInvariant):
            assert (str(v), v.is_zero) == (str(old), old.is_zero)
        elif isinstance(v, sglink.Verdict):
            assert v.describe() == old.describe() and v.describe(True) == old.describe(True)
        elif isinstance(v, sglink.IntMatrix):
            assert repr(transposed(v)) == repr(old.transpose())
            assert v.to_lists() == old.to_lists()
            assert repr(v @ transposed(v)) == repr(old @ old.transpose())
            if v.rows == v.cols:
                assert v.det() == old.det()
