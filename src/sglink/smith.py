"""Exact Smith normal form over the integers, with unimodular certificates.

Every reduction returns a full certificate (U, D, V with U*M*V = D) built
from elementary row/column operations only: swaps, negations, and adding an
integer multiple of one row/column to another.  Arithmetic is exact
(unbounded Python ints), and every certificate is re-verified before it is
returned.

Verification skips zero terms: ``IntMatrix.__matmul__`` adds up only the
rows a sparse row's nonzeros pick, and ``IntMatrix.det`` only rescales (or
leaves alone) a row whose pivot-column entry is 0.  Checking a certificate
therefore costs in step with its nonzeros, not with its declared size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress
from math import gcd
from operator import mul

from .errors import DomainError, SelfCheckError


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

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        """Build from an iterable of rows; ``cols`` disambiguates 0-row matrices."""
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise DomainError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

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

    @classmethod
    def zero(cls) -> "LkInvariant":
        return cls(())

    @classmethod
    def chain(cls, *divisors: int) -> "LkInvariant":
        if not divisors:
            raise DomainError("a chain must be nonempty; use LkInvariant.zero()")
        return cls(tuple(int(d) for d in divisors))

    @property
    def is_zero(self) -> bool:
        return not self.divisors

    def __str__(self) -> str:
        return "0" if self.is_zero else " ".join(str(d) for d in self.divisors)


def _snf_reduce(a: list[list[int]], m: int, n: int):
    """In-place SNF on ``a``; returns (U, V) as lists accumulating the ops.

    Pivot choice is the smallest nonzero absolute value in the remaining
    submatrix, ties broken lexicographically by position, so a given input
    always yields the same sequence of operations and the same certificate.
    """
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i, j, q):
        # row i += q * row j
        ai, aj = a[i], a[j]
        for t in range(n):
            ai[t] += q * aj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] += q * uj[t]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, q):
        # col i += q * col j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    k = 0
    limit = min(m, n)
    while k < limit:
        best = None
        for i in range(k, m):
            for j in range(k, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        if a[k][k] < 0:
            row_negate(k)

        p = a[k][k]
        clean = True
        for i in range(k + 1, m):
            if a[i][k]:
                q = a[i][k] // p
                if q:
                    row_add(i, k, -q)
                if a[i][k]:
                    clean = False
        for j in range(k + 1, n):
            if a[k][j]:
                q = a[k][j] // p
                if q:
                    col_add(j, k, -q)
                if a[k][j]:
                    clean = False
        if not clean:
            continue  # smaller remainders appeared; re-pick the pivot

        # Pivot must divide the rest of the submatrix before moving on,
        # which is what makes the diagonal a divisibility chain.
        bad = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(k, bad, 1)
            continue
        k += 1
    return u, v


def smith_normal_form(mat: IntMatrix) -> SnfCertificate:
    """Reduce ``mat`` to Smith normal form and return a verified certificate.

    The certificate is verified before being returned, so a successful call
    is self-checking.
    """
    a = mat.to_lists()
    u, v = _snf_reduce(a, mat.rows, mat.cols)
    # the reduction's lists already hold ints: wrap them without converting
    cert = SnfCertificate(
        U=IntMatrix(mat.rows, mat.rows, tuple(map(tuple, u))),
        D=IntMatrix(mat.rows, mat.cols, tuple(map(tuple, a))),
        V=IntMatrix(mat.cols, mat.cols, tuple(map(tuple, v))),
        divisors=tuple(a[i][i] for i in range(min(mat.rows, mat.cols)) if a[i][i] != 0),
    )
    verify_certificate(mat, cert)
    return cert


def verify_certificate(mat: IntMatrix, cert: SnfCertificate) -> None:
    """Raise SelfCheckError unless the certificate proves the reduction."""
    u, d, v = cert.U, cert.D, cert.V
    if (u.rows, u.cols) != (mat.rows, mat.rows) or (v.rows, v.cols) != (mat.cols, mat.cols):
        raise SelfCheckError("certificate transform dimensions are wrong")
    if (d.rows, d.cols) != (mat.rows, mat.cols):
        raise SelfCheckError("certificate diagonal dimensions are wrong")
    if (u @ mat @ v).entries != d.entries:
        raise SelfCheckError("U @ M @ V != D")
    if abs(u.det()) != 1 or abs(v.det()) != 1:
        raise SelfCheckError("transforms are not unimodular")
    ds = cert.divisors
    limit = min(mat.rows, mat.cols)
    for i in range(d.rows):
        for j in range(d.cols):
            expected = ds[i] if i == j and i < len(ds) else 0
            if d.entries[i][j] != expected:
                raise SelfCheckError("D is not in diagonal divisor form")
    if len(ds) > limit or any(x <= 0 for x in ds):
        raise SelfCheckError("divisors are not positive")
    if any(ds[i + 1] % ds[i] for i in range(len(ds) - 1)):
        raise SelfCheckError("divisors do not form a divisibility chain")


_ORACLE_LIMIT = 6


def divisors_via_minors(mat: IntMatrix) -> list[int]:
    """Elementary divisors via gcds of k x k minors; independent of the
    elimination path.

    d_k = g_k / g_{k-1} where g_k is the gcd of all k x k minors (g_0 = 1),
    truncated at the first k whose minors all vanish.  Enumeration is
    combinatorial, so min(rows, cols) must be at most 6.
    """
    limit = min(mat.rows, mat.cols)
    if limit > _ORACLE_LIMIT:
        raise DomainError(f"minor oracle supports min dimension <= {_ORACLE_LIMIT}, got {limit}")
    out = []
    g_prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                sub = IntMatrix.from_rows(
                    [[mat.entries[i][j] for j in cols] for i in rows], cols=k
                )
                g = gcd(g, sub.det())
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // g_prev)
        g_prev = g
    return out


def lk_invariant(mat: IntMatrix) -> LkInvariant:
    """Divisor-chain invariant of an integer matrix (zero when the chain is empty)."""
    return LkInvariant(smith_normal_form(mat).divisors)


def random_unimodular(size: int, seed: int, ops: int = 30) -> IntMatrix:
    """Product of ``ops`` random elementary matrices; determinant is +-1.

    Operations are swaps, negations, and adding a nonzero multiple in
    [-3, 3] of one row to another.  Deterministic for a fixed seed.
    """
    if size < 0:
        raise DomainError("size must be nonnegative")
    rng = random.Random(seed)
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(ops):
        if size == 0:
            break
        kind = rng.choice(("swap", "negate", "add")) if size > 1 else "negate"
        if kind == "negate":
            i = rng.randrange(size)
            m[i] = [-x for x in m[i]]
        elif kind == "swap":
            i, j = rng.sample(range(size), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i, j = rng.sample(range(size), 2)
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return IntMatrix.from_rows(m, cols=size)
