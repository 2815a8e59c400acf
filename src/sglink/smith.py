"""Exact Smith normal form over the integers, with unimodular certificates.

Every reduction returns a full certificate (U, D, V with U*M*V = D) built
from elementary row/column operations only: swaps, negations, and adding an
integer multiple of one row/column to another.  Arithmetic is exact
(unbounded Python ints), and every certificate is re-verified before it is
returned.  The reduction keeps ``V`` by columns, and one scan both checks
that a non-unit pivot divides the rest and finds the next pivot.

Verification skips zero terms.  ``IntMatrix.__matmul__`` has one loop: it
adds up only the nonzero pairs of each row, over lists of the other
factor's nonzeros made once per product; ``IntMatrix.det`` peels rows and
columns with one nonzero first, so a permutation or a unit triangular
transform needs no elimination, and its elimination of the core left
brings a row up to date only when a step uses it; and ``D``'s diagonal
form is checked a row at a time.  Products still build dense rows, so
checking an n x n certificate stays Omega(n**2); beyond that, the products
cost in step with the nonzero pairs they meet, and the determinant with
the lines it peels and the rows its steps update.

Unimodularity: ``U @ M @ V == D`` gives ``det U * det M * det V = prod(d)``.
For a square ``M`` with a divisor per row, ``|det M| = prod(d) != 0`` leaves
``det U * det V = +-1``, so ``det M`` alone proves both are +-1.
"""

from __future__ import annotations

from itertools import compress
from math import prod

from .errors import DomainError, SelfCheckError
from .value import Value


class IntMatrix(Value):
    """Immutable integer matrix, row-major, exact arithmetic throughout."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise DomainError("matrix dimensions must be nonnegative")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DomainError("entry shape does not match declared dimensions")
        held = self.__dict__
        held["rows"] = rows
        held["cols"] = cols
        held["entries"] = entries

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # each row of ``other`` listed by its nonzeros, once per product
        b_nz = [[(j, r[j]) for j in compress(range(len(r)), r)] for r in other.entries]
        prod = []
        for row in self.entries:
            acc = [0] * other.cols
            for k in compress(range(len(row)), row):
                a = row[k]
                for j, y in b_nz[k]:
                    acc[j] += a * y
            prod.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(prod))

    def det(self) -> int:
        """Exact determinant: rows and columns with one nonzero are peeled,
        and fraction-free (Bareiss) elimination runs on the core left.

        A row or column with exactly one nonzero among the live rows and
        columns is peeled off with that nonzero's row and column, and the
        peel repeats until no live row or column has one nonzero.  Listing
        the rows and the columns with the peeled pivots first, in peel
        order, and the core after them in its own order makes the matrix
        block triangular, with the pivots down the diagonal.  So the
        determinant is the pivots' product times that of the core, times
        the signs of the two permutations; their product is the sign of
        ``match``, which takes each row to the column listed in its place.  A
        live row or column with no nonzero left makes it 0.  A matrix with
        no row or column of one nonzero goes to :func:`_bareiss` whole,
        after one count of each row's and column's zeros; one peeled whole,
        such as a diagonal, hands it an empty core without listing the live
        lines.  Every value is an exact integer.
        """
        if self.rows != self.cols:
            raise DomainError("determinant requires a square matrix")
        n, rows = self.rows, self.entries
        # lines 0..n-1 are the rows and n..2n-1 the columns
        lines = rows + tuple(zip(*rows))
        degree = [n - line.count(0) for line in lines]
        if 0 in degree:
            return 0
        if 1 not in degree:
            return _bareiss([list(r) for r in rows])
        live = [True] * (2 * n)
        match = [0] * n  # row i's pivot is in column match[i]
        stack = [x for x, d in enumerate(degree) if d == 1]
        pop, push = stack.pop, stack.append
        row_ids, col_ids = range(n), range(n, 2 * n)
        pivots, peeled = 1, 0
        while stack:
            x = pop()
            if not live[x]:
                continue
            # each line's nonzeros are listed once: when it is peeled, or
            # when the line it faces is
            if x < n:
                for y in compress(col_ids, lines[x]):
                    if live[y]:
                        break
                i, j, facing = x, y - n, row_ids
            else:
                for y in compress(row_ids, lines[x]):
                    if live[y]:
                        break
                i, j, facing = y, x - n, col_ids
            live[x] = live[y] = False
            pivots *= rows[i][j]
            match[i] = j
            peeled += 1
            for z in compress(facing, lines[y]):  # the lines that lose y
                if live[z]:
                    d = degree[z] = degree[z] - 1
                    if d == 1:
                        push(z)
                    elif not d:
                        return 0
        core = []
        if peeled < n:
            core_r = list(compress(row_ids, live))
            core_c = list(compress(range(n), live[n:]))
            for i, j in zip(core_r, core_c):
                match[i] = j
            core = [[rows[i][j] for j in core_c] for i in core_r]
        return _parity(match) * pivots * _bareiss(core)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _bareiss(m: list[list[int]]) -> int:
    """Exact determinant of the square matrix ``m`` by fraction-free
    (Bareiss) elimination, in place.

    Every value the elimination holds is a minor.  A step only scales a row
    whose pivot-column entry is 0, by ``p / prev`` (this pivot over the
    last), so a run of such steps scales it by the ratio of the pivots at
    the run's ends.  Each row therefore keeps a scale, the last pivot at
    which its entries were exact, and is brought up to date, with one exact
    division ``x * prev // scale``, only when a step uses it: as the pivot
    row, as a row the pivot row updates (in the update's own division), or
    as the last entry.  A step costs the pivot row and the rows it updates,
    so the determinant of a diagonal n x n matrix takes time quadratic, not
    cubic, in n.
    """
    n = len(m)
    if n == 0:
        return 1
    # row i holds its true values times scale[i] / prev; a zero stays zero
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    scale[k], scale[i] = scale[i], scale[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, s = m[k], scale[k]
        if s == prev:
            p, tail = pivot[k], pivot[k + 1:]
        else:
            p = pivot[k] * prev // s
            tail = [x * prev // s for x in pivot[k + 1:]]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            if a:
                # the update and the rescale in one exact division
                s = scale[i]
                row[k + 1:] = [(x * p - a * y) // s for x, y in zip(row[k + 1:], tail)]
                scale[i] = p
        prev = p
    return sign * m[n - 1][n - 1] * prev // scale[n - 1]


def _parity(perm: list[int]) -> int:
    """The sign of the permutation ``perm`` of ``range(len(perm))``: a cycle
    of length L counts L - 1 transpositions."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        j = perm[i]
        while not seen[j]:
            seen[j] = True
            if j != i:
                sign = -sign
            j = perm[j]
    return sign


class SnfCertificate(Value):
    """Diagonal form D with unimodular transforms satisfying U @ M @ V == D."""

    _fields = ("U", "D", "V", "divisors")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix, divisors: tuple[int, ...]):
        held = self.__dict__
        held["U"] = U
        held["D"] = D
        held["V"] = V
        held["divisors"] = divisors


class LkInvariant(Value):
    """Divisor-chain invariant: empty tuple means the zero invariant.

    A nonempty chain is a sequence of positive integers d1 | d2 | ... | dl.
    Equality is structural.
    """

    _fields = ("divisors",)

    def __init__(self, divisors: tuple[int, ...] = ()):
        if any(d <= 0 for d in divisors):
            raise DomainError("chain entries must be positive")
        if any(divisors[i + 1] % divisors[i] for i in range(len(divisors) - 1)):
            raise DomainError("chain entries must form a divisibility chain")
        self.__dict__["divisors"] = divisors

    @property
    def is_zero(self) -> bool:
        return not self.divisors

    def __str__(self) -> str:
        return "0" if self.is_zero else " ".join(str(d) for d in self.divisors)


def _pivot(a: list[list[int]], k: int, m: int, n: int, p: int = 1) -> tuple[int, int] | None:
    """Position of the smallest nonzero absolute value in the submatrix of
    ``a`` from (k, k), the first in row-major order on a tie; None when the
    submatrix is zero.

    The scan stops at the first entry that ``p`` does not divide and
    returns its position instead; with the default ``p = 1`` it stops at
    the first unit, as no entry is smaller.  So one pass both checks that
    the last pivot ``p`` divides the rest and finds the next pivot.
    """
    best, at = 0, None
    for i in range(k, m):
        row = a[i]
        for j in range(k, n):
            x = row[j]
            if x:
                if x % p:
                    return i, j
                x = abs(x)
                if at is None or x < best:
                    if x == 1:
                        return i, j
                    best, at = x, (i, j)
    return at


def _snf_reduce(a: list[list[int]], m: int, n: int):
    """In-place SNF on ``a``; returns (U, V) as lists accumulating the ops.

    Pivot choice is the smallest nonzero absolute value in the remaining
    submatrix, ties broken lexicographically by position, so a given input
    always yields the same sequence of operations and the same certificate.

    Each operation skips only entries it leaves unchanged.  At step k the
    columns ``< k`` of rows ``>= k`` are zero, and a finished row ``< k`` is
    zero off its diagonal, so row operations on ``a`` start at column k and
    column swaps and operations on ``a`` cover rows ``>= k`` only; on ``U``
    and ``V`` they cover the full width.  Adding a multiple of a row or
    column changes only the entries facing its nonzeros, so those are the
    only ones visited.  ``V`` is kept by columns, as the rows of its
    transpose ``vt``: a column swap swaps two lists, and a column operation
    visits the nonzeros of the column added; ``V`` is transposed once at
    the end.  The pivots, the quotients and their order are those of the
    full operations, and so are ``U``, ``D`` and ``V``.

    After a clean step with pivot ``p``, ``p`` must divide the rest of the
    submatrix, and the next step's pivot is the smallest entry of that same
    rest, so :func:`_pivot` checks the one and finds the other in one pass.

    At one k the pivot falls at least every second iteration: a step that
    leaves a remainder puts an entry smaller than the pivot into the
    submatrix, and the row added for divisibility makes the next step
    leave one unless a smaller pivot comes first.  A pivot that has not fallen in
    two iterations is a fault in the operations, which would otherwise
    loop for ever, so it raises ``SelfCheckError``.
    """
    u, vt = [[0] * m for _ in range(m)], [[0] * n for _ in range(n)]
    for t in (u, vt):
        for i, r in enumerate(t):
            r[i] = 1
    k = 0
    limit = min(m, n)
    older = old = None  # the pivots of the last two iterations at this k
    at = _pivot(a, k, m, n) if limit else None
    while at is not None:
        pi, pj = at
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for i in range(k, m):
                r = a[i]
                r[k], r[pj] = r[pj], r[k]
            vt[k], vt[pj] = vt[pj], vt[k]
        ak, uk = a[k], u[k]
        if ak[k] < 0:
            ak[k:] = [-x for x in ak[k:]]
            u[k] = uk = [-x for x in uk]

        p = ak[k]
        if older is not None and p >= older:
            raise SelfCheckError(f"SNF pivot at step {k} did not fall in two iterations")
        older, old = old, p
        clean = True
        # row i -= q * row k, for each row i below k in turn; row k stays
        # as it is, so its nonzeros are found once
        a_nz = list(compress(range(k, n), ak[k:]))
        u_nz = list(compress(range(m), uk))
        for i in range(k + 1, m):
            ai = a[i]
            if ai[k]:
                q = ai[k] // p
                if q:
                    for t in a_nz:
                        ai[t] -= q * ak[t]
                    ui = u[i]
                    for t in u_nz:
                        ui[t] -= q * uk[t]
                if ai[k]:
                    clean = False
        # col j -= q * col k, for each column j right of k in turn; column k
        # stays as it is, so the rows it is nonzero in are found once
        a_rows = [r for r in a[k:] if r[k]]
        vk = vt[k]
        v_nz = list(compress(range(n), vk))
        for j in range(k + 1, n):
            if ak[j]:
                q = ak[j] // p
                if q:
                    for r in a_rows:
                        r[j] -= q * r[k]
                    vj = vt[j]
                    for t in v_nz:
                        vj[t] -= q * vk[t]
                if ak[j]:
                    clean = False
        if not clean:  # smaller remainders appeared; re-pick the pivot
            at = _pivot(a, k, m, n)
            continue

        # Pivot must divide the rest of the submatrix before moving on,
        # which is what makes the diagonal a divisibility chain.
        at = _pivot(a, k + 1, m, n, p) if k + 1 < limit else None
        if at is not None and a[at[0]][at[1]] % p:  # row k += row bad
            ab, ub = a[at[0]], u[at[0]]
            for t in range(k, n):
                ak[t] += ab[t]
            for t in range(m):
                uk[t] += ub[t]
            at = _pivot(a, k, m, n)
            continue
        k += 1
        older = old = None
    return u, [list(c) for c in zip(*vt)]


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
    """Raise SelfCheckError unless the certificate proves the reduction.

    ``U @ M @ V == D`` is checked exactly, and ``D`` must be the diagonal of
    a positive divisor chain.  Then ``det U * det M * det V = prod(d)``:
    when ``M`` is square with a divisor per row and ``|det M| = prod(d)``,
    ``det U * det V = +-1``, so both integer determinants are +-1 and
    ``det M`` alone, on the input's small entries, proves ``U`` and ``V``
    unimodular.  Every other case computes ``det U`` and ``det V``.
    """
    u, d, v = cert.U, cert.D, cert.V
    if (u.rows, u.cols) != (mat.rows, mat.rows) or (v.rows, v.cols) != (mat.cols, mat.cols):
        raise SelfCheckError("certificate transform dimensions are wrong")
    if (d.rows, d.cols) != (mat.rows, mat.cols):
        raise SelfCheckError("certificate diagonal dimensions are wrong")
    if (u @ mat @ v).entries != d.entries:
        raise SelfCheckError("U @ M @ V != D")
    ds = cert.divisors
    limit = min(mat.rows, mat.cols)
    for i, row in enumerate(d.entries):
        diagonal = ds[i] if i < len(ds) and i < d.cols else 0
        if any(row[:i]) or any(row[i + 1:]) or (i < d.cols and row[i] != diagonal):
            raise SelfCheckError("D is not in diagonal divisor form")
    if len(ds) > limit or any(x <= 0 for x in ds):
        raise SelfCheckError("divisors are not positive")
    if any(ds[i + 1] % ds[i] for i in range(len(ds) - 1)):
        raise SelfCheckError("divisors do not form a divisibility chain")
    full_rank = mat.rows == mat.cols == len(ds)
    if not (full_rank and abs(mat.det()) == prod(ds)) and (abs(u.det()) != 1 or abs(v.det()) != 1):
        raise SelfCheckError("transforms are not unimodular")


def lk_invariant(mat: IntMatrix) -> LkInvariant:
    """Divisor-chain invariant of an integer matrix (zero when the chain is empty)."""
    return LkInvariant(smith_normal_form(mat).divisors)
