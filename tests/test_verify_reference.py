"""``verify_certificate`` and the matrix operations it runs, against the
ones they replaced, kept here as references.

``HeadMatrix.__matmul__``, ``HeadMatrix.det`` and
``head_verify_certificate`` below are ``IntMatrix.__matmul__``,
``IntMatrix.det`` and ``smith.verify_certificate`` as they stood when a
sparse product row added up whole rows of the other factor and a row more
than half nonzero took a dense branch of its own, the determinant ran
Bareiss elimination on the whole matrix and rescaled every row whose
pivot-column entry was 0 at every step, and ``D``'s diagonal form was
checked entry by entry; copied verbatim, apart from the names.  Today's
products add up only nonzero pairs, in one loop for every row, the
determinant peels rows and columns with one nonzero before it eliminates
and brings a row up to date only when a step uses it, and ``D`` is
checked a row at a time.  On every input both must give the same
products and determinants, and accept the same certificates or reject
them with the same message.  The corpus holds sparse and dense random
matrices, wide, tall and empty ones, diagonal chains, walked linking
matrices, matrices built to be peeled (signed permutations, unit
triangular transforms, dense cores bordered by singletons, and matrices
that turn singular only once peeled) and ones with nothing to peel, the
certificates of ``data/snf_certificates.json``, and certificates tampered
with in each way ``verify_certificate`` checks.
"""

import json
import random
from itertools import compress
from math import prod
from operator import mul
from pathlib import Path

from gen import random_chain, random_matrix, random_unimodular, sparse_matrix, transposed
from sglink import (
    DomainError,
    IntMatrix,
    SelfCheckError,
    SnfCertificate,
    canonical_diagram,
    linking_matrix,
    smith,
    smith_normal_form,
    verify_certificate,
)
from sglink.moves import WalkState, walk_steps

DATA = Path(__file__).parent / "data"


class HeadMatrix(IntMatrix):
    """``IntMatrix`` with the product and determinant it had before."""

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
        return HeadMatrix(self.rows, other.cols, tuple(prod))

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


def head_verify_certificate(mat: IntMatrix, cert: SnfCertificate) -> None:
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
    for i in range(d.rows):
        for j in range(d.cols):
            expected = ds[i] if i == j and i < len(ds) else 0
            if d.entries[i][j] != expected:
                raise SelfCheckError("D is not in diagonal divisor form")
    if len(ds) > limit or any(x <= 0 for x in ds):
        raise SelfCheckError("divisors are not positive")
    if any(ds[i + 1] % ds[i] for i in range(len(ds) - 1)):
        raise SelfCheckError("divisors do not form a divisibility chain")
    full_rank = mat.rows == mat.cols == len(ds)
    if not (full_rank and abs(mat.det()) == prod(ds)) and (abs(u.det()) != 1 or abs(v.det()) != 1):
        raise SelfCheckError("transforms are not unimodular")


MESSAGES = (
    "certificate transform dimensions are wrong",
    "certificate diagonal dimensions are wrong",
    "U @ M @ V != D",
    "D is not in diagonal divisor form",
    "divisors are not positive",
    "divisors do not form a divisibility chain",
    "transforms are not unimodular",
)


def matrix(rows, cols=None) -> IntMatrix:
    """The matrix of these rows; ``cols`` gives the width when there are none."""
    return IntMatrix(len(rows), len(rows[0]) if cols is None else cols, tuple(map(tuple, rows)))


def head(m: IntMatrix) -> HeadMatrix:
    return HeadMatrix(m.rows, m.cols, m.entries)


def eye(n: int) -> IntMatrix:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def diagonal(m: int, n: int, chain) -> IntMatrix:
    """The m x n matrix with ``chain`` down its diagonal and 0 elsewhere."""
    return matrix([[chain[i] if i == j and i < len(chain) else 0 for j in range(n)]
                   for i in range(m)], n)


def outcome(run, *args):
    """What ``run(*args)`` returns, or the type and text of what it raises."""
    try:
        return run(*args)
    except (DomainError, SelfCheckError) as err:
        return type(err), str(err)


def verdict(mat: IntMatrix, cert: SnfCertificate):
    """None when both checks accept the certificate, else the one message
    both reject it with."""
    old = SnfCertificate(head(cert.U), head(cert.D), head(cert.V), cert.divisors)
    want = outcome(head_verify_certificate, head(mat), old)
    assert outcome(verify_certificate, mat, cert) == want, (mat, cert)
    return want and want[1]


def assert_same_algebra(a: IntMatrix, b: IntMatrix) -> None:
    """Both products of ``a`` and ``b``, and both determinants of each."""
    for x in (a, b):
        assert outcome(x.det) == outcome(head(x).det), x
    got = outcome(lambda: (a @ b).entries)
    assert got == outcome(lambda: (head(a) @ head(b)).entries), (a, b)


def random_corpus(rng: random.Random) -> list[IntMatrix]:
    """Sparse and dense random matrices up to 12 x 12, square and not,
    with wide, tall and empty shapes."""
    out = []
    for _ in range(150):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.5:
            n = m
        out.append(sparse_matrix(rng, m, n, rng.uniform(0.05, 0.5), rng.choice((1, 3, 9))))
    for _ in range(50):
        size = rng.randint(1, 12)
        out.append(sparse_matrix(rng, size, size, 1.0, rng.choice((1, 9, 10**12))))
        out.append(random_matrix(rng, max_dim=12, bound=rng.choice((1, 9))))
    for n in (0, 1, 3, 12):
        out += [matrix([], n), matrix([[]] * n, 0)]
    return out


def chain_corpus(rng: random.Random) -> list[IntMatrix]:
    """Diagonal chains, square and not, some with zeros past the chain, and
    the same chains hidden by unimodular transforms."""
    out = []
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        chain = random_chain(rng, min(m, n))
        out.append(diagonal(m, n, chain))
        if m == n:
            out.append(random_unimodular(m, rng.randrange(2**32), ops=m) @ diagonal(m, n, chain)
                       @ random_unimodular(n, rng.randrange(2**32), ops=n))
    out.append(diagonal(40, 40, (2,) * 40))
    return out


def walked_corpus(rng: random.Random) -> list[IntMatrix]:
    """Linking matrices of walked canonical diagrams, at every few steps."""
    out = []
    for ranks, chain in (((2, 3), (2,)), ((4, 4), (1, 2, 4, 8)), ((8, 8), (1, 1, 2, 2, 4))):
        state = WalkState(canonical_diagram(*ranks, chain))
        for step, (_, state) in enumerate(walk_steps(state, 120, rng.randrange(2**32))):
            if step % 10 == 0:
                mat = linking_matrix(state)
                out.append(IntMatrix(mat.rows, mat.cols, mat.entries))
    return out


def signed_permutation(rng: random.Random, n: int) -> IntMatrix:
    cols = rng.sample(range(n), n)
    return matrix([[rng.choice((1, -1)) if j == cols[i] else 0 for j in range(n)]
                   for i in range(n)], n)


def bordered(rng: random.Random, core: list[list[int]], extra: int) -> IntMatrix:
    """``core`` behind ``extra`` lines that peel off first, shuffled: line
    t < extra has its pivot at (t, t), and row t or column t has no other
    nonzero among the lines after t, while the other one of the two is
    loaded at random there."""
    n = len(core) + extra
    a = [[0] * n for _ in range(n)]
    for i, row in enumerate(core):
        a[extra + i][extra:] = row
    for t in range(extra):
        a[t][t] = rng.choice((1, -1, 2, -3))
        row_peels = rng.random() < 0.5
        for s in range(t + 1, n):
            if rng.random() < 0.5:
                if row_peels:
                    a[s][t] = rng.randint(-4, 4)
                else:
                    a[t][s] = rng.randint(-4, 4)
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return matrix([[a[i][j] for j in cols] for i in rows], n)


def peel_corpus(rng: random.Random) -> list[IntMatrix]:
    """Matrices whose determinant peels: signed permutations; unit lower
    triangular ``U``s of r x 1 all-ones certificates; dense cores bordered
    by singletons; matrices whose zero row or column shows only after
    peeling; and matrices with no singleton to peel."""
    out = []
    for n in (1, 2, 3, 5, 9, 30):
        out += [signed_permutation(rng, n) for _ in range(3)]
    for r in (1, 2, 3, 7, 20):
        out.append(smith_normal_form(matrix([[1]] * r, 1)).U)
        out.append(smith_normal_form(matrix([[rng.choice((1, -1, 2))] for _ in range(r)], 1)).U)
    for _ in range(60):
        size = rng.randint(0, 5)
        core = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        out.append(bordered(rng, core, rng.randint(1, 6)))
    for _ in range(30):  # a row of the core zero, seen once its border is peeled
        size = rng.randint(2, 5)
        core = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        core[rng.randrange(size)] = [0] * size
        mat = bordered(rng, core, rng.randint(1, 5))
        out += [mat, transposed(mat)]
    for _ in range(30):  # every row and column with two nonzeros or more
        n = rng.randint(2, 8)
        out.append(matrix([[rng.choice((1, -1, 3)) if j in (i, (i + 1) % n) else 0
                            for j in range(n)] for i in range(n)], n))
        out.append(sparse_matrix(rng, n, n, 1.0, rng.choice((1, 9))))
    return out


def certificates_from_data() -> list[tuple[IntMatrix, SnfCertificate]]:
    """The matrices of ``data/snf_certificates.json`` with the certificates
    their ``snf --json`` output holds."""
    out = []
    for case in json.loads((DATA / "snf_certificates.json").read_text(encoding="utf-8")):
        tokens = [int(t) for t in case["matrix"].split()]
        m, n = tokens[:2]
        mat = IntMatrix(m, n, tuple(tuple(tokens[2 + i * n:2 + (i + 1) * n]) for i in range(m)))
        got = json.loads(case["stdout"])
        u, d, v = (matrix(got[name], cols) for name, cols in (("U", m), ("D", n), ("V", n)))
        out.append((mat, SnfCertificate(u, d, v, tuple(got["divisors"]))))
    return out


def flipped(rng: random.Random, mat: IntMatrix) -> IntMatrix:
    """``mat`` with one entry moved by 1; ``mat`` itself when it has none."""
    if not (mat.rows and mat.cols):
        return mat
    out = mat.to_lists()
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    out[i][j] += rng.choice((1, -1))
    return matrix(out, mat.cols)


def scaled_row(mat: IntMatrix, i: int, factor: int) -> IntMatrix:
    out = mat.to_lists()
    out[i] = [factor * x for x in out[i]]
    return matrix(out, mat.cols)


def tampered(rng: random.Random, mat: IntMatrix, cert: SnfCertificate) -> list[SnfCertificate]:
    """The certificate as it is, one flipped entry of U, of V and of D, and
    changes that keep U @ M @ V == D but break the diagonal, the divisors
    or unimodularity."""
    U, D, V, ds = cert.U, cert.D, cert.V, cert.divisors
    cases = [cert, SnfCertificate(flipped(rng, U), D, V, ds),
             SnfCertificate(U, D, flipped(rng, V), ds), SnfCertificate(U, flipped(rng, D), V, ds),
             SnfCertificate(eye(mat.rows), mat, eye(mat.cols), ds)]  # M as its own D
    if ds:
        cases.append(SnfCertificate(U, D, V, ds[:-1]))  # D holds one more divisor
        cases.append(SnfCertificate(U, D, V, ds[:-1] + (-ds[-1],)))
        # U and D scaled together: the product still holds, det U is 2
        i = rng.randrange(len(ds))
        D2 = scaled_row(D, i, 2)
        cases.append(SnfCertificate(scaled_row(U, i, 2), D2, V,
                                    tuple(D2.entries[j][j] for j in range(len(ds)))))
    if mat.rows > len(ds):  # a zero row of D: only unimodularity sees U scaled there
        cases.append(SnfCertificate(scaled_row(U, mat.rows - 1, 3), D, V, ds))
    if mat.rows and mat.cols:
        cases.append(SnfCertificate(eye(mat.rows + 1), D, V, ds))
        cases.append(SnfCertificate(U, diagonal(mat.rows, mat.cols + 1, ds), V, ds))
    return cases


def off_diagonal(rng: random.Random) -> list[tuple[IntMatrix, SnfCertificate]]:
    """Diagonal chains with one entry off the diagonal, each its own D with
    identity transforms: only the diagonal check rejects them."""
    out = []
    for _ in range(60):
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        chain = random_chain(rng, min(m, n))
        i = rng.randrange(m)
        # mostly next to the diagonal, where a slice one entry short ends
        near = [t for t in (i - 1, i + 1) if 0 <= t < n]
        j = rng.choice(near if near and rng.random() < 0.7 else [t for t in range(n) if t != i])
        entries = diagonal(m, n, chain).to_lists()
        entries[i][j] = rng.choice((1, -2))
        mat = matrix(entries, n)
        out.append((mat, SnfCertificate(eye(m), mat, eye(n), chain)))
    return out


# TestCertificateChecks's certificates: identity transforms, each failing
# one shape or divisor check first
CHECK_CASES = [
    (diagonal(2, 2, (2, 3)), SnfCertificate(eye(2), diagonal(2, 2, (2, 3)), eye(2), (2, 3))),
    (matrix([[-1]]), SnfCertificate(eye(1), matrix([[-1]]), eye(1), (-1,))),
    (eye(2), SnfCertificate(matrix([[1, 0], [0, 1], [0, 0]]), eye(2), eye(2), (1, 1))),
    (matrix([], 3), SnfCertificate(eye(0), matrix([], 5), eye(3), ())),
]


def product_kinds(a: IntMatrix, b: IntMatrix) -> set[tuple[bool, bool]]:
    """(the row is more than half nonzero, ``b`` is) for each row of ``a``
    with a nonzero, when the shapes fit: the head product took its dense
    branch on such rows, and its sparse one on the others."""
    if a.cols != b.rows:
        return set()
    b_dense = 2 * sum(r.count(0) for r in b.entries) < b.rows * b.cols
    return {(2 * row.count(0) < len(row), b_dense) for row in a.entries if any(row)}


def test_products_and_determinants_agree():
    rng = random.Random(28)
    corpus = random_corpus(rng) + chain_corpus(rng) + walked_corpus(rng) + peel_corpus(rng)
    corpus += [mat for mat, _ in certificates_from_data()]
    kinds = set()
    for a in corpus:
        # a compatible factor of each density, and a transform of a's own
        pairs = [(a, sparse_matrix(rng, a.cols, rng.randint(0, 12), density))
                 for density in (0.05, 0.3, 0.5, 1.0)]
        pairs.append((a, random_unimodular(a.cols, rng.randrange(2**32))))
        pairs.append((random_unimodular(a.rows, rng.randrange(2**32)), a))
        # shapes that do not fit: both refuse with the same message
        pairs.append((a, sparse_matrix(rng, a.cols + 1, 2, 0.5)))
        for x, y in pairs:
            assert_same_algebra(x, y)
            kinds |= product_kinds(x, y)
    # dense rows against a sparse factor, and sparse rows against a dense one
    assert {(True, False), (False, True)} <= kinds


def test_peeled_determinants_agree(monkeypatch):
    real, cores = smith._bareiss, []
    monkeypatch.setattr(smith, "_bareiss", lambda m: cores.append(len(m)) or real(m))
    kinds = set()
    for mat in peel_corpus(random.Random(33)):
        cores.clear()
        assert mat.det() == head(mat).det(), mat
        if cores:
            kinds.add("all peeled" if cores == [0] else
                      "nothing peeled" if cores == [mat.rows] else "a core")
        elif all(map(any, mat.entries)) and all(map(any, zip(*mat.entries))):
            kinds.add("zero once peeled")
        else:
            kinds.add("zero line")
    assert kinds == {"all peeled", "nothing peeled", "a core", "zero once peeled", "zero line"}


def test_certificate_verdicts_agree():
    rng = random.Random(29)
    corpus = random_corpus(rng) + chain_corpus(rng) + walked_corpus(rng) + peel_corpus(rng)
    pairs = [(mat, smith_normal_form(mat)) for mat in corpus]
    pairs += certificates_from_data() + off_diagonal(rng) + CHECK_CASES
    seen = set()
    for mat, cert in pairs:
        for case in tampered(rng, mat, cert):
            seen.add(verdict(mat, case))
    # every check rejects some certificate, and some pass them all
    assert seen == {None, *MESSAGES}

