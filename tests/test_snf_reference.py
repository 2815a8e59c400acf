"""``_snf_reduce`` against the reduction it replaced, kept here as a
reference.

``reference_snf_reduce`` and ``reference_pivot`` below are
``smith._snf_reduce`` and ``smith._pivot`` as they stood when every row
and column operation ran over the full width and height of ``a``, ``U``
and ``V``; copied verbatim, apart from the two names.  Today's operations
skip the entries they are known to leave unchanged: columns left of the
pivot, finished rows, and entries facing a zero of the row or column
being added.  Both must perform the same operations, so on every input
``U``, ``D`` and ``V`` must be equal.  The corpus holds random, dense
square, wide and tall, rank-deficient, diagonal, permuted-identity,
chain-built and degenerate matrices, linking matrices of walked
diagrams, matrices whose non-unit pivots do or do not divide the rest,
and empty, one-row and one-column shapes.
"""

import random

from gen import random_matrix, random_unimodular
from sglink import IntMatrix, canonical_diagram, linking_matrix, smith
from sglink.moves import WalkState, walk_steps
from sglink.smith import _snf_reduce


def reference_pivot(a: list[list[int]], k: int, m: int, n: int) -> tuple[int, int] | None:
    """Position of the smallest nonzero absolute value in the submatrix of
    ``a`` from (k, k), the first in row-major order on a tie; None when the
    submatrix is zero.  The scan stops at the first unit, as no entry is
    smaller."""
    best, at = 0, None
    for i in range(k, m):
        row = a[i]
        for j in range(k, n):
            x = abs(row[j])
            if x and (at is None or x < best):
                if x == 1:
                    return i, j
                best, at = x, (i, j)
    return at


def reference_snf_reduce(a: list[list[int]], m: int, n: int):
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
        at = reference_pivot(a, k, m, n)
        if at is None:
            break
        pi, pj = at
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
        if p != 1:  # 1 divides every entry
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


def assert_same(rows, m, n):
    """Both reductions of the m x n matrix ``rows`` leave the same U, D, V."""
    a, b = [list(r) for r in rows], [list(r) for r in rows]
    assert _snf_reduce(a, m, n) == reference_snf_reduce(b, m, n), rows
    assert a == b, rows


def test_random_matrices():
    rng = random.Random(3)
    for _ in range(600):
        mat = random_matrix(rng, max_dim=9, bound=rng.choice((1, 2, 9, 20)))
        assert_same(mat.entries, mat.rows, mat.cols)
    for _ in range(600):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        assert_same([[rng.randint(0, 9) for _ in range(n)] for _ in range(m)], m, n)


def test_dense_matrices():
    rng = random.Random(8)
    for size in (8, 12, 16, 24):
        for _ in range(3):
            assert_same([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)],
                         size, size)


def test_wide_and_tall_dense_matrices():
    # the skipped rows and columns differ once the pivot row or column runs out
    rng = random.Random(15)
    for m, n in ((6, 14), (14, 6), (12, 20), (20, 12)):
        assert_same([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], m, n)


def test_rank_deficient_square_matrices():
    rng = random.Random(16)
    for size in (4, 9, 14):
        dense = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        repeated = dense[:-1] + [list(dense[rng.randrange(size - 1)])]
        assert_same(repeated, size, size)
        j = rng.randrange(size)
        assert_same([[0 if t == j else x for t, x in enumerate(row)] for row in dense], size, size)


def test_diagonal_and_permuted_identity_matrices():
    rng = random.Random(13)
    for size in (1, 2, 5, 40):
        eye = [[int(i == j) for j in range(size)] for i in range(size)]
        assert_same(eye, size, size)
        for _ in range(5):
            assert_same(rng.sample(eye, size), size, size)
            cols = rng.sample(range(size), size)
            assert_same([[row[j] for j in cols] for row in eye], size, size)
            diag = [rng.choice((-6, -1, 0, 1, 2, 3, 4, 6, 12)) for _ in range(size)]
            assert_same([[diag[i] if i == j else 0 for j in range(size)]
                         for i in range(size)], size, size)
    # units after the first diagonal entry, and a wide and a tall shape
    assert_same([[2, 0, 0], [0, 1, 0], [0, 0, 3]], 3, 3)
    assert_same([[0, 0, 0, 1], [0, 1, 0, 0]], 2, 4)
    assert_same([[0, 3], [1, 0], [0, 0]], 3, 2)


def test_chain_built_matrices():
    # U * diag(chain) * V with unimodular U and V, as the benchmark builds
    rng = random.Random(21)
    for size in (3, 6, 10, 16):
        chain, d = [], 1
        for _ in range(size):
            d *= rng.choice((1, 1, 1, 2, 3))
            chain.append(d)
        diag = IntMatrix(size, size, tuple(tuple(chain[i] if i == j else 0 for j in range(size))
                                           for i in range(size)))
        mat = (random_unimodular(size, rng.randrange(2**32), ops=size) @ diag
               @ random_unimodular(size, rng.randrange(2**32), ops=size))
        assert_same(mat.entries, size, size)


def test_walked_linking_matrices():
    # a walk's matrix at every step, inter-component clasps included, and
    # the matrix over the default bases of each walked diagram
    rng = random.Random(34)
    for ranks, chain in (((2, 3), (2,)), ((3, 3), (1, 2, 4)), ((4, 4), (1, 2, 4, 8))):
        state = WalkState(canonical_diagram(*ranks, chain))
        for _, state in walk_steps(state, 60, rng.randrange(2**32)):
            if rng.random() < 0.3:
                d = state.diagram()
                e, f = (rng.choice(d.component(k).edge_ids) for k in (1, 2))
                state.clasp(e, 0, f, 0, rng.choice((1, -1)))
            mat = linking_matrix(state)
            assert_same(mat.entries, mat.rows, mat.cols)
        mat = linking_matrix(state.diagram())
        assert_same(mat.entries, mat.rows, mat.cols)


def test_merged_divisibility_pass(monkeypatch):
    # After a clean step with a pivot p other than 1, one scan both checks
    # that p divides the rest and finds the next pivot: inputs where it
    # meets an entry p does not divide, and diagonal chains where it never
    # does.  Both kinds must be reached.
    real, found = smith._pivot, set()

    def pivot(a, k, m, n, p=1):
        at = real(a, k, m, n, p)
        if p != 1:
            found.add("bad row" if at and a[at[0]][at[1]] % p else "next pivot")
        return at

    monkeypatch.setattr(smith, "_pivot", pivot)
    cases = [[[2, 0], [0, 3]], [[2, 0, 0], [0, 4, 0], [0, 0, 5]], [[4, 0], [0, 6]],
             [[6, 0, 0], [0, 4, 2], [0, 2, 10]], [[2, 0], [0, 0], [0, 3]]]
    for chain in ((2, 4, 12), (2, 4, 12, 24, 48), (3, 3, 9, 0), (2,) * 12):
        size = len(chain)
        diag = [[chain[i] if i == j else 0 for j in range(size)] for i in range(size)]
        cases += [diag, diag[::-1], [row[::-1] for row in diag]]
    rng = random.Random(55)
    for _ in range(40):
        size = rng.randint(2, 7)
        cases.append([[rng.choice((0, 0, 2, -2, 4, 6, 3, 9)) for _ in range(size)]
                      for _ in range(size)])
    for rows in cases:
        assert_same(rows, len(rows), len(rows[0]))
    assert found == {"bad row", "next pivot"}


def test_degenerate_shapes():
    rng = random.Random(56)
    for n in range(6):
        assert_same([], 0, n)
        assert_same([[]] * n, n, 0)
    for size in (1, 2, 5, 30):
        for pick in ((1,), (0, 1, -1), (2, 4, -6), (0, 3)):
            column = [[rng.choice(pick)] for _ in range(size)]
            assert_same(column, size, 1)
            assert_same([[x for (x,) in column]], 1, size)
