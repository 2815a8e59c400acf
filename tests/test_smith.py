"""Smith normal form: certificates, the minor-gcd oracle, and invariances.

``reference_verify_certificate`` below is ``smith.verify_certificate`` as
it stood when it proved every certificate's transforms unimodular by
computing ``det U`` and ``det V``; copied verbatim.  Today's check proves a
square full-rank ``M``'s transforms through ``det M``; both must accept and
reject the same certificates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_matrix, random_unimodular, transposed
from oracles import MINOR_LIMIT, cofactor_det, divisors_via_minors
from sglink import smith
from sglink import (
    DomainError,
    IntMatrix,
    LkInvariant,
    SelfCheckError,
    SnfCertificate,
    lk_invariant,
    smith_normal_form,
    verify_certificate,
)
from timing import best_of_3


def reference_verify_certificate(mat: IntMatrix, cert: SnfCertificate) -> None:
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


def rows(*rs, cols=None):
    """The matrix of these rows; ``cols`` gives the width when there are none."""
    return IntMatrix(len(rs), len(rs[0]) if cols is None else cols, tuple(map(tuple, rs)))


def zeros(m, n):
    return IntMatrix(m, n, ((0,) * n,) * m)


def eye(n):
    return rows(*([int(i == j) for j in range(n)] for i in range(n)), cols=n)


class TestIntMatrix:
    def test_matmul_identity(self):
        m = rows([1, 2], [3, 4])
        assert (eye(2) @ m).entries == m.entries
        assert (m @ eye(2)).entries == m.entries

    def test_det(self):
        assert rows([2, 0], [0, 3]).det() == 6
        assert rows([4, 2], [2, 4]).det() == 12
        assert rows([1, 2], [2, 4]).det() == 0
        assert eye(0).det() == 1

    def test_det_bareiss_matches_cofactor_expansion(self):
        rng = random.Random(11)

        def square(n, pick):
            return [[pick() for _ in range(n)] for _ in range(n)]

        corpus = []
        for _ in range(60):  # dense, entries up to 9
            corpus.append(square(rng.randint(0, 5), lambda: rng.randint(-9, 9)))
        for _ in range(80):  # mostly zero, entries in {0, +-1, +-2}
            corpus.append(square(rng.randint(1, 6), lambda: rng.choice((0,) * 6 + (1, -1, 2, -2))))
        for _ in range(40):  # zero leading entries: every early pivot needs a row swap
            n = rng.randint(2, 6)
            m = square(n, lambda: rng.choice((0, 0, 1, -1, 2)))
            for i in range(n - 1):
                m[i][: n - 1 - i] = [0] * (n - 1 - i)
            corpus.append(m)
        for _ in range(40):  # singular: a zero column, or a row built from two others
            n = rng.randint(2, 6)
            m = square(n, lambda: rng.choice((0, 0, 1, -1, 2, -3)))
            if rng.random() < 0.5:
                j = rng.randrange(n)
                for r in m:
                    r[j] = 0
            else:
                i, a, b = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
                m[i] = [x - 2 * y for x, y in zip(m[a], m[b])]
            corpus.append(m)
        for seed in range(40):  # unimodular, with non-unit leading minors
            corpus.append(random_unimodular(rng.randint(1, 6), seed=seed).to_lists())

        for m in corpus:
            assert rows(*m, cols=len(m)).det() == cofactor_det(m), m

    def test_matmul_matches_triple_loop(self):
        rng = random.Random(12)

        def naive(a, b):
            return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
                    for i in range(len(a))]

        def mixed(rows, cols):
            # each row is sparse or dense on its own, and some sit at exactly half nonzero
            out = []
            for _ in range(rows):
                density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
                row = [rng.choice((1, -1, 2, -7, 10**20)) if rng.random() < density else 0
                       for _ in range(cols)]
                if cols and rng.random() < 0.3:
                    row = [rng.randint(1, 5) if t < cols // 2 else 0 for t in range(cols)]
                    rng.shuffle(row)
                out.append(row)
            return out

        for _ in range(120):
            m, k, n = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            a, b = mixed(m, k), mixed(k, n)
            prod = rows(*a, cols=k) @ rows(*b, cols=n)
            assert (prod.rows, prod.cols) == (m, n)
            assert prod.to_lists() == naive(a, b)
        for m, k, n in ((0, 3, 4), (3, 4, 0), (4, 0, 3), (0, 0, 2), (2, 0, 0)):
            a = rows(*mixed(m, k), cols=k)
            b = rows(*mixed(k, n), cols=n)
            prod = a @ b
            assert (prod.rows, prod.cols) == (m, n)
            assert prod.entries == zeros(m, n).entries

    def test_shape_errors(self):
        with pytest.raises(DomainError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(DomainError):
            rows([1, 2]) @ rows([1, 2])
        with pytest.raises(DomainError):
            rows([1, 2]).det()

    def test_degenerate_dims(self):
        z = rows(cols=3)
        assert (z.rows, z.cols) == (0, 3)
        assert transposed(z) == IntMatrix(3, 0, ((), (), ()))
        assert (z @ eye(3)).cols == 3


class TestSmithNormalForm:
    def test_zero_matrix(self):
        cert = smith_normal_form(rows([0]))
        assert cert.divisors == ()
        assert cert.D.entries == ((0,),)

    def test_known_divisors(self):
        assert smith_normal_form(rows([2, 0], [0, 3])).divisors == (1, 6)
        assert smith_normal_form(rows([4, 2], [2, 4])).divisors == (2, 6)
        assert smith_normal_form(rows([7])).divisors == (7,)

    def test_zero_by_n(self):
        cert = smith_normal_form(rows(cols=3))
        assert cert.divisors == ()
        assert (cert.U.rows, cert.U.cols) == (0, 0)
        assert cert.V.entries == eye(3).entries
        cert = smith_normal_form(zeros(3, 0))
        assert cert.divisors == ()
        assert (cert.U.rows, cert.U.cols) == (3, 3)
        assert (cert.V.rows, cert.V.cols) == (0, 0)

    def test_certificates_random(self):
        rng = random.Random(42)
        for _ in range(150):
            m = random_matrix(rng)
            cert = smith_normal_form(m)  # verified internally
            assert isinstance(cert, SnfCertificate)
            assert cert.divisors == tuple(divisors_via_minors(m.entries))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_certificate_law_property(self, entries):
        m = rows(*entries)
        cert = smith_normal_form(m)
        verify_certificate(m, cert)
        assert cert.divisors == tuple(divisors_via_minors(entries))

    def test_large_entries_stay_exact(self):
        # Coefficient growth must never wrap: huge inputs take the pure path.
        rng = random.Random(3)
        m = rows(*([rng.randint(-(10**6), 10**6) for _ in range(6)] for _ in range(6)))
        cert = smith_normal_form(m)
        verify_certificate(m, cert)
        huge = rows([10**30, 1], [1, 10**30])
        cert = smith_normal_form(huge)
        verify_certificate(huge, cert)

    def test_verify_rejects_tampering(self):
        m = rows([2, 0], [0, 3])
        cert = smith_normal_form(m)
        bad = SnfCertificate(cert.U, cert.D, cert.V, (1, 5))
        with pytest.raises(SelfCheckError):
            verify_certificate(m, bad)
        bad_d = rows([1, 0], [0, 5])
        with pytest.raises(SelfCheckError):
            verify_certificate(m, SnfCertificate(cert.U, bad_d, cert.V, (1, 5)))
        # U @ M @ V == D holds here, so only the unimodularity check can object.
        zero = zeros(2, 2)
        scaled = rows([2, 0], [0, 1])
        with pytest.raises(SelfCheckError, match="unimodular"):
            verify_certificate(zero, SnfCertificate(scaled, zero, eye(2), ()))
        # The same fault deep in a large certificate: every Bareiss step before
        # the last one meets only zeros below the pivot, and it is still caught.
        zero = zeros(32, 32)
        ident = eye(32)
        scaled = rows(*ident.to_lists()[:-1], [0] * 31 + [2])
        with pytest.raises(SelfCheckError, match="unimodular"):
            verify_certificate(zero, SnfCertificate(scaled, zero, ident, ()))
        with pytest.raises(SelfCheckError, match="unimodular"):
            verify_certificate(zero, SnfCertificate(ident, zero, scaled, ()))


    @pytest.mark.parametrize("mat", [
        rows([1, 2]),
        rows([3, 5, 7], [2, 0, 9], [4, 8, 6]),
    ])
    def test_a_pivot_that_does_not_fall_raises(self, monkeypatch, mat):
        # A seeded fault: a pivot rule that picks the largest entry leaves
        # every smaller one as it is (its quotient is 0), so the reduction
        # would pick the same pivot for ever.  The bound stops it on the
        # third pick; without it the counter below ends the loop instead.
        picks = []

        def largest(a, k, m, n):
            picks.append(k)
            if len(picks) > 100:
                raise RuntimeError("the reduction kept looping")
            cells = [(abs(a[i][j]), -i, -j) for i in range(k, m) for j in range(k, n) if a[i][j]]
            if not cells:
                return None
            _, i, j = max(cells)
            return -i, -j

        monkeypatch.setattr(smith, "_pivot", largest)
        with pytest.raises(SelfCheckError, match="pivot at step 0 did not fall in two iterations"):
            smith_normal_form(mat)
        assert picks == [0, 0, 0]


class TestCertificateChecks:
    """One test per shape and divisor check of ``verify_certificate``: a
    certificate with identity transforms that fails that check first,
    pinned by the check's message."""

    def test_divisors_that_are_not_a_chain(self):
        d = rows([2, 0], [0, 3])
        with pytest.raises(SelfCheckError, match="divisors do not form a divisibility chain"):
            verify_certificate(d, SnfCertificate(eye(2), d, eye(2), (2, 3)))

    def test_a_divisor_that_is_not_positive(self):
        d = rows([-1])
        with pytest.raises(SelfCheckError, match="divisors are not positive"):
            verify_certificate(d, SnfCertificate(eye(1), d, eye(1), (-1,)))

    def test_a_transform_of_the_wrong_shape(self):
        m = eye(2)
        u = rows([1, 0], [0, 1], [0, 0])
        with pytest.raises(SelfCheckError, match="certificate transform dimensions are wrong"):
            verify_certificate(m, SnfCertificate(u, m, eye(2), (1, 1)))

    def test_a_diagonal_of_the_wrong_shape(self):
        # with no rows, a 0 x 5 D holds the same entries, (), as the 0 x 3
        # product U @ M @ V, so only the shape check rejects it
        m, d = zeros(0, 3), zeros(0, 5)
        assert (eye(0) @ m @ eye(3)).entries == d.entries
        with pytest.raises(SelfCheckError, match="certificate diagonal dimensions are wrong"):
            verify_certificate(m, SnfCertificate(eye(0), d, eye(3), ()))


class TestCertificateCost:
    @staticmethod
    def check_time(n):
        # M = D = diag(2, ..., 2) with identity transforms: det M alone
        # proves U and V unimodular
        two = rows(*([2 * int(i == j) for j in range(n)] for i in range(n)), cols=n)
        cert = SnfCertificate(eye(n), two, eye(n), (2,) * n)
        return best_of_3(lambda: verify_certificate(two, cert))

    def test_a_diagonal_certificate_is_not_cubic_to_check(self):
        # 4x the size takes about 16x the time; a determinant that rescales
        # every row at every step takes about 64x, so the bound at 32 tells
        # the two apart on a loaded host
        assert self.check_time(400) / self.check_time(100) < 32


class TestUnimodularityProof:
    """A square full-rank M proves U and V unimodular through det M."""

    @staticmethod
    def accepts(check, mat, cert):
        try:
            check(mat, cert)
        except SelfCheckError:
            return False
        return True

    @staticmethod
    def scale_row(mat, i, factor=2):
        out = mat.to_lists()
        out[i] = [factor * x for x in out[i]]
        return rows(*out, cols=mat.cols)

    def test_det_m_must_equal_the_divisor_product(self):
        # U @ M @ V == D holds, M is square and full rank, and D is a chain,
        # but |det M| = 1 != 2 = prod(d): det U = 2 must be found
        one = eye(2)
        scaled = rows([1, 0], [0, 2])
        with pytest.raises(SelfCheckError, match="unimodular"):
            verify_certificate(one, SnfCertificate(scaled, scaled, one, (1, 2)))

    @pytest.mark.parametrize("mat, on", [
        (rows([2, 1, 0], [1, 1, 3], [0, 4, 5]), "M"),
        (rows([2, 1, 0], [1, 1, 3]), "UV"),
        (rows([2, 1, 0], [4, 2, 0], [0, 4, 5]), "UV"),
    ])
    def test_branch_choice(self, monkeypatch, mat, on):
        cert = smith_normal_form(mat)
        real, seen = IntMatrix.det, []
        monkeypatch.setattr(IntMatrix, "det", lambda self: seen.append(self) or real(self))
        verify_certificate(mat, cert)
        assert seen == ([mat] if on == "M" else [cert.U, cert.V])

    def test_agrees_with_the_reference_check(self):
        rng = random.Random(15)
        corpus = [random_matrix(rng, max_dim=7, bound=rng.choice((1, 3, 20))) for _ in range(150)]
        for size in range(1, 9):  # dense square, and square with a repeated row
            dense = [[rng.randint(-9, 9) for _ in range(size + 1)] for _ in range(size)]
            extra = [rng.randint(-9, 9) for _ in range(size + 1)]
            corpus.append(rows(*dense, extra))
            corpus.append(rows(*dense, dense[0]))
        corpus += [eye(0), zeros(0, 3), zeros(3, 0)]
        outcomes = set()
        for mat in corpus:
            cert = smith_normal_form(mat)
            U, D, V, ds = cert.U, cert.D, cert.V, cert.divisors
            full_rank = mat.rows == mat.cols == len(ds)
            cases = [cert]
            for i in range(mat.rows):
                # U alone scaled: caught by the product, or (a zero row of D)
                # only by unimodularity
                cases.append(SnfCertificate(self.scale_row(U, i), D, V, ds))
                # U and D scaled together: U @ M @ V == D still holds
                D2 = self.scale_row(D, i)
                ds2 = tuple(D2.entries[j][j] for j in range(len(ds)))
                cases.append(SnfCertificate(self.scale_row(U, i), D2, V, ds2))
            if ds:  # D and its divisors replaced by a longer chain
                D3 = self.scale_row(D, len(ds) - 1, 3)
                cases.append(SnfCertificate(U, D3, V, ds[:-1] + (3 * ds[-1],)))
            for case in cases:
                verdict = self.accepts(reference_verify_certificate, mat, case)
                assert self.accepts(verify_certificate, mat, case) == verdict, (mat, case)
                outcomes.add((full_rank, verdict))
        # both branches both accept and reject
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestMinorOracle:
    def test_examples(self):
        assert divisors_via_minors([[2, 0], [0, 3]]) == [1, 6]
        assert divisors_via_minors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
        assert divisors_via_minors([[0, 0, 0], [0, 0, 0]]) == []
        assert divisors_via_minors([]) == divisors_via_minors([(), ()]) == []

    def test_rank_deficient_truncates(self):
        assert divisors_via_minors([[1, 2], [2, 4]]) == [1]

    def test_dimension_limit(self):
        square = [[0] * (MINOR_LIMIT + 1)] * (MINOR_LIMIT + 1)
        with pytest.raises(ValueError):
            divisors_via_minors(square)
        # a thin 7 x 2 matrix is fine: min dim is what counts
        assert divisors_via_minors([[0, 0]] * (MINOR_LIMIT + 1)) == []


class TestInvariances:
    def test_unimodular_invariance(self):
        rng = random.Random(7)
        for i in range(60):
            m = random_matrix(rng)
            a = random_unimodular(m.rows, seed=rng.randrange(2**32))
            b = random_unimodular(m.cols, seed=rng.randrange(2**32))
            assert smith_normal_form(a @ m @ b).divisors == smith_normal_form(m).divisors

    def test_transpose_invariance(self):
        rng = random.Random(8)
        for _ in range(60):
            m = random_matrix(rng)
            assert smith_normal_form(transposed(m)).divisors == smith_normal_form(m).divisors


class TestRandomUnimodular:
    def test_zero_ops_is_identity(self):
        assert random_unimodular(4, seed=1, ops=0).entries == eye(4).entries

    def test_determinant_is_unit(self):
        for seed in range(30):
            assert abs(random_unimodular(5, seed=seed).det()) == 1
        assert abs(random_unimodular(1, seed=3).det()) == 1
        assert random_unimodular(0, seed=3).rows == 0

    def test_seed_reproducibility(self):
        assert random_unimodular(5, seed=99) == random_unimodular(5, seed=99)
        assert random_unimodular(5, seed=99) != random_unimodular(5, seed=98)


class TestLkInvariant:
    def test_values(self):
        assert lk_invariant(zeros(2, 3)) == LkInvariant()
        assert lk_invariant(rows([1])) == LkInvariant((1,))
        assert lk_invariant(rows([2, 0], [0, 3])) == LkInvariant((1, 6))

    def test_str(self):
        assert str(LkInvariant()) == "0"
        assert str(LkInvariant((2, 4))) == "2 4"

    def test_chain_validation(self):
        with pytest.raises(DomainError):
            LkInvariant((0,))
        with pytest.raises(DomainError):
            LkInvariant((2, 3))
        # an empty chain is the zero invariant, not an error
        assert LkInvariant(()) == LkInvariant() and LkInvariant(()).is_zero
