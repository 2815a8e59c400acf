"""Smith normal form: certificates, the minor-gcd oracle, and invariances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_matrix
from sglink import (
    DomainError,
    IntMatrix,
    LkInvariant,
    SelfCheckError,
    SnfCertificate,
    divisors_via_minors,
    lk_invariant,
    random_unimodular,
    smith_normal_form,
    verify_certificate,
)


def rows(*rs):
    return IntMatrix.from_rows(rs)


class TestIntMatrix:
    def test_matmul_identity(self):
        m = rows([1, 2], [3, 4])
        assert (IntMatrix.identity(2) @ m).entries == m.entries
        assert (m @ IntMatrix.identity(2)).entries == m.entries

    def test_det(self):
        assert rows([2, 0], [0, 3]).det() == 6
        assert rows([4, 2], [2, 4]).det() == 12
        assert rows([1, 2], [2, 4]).det() == 0
        assert IntMatrix.identity(0).det() == 1

    def test_det_bareiss_matches_cofactor_expansion(self):
        rng = random.Random(11)

        def cofactor(m):
            n = m.rows
            if n == 0:
                return 1
            if n == 1:
                return m.entries[0][0]
            total = 0
            for j in range(n):
                sub = IntMatrix.from_rows(
                    [[m.entries[i][t] for t in range(n) if t != j] for i in range(1, n)],
                    cols=n - 1,
                )
                total += (-1) ** j * m.entries[0][j] * cofactor(sub)
            return total

        for _ in range(60):
            n = rng.randint(0, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], cols=n
            )
            assert m.det() == cofactor(m)

    def test_shape_errors(self):
        with pytest.raises(DomainError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(DomainError):
            rows([1, 2]) @ rows([1, 2])
        with pytest.raises(DomainError):
            rows([1, 2]).det()

    def test_degenerate_dims(self):
        z = IntMatrix.from_rows([], cols=3)
        assert (z.rows, z.cols) == (0, 3)
        assert z.transpose().rows == 3 and z.transpose().cols == 0
        assert (z @ IntMatrix.identity(3)).cols == 3


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
        cert = smith_normal_form(IntMatrix.from_rows([], cols=3))
        assert cert.divisors == ()
        assert (cert.U.rows, cert.U.cols) == (0, 0)
        assert cert.V.entries == IntMatrix.identity(3).entries
        cert = smith_normal_form(IntMatrix.zeros(3, 0))
        assert cert.divisors == ()
        assert (cert.U.rows, cert.U.cols) == (3, 3)
        assert (cert.V.rows, cert.V.cols) == (0, 0)

    def test_certificates_random(self):
        rng = random.Random(42)
        for _ in range(150):
            m = random_matrix(rng)
            cert = smith_normal_form(m)  # verified internally
            assert isinstance(cert, SnfCertificate)
            assert cert.divisors == tuple(divisors_via_minors(m))

    @settings(max_examples=60, deadline=None)
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
        m = IntMatrix.from_rows(entries)
        cert = smith_normal_form(m)
        verify_certificate(m, cert)
        assert cert.divisors == tuple(divisors_via_minors(m))

    def test_large_entries_stay_exact(self):
        # Coefficient growth must never wrap: huge inputs take the pure path.
        rng = random.Random(3)
        m = IntMatrix.from_rows(
            [[rng.randint(-(10**6), 10**6) for _ in range(6)] for _ in range(6)], cols=6
        )
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
        bad_d = IntMatrix.from_rows([[1, 0], [0, 5]])
        with pytest.raises(SelfCheckError):
            verify_certificate(m, SnfCertificate(cert.U, bad_d, cert.V, (1, 5)))
        # U @ M @ V == D holds here, so only the unimodularity check can object.
        zero = IntMatrix.zeros(2, 2)
        scaled = rows([2, 0], [0, 1])
        with pytest.raises(SelfCheckError, match="unimodular"):
            verify_certificate(zero, SnfCertificate(scaled, zero, IntMatrix.identity(2), ()))


class TestMinorOracle:
    def test_examples(self):
        assert divisors_via_minors(rows([2, 0], [0, 3])) == [1, 6]
        assert divisors_via_minors(IntMatrix.identity(3)) == [1, 1, 1]
        assert divisors_via_minors(IntMatrix.zeros(2, 3)) == []

    def test_rank_deficient_truncates(self):
        assert divisors_via_minors(rows([1, 2], [2, 4])) == [1]

    def test_dimension_limit(self):
        with pytest.raises(DomainError):
            divisors_via_minors(IntMatrix.zeros(7, 7))
        # a thin 7 x 2 matrix is fine: min dim is what counts
        divisors_via_minors(IntMatrix.zeros(7, 2))


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
            assert smith_normal_form(m.transpose()).divisors == smith_normal_form(m).divisors


class TestRandomUnimodular:
    def test_zero_ops_is_identity(self):
        assert random_unimodular(4, seed=1, ops=0).entries == IntMatrix.identity(4).entries

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
        assert lk_invariant(IntMatrix.zeros(2, 3)) == LkInvariant.zero()
        assert lk_invariant(rows([1])) == LkInvariant.chain(1)
        assert lk_invariant(rows([2, 0], [0, 3])) == LkInvariant.chain(1, 6)

    def test_str(self):
        assert str(LkInvariant.zero()) == "0"
        assert str(LkInvariant.chain(2, 4)) == "2 4"

    def test_chain_validation(self):
        with pytest.raises(DomainError):
            LkInvariant.chain(0)
        with pytest.raises(DomainError):
            LkInvariant.chain(2, 3)
        with pytest.raises(DomainError):
            LkInvariant.chain()
