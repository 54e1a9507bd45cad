import random
from fractions import Fraction

import pytest

from cubicorbit import matrix
from cubicorbit.errors import CaseMismatch
from cubicorbit.exact import QuadScalar
from cubicorbit.matrix import (
    CaseTag,
    Mat2,
    SystemParams,
    classify,
    eigenvalues,
    power,
    power_antitrace,
    power_distinct,
    power_rank_deficient,
    power_repeated,
    spectral_power_elements,
)

from helpers import naive_power, random_params

F = Fraction


def params(a, b, c, d):
    return SystemParams(F(a), F(b), F(c), F(d))


class TestClassify:
    @pytest.mark.parametrize(
        "p,tag",
        [
            (params(1, 1, 1, 1), CaseTag.RANK_DEFICIENT),
            (params(3, 1, -1, 1), CaseTag.REPEATED),
            (params(1, 1, 1, -1), CaseTag.ANTITRACE_DISTINCT),
            (params(2, 1, 1, 2), CaseTag.DISTINCT),
            (params(0, 1, -1, 0), CaseTag.ANTITRACE_DISTINCT),
        ],
    )
    def test_examples(self, p, tag):
        assert classify(p) is tag

    def test_tags_are_exhaustive_and_exclusive(self):
        rng = random.Random(7)
        for _ in range(300):
            p = random_params(rng)
            tag = classify(p)
            if p.det == 0:
                assert tag is CaseTag.RANK_DEFICIENT
            elif p.discriminant == 0:
                assert tag is CaseTag.REPEATED
            elif p.trace == 0:
                assert tag is CaseTag.ANTITRACE_DISTINCT
            else:
                assert tag is CaseTag.DISTINCT


class TestEigenvalues:
    def test_rational_pair(self):
        eig = eigenvalues(params(2, 1, 1, 2))
        assert eig.is_rational
        assert (eig.lam1, eig.lam2) == (F(3), F(1))
        # hand-checkable: both roots of t^2 - 4t + 3
        for lam in (eig.lam1, eig.lam2):
            assert lam * lam - 4 * lam + 3 == 0

    def test_irrational_pair(self):
        eig = eigenvalues(params(1, 1, 1, -1))
        assert not eig.is_rational
        assert eig.lam1 == QuadScalar(F(0), F(1, 2), F(8))
        assert eig.lam2 == QuadScalar(F(0), F(-1, 2), F(8))
        sq = eig.lam1 * eig.lam1
        assert sq == QuadScalar(F(2), F(0), F(8))  # lambda^2 = a^2 + bc = 2

    def test_repeated(self):
        eig = eigenvalues(params(3, 1, -1, 1))
        assert eig.lam1 == eig.lam2 == F(2)

    def test_sum_and_product(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_params(rng)
            eig = eigenvalues(p)
            s = eig.lam1 + eig.lam2
            prod = eig.lam1 * eig.lam2
            if eig.is_rational:
                assert s == p.trace and prod == p.det
            else:
                assert s == QuadScalar(p.trace, F(0), eig.discriminant)
                assert prod == QuadScalar(p.det, F(0), eig.discriminant)


class TestPowerRankDeficient:
    def test_oracle_example(self):
        p = params(1, 1, 1, 1)
        assert power_rank_deficient(p, 3) == naive_power(p, 3)
        assert power_rank_deficient(p, 3) == Mat2(F(4), F(4), F(4), F(4))

    def test_nilpotent(self):
        p = params(1, 1, -1, -1)
        assert power_rank_deficient(p, 1) == Mat2.of(p)
        assert power_rank_deficient(p, 2) == Mat2.zero()

    def test_identity_at_zero(self):
        assert power_rank_deficient(params(1, 1, 1, 1), 0) == Mat2.identity()

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            power_rank_deficient(params(2, 1, 1, 2), 3)


class TestPowerDistinct:
    def test_oracle_example(self):
        p = params(2, 1, 1, 2)
        assert power_distinct(p, 2) == Mat2(F(5), F(4), F(4), F(5))

    def test_identity_at_zero(self):
        assert power_distinct(params(2, 1, 1, 2), 0) == Mat2.identity()

    def test_complex_eigenvalues_cancel(self):
        p = params(0, 1, -1, 0)
        assert power_distinct(p, 2) == Mat2(F(-1), F(0), F(0), F(-1))
        assert power_distinct(p, 2) == naive_power(p, 2)

    def test_realness_before_conversion(self):
        rng = random.Random(13)
        for _ in range(60):
            p = random_params(rng, CaseTag.DISTINCT)
            eig = eigenvalues(p)
            if eig.is_rational:
                continue
            for n in range(11):
                for entry in spectral_power_elements(p, n):
                    assert entry.q == 0

    def test_irrational_entry_raises(self, monkeypatch):
        # the certificate must hold under python -O, so it cannot be an assert
        bad = QuadScalar(F(1), F(1), F(2))
        monkeypatch.setattr(matrix, "spectral_power_elements", lambda p, n: (bad,) * 4)
        with pytest.raises(ValueError, match="nonzero sqrt"):
            power_distinct(params(1, 1, 1, 0), 2)

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            power_distinct(params(1, 1, 1, 1), 2)


class TestPowerRepeated:
    def test_oracle_example(self):
        p = params(3, 1, -1, 1)
        assert power_repeated(p, 2) == Mat2(F(8), F(4), F(-4), F(0))
        assert power_repeated(p, 2) == naive_power(p, 2)

    def test_n_one_is_a(self):
        p = params(3, 1, -1, 1)
        assert power_repeated(p, 1) == Mat2.of(p)

    def test_scalar_matrix(self):
        p = params(2, 0, 0, 2)
        assert power_repeated(p, 3) == Mat2(F(8), F(0), F(0), F(8))

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            power_repeated(params(2, 1, 1, 2), 1)


class TestPowerAntitrace:
    def test_even(self):
        p = params(1, 1, 1, -1)
        assert power_antitrace(p, 2) == Mat2(F(2), F(0), F(0), F(2))

    def test_odd(self):
        p = params(1, 1, 1, -1)
        assert power_antitrace(p, 3) == Mat2(F(2), F(2), F(2), F(-2))
        assert power_antitrace(p, 3) == naive_power(p, 3)

    def test_identity_at_zero(self):
        assert power_antitrace(params(1, 1, 1, -1), 0) == Mat2.identity()

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            power_antitrace(params(2, 1, 1, 2), 1)


class TestPowerDispatch:
    def test_examples(self):
        assert power(params(1, 1, 1, 1), 4) == Mat2(F(8), F(8), F(8), F(8))
        assert power(params(2, 1, 1, 2), 0) == Mat2.identity()
        p = params(3, 1, -1, 1)
        assert power(p, 5) == naive_power(p, 5)

    def test_oracle_equivalence_randomized_grid(self):
        rng = random.Random(17)
        cases = [None, CaseTag.RANK_DEFICIENT, CaseTag.REPEATED, CaseTag.ANTITRACE_DISTINCT]
        for i in range(160):
            p = random_params(rng, cases[i % len(cases)])
            expected = Mat2.identity()
            step = Mat2.of(p)
            for n in range(13):
                assert power(p, n) == expected, (p, n)
                expected = expected * step

    def test_semigroup(self):
        rng = random.Random(19)
        for _ in range(80):
            p = random_params(rng)
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            assert power(p, m + n) == power(p, m) * power(p, n)

    def test_cayley_hamilton(self):
        rng = random.Random(23)
        for _ in range(100):
            p = random_params(rng)
            a2 = power(p, 2)
            lhs = Mat2(
                a2.a11 - p.trace * p.a + p.det,
                a2.a12 - p.trace * p.b,
                a2.a21 - p.trace * p.c,
                a2.a22 - p.trace * p.d + p.det,
            )
            assert lhs == Mat2.zero()
