import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicorbit import matrix
from cubicorbit.errors import CaseMismatch
from cubicorbit.exact import QuadScalar, rational_sqrt
from cubicorbit.matrix import (
    CaseTag,
    Eigenpair,
    Mat2,
    SystemParams,
    classify,
    eigenvalues,
    integer_matrix,
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


# Denominators up to 10^6, so the lcm L of a system's denominators is
# usually > 1.
RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
NONZERO = RATIONALS.filter(bool)


@st.composite
def integer_form_systems(draw):
    """Random systems, and systems built to have det = 0, discriminant 0,
    trace 0 or rational eigenvalues."""
    a, b, c, d = (draw(RATIONALS) for _ in range(4))
    kind = draw(st.sampled_from(["random", "det", "discriminant", "trace", "rational"]))
    if kind == "det":
        c, d = c * a, c * b
    elif kind == "discriminant":
        b = draw(NONZERO)
        c = -((a - d) ** 2) / (4 * b)
    elif kind == "trace":
        d = -a
    elif kind == "rational":
        # eigenvalues c and d: trace c + d, determinant c d
        b = draw(NONZERO)
        c, d = (a * (c + d - a) - c * d) / b, c + d - a
    return SystemParams(a, b, c, d)


def fraction_classify(p):
    """The reference case: the precedence over the Fraction det,
    discriminant and trace of A."""
    if p.det == 0:
        return CaseTag.RANK_DEFICIENT
    if p.discriminant == 0:
        return CaseTag.REPEATED
    if p.trace == 0:
        return CaseTag.ANTITRACE_DISTINCT
    return CaseTag.DISTINCT


def fraction_eigenvalues(p):
    """The reference eigenvalues, built from rational_sqrt of the Fraction
    discriminant of A."""
    D = p.discriminant
    root = rational_sqrt(D)
    half_trace = p.trace / 2
    if root is not None:
        return Eigenpair(D, half_trace + root / 2, half_trace - root / 2)
    return Eigenpair(D, QuadScalar(half_trace, F(1, 2), D), QuadScalar(half_trace, F(-1, 2), D))


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
            assert classify(p) is fraction_classify(p)


class TestIntegerForm:
    """classify and eigenvalues read integers off M = L*A; they must agree
    with the Fraction formulas over A."""

    def test_integer_matrix(self):
        assert integer_matrix(params(F(1, 2), F(-2, 3), 5, F(3, 4))) == (12, 6, -8, 60, 9)
        assert integer_matrix(params(2, 1, 1, 2)) == (1, 2, 1, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(integer_form_systems())
    def test_matches_fraction_formulas(self, p):
        L, *entries = integer_matrix(p)
        assert L == math.lcm(*(t.denominator for t in p))
        assert all(type(m) is int for m in entries)
        assert [F(m, L) for m in entries] == list(p)
        assert classify(p) is fraction_classify(p)
        got, want = eigenvalues(p), fraction_eigenvalues(p)
        assert got.is_rational is want.is_rational
        for g, w in zip(got, want):
            assert type(g) is type(w)
            if isinstance(w, QuadScalar):
                assert (g.p, g.q, g.D) == (w.p, w.q, w.D)
            else:
                assert g == w


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
