import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
# Imported here, not first inside canonical_key: the lazy import takes about
# 0.4 s, past the hypothesis deadline of the first example that reaches it
# when this file runs on its own.
import sympy  # noqa: F401

from cubicorbit.errors import DigitBudgetExceeded, DivisionByZero
from cubicorbit.exact import (
    CoprimeBasis,
    FactoredValue,
    QuadScalar,
    antitrace_exponents,
    coprime_fraction,
    estimated_digits,
    expand_exponents,
    format_rational,
    geometric_exponent,
    parse_rational,
    pow_rational,
    rational_sqrt,
    three_pow,
)

F = Fraction


def _prime_exponents(m: int) -> dict[int, int]:
    """The prime factorization of a small positive m, by trial division."""
    out, q = {}, 2
    while m > 1:
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
        q += 1
    return out


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-3/7", F(-3, 7)),
            ("42", F(42)),
            ("0.25", F(1, 4)),
            ("-0.5", F(-1, 2)),
            ("=-1/2", F(-1, 2)),  # '=' form used on the command line
            (" 7/2 ", F(7, 2)),
            ("1e3", F(1000)),
            ("-2.5E-2", F(-1, 40)),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1e10000000", "=-1E-4301", "1e1_000_000"])
    def test_exponent_past_the_digit_limit(self, text, int_digit_limit):
        # refused before 10**exponent is built, as a 4,301-digit literal is
        with pytest.raises(ValueError, match="exceeds the 4300-digit limit"):
            parse_rational(text)
        assert parse_rational("1e4300") == 10**4300

    def test_format_round_trip(self):
        for r in (F(-3, 7), F(42), F(0), F(5, 1)):
            assert parse_rational(format_rational(r)) == r


class TestPowRational:
    def test_small_power(self):
        assert pow_rational(F(2), 3) == 8

    def test_zero_exponent_is_empty_product(self):
        assert pow_rational(F(5), 0) == 1

    def test_zero_base_conventions(self):
        assert pow_rational(F(0), 0) == 1
        assert pow_rational(F(0), 7) == 0

    def test_two_to_the_243(self):
        # oracle: repeated squaring by hand
        exp = 3**5
        oracle = 1
        sq = 2
        e = exp
        while e:
            if e & 1:
                oracle *= sq
            sq *= sq
            e >>= 1
        value = pow_rational(F(2), exp)
        assert value == oracle
        assert len(str(value.numerator)) == 74

    def test_budget(self):
        with pytest.raises(DigitBudgetExceeded):
            pow_rational(F(2), 10**9, digit_budget=1000)

    def test_estimate_is_an_upper_bound(self):
        for base in (F(2), F(7, 3), F(-5, 2)):
            for exp in (1, 10, 100):
                v = base**exp
                digits = max(len(str(abs(v.numerator))), len(str(v.denominator)))
                assert estimated_digits(base, exp) >= digits


class TestExponents:
    def test_three_pow(self):
        assert three_pow(0) == 1
        assert three_pow(4) == 81
        oracle = 1
        for _ in range(20):
            oracle *= 3
        assert three_pow(20) == oracle == 3486784401

    @pytest.mark.parametrize("n,expected", [(0, 0), (2, 4), (7, 1093)])
    def test_geometric_exponent(self, n, expected):
        assert geometric_exponent(n) == expected

    def test_geometric_exponent_is_power_sum(self):
        for n in range(31):
            assert geometric_exponent(n) == sum(3 ** (n - k - 1) for k in range(n))

    @pytest.mark.parametrize("n,expected", [(0, (0, 0)), (1, (1, 3)), (3, (91, 273))])
    def test_antitrace_exponents(self, n, expected):
        assert antitrace_exponents(n) == expected

    def test_antitrace_divisibility(self):
        for n in range(31):
            assert (3 ** (2 * n) - 1) % 8 == 0
            assert (3 ** (2 * n + 1) - 3) % 8 == 0
            even, odd = antitrace_exponents(n)
            assert even * 8 == 3 ** (2 * n) - 1
            assert odd * 8 == 3 ** (2 * n + 1) - 3


def test_rational_sqrt():
    assert rational_sqrt(F(4)) == 2
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-4)) is None


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def quads(D):
    return st.builds(lambda p, q: QuadScalar(p, q, D), rationals, rationals)


class TestQuadScalar:
    def test_rejects_square_radicand(self):
        for D in (F(4), F(9, 4), F(0), F(1)):
            with pytest.raises(ValueError):
                QuadScalar(F(1), F(1), D)

    def test_public_constructors_keep_the_square_test(self):
        # arithmetic results and eigenvalues skip the test of D, which an
        # operand or a failed integer square test has already passed
        with pytest.raises(ValueError, match="rational square"):
            QuadScalar(F(1), F(1), F(4))
        with pytest.raises(ValueError, match="rational square"):
            QuadScalar.of(F(3), F(9, 4))
        x = QuadScalar(F(1), F(1), F(2))
        with pytest.raises(ValueError, match="mixed radicands"):
            x + QuadScalar(F(1), F(1), F(3))
        for y in (x + 1, -x, x * x, x.conj(), x.inv(), x**0, QuadScalar.of(2, F(2))):
            assert y.__class__ is QuadScalar and y.D == F(2)
            with pytest.raises(AttributeError):
                y.p = F(0)

    def test_conjugate_norm(self):
        x = QuadScalar(F(1), F(1), F(2))
        assert x * x.conj() == QuadScalar(F(-1), F(0), F(2))

    def test_inverse_of_sqrt2(self):
        root2 = QuadScalar(F(0), F(1), F(2))
        assert root2.inv() == QuadScalar(F(0), F(1, 2), F(2))

    def test_negative_radicand_product(self):
        x = QuadScalar(F(3), F(2), F(-5))
        y = QuadScalar(F(1), F(1), F(-5))
        assert x * y == QuadScalar(F(-7), F(5), F(-5))

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            QuadScalar(F(0), F(0), F(2)).inv()

    @pytest.mark.parametrize("D", [F(2), F(-5), F(8)])
    def test_pow_matches_repeated_multiplication(self, D):
        x = QuadScalar(F(2, 3), F(-1, 2), D)
        acc = QuadScalar(F(1), F(0), D)
        for n in range(8):
            assert x**n == acc
            acc = acc * x

    @given(x=quads(F(2)), y=quads(F(2)), z=quads(F(2)))
    @settings(max_examples=60)
    def test_field_laws(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)

    @given(x=quads(F(-5)))
    @settings(max_examples=60)
    def test_multiplicative_inverse(self, x):
        if not x.is_zero():
            assert x * x.inv() == QuadScalar(F(1), F(0), F(-5))

    @given(x=quads(F(8)), y=quads(F(8)))
    @settings(max_examples=60)
    def test_conj_is_multiplicative(self, x, y):
        assert (x * y).conj() == x.conj() * y.conj()


class TestFactoredValue:
    def test_empty_product(self):
        assert FactoredValue.build(1, []).expand() == 1
        assert FactoredValue.build(-1, []).expand() == -1

    def test_mixed_product(self):
        v = FactoredValue.build(1, [(F(2), 3), (F(3, 2), 2)])
        assert v.expand() == 18

    def test_negative_power_tower(self):
        v = FactoredValue.build(-1, [(F(2), 3**4)])
        oracle = 1
        sq, e = 2, 81
        while e:
            if e & 1:
                oracle *= sq
            sq *= sq
            e >>= 1
        assert v.expand() == -oracle

    def test_canonical_no_unit_bases(self):
        v = FactoredValue.build(1, [(F(1), 5), (F(2), 0), (F(-3), 3)])
        assert v.sign == -1
        assert v.factors == ((F(3), 3),)

    def test_zero(self):
        assert FactoredValue.from_rational(F(0)).sign == 0
        assert FactoredValue.from_rational(F(0)).expand() == 0
        assert FactoredValue(0, ((F(2), 3**40),)).expand(digit_budget=1) == 0

    def test_budget(self):
        v = FactoredValue.build(1, [(F(2), 3**40)])
        with pytest.raises(DigitBudgetExceeded):
            v.expand(digit_budget=10_000)

    @given(
        r=st.fractions(min_value=-100, max_value=100, max_denominator=40),
        e=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80)
    def test_expand_refactor_round_trip(self, r, e):
        v = FactoredValue.build(1, [(r, e)]) if r != 0 else FactoredValue.from_rational(F(0))
        expanded = v.expand()
        assert FactoredValue.from_rational(expanded).canonical_key() == v.canonical_key()

    def test_merged_base_has_trit_two(self):
        v = FactoredValue.build(1, [(F(2, 3), 9), (F(2, 3), 9)])
        assert v.factors == ((F(2, 3), 18),)  # 18 = 200 in base 3
        assert v.expand() == F(2**18, 3**18)

    def test_budget_estimate_unchanged(self):
        v = FactoredValue.build(1, [(F(7, 3), 10), (F(2), 5)])
        with pytest.raises(DigitBudgetExceeded) as err:
            v.expand(digit_budget=13)
        # (10 * 3 * 30103) // 100000 + 1 plus (5 * 2 * 30103) // 100000 + 1
        assert err.value.estimated_digits == v.estimated_digits() == 14
        assert err.value.budget == 13
        assert v.expand(digit_budget=14) == F(7**10 * 2**5, 3**10)

    @given(
        sign=st.sampled_from([1, -1]),
        factors=st.lists(
            st.tuples(
                st.fractions(min_value=-30, max_value=30, max_denominator=9),
                st.integers(min_value=0, max_value=5).flatmap(
                    lambda m: st.sampled_from(
                        [0, m, 3**m, geometric_exponent(m), *antitrace_exponents(m)]
                    )
                ),
            ),
            max_size=5,
        ),
    )
    @settings(max_examples=150)
    def test_expand_is_the_naive_product(self, sign, factors):
        # The product is built from the bases' prime exponents: multiplying
        # Fractions of ~100k bits together reduces each by a long gcd, which
        # can take longer than the deadline.
        exponents, zero, product_sign = {}, False, sign
        for base, exp in factors:
            if exp == 0:
                continue
            zero = zero or base == 0
            product_sign *= -1 if base < 0 and exp % 2 else 1
            for m, k in ((abs(base.numerator), exp), (base.denominator, -exp)):
                for q, e in _prime_exponents(m).items():
                    exponents[q] = exponents.get(q, 0) + k * e
        num = math.prod(q**e for q, e in exponents.items() if e > 0)
        den = math.prod(q**-e for q, e in exponents.items() if e < 0)
        value = FactoredValue.build(sign, factors).expand()
        assert (value.numerator, value.denominator) == ((0, 1) if zero else (product_sign * num, den))

    def test_canonical_key_identifies_equal_values(self):
        a = FactoredValue.build(1, [(F(4), 3)])
        b = FactoredValue.build(1, [(F(2), 6)])
        c = FactoredValue.build(1, [(F(8), 2), (F(2), 0)])
        assert a.canonical_key() == b.canonical_key() == c.canonical_key()


factored_values = st.builds(
    FactoredValue.build,
    st.sampled_from([1, -1]),
    st.lists(
        st.tuples(
            st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool),
            st.integers(min_value=0, max_value=4).flatmap(
                lambda m: st.sampled_from([m, 3**m, geometric_exponent(m)])
            ),
        ),
        max_size=4,
    ),
)


class TestBuildMerge:
    """build merges bases by value, never by hash."""

    def test_equal_hashes_stay_apart(self):
        assert hash(F(2)) == hash(F(2**62))
        v = FactoredValue.build(1, [(F(2), 1), (F(2**62), 1)])
        assert v.factors == ((F(2), 1), (F(2**62), 1))

    def test_equal_bases_as_distinct_objects_merge(self):
        a, b = F(10**40 + 1, 3**30), F(10**40 + 1, 3**30)
        assert a is not b
        assert FactoredValue.build(1, [(a, 3), (b, 9)]).factors == ((a, 12),)

    def test_first_occurrence_order(self):
        v = FactoredValue.build(1, [(F(5), 1), (F(3, 2), 2), (F(7), 1), (F(5), 4), (F(-3, 2), 1)])
        assert v.sign == -1
        assert v.factors == ((F(5), 5), (F(3, 2), 3), (F(7), 1))

    def test_negated_and_inverted_bases_are_reduced(self):
        v = FactoredValue.build(1, [(F(-3, 4), -3), (F(4, 3), 1), (F(1, -5), 2)])
        assert (v.sign, v.factors) == (-1, ((F(4, 3), 4), (F(1, 5), 2)))
        for base, _ in v.factors:
            assert base.denominator > 0 and math.gcd(base.numerator, base.denominator) == 1

    def test_zero_to_a_negative_power(self):
        with pytest.raises(ZeroDivisionError):
            FactoredValue.build(1, [(F(0), -1)])
        assert FactoredValue.build(1, [(F(0), 0), (F(2), 1)]).factors == ((F(2), 1),)

    @given(x=st.one_of(factored_values, st.just(FactoredValue(0, ()))),
           y=st.one_of(factored_values, st.just(FactoredValue(0, ()))))
    @settings(max_examples=150)
    def test_times_is_build_of_both(self, x, y):
        assert x.times(y) == FactoredValue.build(x.sign * y.sign, x.factors + y.factors)
        assert x.times(x) == FactoredValue.build(x.sign * x.sign, x.factors + x.factors)

    @given(n=st.one_of(st.integers(min_value=-(10**30), max_value=10**30),
                       st.integers(min_value=-(10**400), max_value=10**400)),
           d=st.one_of(st.integers(min_value=1, max_value=10**30),
                       st.integers(min_value=1, max_value=10**400)))
    @example(n=0, d=1)
    @example(n=-1, d=1)
    @example(n=-(2**521 - 1), d=3**300)
    @example(n=7**400, d=2)
    @settings(max_examples=150)
    def test_coprime_fraction(self, n, d):
        g = math.gcd(n, d)
        n, d = n // g, d // g
        r = coprime_fraction(n, d)
        assert type(r) is F
        assert r == F(n, d) and hash(r) == hash(F(n, d))
        assert (r.numerator, r.denominator) == (n, d)
        assert r + 1 == F(n, d) + 1 and str(r) == str(F(n, d))

    def test_fraction_slots(self):
        # coprime_fraction sets these two slots; a layout without them
        # would leave it building Fractions that read as something else
        assert {"_numerator", "_denominator"} <= set(F.__slots__)


class TestCoprimeBasis:
    @given(st.lists(factored_values, min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_basis_properties(self, values):
        # each value next to an equal one factored differently: its expansion
        values = values + [FactoredValue.from_rational(v.expand()) for v in values]
        basis = CoprimeBasis()
        for v in values:
            basis.add_value(v)
        elements = basis.elements
        assert all(q > 1 for q in elements)
        assert all(math.gcd(q, r) == 1 for k, q in enumerate(elements) for r in elements[:k])
        for v in values:
            for base, _ in v.factors:
                for m in (base.numerator, base.denominator):
                    assert math.prod(q**e for q, e in basis.factor(m).items()) == m
        vectors = [v.exponent_vector(basis) for v in values]
        keys = [v.canonical_key() for v in values]
        for a, ka in zip(vectors, keys):
            for b, kb in zip(vectors, keys):
                assert (a == b) == (ka == kb)
        for v, (sign, vec) in zip(values, vectors):
            value = v.expand()
            num, den = abs(value.numerator), value.denominator
            assert sign == v.sign
            assert expand_exponents(vec, num.bit_length(), den.bit_length()) == (num, den)

    def test_refinement_splits_shared_factors(self):
        basis = CoprimeBasis()
        for m in (12, 18, 1, 35):
            basis.add(m)
        assert basis.elements == (2, 3, 35)  # coprime, not necessarily prime
        assert basis.factor(12) == {2: 2, 3: 1}
        basis.add(4)  # already factors: no split
        assert basis.factor(35) == {35: 1}
        basis.add(10)
        assert basis.elements == (2, 3, 5, 7)
        assert basis.factor(35) == {5: 1, 7: 1}
        with pytest.raises(ValueError):
            basis.factor(11)

    def test_adding_again_takes_no_gcd(self, monkeypatch):
        basis = CoprimeBasis()
        added = (12, 18, 35, 10, 7)
        for m in added:
            basis.add(m)
        calls = []
        gcd = math.gcd
        monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
        for m in added:
            basis.add(m)
        assert calls == []
        assert basis.elements == (2, 3, 5, 7)
        assert [basis.factor(m) for m in added] == [
            {2: 2, 3: 1}, {2: 1, 3: 2}, {5: 1, 7: 1}, {2: 1, 5: 1}, {7: 1}
        ]

    def test_exponent_vector_cancels_across_factors(self):
        basis = CoprimeBasis()
        v = FactoredValue.build(-1, [(F(6, 5), 9), (F(5, 4), 9)])  # -(3/2)^9
        basis.add_value(v)
        sign, vec = v.exponent_vector(basis)
        assert sign == -1
        assert basis.elements == (2, 3, 5)
        assert vec == {2: -9, 3: 9}
        assert expand_exponents(vec, 15, 10) == (3**9, 2**9)

    def test_expansion_stops_past_the_cap(self):
        # 2^(3^30) has ~2 * 10^14 bits; the cap stops it at the first cube past 64 bits
        assert expand_exponents({2: 3**30}, 64, 1) is None
        assert expand_exponents({2: -(3**30)}, 1, 64) is None
        assert expand_exponents({2: 5, 3: -2}, 3, 4) is None
        assert expand_exponents({2: 5, 3: -2}, 6, 4) == (32, 9)
