import hashlib
import importlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from cubicorbit.errors import (
    CaseMismatch,
    DegenerateParameters,
    DigitBudgetExceeded,
    TrivialSolutionEncountered,
    UnknownWithinHorizon,
)
from cubicorbit.exact import (
    CoprimeBasis,
    FactoredValue,
    estimated_digits,
    geometric_exponent,
    pow_rational,
    rational_sqrt,
    three_pow,
)
from cubicorbit.linearize import InitialPair, linear_orbit_seq
from cubicorbit.matrix import CaseTag, SystemParams, classify
from cubicorbit.solve import (
    OrbitTerm,
    TrivialReport,
    cubic_coeff_solve,
    iterate_direct,
    reconstruct_general,
    solve,
    solve_antitrace,
    solve_distinct,
    solve_rank_deficient,
    solve_repeated,
    verify,
)
from cubicorbit.zerosets import zero_set_member

from helpers import direct_orbit, first_orbit_zero, random_init, random_params

# the package exports the function solve under the submodule's name
solve_module = importlib.import_module("cubicorbit.solve")

F = Fraction

CASE_SOLVERS = {
    CaseTag.RANK_DEFICIENT: solve_rank_deficient,
    CaseTag.REPEATED: solve_repeated,
    CaseTag.DISTINCT: solve_distinct,
    CaseTag.ANTITRACE_DISTINCT: solve_antitrace,
}


def params(a, b, c, d):
    return SystemParams(F(a), F(b), F(c), F(d))


def init(x0, y0):
    return InitialPair(F(x0), F(y0))


def sample_outside_zero_set(rng, tag, scan=12):
    while True:
        p = random_params(rng, tag)
        i = random_init(rng)
        if i.x0 != 0 and i.y0 != 0 and first_orbit_zero(p, i, scan) is None:
            return p, i


class TestIterateDirect:
    def test_all_ones(self):
        terms = iterate_direct(params(1, 1, 1, 1), init(1, 1), 2)
        assert [t.x.expand() for t in terms] == [1, 2, 16]
        assert [t.y.expand() for t in terms] == [1, 2, 16]

    def test_zero_init_is_trivial(self):
        terms = iterate_direct(params(2, 1, 1, 2), init(0, 5), 3)
        assert terms[0].x.expand() == 0
        assert all(t.x.expand() == 0 and t.y.expand() == 0 for t in terms[1:])

    def test_antitrace_example(self):
        terms = iterate_direct(params(1, 1, 1, -1), init(1, 2), 2)
        assert terms[2].x.expand() == -48
        assert terms[2].y.expand() == -96

    def test_budget_estimate_is_that_of_expand(self):
        # Step 7 is refused by the estimate of the cube of term 6, made with
        # the formula that FactoredValue.expand uses.
        p, i = params(F(1, 2), 3, F(-2, 5), 1), init(F(3, 7), F(5, 2))
        last = iterate_direct(p, i, 6)[-1]
        x, y = last.x.expand(), last.y.expand()
        est = max(estimated_digits(x, 3), estimated_digits(y, 3))
        assert len(iterate_direct(p, i, 7, digit_budget=est)) == 8
        with pytest.raises(DigitBudgetExceeded) as err:
            iterate_direct(p, i, 7, digit_budget=est - 1)
        assert err.value.estimated_digits == est


class TestCubicCoeffSolve:
    def test_empty(self):
        assert cubic_coeff_solve([], F(7), 0).expand() == 7

    def test_constant_coefficients(self):
        assert cubic_coeff_solve([F(2), F(2)], F(1), 2).expand() == 16
        # iterate x' = 2x^3 twice by hand: 1 -> 2 -> 16

    def test_varying_coefficients(self):
        assert cubic_coeff_solve([F(2), F(3)], F(1), 2).expand() == 24
        x = F(1)
        for a in (F(2), F(3)):
            x = a * x**3
        assert x == 24

    def test_matches_iteration(self):
        rng = random.Random(59)
        for _ in range(20):
            coeffs = [F(rng.randint(1, 4)) for _ in range(5)]
            x0 = F(rng.randint(-3, 3), rng.randint(1, 2))
            x = x0
            for n, a in enumerate(coeffs, start=1):
                x = a * x**3
                assert cubic_coeff_solve(coeffs, x0, n).expand() == x

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            cubic_coeff_solve([F(0)], F(1), 1)


class TestSolveRankDeficient:
    def test_example(self):
        term = solve_rank_deficient(params(1, 1, 1, 1), init(1, 1), 2)
        assert term.x.expand() == 16
        assert term.y.expand() == 16

    def test_base_case(self):
        term = solve_rank_deficient(params(1, 1, 1, 1), init(1, 1), 1)
        assert (term.x.expand(), term.y.expand()) == (2, 2)

    def test_n_zero(self):
        term = solve_rank_deficient(params(1, 1, 1, 1), init(2, 3), 0)
        assert (term.x.expand(), term.y.expand()) == (2, 3)

    def test_zero_a_uses_db_ratio(self):
        p = params(0, 1, 0, 2)
        for n in range(5):
            term = solve_rank_deficient(p, init(1, 1), n)
            xs, ys = direct_orbit(p, init(1, 1), n)
            assert term.x.expand() == xs[n]
            assert term.y.expand() == ys[n]

    def test_trivial_init(self):
        with pytest.raises(TrivialSolutionEncountered):
            solve_rank_deficient(params(1, 1, 1, 1), init(1, -1), 2)

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            solve_rank_deficient(params(2, 1, 1, 2), init(1, 1), 1)


class TestSolveDistinct:
    def test_one_step(self):
        term = solve_distinct(params(2, 1, 1, 2), init(1, 2), 1)
        assert (term.x.expand(), term.y.expand()) == (8, 10)

    def test_two_steps_match_oracle(self):
        xs, ys = direct_orbit(params(2, 1, 1, 2), init(1, 2), 2)
        term = solve_distinct(params(2, 1, 1, 2), init(1, 2), 2)
        assert (term.x.expand(), term.y.expand()) == (xs[2], ys[2])

    def test_n_zero(self):
        term = solve_distinct(params(2, 1, 1, 2), init(1, 2), 0)
        assert (term.x.expand(), term.y.expand()) == (1, 2)

    def test_trivial_init(self):
        with pytest.raises(TrivialSolutionEncountered):
            solve_distinct(params(2, 1, 1, 2), init(1, -2), 3)


class TestSolveRepeated:
    def test_one_step(self):
        term = solve_repeated(params(3, 1, -1, 1), init(1, 2), 1)
        assert (term.x.expand(), term.y.expand()) == (10, 2)

    def test_two_steps_match_oracle(self):
        xs, ys = direct_orbit(params(3, 1, -1, 1), init(1, 2), 2)
        term = solve_repeated(params(3, 1, -1, 1), init(1, 2), 2)
        assert (term.x.expand(), term.y.expand()) == (xs[2], ys[2])

    def test_n_zero(self):
        term = solve_repeated(params(3, 1, -1, 1), init(1, 2), 0)
        assert (term.x.expand(), term.y.expand()) == (1, 2)

    def test_trivial_init(self):
        with pytest.raises(TrivialSolutionEncountered):
            solve_repeated(params(3, 1, -1, 1), init(1, -2), 4)


class TestSolveAntitrace:
    def test_odd_step(self):
        term = solve_antitrace(params(1, 1, 1, -1), init(1, 2), 1)
        assert (term.x.expand(), term.y.expand()) == (6, -2)

    def test_even_step(self):
        xs, ys = direct_orbit(params(1, 1, 1, -1), init(1, 2), 2)
        term = solve_antitrace(params(1, 1, 1, -1), init(1, 2), 2)
        assert (term.x.expand(), term.y.expand()) == (xs[2], ys[2]) == (-48, -96)

    def test_n_zero(self):
        term = solve_antitrace(params(1, 1, 1, -1), init(1, 2), 0)
        assert (term.x.expand(), term.y.expand()) == (1, 2)

    def test_trivial_init(self):
        with pytest.raises(TrivialSolutionEncountered):
            solve_antitrace(params(1, 1, 1, -1), init(1, 1), 2)


class TestSolveDispatcher:
    def test_trivial_report(self):
        result = solve(params(1, 1, 1, -1), init(1, 1), 4)
        assert isinstance(result, TrivialReport)
        assert result.witness == 1

    def test_closed_form_matches_oracle(self):
        result = solve(params(2, 1, 1, 2), init(1, 2), 3)
        xs, ys = direct_orbit(params(2, 1, 1, 2), init(1, 2), 3)
        assert (result.x.expand(), result.y.expand()) == (xs[3], ys[3])

    def test_degenerate(self):
        with pytest.raises(DegenerateParameters):
            solve(params(0, 0, 1, 1), init(1, 1), 2)

    def test_unknown_horizon_propagates(self):
        # irrational eigenvalues and a requested index beyond the scanned prefix
        with pytest.raises(UnknownWithinHorizon):
            solve(params(2, 1, 1, 0), init(2, 3), 5, horizon=2)

    def test_negative_horizon(self):
        # a member at n = 0 all the same
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            solve(params(2, 1, 1, 0), init(0, 1), 0, horizon=-1)

    def test_unknown_but_within_prefix_is_solved(self):
        result = solve(params(2, 1, 1, 0), init(2, 3), 3, horizon=8)
        xs, ys = direct_orbit(params(2, 1, 1, 0), init(2, 3), 3)
        assert (result.x.expand(), result.y.expand()) == (xs[3], ys[3])


class TestReconstructGeneral:
    def test_cross_path_distinct(self):
        p, i = params(2, 1, 1, 2), init(1, 2)
        a = reconstruct_general(p, i, 2)
        b = solve_distinct(p, i, 2)
        assert a.x.expand() == b.x.expand() and a.y.expand() == b.y.expand()

    def test_n_zero(self):
        term = reconstruct_general(params(2, 1, 1, 2), init(5, 7), 0)
        assert (term.x.expand(), term.y.expand()) == (5, 7)

    def test_cross_path_repeated(self):
        p, i = params(3, 1, -1, 1), init(1, 2)
        a = reconstruct_general(p, i, 3)
        b = solve_repeated(p, i, 3)
        assert a.x.expand() == b.x.expand() and a.y.expand() == b.y.expand()

    def test_trivial_prefix(self):
        with pytest.raises(TrivialSolutionEncountered):
            reconstruct_general(params(1, 1, 1, 1), init(1, -1), 3)

    def test_raises_at_the_first_zero(self):
        rng = random.Random(71)
        seen = set()
        while len(seen) < 4:
            p, i = random_params(rng), random_init(rng)
            k = first_orbit_zero(p, i, 5)
            if k is None:
                continue
            seen.add(k)
            for n in range(k + 1, 8):
                with pytest.raises(TrivialSolutionEncountered) as err:
                    reconstruct_general(p, i, n)
                assert err.value.witness == k
            reconstruct_general(p, i, k)  # no zero before k


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# zero half the time, so that b = 0 and c = 0 systems are common
entries = st.one_of(st.just(F(0)), rationals)


@st.composite
def repeated_systems(draw):
    """lam I + s N with N = [[p q, -p^2], [q^2, -p q]] nilpotent: p = 0
    gives b = 0 and q = 0 gives c = 0."""
    lam = draw(rationals.filter(bool))
    p, q, s = draw(entries), draw(entries), draw(st.sampled_from([1, -1]))
    return SystemParams(lam + s * p * q, -s * p * p, s * q * q, lam - s * p * q)


@st.composite
def distinct_systems(draw):
    """Entries drawn like the initial pair's, then d moved by 0..4 to the
    first value that is distinct.  For a != 0 or b c != 0, at most four
    values of d leave the case: one with det = 0, one with trace = 0 and
    the two roots of (a - d)^2 + 4 b c = 0.  With a = 0 and b c = 0 the
    system is singular for every d, so a is drawn nonzero then.  b and c
    are kept, so b = 0 and c = 0 systems stay common, and the
    discriminant is a square or not."""
    a, b, c, d = draw(entries), draw(entries), draw(entries), draw(entries)
    if a == 0 and b * c == 0:
        a = draw(rationals.filter(bool))
    candidates = (SystemParams(a, b, c, d + shift) for shift in range(5))
    return next(p for p in candidates if classify(p) is CaseTag.DISTINCT)


class TestRatioWalk:
    """The integer walk behind solve_repeated and solve_distinct against
    the Fraction orbit of linear_orbit_seq."""

    @staticmethod
    def check(p, i, n):
        first = first_orbit_zero(p, i, n)
        if first is not None:
            with pytest.raises(TrivialSolutionEncountered) as err:
                solve_module._ratio_walk(p, i, n)
            assert err.value.witness == first
            return
        bases, ratio_n = solve_module._ratio_walk(p, i, n)
        states = linear_orbit_seq(p, i, n)
        expected = [now.v * nxt.u / (now.u * now.u) for now, nxt in zip(states, states[1:])]
        assert bases == expected
        assert ratio_n == states[n].v / states[n].u
        for r in bases + [ratio_n]:
            assert r.denominator > 0 and math.gcd(r.numerator, r.denominator) == 1

    @given(p=repeated_systems(), x0=entries, y0=entries, n=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_repeated(self, p, x0, y0, n):
        assert classify(p) is CaseTag.REPEATED
        self.check(p, InitialPair(x0, y0), n)

    @given(p=distinct_systems(), x0=entries, y0=entries, n=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_distinct(self, p, x0, y0, n):
        assert classify(p) is CaseTag.DISTINCT
        self.check(p, InitialPair(x0, y0), n)

    @pytest.mark.parametrize(
        "shape",
        [
            lambda p: p.b == 0,
            lambda p: p.c == 0,
            lambda p: rational_sqrt(p.discriminant) is not None,
            lambda p: rational_sqrt(p.discriminant) is None,
        ],
        ids=["b-zero", "c-zero", "rational-eigenvalues", "irrational-eigenvalues"],
    )
    def test_distinct_systems_reach(self, shape):
        assert shape(find(distinct_systems(), shape))

    @given(
        l1=rationals.filter(bool),
        l2=rationals.filter(bool),
        s=st.tuples(rationals, rationals, rationals, rationals),
        m=st.integers(0, 12),
        extra=st.integers(0, 28),
        column=st.sampled_from([(F(0), F(1)), (F(1), F(0))]),
    )
    @settings(max_examples=150, deadline=None)
    def test_distinct_member_raises_at_first_zero(self, l1, l2, s, m, extra, column):
        # A = S diag(l1, l2) S^-1, and the seed A^-m e makes u_m or v_m zero
        s11, s12, s21, s22 = s
        det_s = s11 * s22 - s12 * s21
        assume(det_s != 0 and l1 != l2 and l1 != -l2)
        a = (s11 * l1 * s22 - s12 * l2 * s21) / det_s
        b = (s12 * l2 * s11 - s11 * l1 * s12) / det_s
        c = (s21 * l1 * s22 - s22 * l2 * s21) / det_s
        d = (s22 * l2 * s11 - s21 * l1 * s12) / det_s
        p = SystemParams(a, b, c, d)
        assert classify(p) is CaseTag.DISTINCT
        u, v = column
        for _ in range(m):
            u, v = (d * u - b * v) / p.det, (a * v - c * u) / p.det
        i, n = InitialPair(u, v), m + extra
        first = first_orbit_zero(p, i, n)
        assert first is not None and first <= m
        with pytest.raises(TrivialSolutionEncountered) as err:
            solve_distinct(p, i, n)
        assert err.value.witness == first


def product_formula_walk(p, i, n):
    """The reference for _ratio_walk: the bases V W / (L U^2) as products
    of the primitive integer vector (U, V), the ratio V / U, each reduced
    by Fraction's own gcd, and the gcd(W, Z) of each step."""
    L = math.lcm(*(t.denominator for t in p))
    al, be, ga, de = (int(t * L) for t in p)
    U, V = i.x0.numerator * i.y0.denominator, i.y0.numerator * i.x0.denominator
    g = math.gcd(U, V)
    U, V = U // g, V // g
    bases, gcds = [], []
    for _ in range(n):
        W, Z = al * U + be * V, ga * U + de * V
        bases.append(F(V * W, L * U * U))
        g = math.gcd(W, Z)
        gcds.append(g)
        U, V = W // g, Z // g
    return bases, F(V, U), gcds


class TestDeepRatioWalk:
    """_ratio_walk at n in the hundreds against the product formula.  The
    distinct walks' integers run to hundreds or thousands of bits; the
    repeated one keeps them short but divides by gcd(W, Z) > 1 at every
    step."""

    @pytest.mark.parametrize(
        "coeffs,seed,case",
        [
            ((F(1, 2), F(3, 4), F(-1, 3), 2), (F(2, 3), 5), CaseTag.DISTINCT),
            ((3, 0, F(-5, 2), F(-1, 3)), (-2, F(7, 3)), CaseTag.DISTINCT),
            ((-3, 5, 2, -1), (1, -4), CaseTag.DISTINCT),  # discriminant 44
            ((1, -3, 2, 5), (4, -1), CaseTag.DISTINCT),  # discriminant -8
            ((2, 2, -2, 6), (-5, F(2, 7)), CaseTag.REPEATED),  # M = 2 M'
        ],
        ids=["rational-entries", "b-zero", "negative-entries", "irrational", "repeated-even"],
    )
    @pytest.mark.parametrize("n", [250, 400])
    def test_matches_product_formula(self, coeffs, seed, case, n):
        p, i = params(*coeffs), init(*seed)
        assert classify(p) is case
        bases, ratio_n, gcds = product_formula_walk(p, i, n)
        if case is CaseTag.REPEATED:
            assert min(gcds) > 1  # every step divides by g^2
        else:
            assert bases[-1].denominator.bit_length() > n  # the long regime
        assert solve_module._ratio_walk(p, i, n) == (bases, ratio_n)


class TestDeepFactoredOutput:
    """sha256 of str(x_1000) and str(y_1000), pinned from the Fraction-orbit
    solvers: the integer walk must give the same factors in the same order."""

    @pytest.mark.parametrize(
        "coeffs,seed,case,x_digest,y_digest",
        [
            ((10, -6, 9, -5), (6, 7), CaseTag.DISTINCT,  # eigenvalues 4 and 1
             "83c29d86b050fc19fa4a75f6b52191969263b8b62b18b34feac966c2d587830e",
             "7c7624cfdaa2d35130265538cd8558e122442c094d5e24a575fdf3ca09af681c"),
            ((5, -1, 2, 2), (8, 13), CaseTag.DISTINCT,  # eigenvalues 4 and 3
             "25b5de0035130872b4140fd88b6f4166395850431f1839a04ab23fba1f9b8985",
             "ef3244e39be5559a73964f5097f7bf18c0017fccac1cabd14b5f5e6b74f8a4b4"),
            ((3, -1, 1, 1), (4, 1), CaseTag.REPEATED,
             "115a466e53b49cd906913816f5c7499a85b24c5d8be35f91ebe8a37504be720e",
             "d69402c1d40c99d0d3d8d0f271cc4c7dedc17304a8a3c39f582ead18edc122c6"),
        ],
    )
    def test_digest_at_n_1000(self, coeffs, seed, case, x_digest, y_digest):
        p = params(*coeffs)
        assert classify(p) is case
        term = solve(p, init(*seed), 1000)
        assert len(term.x.factors) == 1001
        assert hashlib.sha256(str(term.x).encode()).hexdigest() == x_digest
        assert hashlib.sha256(str(term.y).encode()).hexdigest() == y_digest


class TestFactoredForm:
    # u = 1, 4, 13 and v = 2, 5, 14 for (2, 1, 1, 2) from (1, 2)
    @pytest.mark.parametrize(
        "solver,p,x,y",
        [
            (solve_distinct, params(2, 1, 1, 2),
             "(8)^3 * (65/16)^1", "(8)^3 * (65/16)^1 * (14/13)^1"),
            (solve_repeated, params(3, 1, -1, 1),
             "(10)^3 * (16/25)^1", "-(10)^3 * (16/25)^1 * (1/4)^1"),
            (reconstruct_general, params(2, 1, 1, 2),
             "(2)^3 * (20)^1 * (13)^1", "(2)^3 * (20)^1 * (14)^1"),
        ],
    )
    def test_factor_lists(self, solver, p, x, y):
        term = solver(p, init(1, 2), 2)
        assert (str(term.x), str(term.y)) == (x, y)


class TestProperties:
    def test_oracle_equivalence_all_cases(self):
        rng = random.Random(61)
        for tag in CASE_SOLVERS:
            for _ in range(8):
                p, i = sample_outside_zero_set(rng, tag)
                xs, ys = direct_orbit(p, i, 6)
                for n in range(7):
                    term = CASE_SOLVERS[tag](p, i, n)
                    recon = reconstruct_general(p, i, n)
                    assert term.x.expand() == xs[n] and term.y.expand() == ys[n]
                    assert recon.x.expand() == xs[n] and recon.y.expand() == ys[n]

    def test_homogeneity(self):
        rng = random.Random(67)
        for _ in range(20):
            p = random_params(rng)
            i = random_init(rng)
            t = rng.choice([F(-2), F(-1, 2), F(3)])
            scaled = InitialPair(t * i.x0, t * i.y0)
            xs, ys = direct_orbit(p, i, 5)
            xs2, ys2 = direct_orbit(p, scaled, 5)
            for n in range(6):
                factor = pow_rational(t, three_pow(n))
                assert xs2[n] == factor * xs[n]
                assert ys2[n] == factor * ys[n]

    def test_swap_symmetry(self):
        rng = random.Random(71)
        for _ in range(20):
            p = random_params(rng)
            i = random_init(rng)
            swapped_p = SystemParams(p.d, p.c, p.b, p.a)
            swapped_i = InitialPair(i.y0, i.x0)
            xs, ys = direct_orbit(p, i, 6)
            xs2, ys2 = direct_orbit(swapped_p, swapped_i, 6)
            assert xs2 == ys and ys2 == xs

    def test_ratio_identity(self):
        rng = random.Random(73)
        done = 0
        while done < 15:
            p = random_params(rng)
            i = random_init(rng)
            if first_orbit_zero(p, i, 8) is not None:
                continue
            xs, ys = direct_orbit(p, i, 8)
            states = linear_orbit_seq(p, i, 8)
            for n in range(9):
                assert ys[n] * states[n].u == xs[n] * states[n].v
            done += 1

    def test_special_case_collapse(self):
        rng = random.Random(79)
        for _ in range(15):
            a = F(rng.randint(-3, 3))
            b = F(rng.randint(-3, 3))
            if a == 0 and b == 0 or a + b == 0:
                continue
            x0 = F(rng.randint(1, 3), rng.randint(1, 2))
            p = SystemParams(a, b, a, b)
            xs, ys = direct_orbit(p, InitialPair(x0, x0), 6)
            for n in range(7):
                expected = pow_rational(x0, three_pow(n)) * pow_rational(
                    a + b, geometric_exponent(n)
                )
                assert xs[n] == expected == ys[n]
                assert cubic_coeff_solve([a + b] * n, x0, n).expand() == expected


class TestVerify:
    def test_all_equal(self):
        report = verify(params(1, 1, 1, 1), init(1, 1), 4)
        assert report.all_equal
        assert report.equal_by_n == [True] * 5

    def test_trivial_flagged(self):
        report = verify(params(1, 1, 1, -1), init(1, 1), 4)
        assert report.verdict.is_member and report.verdict.witness == 1
        assert report.trivial_zeros_confirmed is True

    def test_trivial_init_zeros(self):
        report = verify(params(2, 1, 1, 2), init(0, 1), 2)
        assert report.verdict.is_member and report.verdict.witness == 0
        assert report.trivial_zeros_confirmed is True

    def test_divergence_reported(self, monkeypatch):
        original = solve_module.reconstruct_general

        def negate_x_at_two(p, i, n):
            term = original(p, i, n)
            if n == 2:
                return OrbitTerm(n, term.x.times(FactoredValue.from_rational(F(-1))), term.y)
            return term

        monkeypatch.setattr(solve_module, "reconstruct_general", negate_x_at_two)
        report = verify(params(2, 1, 1, 2), init(1, 2), 3)
        assert report.equal_by_n == [True, True, False, True]
        assert report.first_divergence == 2
        assert report.all_equal is False
        assert report.to_dict()["first_divergence"] == 2

    def test_to_dict_shape(self):
        doc = verify(params(2, 1, 1, 2), init(1, 2), 3).to_dict()
        assert doc["case"] == "distinct"
        assert doc["all_equal"] is True
        assert doc["trivial"] == {"member": False}

    def test_to_dict_unknown_within_horizon(self):
        doc = verify(params(-3, -3, -3, 0), init(2, -3), 1, horizon=1).to_dict()
        assert doc["trivial"] == {"member": False, "unknown_within_horizon": 1}

    def test_negative_horizon(self):
        # not a TrivialSolutionEncountered from a case solver run on a member
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            verify(params(2, 1, 1, 0), init(0, 1), 2, horizon=-1)

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_divergence_in_y_alone(self, monkeypatch, n):
        p, i = params(2, 1, 1, 2), init(1, 2)
        original = solve_module._CASE_SOLVERS[classify(p)]

        def change_y(p, i, m):
            term = original(p, i, m)
            if m == n:
                return OrbitTerm(m, term.x, term.y.times(FactoredValue.from_rational(F(3, 2))))
            return term

        monkeypatch.setitem(solve_module._CASE_SOLVERS, classify(p), change_y)
        report = verify(p, i, 3)
        assert report.equal_by_n == [m != n for m in range(4)]
        assert report.first_divergence == n

    @pytest.mark.parametrize("coordinate", ["x", "y"])
    @pytest.mark.parametrize(
        "base,exp", [(F(2), 3**20), (F(3, 2), 1), (F(-1), 1)], ids=["huge", "small", "sign"]
    )
    def test_factor_in_both_paths_rejected(self, monkeypatch, coordinate, base, exp):
        # Both paths get the factor, so they agree with each other and only
        # the comparison with the direct term can tell.  2^(3^20) has about
        # 10^9 digits: that comparison must stop expanding early.
        p, i = params(2, 1, 1, 2), init(1, 2)
        factor = FactoredValue.build(1, [(base, exp)])

        def tamper(solver):
            def patched(p, i, n):
                term = solver(p, i, n)
                if n != 2:
                    return term
                if coordinate == "x":
                    return OrbitTerm(n, term.x.times(factor), term.y)
                return OrbitTerm(n, term.x, term.y.times(factor))
            return patched

        monkeypatch.setitem(
            solve_module._CASE_SOLVERS, classify(p), tamper(solve_module._CASE_SOLVERS[classify(p)])
        )
        monkeypatch.setattr(solve_module, "reconstruct_general", tamper(reconstruct_general))
        start = time.perf_counter()
        report = verify(p, i, 3)
        assert time.perf_counter() - start < 5
        assert report.equal_by_n == [True, True, False, True]

    def test_budget_refusal_is_that_of_iterate_direct(self):
        p, i = params(F(1, 2), 3, F(-2, 5), 1), init(F(3, 7), F(5, 2))
        last = iterate_direct(p, i, 6)[-1]
        est = max(estimated_digits(last.x.expand(), 3), estimated_digits(last.y.expand(), 3))
        assert verify(p, i, 7, digit_budget=est).equal_by_n == [True] * 8
        assert verify(p, i, 6, digit_budget=est - 1).all_equal
        for run in (iterate_direct, verify):
            with pytest.raises(DigitBudgetExceeded) as err:
                run(p, i, 7, digit_budget=est - 1)
            assert err.value.estimated_digits == est

    @pytest.mark.parametrize(
        "p,i",
        [
            (params(1, 2, 2, 4), init(1, 1)),
            (params(F(1, 2), 1, F(-1, 3), F(-2, 3)), init(2, F(3, 5))),
            (params(3, 1, -1, 1), init(1, 2)),
            (params(2, 1, 1, 2), init(1, 2)),
            (params(F(1, 2), 3, F(-2, 5), 1), init(F(3, 7), F(5, 2))),
            (params(1, 0, -2, 2), init(F(-3, 2), F(2, 3))),
            (params(1, 1, 1, -1), init(1, 2)),
            (params(1, 1, 1, -1), init(1, 1)),
            (params(2, 1, 1, 2), init(0, 1)),
        ],
        ids=["rank-deficient", "rank-deficient-fractional", "repeated", "distinct", "distinct-irrational",
             "distinct-fractional-seed", "antitrace", "antitrace-member", "distinct-member"],
    )
    def test_refusal_sweep_is_that_of_iterate_direct(self, p, i):
        # budgets one below, at and one above each step's estimate
        def refusal(run, depth, budget):
            try:
                run(p, i, depth, budget)
            except DigitBudgetExceeded as err:
                return err.estimated_digits
            return None

        terms = iterate_direct(p, i, 7)
        for depth in range(2, 9):
            estimates = [
                solve_module._step_digits((t.x.expand(),), (t.y.expand(),)) for t in terms[:depth]
            ]
            for budget in {est + k for est in estimates for k in (-1, 0, 1)}:
                want = refusal(iterate_direct, depth, budget)
                assert refusal(verify, depth, budget) == want, (depth, budget)

    def test_former_sympy_fallback_needs_no_canonical_key(self, monkeypatch):
        # expand's estimate refuses closed x_7 at this budget, so terms
        # were once compared by factoring bases with sympy.
        p, i = params(1, 0, -2, 2), init(F(-3, 2), F(2, 3))
        assert solve_distinct(p, i, 7).x.estimated_digits() > 1000

        def refuse(self):
            raise AssertionError("canonical_key called")

        monkeypatch.setattr(FactoredValue, "canonical_key", refuse)
        report = verify(p, i, 7, digit_budget=1000)
        assert report.equal_by_n == [True] * 8


def _inject(mp, p, n, coordinates, paths, factor):
    """Multiply the coordinates ("x", "y" or "xy") of term n by ``factor`` in
    the case solver, the reconstruction or both, through verify's hooks."""
    tag = classify(p)

    def tamper(solver):
        def patched(p, i, m):
            term = solver(p, i, m)
            if m != n:
                return term
            x = term.x.times(factor) if "x" in coordinates else term.x
            y = term.y.times(factor) if "y" in coordinates else term.y
            return OrbitTerm(m, x, y)
        return patched

    if paths in ("closed", "both"):
        mp.setitem(solve_module._CASE_SOLVERS, tag, tamper(solve_module._CASE_SOLVERS[tag]))
    if paths in ("recon", "both"):
        mp.setattr(solve_module, "reconstruct_general", tamper(solve_module.reconstruct_general))


def _direct_hooks(mp, p):
    """Both of verify's hooks answer with the directly iterated term, so
    that the orbit's zeros past the horizon reach the comparison."""

    def direct(p, i, n):
        return iterate_direct(p, i, n)[n]

    mp.setitem(solve_module._CASE_SOLVERS, classify(p), direct)
    mp.setattr(solve_module, "reconstruct_general", direct)


def _full_check_equal_by_n(p, i, depth, digit_budget, horizon):
    """verify's equal_by_n by its definition: each n by the four-argument
    _paths_agree against iterate_direct, over one shared basis."""
    verdict = zero_set_member(p, i, horizon)
    direct = iterate_direct(p, i, depth, digit_budget)
    if verdict.is_member:
        return []
    solver, basis = solve_module._CASE_SOLVERS[classify(p)], CoprimeBasis()
    return [
        solve_module._paths_agree(solver(p, i, n), solve_module.reconstruct_general(p, i, n), direct[n], basis)
        for n in range(depth + 1)
    ]


def _outcome(run):
    try:
        return run()
    except Exception as err:
        return type(err), getattr(err, "estimated_digits", None)


@st.composite
def rank_deficient_systems(draw):
    a, b = draw(entries), draw(entries)
    assume(a != 0 or b != 0)
    t = draw(rationals.filter(bool))
    return SystemParams(a, b, t * a, t * b)


@st.composite
def antitrace_systems(draw):
    a, b, c = draw(entries), draw(entries), draw(entries)
    assume(a * a + b * c != 0)  # the determinant, up to sign
    return SystemParams(a, b, c, -a)


@st.composite
def verify_inputs(draw):
    """A system of any case and a nonzero seed, or for a quarter of the
    invertible systems the seed A^-m e, whose u_m or v_m is zero: past the
    horizons drawn below for m > 3, and in the irrational distinct case
    the zero-set decision only scans up to the horizon."""
    p = draw(st.one_of(rank_deficient_systems(), repeated_systems(), distinct_systems(), antitrace_systems()))
    x0, y0 = draw(rationals.filter(bool)), draw(rationals.filter(bool))
    if p.det != 0 and draw(st.integers(0, 3)) == 0:
        x0, y0 = draw(st.sampled_from([(F(0), F(1)), (F(1), F(0))]))
        for _ in range(draw(st.integers(1, 6))):
            x0, y0 = (p.d * x0 - p.b * y0) / p.det, (p.a * y0 - p.c * x0) / p.det
    return p, InitialPair(x0, y0)


faults = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 8),
        st.sampled_from(["x", "y", "xy"]),
        st.sampled_from(["closed", "recon", "both"]),
        st.builds(
            lambda base, exp: FactoredValue.build(1, [(base, exp)]),
            st.sampled_from([F(-1), F(3, 2), F(2), F(1, 7)]),
            st.sampled_from([1, 2, 3**12]),
        ),
    ),
)


class TestVerifyLastStep:
    """verify checks term n >= 2 through its last two steps of the
    recurrence and multiplies out direct terms only up to x_{N-2}."""

    @staticmethod
    def tampered(monkeypatch, depth, n, coordinate, base, exp):
        p, i = params(2, 1, 1, 2), init(1, 2)
        _inject(monkeypatch, p, n, coordinate, "both", FactoredValue.build(1, [(base, exp)]))
        start = time.perf_counter()
        report = verify(p, i, depth)
        assert time.perf_counter() - start < 5
        return report.equal_by_n

    @pytest.mark.parametrize("depth", [3, 6])
    @pytest.mark.parametrize("coordinate", ["x", "y", "xy"])
    @pytest.mark.parametrize(
        "base,exp", [(F(2), 3**20), (F(3, 2), 1), (F(-1), 1)], ids=["huge", "small", "sign"]
    )
    def test_factor_in_both_paths_at_last_index(self, monkeypatch, depth, coordinate, base, exp):
        equal_by_n = self.tampered(monkeypatch, depth, depth, coordinate, base, exp)
        assert equal_by_n == [m != depth for m in range(depth + 1)]

    @pytest.mark.parametrize("depth", [3, 6])
    @pytest.mark.parametrize("coordinate", ["x", "y"])
    @pytest.mark.parametrize(
        "base,exp", [(F(2), 3**20), (F(3, 2), 1), (F(-1), 1)], ids=["huge", "small", "sign"]
    )
    def test_last_index_after_a_fault_takes_the_full_check(self, monkeypatch, depth, coordinate, base, exp):
        equal_by_n = self.tampered(monkeypatch, depth, depth - 1, coordinate, base, exp)
        assert equal_by_n == [m != depth - 1 for m in range(depth + 1)]

    def test_zero_past_the_horizon_takes_the_full_check(self, monkeypatch):
        # irrational eigenvalues and the seed A^-2 (0, 1): u_2 = 0, so x_2 = 0
        # by a zero linear factor and every later x_n y_n = 0
        p, i = params(1, 1, 1, 2), init(-3, 2)
        assert direct_orbit(p, i, 2)[0][2] == 0
        _direct_hooks(monkeypatch, p)
        assert verify(p, i, 5, horizon=0).equal_by_n == [True] * 6

    def test_no_expansion_near_the_size_of_the_last_term(self, monkeypatch):
        # x_8 has 8,652 bits; A (lx_7, ly_7) and x_6 about a ninth of that
        p, i = params(2, 1, 1, 2), init(1, 2)
        sizes = []
        expand_exponents, next_term = solve_module.expand_exponents, solve_module._next_term

        def record_caps(vec, num_bits, den_bits):
            sizes.append(max(num_bits, den_bits))
            return expand_exponents(vec, num_bits, den_bits)

        def record_terms(*args):
            out = next_term(*args)
            sizes.extend(max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in out)
            return out

        monkeypatch.setattr(solve_module, "expand_exponents", record_caps)
        monkeypatch.setattr(solve_module, "_next_term", record_terms)
        assert verify(p, i, 8).equal_by_n == [True] * 9
        x8 = direct_orbit(p, i, 8)[0][8]
        assert sizes and max(sizes) < x8.numerator.bit_length() // 6

    @pytest.mark.parametrize("digit_budget", range(162, 169))
    def test_last_step_budget_certificate(self, monkeypatch, digit_budget):
        # step 6 needs 164 digits; the bound from the bits of x_4, y_4 and
        # (lx_5, ly_5) is 167, so budgets 164-166 form x_5 for _step
        p, i = params(1, 0, -2, 2), init(F(-3, 2), F(2, 3))
        want = (DigitBudgetExceeded, 164) if digit_budget < 164 else True
        assert _outcome(lambda: len(iterate_direct(p, i, 6, digit_budget)) == 7) == want
        steps = []
        step = solve_module._step

        def record(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(solve_module, "_step", record)
        assert _outcome(lambda: verify(p, i, 6, digit_budget).all_equal) == want
        assert len(steps) == (5 if digit_budget >= 167 else 6)

    def test_fault_two_steps_back_takes_the_full_checks(self, monkeypatch):
        p, i, depth = params(2, 1, 1, 2), init(1, 2), 6
        _inject(monkeypatch, p, depth - 2, "x", "both", FactoredValue.build(1, [(F(3, 2), 1)]))
        scales = []
        paths_agree = solve_module._paths_agree

        def record(*args):
            scales.append(len(args) > 4)
            return paths_agree(*args)

        monkeypatch.setattr(solve_module, "_paths_agree", record)
        assert verify(p, i, depth).equal_by_n == [m != depth - 2 for m in range(depth + 1)]
        assert scales == [False, False, True, True, True, False, False]

    @given(
        inputs=verify_inputs(),
        depth=st.integers(0, 8),
        horizon=st.integers(0, 3),
        digit_budget=st.sampled_from([1000, 3000]),
        direct_hooks=st.booleans(),
        fault=faults,
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_by_n_is_that_of_the_full_check(self, inputs, depth, horizon, digit_budget, direct_hooks, fault):
        p, i = inputs
        with pytest.MonkeyPatch.context() as mp:
            if direct_hooks:
                _direct_hooks(mp, p)
            if fault is not None:
                _inject(mp, p, *fault)
            got = _outcome(lambda: verify(p, i, depth, digit_budget, horizon).equal_by_n)
            want = _outcome(lambda: _full_check_equal_by_n(p, i, depth, digit_budget, horizon))
        assert got == want


@pytest.mark.parametrize(
    "fn,args",
    [
        (solve, (params(2, 1, 1, 2), init(1, 2), -1)),
        (solve, (params(3, 1, -1, 1), init(1, 2), -1)),
        (solve, (params(3, 1, -1, 1), init(1, 2), -2)),
        (solve, (params(1, 1, 1, -1), init(1, 1), -1)),
        (solve_distinct, (params(2, 1, 1, 2), init(1, 2), -1)),
        (solve_repeated, (params(3, 1, -1, 1), init(1, 2), -1)),
        (solve_rank_deficient, (params(1, 1, 1, 1), init(1, 1), -1)),
        (solve_antitrace, (params(1, 1, 1, -1), init(1, 2), -1)),
        (reconstruct_general, (params(2, 1, 1, 2), init(1, 2), -1)),
        (cubic_coeff_solve, ([], F(2), -1)),
        (iterate_direct, (params(2, 1, 1, 2), init(1, 2), -1)),
        (verify, (params(2, 1, 1, 2), init(1, 2), -1)),
        # the index is checked before the parameters and the horizon
        (solve, (params(1, 1, 0, 0), init(1, 2), -1)),
        (verify, (params(1, 1, 0, 0), init(1, 2), -1)),
        (solve, (params(2, 1, 1, 2), init(1, 2), -1, -1)),
        (verify, (params(2, 1, 1, 2), init(1, 2), -1, 1000, -1)),
    ],
    ids=[
        "solve-distinct", "solve-repeated", "solve-repeated-n-2", "solve-member",
        "solve_distinct", "solve_repeated", "solve_rank_deficient", "solve_antitrace",
        "reconstruct_general", "cubic_coeff_solve", "iterate_direct", "verify",
        "solve-degenerate", "verify-degenerate", "solve-negative-horizon", "verify-negative-horizon",
    ],
)
def test_negative_index_rejected(fn, args):
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        fn(*args)


def _orbit_term(x, y):
    return OrbitTerm(0, FactoredValue.from_rational(F(x)), FactoredValue.from_rational(F(y)))


class TestPathsAgreeZeroTerms:
    @pytest.mark.parametrize("x,y", [(0, F(3, 2)), (F(-2, 3), 0), (0, 0)])
    def test_zero_in_all_three_paths_agrees(self, x, y):
        # closed x_n as x * 3^2 * (1/9), factored otherwise than the others
        closed_x = FactoredValue.build(1, [(F(x), 1), (F(3), 2), (F(1, 9), 1)])
        closed = OrbitTerm(0, closed_x, FactoredValue.from_rational(F(y)))
        term = _orbit_term(x, y)
        assert solve_module._paths_agree(closed, term, term, CoprimeBasis())

    @pytest.mark.parametrize(
        "closed,recon,direct",
        [
            ((0, 5), (0, 5), (7, 5)),
            ((7, 5), (7, 5), (0, 5)),
            ((7, 0), (7, 0), (7, 5)),
            ((7, 5), (7, 5), (7, 0)),
            ((0, 0), (0, 0), (7, F(-5, 2))),
            ((0, 5), (7, 5), (0, 5)),
            ((7, 0), (7, 5), (7, 0)),
        ],
    )
    def test_zero_against_nonzero_disagrees(self, closed, recon, direct):
        terms = (_orbit_term(*closed), _orbit_term(*recon), _orbit_term(*direct))
        assert not solve_module._paths_agree(*terms, CoprimeBasis())
