import random
from fractions import Fraction

import pytest

from cubicorbit.errors import (
    CaseMismatch,
    DegenerateParameters,
    TrivialSolutionEncountered,
    UnknownWithinHorizon,
)
from cubicorbit.exact import geometric_exponent, pow_rational, three_pow
from cubicorbit.linearize import InitialPair, linear_orbit_seq
from cubicorbit.matrix import CaseTag, SystemParams, classify
from cubicorbit.solve import (
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

from helpers import direct_orbit, first_orbit_zero, random_init, random_params

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

    def test_to_dict_shape(self):
        doc = verify(params(2, 1, 1, 2), init(1, 2), 3).to_dict()
        assert doc["case"] == "distinct"
        assert doc["all_equal"] is True
        assert doc["trivial"] == {"member": False}
