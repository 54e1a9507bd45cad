import random
from fractions import Fraction

import pytest

from cubicorbit.errors import TrivialSolutionEncountered
from cubicorbit.exact import QuadScalar
from cubicorbit.linearize import (
    InitialPair,
    antitrace_ratios,
    distinct_orbit_coefficients,
    linear_orbit,
    linear_orbit_seq,
    ratio,
    repeated_ratio_constants,
)
from cubicorbit.matrix import CaseTag, SystemParams, classify, eigenvalues

from helpers import random_init, random_params

F = Fraction


def params(a, b, c, d):
    return SystemParams(F(a), F(b), F(c), F(d))


def init(x0, y0):
    return InitialPair(F(x0), F(y0))


class TestLinearOrbit:
    def test_one_step(self):
        state = linear_orbit(params(2, 1, 1, 2), init(1, 2), 1)
        assert (state.u, state.v) == (F(4), F(5))

    def test_starts_at_init(self):
        state = linear_orbit(params(3, 1, -1, 1), init(5, -7), 0)
        assert (state.u, state.v) == (F(5), F(-7))

    def test_proportional_rows_annihilate(self):
        state = linear_orbit(params(1, 1, 1, 1), init(1, -1), 1)
        assert (state.u, state.v) == (F(0), F(0))

    def test_seq_matches_explicit_steps(self):
        rng = random.Random(31)
        for _ in range(40):
            p = random_params(rng)
            i = random_init(rng)
            states = linear_orbit_seq(p, i, 20)
            for n in range(20):
                u, v = states[n].u, states[n].v
                assert states[n + 1].u == p.a * u + p.b * v
                assert states[n + 1].v == p.c * u + p.d * v

    def test_seq_matches_matrix_power(self):
        rng = random.Random(37)
        for _ in range(30):
            p = random_params(rng)
            i = random_init(rng)
            states = linear_orbit_seq(p, i, 10)
            for n in (0, 3, 7, 10):
                st = linear_orbit(p, i, n)
                assert (st.u, st.v) == (states[n].u, states[n].v)

    def test_seq_n_zero_is_the_seed(self):
        assert linear_orbit_seq(params(2, 1, 1, 2), init(1, 2), 0) == [(0, F(1), F(2))]

    @pytest.mark.parametrize("n", [-1, -5])
    def test_seq_rejects_negative_n(self, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            linear_orbit_seq(params(2, 1, 1, 2), init(1, 2), n)


class TestRatio:
    def test_one_step(self):
        assert ratio(params(2, 1, 1, 2), init(1, 2), 1) == F(5, 4)

    def test_at_zero(self):
        assert ratio(params(2, 1, 1, 2), init(3, 7), 0) == F(7, 3)

    def test_repeated_case_formula(self):
        p = params(3, 1, -1, 1)
        i = init(1, 2)
        assert ratio(p, i, 1) == F(1, 5)
        rc = repeated_ratio_constants(p, i)
        assert (rc.c1, rc.c2, rc.c3, rc.c4) == (F(2), F(3), F(4), F(-3))
        for n in range(8):
            assert ratio(p, i, n) == (rc.c3 + rc.c4 * n) / (rc.c1 + rc.c2 * n)

    def test_trivial_orbit_raises(self):
        with pytest.raises(TrivialSolutionEncountered) as err:
            ratio(params(1, 1, 1, 1), init(1, -1), 1)
        assert err.value.witness == 1

    def test_distinct_case_formula_cross_check(self):
        # ratio from the orbit equals (R l1^n - S l2^n) / (P l1^n - Q l2^n)
        rng = random.Random(41)
        checked = 0
        while checked < 25:
            p = random_params(rng, CaseTag.DISTINCT)
            i = random_init(rng)
            if i.x0 == 0 or i.y0 == 0:
                continue
            eig = eigenvalues(p)
            P, Q, R, S = distinct_orbit_coefficients(p, i)
            for n in range(6):
                num = R * eig.lam1**n - S * eig.lam2**n
                den = P * eig.lam1**n - Q * eig.lam2**n
                if isinstance(den, QuadScalar):
                    if den.is_zero():
                        break
                    formula = num / den
                    assert formula.q == 0
                    formula = formula.p
                else:
                    if den == 0:
                        break
                    formula = num / den
                assert ratio(p, i, n) == formula
            checked += 1


class TestAntitraceRatios:
    def test_example(self):
        assert antitrace_ratios(params(1, 1, 1, -1), init(1, 2)) == (F(2), F(-1, 3))

    def test_symmetric_init(self):
        p = params(2, 1, 3, -2)
        even, odd = antitrace_ratios(p, init(3, 3))
        assert even == 1
        assert odd == (p.c + p.d) / (p.a + p.b)

    def test_rotation_like(self):
        assert antitrace_ratios(params(0, 1, -1, 0), init(1, 1)) == (F(1), F(-1))

    def test_vanishing_denominator(self):
        with pytest.raises(TrivialSolutionEncountered):
            antitrace_ratios(params(1, 1, 1, -1), init(0, 1))
        with pytest.raises(TrivialSolutionEncountered):
            antitrace_ratios(params(1, 1, 1, -1), init(1, -1))

    def test_parity_collapse(self):
        rng = random.Random(43)
        checked = 0
        while checked < 25:
            p = random_params(rng, CaseTag.ANTITRACE_DISTINCT)
            i = random_init(rng)
            if i.x0 * i.y0 == 0 or p.a * i.x0 + p.b * i.y0 == 0:
                continue
            if p.c * i.x0 + p.d * i.y0 == 0:
                continue
            even, odd = antitrace_ratios(p, i)
            for n in range(9):
                assert ratio(p, i, 2 * n) == even
                assert ratio(p, i, 2 * n + 1) == odd
            checked += 1
