import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicorbit.errors import CaseMismatch, DegenerateParameters
from cubicorbit.linearize import InitialPair
from cubicorbit.matrix import CaseTag, SystemParams
from cubicorbit.zerosets import (
    Membership,
    z0_member,
    z1_member,
    z2_member,
    z3_member,
    zero_set_member,
)

from helpers import direct_orbit, first_orbit_zero, random_init, random_params

F = Fraction


def params(a, b, c, d):
    return SystemParams(F(a), F(b), F(c), F(d))


def init(x0, y0):
    return InitialPair(F(x0), F(y0))


class TestZ0:
    def test_annihilating_combination(self):
        v = z0_member(params(1, 1, 1, 1), init(1, -1))
        assert v.is_member and v.witness == 1
        xs, ys = direct_orbit(params(1, 1, 1, 1), init(1, -1), 4)
        assert xs[1] == 0 and all(x == 0 for x in xs[2:]) and all(y == 0 for y in ys[2:])

    def test_zero_coordinate(self):
        v = z0_member(params(1, 1, 1, 1), init(0, 5))
        assert v.is_member and v.witness == 0

    def test_nilpotent_everything_is_member(self):
        p = params(1, 1, -1, -1)
        v = z0_member(p, init(1, 2))
        assert v.is_member and v.witness == 2
        xs, ys = direct_orbit(p, init(1, 2), 5)
        assert all(x == 0 for x in xs[3:]) and all(y == 0 for y in ys[3:])

    def test_non_member(self):
        v = z0_member(params(1, 1, 1, 1), init(2, 3))
        assert v.status is Membership.NON_MEMBER

    def test_zero_a_row(self):
        # a = 0 forces c = 0 under nondegeneracy; condition still b*y0 = 0
        p = params(0, 1, 0, 2)
        assert z0_member(p, init(3, 0)).is_member
        assert z0_member(p, init(3, 1)).status is Membership.NON_MEMBER

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            z0_member(params(2, 1, 1, 2), init(1, 1))


class TestZ1:
    def test_member_after_one_step(self):
        v = z1_member(params(2, 1, 1, 2), init(1, -2), 64)
        assert v.is_member and v.witness == 1
        xs, _ = direct_orbit(params(2, 1, 1, 2), init(1, -2), 3)
        assert xs[2] == 0  # u_1 = 0 kills x from the next index

    def test_non_member_analytic(self):
        v = z1_member(params(2, 1, 1, 2), init(1, 1), 64)
        assert v.status is Membership.NON_MEMBER

    def test_member_at_zero(self):
        v = z1_member(params(2, 1, 1, 2), init(0, 1), 64)
        assert v.is_member and v.witness == 0

    def test_irrational_unknown_within_horizon(self):
        # eigenvalues 1 +/- sqrt(2): no analytic decision implemented
        p = params(2, 1, 1, 0)
        v = z1_member(p, init(2, 3), 16)
        assert v.status is Membership.UNKNOWN_WITHIN_HORIZON
        assert v.horizon == 16

    def test_irrational_member_found_by_scan(self):
        p = params(2, 1, 1, 0)
        v = z1_member(p, init(0, 3), 16)
        assert v.is_member and v.witness == 0

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            z1_member(params(1, 1, 1, -1), init(1, 1), 16)

    @pytest.mark.parametrize("p", [params(2, 1, 1, 0), params(2, 1, 1, 2)])
    def test_negative_horizon(self, p):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            z1_member(p, init(0, 1), -1)


NONZERO_RATIONALS = st.builds(
    Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)
)


@st.composite
def diagonalized(draw):
    """A = S diag(l1, l2) S^-1 with rational |l1| != |l2|, and the integer S."""
    l1, l2 = draw(
        st.tuples(NONZERO_RATIONALS, NONZERO_RATIONALS).filter(lambda ls: abs(ls[0]) != abs(ls[1]))
    )
    s11, s12, s21, s22 = draw(
        st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda s: s[0] * s[3] != s[1] * s[2])
    )
    det = s11 * s22 - s12 * s21
    # rows of S diag(l1, l2) times the columns of adj(S) / det
    a = (s11 * l1 * s22 - s12 * l2 * s21) / det
    b = (-s11 * l1 * s12 + s12 * l2 * s11) / det
    c = (s21 * l1 * s22 - s22 * l2 * s21) / det
    d = (-s21 * l1 * s12 + s22 * l2 * s11) / det
    return SystemParams(a, b, c, d), (s11, s12, s21, s22), (l1, l2)


class TestRationalStoppingRule:
    """The scan of distinct rational eigenvalues stops once both rows are
    settled; that must neither miss a late zero nor stop short of the first.
    With (u_n, v_n) = S (l1^n w1, l2^n w2), a seed S (w1, w2) is built to
    vanish at a drawn m, or is an eigenvector (w1 = 0 or w2 = 0), where one
    of P and Q is zero."""

    @staticmethod
    def check(p, i):
        verdict = z1_member(p, i)
        scanned = first_orbit_zero(p, i, 200)
        if verdict.is_member:
            assert verdict.witness == scanned
        else:
            assert verdict.status is Membership.NON_MEMBER
            assert scanned is None

    @settings(max_examples=150, deadline=None)
    @given(diagonalized(), st.integers(0, 60), st.booleans())
    def test_seed_built_to_vanish(self, system, m, second_row):
        p, (s11, s12, s21, s22), (l1, l2) = system
        # row (r1, r2) of S is zero at m for w = (r2 l2^m, -r1 l1^m)
        r1, r2 = (s21, s22) if second_row else (s11, s12)
        w1, w2 = r2 * l2**m, -r1 * l1**m
        i = InitialPair(s11 * w1 + s12 * w2, s21 * w1 + s22 * w2)
        assert first_orbit_zero(p, i, m) is not None
        self.check(p, i)

    @settings(max_examples=150, deadline=None)
    @given(diagonalized(), NONZERO_RATIONALS, st.booleans())
    def test_eigenvector_seed(self, system, w, first):
        p, (s11, s12, s21, s22), _ = system
        w1, w2 = (w, 0) if first else (0, w)
        self.check(p, InitialPair(s11 * w1 + s12 * w2, s21 * w1 + s22 * w2))


class TestZ2:
    def test_member_with_late_witness(self):
        v = z2_member(params(3, 1, -1, 1), init(1, -2))
        assert v.is_member and v.witness == 2

    def test_member_from_second_row(self):
        # y_1 = c x0^2 y0 + d x0 y0^2 = -1 + 1 = 0
        v = z2_member(params(3, 1, -1, 1), init(1, 1))
        assert v.is_member and v.witness == 1
        _, ys = direct_orbit(params(3, 1, -1, 1), init(1, 1), 2)
        assert ys[1] == 0

    def test_non_member(self):
        # both linear roots are non-integer: -4/3 and 2/3
        v = z2_member(params(3, 1, -1, 1), init(2, 1))
        assert v.status is Membership.NON_MEMBER

    def test_member_at_zero(self):
        v = z2_member(params(3, 1, -1, 1), init(0, 1))
        assert v.is_member and v.witness == 0

    def test_analytic_root_agrees_with_scan(self):
        rng = random.Random(47)
        for _ in range(200):
            p = random_params(rng, CaseTag.REPEATED)
            i = random_init(rng)
            verdict = z2_member(p, i)
            scanned = first_orbit_zero(p, i, 100)
            if verdict.is_member and verdict.witness <= 100:
                assert scanned == verdict.witness
            else:
                assert scanned is None

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            z2_member(params(2, 1, 1, 2), init(1, 1))


class TestZ3:
    def test_second_condition(self):
        v = z3_member(params(1, 1, 1, -1), init(1, 1))
        assert v.is_member and v.witness == 1
        _, ys = direct_orbit(params(1, 1, 1, -1), init(1, 1), 3)
        assert ys[1] == 0

    def test_non_member(self):
        v = z3_member(params(1, 1, 1, -1), init(1, 2))
        assert v.status is Membership.NON_MEMBER

    def test_zero_coordinate(self):
        v = z3_member(params(1, 1, 1, -1), init(0, 3))
        assert v.is_member and v.witness == 0

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            z3_member(params(2, 1, 1, 2), init(1, 1))


class TestDispatcher:
    def test_degenerate(self):
        with pytest.raises(DegenerateParameters):
            zero_set_member(params(0, 0, 1, 1), init(1, 1))
        with pytest.raises(DegenerateParameters):
            zero_set_member(params(1, 1, 0, 0), init(1, 1))

    @pytest.mark.parametrize(
        "p",
        [params(1, 1, 1, 1), params(3, 1, -1, 1), params(2, 1, 1, 0), params(2, 1, 1, 2),
         params(1, 1, 1, -1), params(0, 0, 1, 1)],
    )
    def test_negative_horizon(self, p):
        # in every case, the degenerate one included, before any decision
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            zero_set_member(p, init(0, 1), -1)

    def test_examples(self):
        assert zero_set_member(params(1, 1, 1, 1), init(2, 3)).status is Membership.NON_MEMBER
        assert zero_set_member(params(1, 1, 1, -1), init(1, 1)).is_member

    def test_soundness_and_completeness(self):
        # member witnesses are real zeros; scans never miss a zero
        rng = random.Random(53)
        tags = [CaseTag.RANK_DEFICIENT, CaseTag.REPEATED, CaseTag.DISTINCT, CaseTag.ANTITRACE_DISTINCT]
        for trial in range(240):
            p = random_params(rng, tags[trial % 4])
            i = random_init(rng)
            verdict = zero_set_member(p, i, 20)
            scanned = first_orbit_zero(p, i, 20)
            if verdict.is_member:
                if verdict.witness <= 20:
                    assert scanned == verdict.witness
                w = verdict.witness
                if w <= 6:
                    xs, ys = direct_orbit(p, i, w + 5)
                    assert all(x == 0 for x in xs[w + 1 :])
                    assert all(y == 0 for y in ys[w + 1 :])
            elif verdict.status is Membership.NON_MEMBER:
                assert scanned is None
            else:
                assert scanned is None  # unknown must not co-occur with a found zero
