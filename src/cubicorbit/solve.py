"""Closed-form solution families for the cubic system

    x_{n+1} = a x_n^2 y_n + b x_n y_n^2,
    y_{n+1} = c x_n^2 y_n + d x_n y_n^2,

one family per parameter case, plus two independent cross-checks: a direct
iteration oracle and a general reconstruction through the linearizing
change of variables.  Terms have Theta(3^n) digits when expanded, so every
solver returns a FactoredValue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    CaseMismatch,
    DigitBudgetExceeded,
    TrivialSolutionEncountered,
    UnknownWithinHorizon,
)
from .exact import DEFAULT_DIGIT_BUDGET, FactoredValue, geometric_exponent, antitrace_exponents, three_pow
from .linearize import InitialPair, antitrace_ratios, linear_orbit_seq, repeated_ratio_constants
from .matrix import CaseTag, SystemParams, classify
from .zerosets import DEFAULT_HORIZON, Membership, ZeroSetVerdict, z0_member, z2_member, z3_member, zero_set_member


@dataclass(frozen=True)
class OrbitTerm:
    n: int
    x: FactoredValue
    y: FactoredValue


@dataclass(frozen=True)
class TrivialReport:
    """The orbit is eventually trivial: x_m = y_m = 0 for all m > witness."""

    witness: int
    case: CaseTag


def _term_from_rationals(n: int, x: Fraction, y: Fraction) -> OrbitTerm:
    return OrbitTerm(n, FactoredValue.from_rational(x), FactoredValue.from_rational(y))


def _initial_term(init: InitialPair) -> OrbitTerm:
    return _term_from_rationals(0, init.x0, init.y0)


def iterate_direct(
    p: SystemParams, init: InitialPair, n: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> list[OrbitTerm]:
    """Terms 0..n by the literal recurrence; the oracle for everything else."""
    terms = [_initial_term(init)]
    x, y = init.x0, init.y0
    for k in range(1, n + 1):
        digits = max(
            abs(x.numerator).bit_length() + x.denominator.bit_length(),
            abs(y.numerator).bit_length() + y.denominator.bit_length(),
        ) * 30103 // 100000 + 1
        # each step roughly cubes the digit count
        if 3 * digits > digit_budget:
            raise DigitBudgetExceeded(3 * digits, digit_budget)
        x, y = x * y * (p.a * x + p.b * y), x * y * (p.c * x + p.d * y)
        terms.append(_term_from_rationals(k, x, y))
    return terms


def cubic_coeff_solve(coeffs: list[Fraction], x0: Fraction, n: int) -> FactoredValue:
    """Solution x_n = x0^(3^n) * prod a_k^(3^(n-k-1)) of x_{k+1} = a_k x_k^3."""
    if n > len(coeffs):
        raise ValueError("need at least n coefficients")
    if any(a == 0 for a in coeffs):
        raise ValueError("coefficients must be nonzero")
    factors = [(x0, three_pow(n))]
    factors += [(coeffs[k], three_pow(n - k - 1)) for k in range(n)]
    return FactoredValue.build(1, factors)


def solve_rank_deficient(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    if p.det != 0:
        raise CaseMismatch("requires ad - bc = 0")
    verdict = z0_member(p, init)
    if verdict.is_member:
        raise TrivialSolutionEncountered(verdict.witness)
    if n == 0:
        return _initial_term(init)
    # y_n / x_n is the constant t from the proportional rows; a = 0 forces
    # c = 0 here, so the d/b fallback is always well defined.
    t = p.c / p.a if p.a != 0 else p.d / p.b
    K = p.a * t + p.b * t * t
    x1 = init.x0 * init.y0 * (p.a * init.x0 + p.b * init.y0)
    x = FactoredValue.build(1, [(x1, three_pow(n - 1)), (K, geometric_exponent(n - 1))])
    return OrbitTerm(n, x, x.times(FactoredValue.from_rational(t)))


def solve_repeated(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    if p.det == 0 or p.discriminant != 0:
        raise CaseMismatch("requires ad - bc != 0 and zero discriminant")
    verdict = z2_member(p, init)
    if verdict.is_member:
        raise TrivialSolutionEncountered(verdict.witness)
    rc = repeated_ratio_constants(p, init)
    rho = [(rc.c3 + rc.c4 * k) / (rc.c1 + rc.c2 * k) for k in range(n + 1)]
    x = cubic_coeff_solve([p.a * r + p.b * r * r for r in rho[:n]], init.x0, n)
    return OrbitTerm(n, x, x.times(FactoredValue.from_rational(rho[n])))


def solve_distinct(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    if classify(p) is not CaseTag.DISTINCT:
        raise CaseMismatch("requires distinct eigenvalues and nonzero trace")
    states = linear_orbit_seq(p, init, n)
    for st in states:
        if st.u == 0 or st.v == 0:
            raise TrivialSolutionEncountered(st.n)
    # a r_k + b r_k^2 = v_k u_{k+1} / u_k^2 with r_k = v_k / u_k
    coeffs = [st.v * nxt.u / (st.u * st.u) for st, nxt in zip(states, states[1:])]
    x = cubic_coeff_solve(coeffs, init.x0, n)
    r_n = states[n].v / states[n].u
    return OrbitTerm(n, x, x.times(FactoredValue.from_rational(r_n)))


def solve_antitrace(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    if classify(p) is not CaseTag.ANTITRACE_DISTINCT:
        raise CaseMismatch("requires distinct eigenvalues and a + d = 0")
    verdict = z3_member(p, init)
    if verdict.is_member:
        raise TrivialSolutionEncountered(verdict.witness)
    r_even, r_odd = antitrace_ratios(p, init)
    base_even = p.a * r_even + p.b * r_even * r_even
    base_odd = p.a * r_odd + p.b * r_odd * r_odd
    m, odd = divmod(n, 2)
    exp_even, exp_odd = antitrace_exponents(m)
    if odd:
        x = FactoredValue.build(
            1,
            [(init.x0, three_pow(n)), (base_even, 3 * exp_odd + 1), (base_odd, exp_odd)],
        )
        ratio_n = r_odd
    else:
        x = FactoredValue.build(
            1,
            [(init.x0, three_pow(n)), (base_even, 3 * exp_even), (base_odd, exp_even)],
        )
        ratio_n = r_even
    return OrbitTerm(n, x, x.times(FactoredValue.from_rational(ratio_n)))


_CASE_SOLVERS = {
    CaseTag.RANK_DEFICIENT: solve_rank_deficient,
    CaseTag.REPEATED: solve_repeated,
    CaseTag.DISTINCT: solve_distinct,
    CaseTag.ANTITRACE_DISTINCT: solve_antitrace,
}


def solve(
    p: SystemParams,
    init: InitialPair,
    n: int,
    horizon: int = DEFAULT_HORIZON,
):
    """Full pipeline: zero-set check, then the matching case solver.

    Returns an OrbitTerm, or a TrivialReport when the initial pair lies in
    the case's zero set; zero_set_member rejects degenerate parameters.
    """
    tag = classify(p)
    verdict = zero_set_member(p, init, horizon)
    if verdict.is_member:
        return TrivialReport(witness=verdict.witness, case=tag)
    if verdict.status is Membership.UNKNOWN_WITHIN_HORIZON and n > verdict.horizon:
        # the scan only cleared the prefix up to the horizon
        raise UnknownWithinHorizon(verdict.horizon)
    return _CASE_SOLVERS[tag](p, init, n)


def reconstruct_general(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    """Second, case-independent path: x_n = u_n * prod (u_k v_k)^(3^(n-1-k))."""
    states = linear_orbit_seq(p, init, n)
    for st in states[:n]:
        if st.u * st.v == 0:
            raise TrivialSolutionEncountered(st.n)
    prod = cubic_coeff_solve([st.u * st.v for st in states[:n]], 1, n)
    return OrbitTerm(
        n,
        prod.times(FactoredValue.from_rational(states[n].u)),
        prod.times(FactoredValue.from_rational(states[n].v)),
    )


def _terms_equal(s: OrbitTerm, t: OrbitTerm, digit_budget: int) -> bool:
    try:
        return (
            s.x.expand(digit_budget) == t.x.expand(digit_budget)
            and s.y.expand(digit_budget) == t.y.expand(digit_budget)
        )
    except DigitBudgetExceeded:
        return (
            s.x.canonical_key() == t.x.canonical_key()
            and s.y.canonical_key() == t.y.canonical_key()
        )


@dataclass
class VerificationReport:
    case: CaseTag
    verdict: ZeroSetVerdict
    depth: int
    equal_by_n: list[bool] = field(default_factory=list)
    first_divergence: Optional[int] = None
    trivial_zeros_confirmed: Optional[bool] = None

    @property
    def all_equal(self) -> bool:
        return all(self.equal_by_n) and self.first_divergence is None

    def to_dict(self) -> dict:
        out = {
            "case": self.case.value,
            "depth": self.depth,
            "trivial": {
                "member": self.verdict.is_member,
            },
        }
        if self.verdict.witness is not None:
            out["trivial"]["witness"] = self.verdict.witness
        if self.verdict.status is Membership.UNKNOWN_WITHIN_HORIZON:
            out["trivial"]["unknown_within_horizon"] = self.verdict.horizon
        if self.trivial_zeros_confirmed is not None:
            out["trivial"]["zeros_confirmed"] = self.trivial_zeros_confirmed
        out["equal_by_n"] = list(self.equal_by_n)
        if self.first_divergence is not None:
            out["first_divergence"] = self.first_divergence
        out["all_equal"] = self.all_equal
        return out


def verify(
    p: SystemParams,
    init: InitialPair,
    depth: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
    horizon: int = DEFAULT_HORIZON,
) -> VerificationReport:
    """Run the case solver, the general reconstruction and direct iteration
    side by side and report exact agreement term by term."""
    tag = classify(p)
    verdict = zero_set_member(p, init, horizon)
    report = VerificationReport(case=tag, verdict=verdict, depth=depth)
    direct = iterate_direct(p, init, depth, digit_budget)
    if verdict.is_member:
        confirmed = all(
            direct[m].x.sign == 0 and direct[m].y.sign == 0
            for m in range(verdict.witness + 1, depth + 1)
        )
        report.trivial_zeros_confirmed = confirmed
        return report
    solver = _CASE_SOLVERS[tag]
    for n in range(depth + 1):
        closed = solver(p, init, n)
        recon = reconstruct_general(p, init, n)
        ok = _terms_equal(closed, direct[n], digit_budget) and _terms_equal(
            recon, direct[n], digit_budget
        )
        report.equal_by_n.append(ok)
        if not ok and report.first_divergence is None:
            report.first_divergence = n
    return report
