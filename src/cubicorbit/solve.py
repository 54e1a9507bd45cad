"""Closed-form solution families for the cubic system

    x_{n+1} = a x_n^2 y_n + b x_n y_n^2,
    y_{n+1} = c x_n^2 y_n + d x_n y_n^2,

one family per parameter case, plus two independent cross-checks: a direct
iteration oracle and a general reconstruction through the linearizing
change of variables.  Terms have Theta(3^n) digits when expanded, so every
solver returns a FactoredValue.

All four case solvers read their tower bases a r_k + b r_k^2 and the
ratio r_n from one integer walk of r_k = v_k / u_k (``_ratio_walk``); only
the exponents of the closed form are case-specific.  In the rank-deficient
and trace-zero cases a zero comes by k = 2 or never, so the walk's own
first-zero check decides the zero set there.  No step multiplies two long
numbers: the walk carries the squares and the product of its integer
vector through the symmetric square of the matrix, and each base is
reduced by gcds against small constants of the matrix.  The cross-checks
keep the Fraction orbit of ``linear_orbit_seq``, so they stay independent
of that walk.

``verify`` checks term n >= 2 through its last two steps of the literal
recurrence.  With P_k = x_k y_k and (lx_k, ly_k) = A (x_{k-1}, y_{k-1}),
step k gives (x_k, y_k) = P_{k-1} (lx_k, ly_k), and two steps give
(x_n, y_n) = P_{n-1} P_{n-2} A (lx_{n-1}, ly_{n-1}), the identity that makes
the system linear in (u_n, v_n).  Once terms n - 1 and n - 2 have agreed on
all three paths, only A (lx_{n-1}, ly_{n-1}) is compared, so no expansion
grows past about a ninth of x_n's digits, and the direct walk stops at
x_{N-2}.  ``_Walk`` is the one walk of the recurrence: ``iterate_direct``
and ``verify`` read their terms and linear factors from it, and each
factor A (x, y) is formed by ``_step`` with ``Mat2.apply`` under the digit
budget.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    DigitBudgetExceeded,
    TrivialSolutionEncountered,
    UnknownWithinHorizon,
)
from .exact import (
    DEFAULT_DIGIT_BUDGET,
    ONE,
    CoprimeBasis,
    FactoredValue,
    antitrace_exponents,
    bits_digits,
    coprime_fraction,
    expand_exponents,
    geometric_exponent,
    three_pow,
)
from .linearize import InitialPair, linear_orbit_seq
from .matrix import CaseTag, Mat2, SystemParams, classify, integer_matrix, require_case
from .zerosets import DEFAULT_HORIZON, Membership, ZeroSetVerdict, z2_member, zero_set_member


class OrbitTerm(NamedTuple):
    n: int
    x: FactoredValue
    y: FactoredValue


class TrivialReport(NamedTuple):
    """The orbit is eventually trivial: x_m = y_m = 0 for all m > witness."""

    witness: int
    case: CaseTag


def _term_from_rationals(n: int, x: Fraction, y: Fraction) -> OrbitTerm:
    return OrbitTerm(n, FactoredValue.from_rational(x), FactoredValue.from_rational(y))


def _term(n: int, x: FactoredValue, ratio: Fraction) -> OrbitTerm:
    """The term with x_n = x and y_n = x * ratio."""
    return OrbitTerm(n, x, x.times(FactoredValue.from_rational(ratio)))


def iterate_direct(
    p: SystemParams, init: InitialPair, n: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> list[OrbitTerm]:
    """Terms 0..n by the literal recurrence; the oracle for everything else."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    walk = _Walk(p, init, digit_budget)
    return [_term_from_rationals(k, *walk.term(k)) for k in range(n + 1)]


class _Walk:
    """The literal recurrence from (x_0, y_0), multiplied out on demand: the
    one place direct terms and linear factors are formed."""

    def __init__(self, p: SystemParams, init: InitialPair, digit_budget: int):
        self.p, self.digit_budget = p, digit_budget
        self.terms, self.factors = [(init.x0, init.y0)], [None]

    def term(self, k: int) -> tuple[Fraction, Fraction]:
        """(x_k, y_k)."""
        while len(self.terms) <= k:
            self.terms.append(_next_term(*self.terms[-1], *self.factor(len(self.terms))))
        return self.terms[k]

    def factor(self, k: int) -> tuple[Fraction, Fraction]:
        """(lx_k, ly_k) = A (x_{k-1}, y_{k-1}), the linear factors of step
        k >= 1, each formed by ``_step`` under the digit budget."""
        while len(self.factors) <= k:
            self.factors.append(_step(self.p, *self.term(len(self.factors) - 1), self.digit_budget))
        return self.factors[k]


def _step(p: SystemParams, x: Fraction, y: Fraction, digit_budget: int) -> tuple[Fraction, Fraction]:
    """The linear factors A (x, y) of the term after (x, y): the literal
    recurrence gives it as x y times each.  Refuses a step whose term
    could pass ``digit_budget`` digits."""
    digits = _step_digits((x,), (y,))
    if digits > digit_budget:
        raise DigitBudgetExceeded(digits, digit_budget)
    return Mat2.of(p).apply(x, y)


def _step_digits(*coordinates: tuple[Fraction, ...]) -> int:
    """The digit estimate of the step after a term whose coordinates are
    the products of the given factors: that of ``_step`` for one factor
    each, and no less than it for several, as a product's numerator and
    denominator have at most the sum of its factors' bits."""
    bits = 0
    for factors in coordinates:
        num = den = 0
        for f in factors:
            num += abs(f.numerator).bit_length()
            den += f.denominator.bit_length()
        bits = max(bits, num, den)
    # each step roughly cubes the digit count
    return bits_digits(bits, 3)


def _next_term(x: Fraction, y: Fraction, lx: Fraction, ly: Fraction) -> tuple[Fraction, Fraction]:
    """The term after (x, y), given its linear factors from ``_step``."""
    xy = x * y
    return xy * lx, xy * ly


def cubic_coeff_solve(coeffs: list[Fraction], x0: Fraction, n: int) -> FactoredValue:
    """Solution x_n = x0^(3^n) * prod a_k^(3^(n-k-1)) of x_{k+1} = a_k x_k^3."""
    if not 0 <= n <= len(coeffs):
        raise ValueError("n must be nonnegative" if n < 0 else "need at least n coefficients")
    if not all(coeffs):
        raise ValueError("coefficients must be nonzero")
    powers = [1]  # powers[j] = 3^j, each from the last by one multiplication
    for _ in range(n):
        powers.append(3 * powers[-1])
    factors = [(x0, powers[n])] + [(coeffs[k], powers[n - k - 1]) for k in range(n)]
    return FactoredValue.build(1, factors)


def solve_rank_deficient(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    require_case(p, CaseTag.RANK_DEFICIENT)
    # A^k = (a + d)^(k-1) A, so r_k is the constant t for k >= 1 and a zero
    # comes by k = 2 or never: the walk to 2 decides membership
    (base, K), t = _ratio_walk(p, init, 2)
    if n == 0:
        return _term_from_rationals(0, init.x0, init.y0)
    x1 = init.x0**3 * base
    x = FactoredValue.build(1, [(x1, three_pow(n - 1)), (K, geometric_exponent(n - 1))])
    return _term(n, x, t)


def _ratio_walk(p: SystemParams, init: InitialPair, n: int) -> tuple[list[Fraction], Fraction]:
    """The tower bases a r_k + b r_k^2 for k < n and the ratio r_n, from one
    integer walk of r_k = v_k / u_k.

    With L the lcm of the coefficients' denominators, M = L*A is an
    integer matrix with det' = det(M), which may be 0.  The walk keeps the
    primitive integer vector (U, V) proportional to (u_k, v_k):
    (W, Z) = M (U, V) is proportional to (u_{k+1}, v_{k+1}), and as det' U
    and det' V are integer combinations of W and Z while gcd(U, V) = 1,
    gcd(W, Z) divides det' and equals gcd(gcd(W, det'), Z).  W = Z = 0
    only for (U, V) in the kernel of a singular M; then g is taken as 1,
    and step k + 1 raises TrivialSolutionEncountered(k + 1).

    The base is V W / (L U^2).  For b != 0 the walk also carries
    (A, B, C) = (U^2, U V, V^2), so that V W = (L a) B + (L b) C and
    L U^2 = L A need no product of two long numbers.  (W^2, W Z, Z^2) is
    the symmetric square of M applied to (A, B, C), nine small integer
    coefficients, and dividing (W, Z) by g divides it exactly by g^2;
    the sign flip of (U, V) leaves it unchanged.  So num and den are the
    same integers that V W and L U^2 would give, and each step is
    multiply-adds of a long number by a small one, linear in the size of
    its output.

    For b != 0, gcd(V W, L U^2) divides L (L b)^2, because gcd(U, V) = 1
    and gcd(W, U) = gcd(L b, U); for b = 0 the base is (L a) V / (L U)
    and its gcd divides L (L a).  So every gcd is taken against a small
    constant, never between two long numbers, and the reduced pairs
    become Fractions without a second gcd.
    Raises TrivialSolutionEncountered at the first k <= n with u_k = 0
    or v_k = 0.
    """
    L, al, be, ga, de = integer_matrix(p)
    det = al * de - be * ga
    small = L * be * be if be else L * al
    # the symmetric square of M: (U^2, U V, V^2) -> (W^2, W Z, Z^2)
    aa, ab, ac = al * al, 2 * al * be, be * be
    ba, bb, bc = al * ga, al * de + be * ga, be * de
    ca, cb, cc = ga * ga, 2 * ga * de, de * de
    U, V = init.x0.numerator * init.y0.denominator, init.y0.numerator * init.x0.denominator
    g = math.gcd(U, V) or 1
    U, V = U // g, V // g
    A, B, C = U * U, U * V, V * V
    bases = []
    for k in range(n + 1):
        if U == 0 or V == 0:
            raise TrivialSolutionEncountered(k)
        if U < 0:  # keeps every denominator below positive
            U, V = -U, -V
        if k == n:
            break
        W, Z = al * U + be * V, ga * U + de * V
        if be:
            num, den = al * B + be * C, L * A
            A, B, C = aa * A + ab * B + ac * C, ba * A + bb * B + bc * C, ca * A + cb * B + cc * C
        else:
            num, den = al * V, L * U
        # gcd(1, x) and x // 1 still take a pass over a long x, so no gcd
        # is taken against small = 1, and the second gcd and the divisions
        # run only while g != 1
        g = math.gcd(num, small) if small != 1 else 1
        if g != 1:
            g = math.gcd(g, den)
        if g != 1:
            num, den = num // g, den // g
        bases.append(coprime_fraction(num, den))
        g = math.gcd(W, det) or 1
        if g != 1:
            g = math.gcd(g, Z)
        if g != 1:
            W, Z = W // g, Z // g
            if be:
                A, B, C = A // (g * g), B // (g * g), C // (g * g)
        U, V = W, Z
    return bases, coprime_fraction(V, U)


def solve_repeated(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    z2_member(p, init).reject_member()
    bases, ratio_n = _ratio_walk(p, init, n)
    return _term(n, cubic_coeff_solve(bases, init.x0, n), ratio_n)


def solve_distinct(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    require_case(p, CaseTag.DISTINCT)
    bases, ratio_n = _ratio_walk(p, init, n)
    return _term(n, cubic_coeff_solve(bases, init.x0, n), ratio_n)


def solve_antitrace(p: SystemParams, init: InitialPair, n: int) -> OrbitTerm:
    require_case(p, CaseTag.ANTITRACE_DISTINCT)
    # A^2 = -det I, so r_k has period 2 and a zero comes by k = 1 or never:
    # the walk to 2 or 3 decides membership and ends on r_n
    (base_even, base_odd, *_), ratio_n = _ratio_walk(p, init, 2 + n % 2)
    m, odd = divmod(n, 2)
    e = antitrace_exponents(m)[odd]
    x = FactoredValue.build(1, [(init.x0, three_pow(n)), (base_even, 3 * e + odd), (base_odd, e)])
    return _term(n, x, ratio_n)


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
    if n < 0:
        raise ValueError("n must be nonnegative")
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
    coeffs = [st.u * st.v for st in states[:n]]
    if 0 in coeffs:
        raise TrivialSolutionEncountered(coeffs.index(0))
    prod = cubic_coeff_solve(coeffs, 1, n)
    return OrbitTerm(
        n,
        prod.times(FactoredValue.from_rational(states[n].u)),
        prod.times(FactoredValue.from_rational(states[n].v)),
    )


def _magnitude(v: FactoredValue) -> Fraction:
    """|r| for v = FactoredValue.from_rational(r), without expand; a zero
    term maps to 1, which is also what its empty exponent vector denotes,
    so the checks below stay exact when a coordinate is zero."""
    return v.factors[0][0] if v.factors else ONE


def _scaled_equals(vec: dict[int, int], x: Fraction, y: Fraction) -> bool:
    """Whether y = x * rho for rho = prod q**e over a coprime basis and
    x, y > 0.

    With rho = N/D in lowest terms, y = x*rho makes N divide y's numerator
    times x's denominator and D divide x's numerator times y's denominator,
    which caps how far N and D are expanded.  Over a coprime basis N/D is
    already reduced, so it is wrapped without a gcd.
    """
    parts = expand_exponents(
        vec,
        y.numerator.bit_length() + x.denominator.bit_length(),
        x.numerator.bit_length() + y.denominator.bit_length(),
    )
    return parts is not None and y == x * coprime_fraction(*parts)


def _paths_agree(
    closed: OrbitTerm,
    recon: OrbitTerm,
    direct: OrbitTerm,
    basis: CoprimeBasis,
    scale: Optional[FactoredValue] = None,
) -> bool:
    """closed == recon == s * direct at one n, by one capped expansion per
    coordinate, for s = ``scale`` (1 when it is None).

    With no scale (s = 1) this is the full check: the four closed and
    reconstruction values are added to ``basis`` and compared by exponent
    vectors (vx, vy) over it, then |x_n| = prod q**vx and |y_n| = |x_n| *
    rho, rho = prod q**(vy - vx), against direct's values; a zero
    coordinate needs no separate branch.  ``verify`` passes P_{n-1} P_{n-2},
    the product of the closed terms n - 1 and n - 2, as the scale and
    A (lx_{n-1}, ly_{n-1}) as direct: then the signs must be those of s
    times direct's, prod q**(vx - w) = |direct.x| and |direct.x| rho =
    |direct.y|, for w the vector of |s|.  w is read over the refined basis,
    as vectors read before a refinement are stale, and all values must be
    nonzero.  Neither expansion grows past the size of direct's values.
    """
    for value in (closed.x, closed.y, recon.x, recon.y):
        basis.add_value(value)
    cx, cy = closed.x.exponent_vector(basis), closed.y.exponent_vector(basis)
    if (cx, cy) != (recon.x.exponent_vector(basis), recon.y.exponent_vector(basis)):
        return False
    (sx, vx), (sy, vy) = cx, cy
    s, w = (1, {}) if scale is None else scale.exponent_vector(basis)
    if (sx, sy) != (s * direct.x.sign, s * direct.y.sign):
        return False
    x, y = _magnitude(direct.x), _magnitude(direct.y)
    return _scaled_equals(_vector_diff(vx, w), ONE, x) and _scaled_equals(_vector_diff(vy, vx), x, y)


def _vector_diff(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    """The exponent vector u - v."""
    return {q: u.get(q, 0) - v.get(q, 0) for q in u.keys() | v.keys()}


class VerificationReport:
    """Mutable: ``verify`` fills in ``equal_by_n`` or
    ``trivial_zeros_confirmed`` as it goes.  Equality and repr are by
    field value; like any mutable record it is not hashable."""

    def __init__(
        self,
        case: CaseTag,
        verdict: ZeroSetVerdict,
        depth: int,
        equal_by_n: Optional[list[bool]] = None,
        trivial_zeros_confirmed: Optional[bool] = None,
    ):
        self.case = case
        self.verdict = verdict
        self.depth = depth
        self.equal_by_n = [] if equal_by_n is None else equal_by_n
        self.trivial_zeros_confirmed = trivial_zeros_confirmed

    def __eq__(self, other):
        if other.__class__ is not VerificationReport:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"VerificationReport({fields})"

    @property
    def first_divergence(self) -> Optional[int]:
        return next((n for n, ok in enumerate(self.equal_by_n) if not ok), None)

    @property
    def all_equal(self) -> bool:
        return all(self.equal_by_n)

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
    side by side and report exact agreement term by term.

    Term n >= 2 is checked through its last two steps of the literal
    recurrence, (x_n, y_n) = P_{n-1} P_{n-2} (mx, my) with P_k = x_k y_k,
    (mx, my) = A (lx, ly) and (lx, ly) = A (x_{n-2}, y_{n-2}), the linear
    factors of step n - 1.  When terms n - 1 and n - 2 agreed on all three
    paths and P_{n-2}, lx ly, mx and my are nonzero, term n agrees exactly
    when the closed form and the reconstruction have the same exponent
    vectors (vx, vy), their signs are those of P_{n-1} P_{n-2} mx and
    P_{n-1} P_{n-2} my, prod q**(vx - w) = |mx| for w the vector of
    |P_{n-1} P_{n-2}|, formed as one product of the closed terms n - 1 and
    n - 2, and |mx| prod q**(vy - vx) = |my|.  So no expansion grows past
    (mx, my), about a ninth of x_n's digits, and the direct walk multiplies
    out terms only up to x_{N-2}.  Term 0, term 1, a term after a
    disagreement at n - 1 or n - 2 and a step with a zero take the full
    check against (x_n, y_n), formed on demand, instead.

    Past an undecided zero-set verdict's horizon the case solvers still run:
    one that meets a zero u_k or v_k raises TrivialSolutionEncountered (CLI
    exit 4), where ``solve`` past the horizon raises UnknownWithinHorizon.
    """
    if depth < 0:
        raise ValueError("n must be nonnegative")
    tag = classify(p)
    verdict = zero_set_member(p, init, horizon)
    report = VerificationReport(case=tag, verdict=verdict, depth=depth)
    walk = _Walk(p, init, digit_budget)
    if verdict.is_member:
        walk.term(depth)
        report.trivial_zeros_confirmed = not any(any(walk.term(m)) for m in range(verdict.witness + 1, depth + 1))
        return report
    # Steps up to depth - 1 refuse as iterate_direct does, before any solver
    # runs.  Step depth's budget is certified from bit lengths, and only when
    # that bound fails is x_{depth-1} formed for ``_step`` to decide exactly.
    if depth >= 2:
        (x, y), (lx, ly) = walk.term(depth - 2), walk.factor(depth - 1)
    if depth < 2 or _step_digits((x, y, lx), (x, y, ly)) > digit_budget:
        walk.factor(depth)
    solver = _CASE_SOLVERS[tag]
    basis = CoprimeBasis()
    prev2 = prev = None  # the closed terms n - 2 and n - 1 once they agreed on all three paths
    for n in range(depth + 1):
        closed = solver(p, init, n)
        recon = reconstruct_general(p, init, n)
        two_step = prev2 is not None and prev is not None and all(walk.term(n - 2) + walk.factor(n - 1))
        if two_step and all(m := Mat2.of(p).apply(*walk.factor(n - 1))):
            scale = prev.x.times(prev.y).times(prev2.x).times(prev2.y)  # P_{n-1} P_{n-2}
            ok = _paths_agree(closed, recon, _term_from_rationals(n, *m), basis, scale)
        else:
            ok = _paths_agree(closed, recon, _term_from_rationals(n, *walk.term(n)), basis)
        report.equal_by_n.append(ok)
        prev2, prev = prev, (closed if ok else None)
    return report
