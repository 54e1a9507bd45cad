"""Eventually-trivial solution detection.

An initial pair belongs to the zero set exactly when some u_n or v_n
vanishes; from that index on the orbit of the cubic system is identically
zero.  Each of the four parameter cases has its own decider.  The
repeated-eigenvalue one is analytic; the other three run one exact scan of
the linear orbit (u_n, v_n), stopped where no later zero can occur.  With
irrational or complex eigenvalues that is a Skolem-type question: there
the scan stops at a horizon and reports UnknownWithinHorizon honestly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DegenerateParameters, TrivialSolutionEncountered
from .linearize import InitialPair, repeated_ratio_constants
from .matrix import CaseTag, SystemParams, classify, eigenvalues, require_case

DEFAULT_HORIZON = 64


class Membership(Enum):
    MEMBER = "member"
    NON_MEMBER = "non-member"
    UNKNOWN_WITHIN_HORIZON = "unknown-within-horizon"


class ZeroSetVerdict(NamedTuple):
    status: Membership
    witness: Optional[int] = None
    horizon: Optional[int] = None

    @property
    def is_member(self) -> bool:
        return self.status is Membership.MEMBER

    def reject_member(self) -> None:
        """Raise TrivialSolutionEncountered when the pair is a member."""
        if self.is_member:
            raise TrivialSolutionEncountered(self.witness)


def _member(witness: int) -> ZeroSetVerdict:
    return ZeroSetVerdict(Membership.MEMBER, witness=witness)


def _scan(p: SystemParams, init: InitialPair, limit: Optional[int], lam=None,
          none_found: ZeroSetVerdict = ZeroSetVerdict(Membership.NON_MEMBER)) -> ZeroSetVerdict:
    """Member at the least n <= limit with u_n = 0 or v_n = 0, by an exact
    scan of the linear orbit, else none_found.  Given lam = (lam1, lam2),
    rational eigenvalues with |lam1| > |lam2|, it also stops once both rows
    are settled."""
    u, v = init.x0, init.y0
    n = 0
    while u != 0 and v != 0:
        if n == limit:
            return none_found
        # A (u, v) written out, not Mat2.apply: this is census's inner loop,
        # where the extra call per step showed as a slower census round
        u1, v1 = p.a * u + p.b * v, p.c * u + p.d * v
        if lam is not None and _settled(u, u1, *lam) and _settled(v, v1, *lam):
            return none_found
        u, v = u1, v1
        n += 1
    return _member(n)


def _settled(w: Fraction, w1: Fraction, lam1: Fraction, lam2: Fraction) -> bool:
    """Whether the row w_n = (P lam1^n - Q lam2^n) / (lam1 - lam2), with
    w = w_n != 0 and w1 = w_{n+1}, has no zero after n.

    P lam1^n = w1 - lam2 w and Q lam2^n = w1 - lam1 w are equal exactly where
    w vanishes, and their ratio grows strictly in absolute value: once the
    first is zero or the larger (as when Q = 0), they never meet.
    """
    dominant = w1 - lam2 * w
    return dominant == 0 or abs(dominant) > abs(w1 - lam1 * w)


def z0_member(p: SystemParams, init: InitialPair) -> ZeroSetVerdict:
    """Rank-deficient case: x0 y0 = 0 or a x0 + b y0 = 0, or a + d = 0.

    A^n = (a + d)^(n-1) A for n >= 1, so a zero first occurs by n = 2 or
    never: the scan stops there.  When a + d = 0 the matrix is nilpotent
    (A^2 = 0) and every initial pair is a member, with witness at most 2.
    """
    require_case(p, CaseTag.RANK_DEFICIENT)
    return _scan(p, init, 2)


def z1_member(p: SystemParams, init: InitialPair, horizon: int = DEFAULT_HORIZON) -> ZeroSetVerdict:
    """Distinct eigenvalues with nonzero trace.

    Rational eigenvalues differ in absolute value, as their sum is nonzero,
    and the scan runs until both rows are settled, which decides membership.
    Irrational or complex ones are scanned only up to the horizon.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    require_case(p, CaseTag.DISTINCT)
    eig = eigenvalues(p)
    if eig.is_rational:
        lam = sorted((eig.lam1, eig.lam2), key=abs, reverse=True)
        return _scan(p, init, None, lam)
    # Skolem territory: exact scan of the linear orbit up to the horizon.
    unknown = ZeroSetVerdict(Membership.UNKNOWN_WITHIN_HORIZON, horizon=horizon)
    return _scan(p, init, horizon, none_found=unknown)


def _linear_root_index(coeff: Fraction, const: Fraction) -> Optional[int]:
    """Least nonnegative integer n with const + coeff*n = 0, or None."""
    if coeff == 0:
        return 0 if const == 0 else None
    n_star = -const / coeff
    if n_star.denominator == 1 and n_star >= 0:
        return int(n_star)
    return None


def z2_member(p: SystemParams, init: InitialPair) -> ZeroSetVerdict:
    """Repeated eigenvalue: both vanishing conditions are linear in n, so
    membership is fully decidable."""
    require_case(p, CaseTag.REPEATED)
    # u_n and v_n are ((a+d)/2)^(n-1) times c1 + c2 n and c3 + c4 n
    rc = repeated_ratio_constants(p, init)
    rows = [(rc.c2, rc.c1), (rc.c4, rc.c3)]
    hits = [i for i in (_linear_root_index(co, cn) for co, cn in rows) if i is not None]
    if hits:
        return _member(min(hits))
    return ZeroSetVerdict(Membership.NON_MEMBER)


def z3_member(p: SystemParams, init: InitialPair) -> ZeroSetVerdict:
    """Trace zero with distinct eigenvalues: x0 y0 = 0, a x0 + b y0 = 0 or
    c x0 + d y0 = 0.

    A^2 = -det I with det != 0, so a zero first occurs by n = 1 or never:
    the scan stops there.
    """
    require_case(p, CaseTag.ANTITRACE_DISTINCT)
    return _scan(p, init, 1)


def zero_set_member(
    p: SystemParams, init: InitialPair, horizon: int = DEFAULT_HORIZON
) -> ZeroSetVerdict:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if p.is_degenerate:
        raise DegenerateParameters("a = b = 0 or c = d = 0")
    tag = classify(p)
    if tag is CaseTag.RANK_DEFICIENT:
        return z0_member(p, init)
    if tag is CaseTag.REPEATED:
        return z2_member(p, init)
    if tag is CaseTag.ANTITRACE_DISTINCT:
        return z3_member(p, init)
    return z1_member(p, init, horizon)
