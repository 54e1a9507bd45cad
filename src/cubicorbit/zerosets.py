"""Eventually-trivial solution detection.

An initial pair belongs to the zero set exactly when some u_n or v_n
vanishes; from that index on the orbit of the cubic system is identically
zero.  Each of the four parameter cases has its own decider.  All are exact
and analytic except the distinct-eigenvalue case with irrational or complex
eigenvalues, where vanishing is a Skolem-type question: there we scan the
orbit exactly up to a horizon and report UnknownWithinHorizon honestly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DegenerateParameters, TrivialSolutionEncountered
from .linearize import InitialPair, distinct_orbit_coefficients, repeated_ratio_constants
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


def z0_member(p: SystemParams, init: InitialPair) -> ZeroSetVerdict:
    """Rank-deficient case: x0 y0 = 0 or a x0 + b y0 = 0.

    When additionally a + d = 0 the matrix is nilpotent (A^2 = 0) and every
    initial pair is a member, with witness at most 2.
    """
    require_case(p, CaseTag.RANK_DEFICIENT)
    if init.x0 == 0 or init.y0 == 0:
        return _member(0)
    u1 = p.a * init.x0 + p.b * init.y0
    v1 = p.c * init.x0 + p.d * init.y0
    if u1 == 0 or v1 == 0:
        return _member(1)
    if p.trace == 0:
        return _member(2)
    return ZeroSetVerdict(Membership.NON_MEMBER)


def _row_zero_index(P: Fraction, Q: Fraction, lam1: Fraction, lam2: Fraction) -> Optional[int]:
    """Least n >= 0 with P lam1^n = Q lam2^n, for rationals with
    |lam1| > |lam2| > 0, or None.

    |P lam1^n / (Q lam2^n)| is strictly increasing, so the scan stops as
    soon as the left side dominates in absolute value.
    """
    if P == 0 and Q == 0:
        return 0
    if P == 0 or Q == 0:
        return None
    lhs, rhs = P, Q
    n = 0
    while abs(lhs) <= abs(rhs):
        if lhs == rhs:
            return n
        lhs *= lam1
        rhs *= lam2
        n += 1
    return None


def z1_member(p: SystemParams, init: InitialPair, horizon: int = DEFAULT_HORIZON) -> ZeroSetVerdict:
    """Distinct eigenvalues with nonzero trace.

    Rational eigenvalues admit an exact monotone scan that terminates with
    an analytic NonMember; irrational or complex ones fall back to a
    bounded exact orbit scan.
    """
    require_case(p, CaseTag.DISTINCT)
    eig = eigenvalues(p)
    if eig.is_rational:
        lam1, lam2 = eig.lam1, eig.lam2
        P, Q, R, S = distinct_orbit_coefficients(p, init)
        if abs(lam1) < abs(lam2):
            # the scan needs the dominant eigenvalue first
            lam1, lam2 = lam2, lam1
            P, Q, R, S = Q, P, S, R
        hits = [i for i in (
            _row_zero_index(P, Q, lam1, lam2),
            _row_zero_index(R, S, lam1, lam2),
        ) if i is not None]
        if hits:
            return _member(min(hits))
        return ZeroSetVerdict(Membership.NON_MEMBER)
    # Skolem territory: exact scan of the linear orbit.
    u, v = init.x0, init.y0
    for n in range(horizon + 1):
        if u == 0 or v == 0:
            return _member(n)
        u, v = p.a * u + p.b * v, p.c * u + p.d * v
    return ZeroSetVerdict(Membership.UNKNOWN_WITHIN_HORIZON, horizon=horizon)


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
    c x0 + d y0 = 0."""
    require_case(p, CaseTag.ANTITRACE_DISTINCT)
    if init.x0 == 0 or init.y0 == 0:
        return _member(0)
    if p.a * init.x0 + p.b * init.y0 == 0 or p.c * init.x0 + p.d * init.y0 == 0:
        return _member(1)
    return ZeroSetVerdict(Membership.NON_MEMBER)


def zero_set_member(
    p: SystemParams, init: InitialPair, horizon: int = DEFAULT_HORIZON
) -> ZeroSetVerdict:
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
