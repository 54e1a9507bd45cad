"""The coefficient matrix: four-way case classification and closed-form powers.

A^n is computed without iteration in each case:

  * rank deficient (ad - bc = 0):        A^n = (a+d)^(n-1) * A
  * repeated eigenvalue (discriminant 0): scaled shear formula
  * trace zero, distinct eigenvalues:     A^(2m) = (a^2+bc)^m * I, odd picks up A
  * distinct eigenvalues:                 spectral formula evaluated in Q(sqrt(D))

The spectral path works formally in the quadratic extension and certifies
that every sqrt(D) component cancels before converting back to rationals.

The case and the eigenvalues' rationality are read off the integer matrix
M = L*A, L the lcm of the coefficients' denominators: det(M), disc(M) and
tr(M) are L^2 det(A), L^2 D and L tr(A) with L > 0, so each zero test
carries over, and D is a rational square exactly when the integer disc(M)
is a perfect square.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import CaseMismatch
from .exact import ONE, ZERO, QuadScalar

_HALF, _MINUS_HALF = Fraction(1, 2), Fraction(-1, 2)


class CaseTag(Enum):
    RANK_DEFICIENT = "rank-deficient"
    REPEATED = "repeated"
    DISTINCT = "distinct"
    ANTITRACE_DISTINCT = "antitrace-distinct"


class SystemParams(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> Fraction:
        return self.a + self.d

    @property
    def discriminant(self) -> Fraction:
        return (self.a - self.d) ** 2 + 4 * self.b * self.c

    @property
    def is_degenerate(self) -> bool:
        """One coordinate forced to zero: a = b = 0 or c = d = 0."""
        return (self.a == 0 and self.b == 0) or (self.c == 0 and self.d == 0)


class Mat2(NamedTuple):
    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(ONE, ZERO, ZERO, ONE)

    @classmethod
    def zero(cls) -> "Mat2":
        return cls(ZERO, ZERO, ZERO, ZERO)

    @classmethod
    def of(cls, p: SystemParams) -> "Mat2":
        return cls(p.a, p.b, p.c, p.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scale(self, s: Fraction) -> "Mat2":
        return Mat2(s * self.a11, s * self.a12, s * self.a21, s * self.a22)

    def apply(self, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y


class Eigenpair(NamedTuple):
    """Eigenvalues (a+d +/- sqrt(D))/2, rational when D is a perfect square."""

    discriminant: Fraction
    lam1: object  # Fraction | QuadScalar
    lam2: object

    @property
    def is_rational(self) -> bool:
        return isinstance(self.lam1, Fraction)


def integer_matrix(p: SystemParams) -> tuple[int, int, int, int, int]:
    """L, the lcm of the coefficients' denominators, and the four integer
    entries of M = L*A."""
    a, b, c, d = p
    L = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    return (
        L,
        a.numerator * (L // a.denominator),
        b.numerator * (L // b.denominator),
        c.numerator * (L // c.denominator),
        d.numerator * (L // d.denominator),
    )


def classify(p: SystemParams) -> CaseTag:
    # Precedence: singular determinant, then discriminant, then trace, each
    # tested on M = L*A.
    _, m11, m12, m21, m22 = integer_matrix(p)
    if m11 * m22 == m12 * m21:
        return CaseTag.RANK_DEFICIENT
    if (m11 - m22) ** 2 + 4 * m12 * m21 == 0:
        return CaseTag.REPEATED
    if m11 + m22 == 0:
        return CaseTag.ANTITRACE_DISTINCT
    return CaseTag.DISTINCT


def require_case(p: SystemParams, *tags: CaseTag) -> None:
    """Raise CaseMismatch unless classify(p) is one of tags."""
    tag = classify(p)
    if tag not in tags:
        raise CaseMismatch(f"requires {' or '.join(t.value for t in tags)}, got {tag.value}")


def eigenvalues(p: SystemParams) -> Eigenpair:
    L, m11, m12, m21, m22 = integer_matrix(p)
    trace, disc = m11 + m22, (m11 - m22) ** 2 + 4 * m12 * m21
    D = Fraction(disc, L * L)
    if disc >= 0:
        root = math.isqrt(disc)
        if root * root == disc:
            return Eigenpair(D, Fraction(trace + root, 2 * L), Fraction(trace - root, 2 * L))
    # disc(M) is not a perfect square, so D is not a rational square
    half_trace = Fraction(trace, 2 * L)
    lam1 = QuadScalar._unchecked(half_trace, _HALF, D)
    lam2 = QuadScalar._unchecked(half_trace, _MINUS_HALF, D)
    return Eigenpair(D, lam1, lam2)


def power_rank_deficient(p: SystemParams, n: int) -> Mat2:
    require_case(p, CaseTag.RANK_DEFICIENT)
    if n == 0:
        return Mat2.identity()
    # Fraction(0)**0 == 1, so n = 1 comes out as A even when a + d = 0.
    return Mat2.of(p).scale(p.trace ** (n - 1))


def power_repeated(p: SystemParams, n: int) -> Mat2:
    require_case(p, CaseTag.REPEATED)
    if n == 0:
        return Mat2.identity()
    half = p.trace / 2
    core = Mat2(
        half + n * (p.a - p.d) / 2,
        p.b * n,
        p.c * n,
        half + n * (p.d - p.a) / 2,
    )
    return core.scale(half ** (n - 1))


def power_antitrace(p: SystemParams, n: int) -> Mat2:
    require_case(p, CaseTag.ANTITRACE_DISTINCT)
    m, odd = divmod(n, 2)
    s = (p.a * p.a + p.b * p.c) ** m
    if odd:
        return Mat2.of(p).scale(s)
    return Mat2.identity().scale(s)


def spectral_power_elements(p: SystemParams, n: int):
    """Entries of A^n from the two-eigenvalue formula, in Q(sqrt(D)).

    Returns four QuadScalar (or Fraction, when D is a perfect square)
    values; with irrational D the sqrt(D) components cancel identically
    and callers check that while converting.
    """
    eig = eigenvalues(p)
    lam1, lam2 = eig.lam1, eig.lam2
    pow1 = lam1**n
    pow2 = lam2**n
    diff = lam1 - lam2
    mixed = (pow1 - pow2) / diff
    return (
        ((p.a - lam2) * pow1 - (p.a - lam1) * pow2) / diff,
        p.b * mixed,
        p.c * mixed,
        ((p.d - lam2) * pow1 - (p.d - lam1) * pow2) / diff,
    )


def power_distinct(p: SystemParams, n: int) -> Mat2:
    require_case(p, CaseTag.DISTINCT, CaseTag.ANTITRACE_DISTINCT)
    # Realness certificate: to_rational raises on a nonzero sqrt(D) part.
    entries = spectral_power_elements(p, n)
    return Mat2(*(e.to_rational() if isinstance(e, QuadScalar) else e for e in entries))


def power(p: SystemParams, n: int) -> Mat2:
    if n < 0:
        raise ValueError("n must be nonnegative")
    tag = classify(p)
    if tag is CaseTag.RANK_DEFICIENT:
        return power_rank_deficient(p, n)
    if tag is CaseTag.REPEATED:
        return power_repeated(p, n)
    if tag is CaseTag.ANTITRACE_DISTINCT:
        return power_antitrace(p, n)
    return power_distinct(p, n)
