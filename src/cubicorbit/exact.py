"""Exact scalar arithmetic.

Rationals are ``fractions.Fraction`` (already canonical: positive
denominator, reduced).  Exponents like 3^n are plain Python ints.
``QuadScalar`` is a formal element p + q*sqrt(D) of a quadratic extension
Q(sqrt(D)); D may be negative, in which case the arithmetic is still purely
formal via (sqrt(D))^2 = D.  ``FactoredValue`` defers expansion of values
whose digit count is exponential in n; expanding one takes one cubing per
base-3 digit of its exponents, with only the small bases multiplied in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DigitBudgetExceeded, DivisionByZero

DEFAULT_DIGIT_BUDGET = 1_000_000

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or an exact decimal literal like "0.25".

    A single leading '=' is tolerated so negative values can be passed on a
    command line as ``-a=-1/2``.
    """
    s = text.strip()
    if s.startswith("="):
        s = s[1:]
    return Fraction(s)


def format_rational(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rational_sqrt(r: Fraction):
    """Exact square root of a rational, or None if r is not a perfect square."""
    if r < 0:
        return None
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def three_pow(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3**n


def geometric_exponent(n: int) -> int:
    """(3^n - 1) / 2, the exponent sum 3^0 + ... + 3^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (3**n - 1) // 2


def antitrace_exponents(n: int) -> tuple[int, int]:
    """((3^(2n) - 1) / 8, (3^(2n+1) - 3) / 8); both divisions are exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    even = (3 ** (2 * n) - 1) // 8
    odd = (3 ** (2 * n + 1) - 3) // 8
    return even, odd


def estimated_digits(base: Fraction, exp: int) -> int:
    """Upper estimate of the decimal digits needed to expand base**exp."""
    bits = max(abs(base.numerator).bit_length(), base.denominator.bit_length())
    # ceil(bits * log10(2)) per power, conservatively rounded up
    return (exp * bits * 30103) // 100000 + 1


def pow_rational(base: Fraction, exp: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> Fraction:
    """Exact base**exp with the 0**0 = 1 convention."""
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    if exp == 0:
        return ONE
    if base == 0:
        return ZERO
    est = estimated_digits(base, exp)
    if est > digit_budget:
        raise DigitBudgetExceeded(est, digit_budget)
    return base**exp


@dataclass(frozen=True)
class QuadScalar:
    """p + q*sqrt(D) with p, q, D rational and D not a rational square."""

    p: Fraction
    q: Fraction
    D: Fraction

    def __post_init__(self):
        if rational_sqrt(self.D) is not None:
            raise ValueError(f"D = {self.D} is a rational square; stay in Q instead")

    @classmethod
    def of(cls, value, D: Fraction) -> "QuadScalar":
        if isinstance(value, QuadScalar):
            if value.D != D:
                raise ValueError("mixed radicands")
            return value
        return cls(Fraction(value), ZERO, D)

    def _coerce(self, other) -> "QuadScalar":
        return QuadScalar.of(other, self.D)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadScalar(self.p + o.p, self.q + o.q, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.p, -self.q, self.D)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadScalar(
            self.p * o.p + self.q * o.q * self.D,
            self.p * o.q + self.q * o.p,
            self.D,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadScalar":
        return QuadScalar(self.p, -self.q, self.D)

    def norm(self) -> Fraction:
        return self.p * self.p - self.q * self.q * self.D

    def inv(self) -> "QuadScalar":
        n = self.norm()
        if n == 0:
            raise DivisionByZero("inverse of zero in Q(sqrt(D))")
        return QuadScalar(self.p / n, -self.q / n, self.D)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inv() ** (-exp)
        result = QuadScalar(ONE, ZERO, self.D)
        sq = self
        while exp:
            if exp & 1:
                result = result * sq
            sq = sq * sq
            exp >>= 1
        return result

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def to_rational(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} has a nonzero sqrt(D) component")
        return self.p

    def __str__(self):
        return f"{format_rational(self.p)} + {format_rational(self.q)}*sqrt({format_rational(self.D)})"


def _sign(r: Fraction) -> int:
    return (r > 0) - (r < 0)


@dataclass(frozen=True)
class FactoredValue:
    """sign * product of base**exp with positive bases != 1 and exponents > 0."""

    sign: int
    factors: tuple[tuple[Fraction, int], ...]

    @classmethod
    def build(cls, sign: int, factors) -> "FactoredValue":
        """Normalize: fold base signs into ``sign``, drop trivial factors,
        merge repeated bases."""
        if sign == 0:
            return cls(0, ())
        acc: dict[Fraction, int] = {}
        for base, exp in factors:
            base = Fraction(base)
            exp = int(exp)
            if exp < 0:
                base, exp = 1 / base, -exp
            if exp == 0:
                continue
            if base == 0:
                return cls(0, ())
            if base < 0:
                if exp & 1:
                    sign = -sign
                base = -base
            if base == 1:
                continue
            acc[base] = acc.get(base, 0) + exp
        return cls(sign, tuple((b, e) for b, e in acc.items() if e != 0))

    @classmethod
    def from_rational(cls, r: Fraction) -> "FactoredValue":
        return cls.build(_sign(r), [(abs(r), 1)] if r not in (0, 1, -1) else [])

    def times(self, other: "FactoredValue") -> "FactoredValue":
        return FactoredValue.build(
            self.sign * other.sign, list(self.factors) + list(other.factors)
        )

    def estimated_digits(self) -> int:
        return sum(estimated_digits(b, e) for b, e in self.factors)

    def expand(self, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> Fraction:
        if self.sign == 0:
            return ZERO
        est = self.estimated_digits()
        if est > digit_budget:
            raise DigitBudgetExceeded(est, digit_budget)
        # Horner's rule on the base-3 digits of all exponents at once:
        # cubing a reduced Fraction needs no gcd, and each base multiplied
        # in is small, so no gcd of two full-size numbers is ever taken.
        top = max((exp for _, exp in self.factors), default=0)
        place = 1
        while place * 3 <= top:
            place *= 3
        value = Fraction(self.sign)
        while place:
            value = value**3
            for base, exp in self.factors:
                trit = exp // place % 3
                if trit:
                    value *= base if trit == 1 else base * base
            place //= 3
        return value

    def canonical_key(self):
        """Sign plus the prime-exponent map of the denoted value.

        Lets two differently factored representations of the same value
        compare equal without expansion.  Bases are factored with sympy.
        """
        from sympy import factorint

        if self.sign == 0:
            return (0,)
        primes: dict[int, int] = {}
        for base, exp in self.factors:
            for prime, mult in factorint(base.numerator).items():
                primes[prime] = primes.get(prime, 0) + mult * exp
            for prime, mult in factorint(base.denominator).items():
                primes[prime] = primes.get(prime, 0) - mult * exp
        return (self.sign, tuple(sorted((p, e) for p, e in primes.items() if e != 0)))

    def __str__(self):
        if self.sign == 0:
            return "0"
        parts = [f"({format_rational(b)})^{e}" for b, e in self.factors]
        body = " * ".join(parts) if parts else "1"
        return body if self.sign > 0 else f"-{body}"
