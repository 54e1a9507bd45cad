"""Exact scalar arithmetic.

Rationals are ``fractions.Fraction`` (already canonical: positive
denominator, reduced).  Exponents like 3^n are plain Python ints.
``QuadScalar`` is a formal element p + q*sqrt(D) of a quadratic extension
Q(sqrt(D)); D may be negative, in which case the arithmetic is still purely
formal via (sqrt(D))^2 = D.  ``FactoredValue`` defers expansion of values
whose digit count is exponential in n; expanding one takes one cubing per
base-3 digit of its exponents, with only the small bases multiplied in.
Over a ``CoprimeBasis`` a factored value has a unique exponent vector, so
values compare without expansion.  ``FactoredValue.build`` merges bases by
their integer (numerator, denominator) pair, and ``coprime_fraction`` wraps
a pair already known to be reduced in a Fraction by setting its two slots,
without taking its gcd again or passing through ``Fraction.__new__``.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import DigitBudgetExceeded, DivisionByZero

DEFAULT_DIGIT_BUDGET = 1_000_000

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or an exact decimal literal like "0.25".

    A single leading '=' is tolerated so negative values can be passed on a
    command line as ``-a=-1/2``.  An exponent, as in "1e3", past Python's
    int/str digit limit is refused before 10**exponent is built.
    """
    s = text.strip()
    if s.startswith("="):
        s = s[1:]
    exponent = re.search(r"e[-+]?(\d+(?:_\d+)*)$", s, re.IGNORECASE)
    limit = sys.get_int_max_str_digits()
    if exponent and 0 < limit < int(exponent[1]):
        raise ValueError(f"exponent {exponent[1]} exceeds the {limit}-digit limit")
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


def coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d, built without a gcd.

    Precondition: n and d are ints with gcd(n, d) = 1 and d > 0.  Nothing
    checks it; a pair that breaks it gives a Fraction that is not in
    lowest terms and compares and hashes wrongly.  The body is that of
    ``Fraction._from_coprime_ints`` (Python 3.12+), which sets the two
    slots directly; 3.10 and 3.11 lack it, and their
    ``Fraction(n, d, _normalize=False)`` costs several times more.
    """
    r = object.__new__(Fraction)
    r._numerator = n
    r._denominator = d
    return r


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
    return bits_digits(max(abs(base.numerator).bit_length(), base.denominator.bit_length()), exp)


def bits_digits(bits: int, exp: int) -> int:
    """``estimated_digits`` of a base whose numerator and denominator have
    at most ``bits`` bits; it never falls as ``bits`` grows."""
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


class QuadScalar:
    """p + q*sqrt(D) with p, q, D rational and D not a rational square.

    Immutable, with equality, hash and repr by value.  Not a tuple, so it
    has no tuple ``+`` or ``*``.
    """

    __slots__ = __match_args__ = ("p", "q", "D")

    def __init__(self, p: Fraction, q: Fraction, D: Fraction):
        if rational_sqrt(D) is not None:
            raise ValueError(f"D = {D} is a rational square; stay in Q instead")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QuadScalar, (self.p, self.q, self.D)

    def __eq__(self, other):
        if other.__class__ is not QuadScalar:
            return NotImplemented
        return (self.p, self.q, self.D) == (other.p, other.q, other.D)

    def __hash__(self):
        return hash((self.p, self.q, self.D))

    def __repr__(self):
        return f"QuadScalar(p={self.p!r}, q={self.q!r}, D={self.D!r})"

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

    def to_rational(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} has a nonzero sqrt(D) component")
        return self.p

    def __str__(self):
        return f"{format_rational(self.p)} + {format_rational(self.q)}*sqrt({format_rational(self.D)})"


def _trit_horner(value, factors, max_bits=None):
    """value * prod base**exp by Horner's rule on the base-3 digits of all
    exponents at once: one cubing per digit, multiplying in ``base`` or
    ``base**2`` for each factor whose digit there is 1 or 2.

    With ``max_bits`` (positive int value and bases), returns None as soon
    as the result is sure to need more bits, before cubing past them.
    """
    top = max((exp for _, exp in factors), default=0)
    place = 1
    while place * 3 <= top:
        place *= 3
    while place:
        # a b-bit value cubed has at least 3b - 2 bits, and no later step
        # makes it smaller
        if max_bits is not None and 3 * value.bit_length() - 2 > max_bits:
            return None
        value = value**3
        for base, exp in factors:
            trit = exp // place % 3
            if trit:
                value *= base if trit == 1 else base * base
        place //= 3
    return value


def expand_exponents(vec: dict[int, int], num_bits: int, den_bits: int):
    """(numerator, denominator) of prod q**e over a coprime basis, or None
    once either is sure to need more than ``num_bits`` / ``den_bits`` bits.

    The basis is coprime, so the two are coprime and the fraction is
    reduced; nothing much longer than the caps is ever built.
    """
    num = _trit_horner(1, [(q, e) for q, e in vec.items() if e > 0], num_bits)
    if num is None:
        return None
    den = _trit_horner(1, [(q, -e) for q, e in vec.items() if e < 0], den_bits)
    if den is None:
        return None
    return num, den


class CoprimeBasis:
    """A gcd-free basis: pairwise-coprime integers > 1 over which every
    integer added so far factors, grown one integer at a time.

    Each ``add`` refines by pairwise gcds: an element q sharing g with the
    new integer a is replaced by g and q/g, and a/g is added in turn.
    That is quadratic in the number of elements, which is small here;
    D. J. Bernstein, "Factoring into coprimes in essentially linear time"
    (J. Algorithms, 2005) gives the near-linear refinement.
    """

    def __init__(self):
        self._elements: set[int] = set()
        self._added: set[int] = set()
        self._factored: dict[int, dict[int, int]] = {}

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(sorted(self._elements))

    def add(self, m: int) -> None:
        """Refine the basis so that the positive integer m factors over it.

        Refining never stops an integer added before from factoring, so
        adding one again takes no gcd.
        """
        if m in self._added:
            return
        self._added.add(m)
        pending = [m]
        while pending:
            a = pending.pop()
            if a == 1:
                continue
            for q in self._elements:
                g = math.gcd(a, q)
                if g == q:
                    pending.append(a // q)
                    break
                if g > 1:
                    self._elements.remove(q)
                    self._factored = {k: f for k, f in self._factored.items() if q not in f}
                    pending += (g, q // g, a // g)
                    break
            else:
                self._elements.add(a)

    def add_value(self, value: "FactoredValue") -> None:
        """Add every numerator and denominator of the value's bases."""
        for base, _ in value.factors:
            self.add(base.numerator)
            self.add(base.denominator)

    def factor(self, m: int) -> dict[int, int]:
        """The exponent of each basis element in the positive integer m."""
        f = self._factored.get(m)
        if f is None:
            f, rest = {}, m
            for q in self._elements:
                if rest == 1:
                    break
                e = 0
                while rest % q == 0:
                    rest //= q
                    e += 1
                if e:
                    f[q] = e
            if rest != 1:
                raise ValueError(f"{m} does not factor over the basis")
            self._factored[m] = f
        return f


class FactoredValue(NamedTuple):
    """sign * product of base**exp with positive bases != 1 and exponents > 0."""

    sign: int
    factors: tuple[tuple[Fraction, int], ...]

    @classmethod
    def build(cls, sign: int, factors) -> "FactoredValue":
        """Normalize: fold base signs into ``sign``, drop trivial factors,
        merge repeated bases.

        Bases merge by their (numerator, denominator) pair and signs are
        read off the ints, so no Fraction is hashed or compared: a
        Fraction's hash takes a modular inverse of its denominator.  The
        key also holds the numerator's bit length, because the bases of
        one tower often share their ints' hashes (residues modulo
        2^61 - 1) and so would share the pair's hash.
        """
        if sign == 0:
            return cls(0, ())
        acc: dict[tuple[int, int, int], list] = {}  # (num, den, bits) -> [base or None, exp]
        for base, exp in factors:
            exp = int(exp)
            if exp == 0:
                continue
            if type(base) is not Fraction:
                base = Fraction(base)
            num, den = base.numerator, base.denominator
            if num == 0:
                if exp < 0:
                    raise ZeroDivisionError("0 to a negative power")
                return cls(0, ())
            if num < 0:
                num, base = -num, None
                if exp & 1:
                    sign = -sign
            if exp < 0:
                num, den, exp, base = den, num, -exp, None
            if num == den:
                continue
            acc.setdefault((num, den, num.bit_length()), [base, 0])[1] += exp
        return cls(
            sign,
            tuple(
                (coprime_fraction(num, den) if base is None else base, exp)
                for (num, den, _), (base, exp) in acc.items()
            ),
        )

    @classmethod
    def from_rational(cls, r: Fraction) -> "FactoredValue":
        return cls.build(1, [(r, 1)])

    def times(self, other: "FactoredValue") -> "FactoredValue":
        """The product; equal to ``build`` over both factor lists, but only
        ``other``'s factors are merged into this already normal tuple."""
        sign = self.sign * other.sign
        if sign == 0:
            return FactoredValue(0, ())
        factors = list(self.factors)
        for base, exp in other.factors:
            num, den = base.numerator, base.denominator
            for i, (b, e) in enumerate(factors):
                if b.numerator == num and b.denominator == den:
                    factors[i] = (b, e + exp)
                    break
            else:
                factors.append((base, exp))
        return FactoredValue(sign, tuple(factors))

    def estimated_digits(self) -> int:
        return sum(estimated_digits(b, e) for b, e in self.factors)

    def expand(self, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> Fraction:
        if self.sign == 0:
            return ZERO
        est = self.estimated_digits()
        if est > digit_budget:
            raise DigitBudgetExceeded(est, digit_budget)
        # cubing a reduced Fraction needs no gcd, and each base multiplied
        # in is small, so no gcd of two full-size numbers is ever taken.
        return _trit_horner(Fraction(self.sign), self.factors)

    def exponent_vector(self, basis: "CoprimeBasis") -> tuple[int, dict[int, int]]:
        """Sign plus the signed exponent of each basis element in the value.

        Every numerator and denominator of a base must factor over
        ``basis`` (see ``CoprimeBasis.add_value``).  Over a coprime basis
        this pair identifies the value: two values are equal exactly when
        their vectors are.
        """
        if self.sign == 0:
            return 0, {}
        vec: dict[int, int] = {}
        for base, exp in self.factors:
            for q, e in basis.factor(base.numerator).items():
                vec[q] = vec.get(q, 0) + e * exp
            for q, e in basis.factor(base.denominator).items():
                vec[q] = vec.get(q, 0) - e * exp
        return self.sign, {q: e for q, e in vec.items() if e}

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
