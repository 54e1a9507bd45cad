"""Change of variables u_n = x_n / prod(x_k y_k), v_n = y_n / prod(x_k y_k).

(u_n, v_n) satisfies the linear system u' = a u + b v, v' = c u + d v with
(u_0, v_0) = (x_0, y_0), and the ratio v_n / u_n equals y_n / x_n wherever
it is defined.  Everything downstream (zero sets, closed forms) is driven
by this orbit and its ratio.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import TrivialSolutionEncountered
from .matrix import Mat2, SystemParams, eigenvalues, power


class InitialPair(NamedTuple):
    x0: Fraction
    y0: Fraction


class LinearState(NamedTuple):
    n: int
    u: Fraction
    v: Fraction


class RepeatedRatioConstants(NamedTuple):
    """v_n / u_n = (c3 + c4 n) / (c1 + c2 n) in the repeated-eigenvalue case."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction


def linear_orbit(p: SystemParams, init: InitialPair, n: int) -> LinearState:
    u, v = power(p, n).apply(init.x0, init.y0)
    return LinearState(n, u, v)


def linear_orbit_seq(p: SystemParams, init: InitialPair, n: int) -> list[LinearState]:
    """States 0..n by stepwise recurrence; cheaper than n matrix powers."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    step = Mat2.of(p).apply
    states = [LinearState(0, init.x0, init.y0)]
    u, v = init.x0, init.y0
    for k in range(1, n + 1):
        u, v = step(u, v)
        states.append(LinearState(k, u, v))
    return states


def ratio(p: SystemParams, init: InitialPair, n: int) -> Fraction:
    """v_n / u_n; raises when u_n = 0, which certifies eventual triviality."""
    state = linear_orbit(p, init, n)
    if state.u == 0:
        raise TrivialSolutionEncountered(n)
    return state.v / state.u


def repeated_ratio_constants(p: SystemParams, init: InitialPair) -> RepeatedRatioConstants:
    """u_n = h^(n-1) (c1 + c2 n) and v_n = h^(n-1) (c3 + c4 n), h = (a + d)/2,
    so (c2, c4) = (u_1, v_1) - h (x0, y0)."""
    h = p.trace / 2
    u1, v1 = Mat2.of(p).apply(init.x0, init.y0)
    return RepeatedRatioConstants(
        c1=h * init.x0,
        c2=u1 - h * init.x0,
        c3=h * init.y0,
        c4=v1 - h * init.y0,
    )


def distinct_orbit_coefficients(p: SystemParams, init: InitialPair):
    """(P, Q, R, S) with u_n = (P l1^n - Q l2^n)/(l1 - l2) and
    v_n = (R l1^n - S l2^n)/(l1 - l2); entries live in Q(sqrt(D)) when the
    eigenvalues do."""
    eig = eigenvalues(p)
    lam1, lam2 = eig.lam1, eig.lam2
    x0, y0 = init.x0, init.y0
    u1, v1 = Mat2.of(p).apply(x0, y0)
    return u1 - lam2 * x0, u1 - lam1 * x0, v1 - lam2 * y0, v1 - lam1 * y0


def antitrace_ratios(p: SystemParams, init: InitialPair) -> tuple[Fraction, Fraction]:
    """Constant even/odd ratios (y0/x0, (c x0 + d y0)/(a x0 + b y0)) of the
    trace-zero case."""
    if init.x0 == 0:
        raise TrivialSolutionEncountered(0)
    u1, v1 = Mat2.of(p).apply(init.x0, init.y0)
    if u1 == 0:
        raise TrivialSolutionEncountered(1)
    return init.y0 / init.x0, v1 / u1
