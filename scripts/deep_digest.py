#!/usr/bin/env python3
"""Digest of the distinct-case solver on systems with rational eigenvalues,
at n = 300 and n = 1000, for byte-identity checks.

Each system is A = S diag(l1, l2) S^-1 or a triangular matrix, with
eigenvalues that share a factor, are both negative, or are not integers.
The seeds include eigenvectors and triangular systems whose u_k is one pure
power, which the eigenbasis walk hands to the ratio walk, and seeds
A^-m (1, 0) or A^-m (0, 1) whose orbit meets a zero.  For every system and
n it prints one line: the system, the seed, n, and the sha256 of
``str(x_n)`` and ``str(y_n)`` from ``solve_distinct``, or the witness of
the TrivialSolutionEncountered it raised.  Usage:

    python scripts/deep_digest.py
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cubicorbit import InitialPair, SystemParams, TrivialSolutionEncountered, solve_distinct  # noqa: E402

F = Fraction
DEPTHS = (300, 1000)


def similar(l1, l2, s11, s12, s21, s22):
    """A = S diag(l1, l2) S^-1."""
    det_s = F(s11 * s22 - s12 * s21)
    return SystemParams(
        (s11 * l1 * s22 - s12 * l2 * s21) / det_s,
        (s12 * l2 * s11 - s11 * l1 * s12) / det_s,
        (s21 * l1 * s22 - s22 * l2 * s21) / det_s,
        (s22 * l2 * s11 - s21 * l1 * s12) / det_s,
    )


def pull_back(p, u, v, m):
    """A^-m (u, v), whose orbit has (u_m, v_m) = (u, v)."""
    u, v = F(u), F(v)
    for _ in range(m):
        u, v = (p.d * u - p.b * v) / p.det, (p.a * v - p.c * u) / p.det
    return InitialPair(u, v)


def seed(x0, y0):
    return InitialPair(F(x0), F(y0))


def cases():
    bench_4_1 = similar(4, 1, 1, 1, 1, 2)
    bench_4_3 = similar(4, 3, 1, 2, 1, 3)
    shared_6_2 = similar(6, 2, 1, 1, 1, 2)
    shared_m4_2 = similar(-4, 2, 2, 1, 1, 1)
    negative = similar(-3, -5, 1, 2, 3, 7)
    return [
        (bench_4_1, seed(3, 5)),
        (bench_4_3, seed(5, 4)),
        (shared_6_2, seed(3, 5)),
        (shared_m4_2, seed(3, 2)),
        (negative, seed(3, 10)),
        (similar(F(2), F(2, 3), 1, 1, 1, 2), seed(F(1, 2), 5)),  # M = 3 A has 6 and 2
        (similar(F(3, 2), F(-1, 2), 1, 1, -1, 1), seed(2, F(-1, 3))),
        (similar(9, 3, 2, 1, 3, 2), seed(4, -7)),
        (similar(-6, 4, 1, -1, 2, 1), seed(F(5, 2), 1)),
        (similar(12, -8, 3, 1, 5, 2), seed(1, 1)),
        (similar(7, -3, 3, 1, 5, 2), seed(-2, F(9, 4))),
        (similar(F(1, 2), 3, 1, 2, 2, 3), seed(1, -1)),
        (SystemParams(F(5), F(0), F(6), F(-1)), seed(2, 3)),  # b = 0: u_k = 2 5^k
        (SystemParams(F(3), F(1), F(0), F(-2)), seed(-1, 4)),  # c = 0: v_k = 4 (-2)^k
        (shared_6_2, seed(1, 2)),  # an eigenvector of 2
        (bench_4_1, seed(1, 1)),  # an eigenvector of 4
        (negative, seed(-2, -6)),  # an eigenvector of -5
        (bench_4_3, pull_back(bench_4_3, 0, 1, 5)),  # u_5 = 0
        (shared_m4_2, pull_back(shared_m4_2, 1, 0, 7)),  # v_7 = 0
        (shared_6_2, seed(0, 3)),  # u_0 = 0
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    for p, init in cases():
        system = " ".join(map(str, p))
        for n in DEPTHS:
            try:
                term = solve_distinct(p, init, n)
            except TrivialSolutionEncountered as exc:
                outcome = f"TrivialSolutionEncountered {exc.witness}"
            else:
                outcome = f"{digest(str(term.x))}\t{digest(str(term.y))}"
            print(f"{system}\t{init.x0} {init.y0}\t{n}\t{outcome}")


if __name__ == "__main__":
    main()
