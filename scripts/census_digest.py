#!/usr/bin/env python3
"""Digest of the case, eigenvalues and solve at n = 8 over two parameter
grids, for byte-identity checks.

The grids are {-3..3}^4 and {-3/2, -1, ..., 3/2}^4, whose coefficients
have denominators up to 2, each with the seeds (1, 2) and (2, -3).  For
every system and seed it prints one line: the system, the seed, the case,
``repr(eigenvalues(p))``, and the sha256 of ``repr(solve(p, init, 8,
horizon=64))``, or the class name of the exception ``solve`` raised.  Two
checkouts that print the same lines agree on all of these.  Usage:

    python scripts/census_digest.py

A count of the lines per case goes to stderr.
"""

import hashlib
import itertools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cubicorbit import CubicOrbitError, InitialPair, SystemParams, classify, eigenvalues, solve  # noqa: E402

GRIDS = (
    [Fraction(k) for k in range(-3, 4)],
    [Fraction(k, 2) for k in range(-3, 4)],
)
SEEDS = (InitialPair(Fraction(1), Fraction(2)), InitialPair(Fraction(2), Fraction(-3)))


def solve_digest(p: SystemParams, init: InitialPair) -> str:
    try:
        result = solve(p, init, 8, horizon=64)
    except CubicOrbitError as exc:
        return type(exc).__name__
    return hashlib.sha256(repr(result).encode()).hexdigest()


def main():
    cases = Counter()
    for grid in GRIDS:
        for coefficients in itertools.product(grid, repeat=4):
            p = SystemParams(*coefficients)
            system = " ".join(map(str, coefficients))
            case = classify(p).value
            eig = repr(eigenvalues(p))
            for init in SEEDS:
                cases[case] += 1
                print(f"{system}\t{init.x0} {init.y0}\t{case}\t{eig}\t{solve_digest(p, init)}")
    print(f"{sum(cases.values())} lines, by case {dict(sorted(cases.items()))}", file=sys.stderr)


if __name__ == "__main__":
    main()
