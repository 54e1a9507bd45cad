#!/usr/bin/env python3
"""Sweep the small integer parameter grid and summarize the four cases.

Prints how often each case occurs for entries in {-3..3} and one worked
example per case (eigenvalues plus the first few closed-form orbit terms).
"""

import itertools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubicorbit.linearize import InitialPair  # noqa: E402
from cubicorbit.matrix import CaseTag, SystemParams, classify, eigenvalues  # noqa: E402
from cubicorbit.solve import TrivialReport, solve  # noqa: E402

F = Fraction


def main():
    counts = Counter()
    examples = {}
    grid = [F(k) for k in range(-3, 4)]
    for a, b, c, d in itertools.product(grid, repeat=4):
        p = SystemParams(a, b, c, d)
        if p.is_degenerate:
            counts["degenerate"] += 1
            continue
        tag = classify(p)
        counts[tag.value] += 1
        examples.setdefault(tag, p)

    total = sum(counts.values())
    print(f"grid size: {total}")
    for name, k in counts.most_common():
        print(f"  {name:20s} {k:6d}  ({100 * k / total:.1f}%)")

    init = InitialPair(F(1), F(2))
    for tag in CaseTag:
        p = examples[tag]
        eig = eigenvalues(p)
        print(f"\n{tag.value}: a={p.a} b={p.b} c={p.c} d={p.d}")
        print(f"  eigenvalues: {eig.lam1}, {eig.lam2}")
        for n in range(4):
            result = solve(p, init, n)
            if isinstance(result, TrivialReport):
                print(f"  trivial from witness {result.witness}")
                break
            print(f"  n={n}: x={result.x}  y={result.y}")


if __name__ == "__main__":
    main()
