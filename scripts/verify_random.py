#!/usr/bin/env python3
"""Randomized cross-verification sweep.

Draws random small-entry systems and seeds, runs the three solution paths
(case solver, general reconstruction, direct iteration) side by side and
reports agreement statistics.  Usage:

    python scripts/verify_random.py [trials] [depth] [seed]
"""

import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cubicorbit.solve import verify  # noqa: E402
from cubicorbit.zerosets import Membership  # noqa: E402
from helpers import random_init, random_params  # noqa: E402


def main():
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    depth = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)

    outcomes = Counter()
    for _ in range(trials):
        p = random_params(rng)
        i = random_init(rng)
        report = verify(p, i, depth)
        if report.verdict.is_member:
            key = "trivial-confirmed" if report.trivial_zeros_confirmed else "TRIVIAL-MISMATCH"
        elif report.verdict.status is Membership.UNKNOWN_WITHIN_HORIZON:
            key = "unknown-membership-agree" if report.all_equal else "DIVERGENCE"
        else:
            key = "agree" if report.all_equal else "DIVERGENCE"
        outcomes[(report.case.value, key)] += 1

    width = max(len(c) for c, _ in outcomes) + 2
    for (case, key), k in sorted(outcomes.items()):
        print(f"{case:{width}s} {key:26s} {k:5d}")
    bad = sum(k for (_, key), k in outcomes.items() if key.isupper())
    print(f"\n{trials} trials, depth {depth}: {bad} mismatches")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
