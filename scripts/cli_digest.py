#!/usr/bin/env python3
"""Digest of seeded random `cubic-orbit` commands, for byte-identity checks.

Draws commands over all 8 subcommands, with and without --json,
--factored, --horizon and --digit-budget, runs each in-process through
`cubicorbit.cli.run` and prints one line per command: the argv, the exit
code, and the sha256 of its stdout and of its stderr.  Two checkouts that
print the same lines for the same arguments answer those commands
byte-identically.  Usage:

    python scripts/cli_digest.py [count] [seed]

A summary of the exit codes goes to stderr.
"""

import contextlib
import hashlib
import io
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cubicorbit import cli  # noqa: E402

VALUES = ["0", "1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "-2/3", "0.25"]
BAD_VALUES = ["1/0", "abc"]
WITH_INIT = {"orbit", "zeroset", "solve", "iterate", "verify"}
# largest index per subcommand; -1 draws the negative-index usage error
MAX_INDEX = {"power": 300, "orbit": 60, "solve": 10, "iterate": 9, "verify": 8}


def command(rng: random.Random) -> list[str]:
    name = rng.choice(["classify", "eigen", "power", "orbit", "zeroset", "solve", "iterate", "verify"])
    values = [rng.choice(VALUES) for _ in range(6)]
    if rng.random() < 0.03:
        values[rng.randrange(6)] = rng.choice(BAD_VALUES)
    argv = [name] + [f"-{flag}={v}" for flag, v in zip("abcd", values)]
    if name in WITH_INIT:
        argv += [f"--x0={values[4]}", f"--y0={values[5]}"]
    if name in MAX_INDEX:
        flag = "-N" if name == "verify" else "-n"
        argv.append(f"{flag}={rng.randint(-1, MAX_INDEX[name])}")
    if rng.random() < 0.25:
        argv.append(f"--horizon={rng.choice([0, 1, 2, 4, 8, 8, 8, 8, 64])}")
    if rng.random() < 0.4:
        argv.append(f"--digit-budget={rng.choice([999, 1000, 1000, 1000, 1000, 1500, 3000, 20000])}")
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.4:
        argv.append("--factored")
    return argv


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error exits 1 at the command line
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    rng = random.Random(seed)
    codes = Counter()
    for _ in range(count):
        argv = command(rng)
        code, out, err = run(argv)
        codes[code] += 1
        print(f"{' '.join(argv)}\t{code}\t{sha256(out)}\t{sha256(err)}")
    print(f"{count} commands, seed {seed}, exit codes {dict(sorted(codes.items()))}", file=sys.stderr)


if __name__ == "__main__":
    main()
