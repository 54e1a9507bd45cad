#!/usr/bin/env python3
"""Cross-interpreter check: the same answers on every Python 3.10-3.13.

Runs `cli_digest.py 300 7` and `verify_random.py 200 8 0` under each
python3.10, python3.11, python3.12 and python3.13 found on PATH or among
pyenv's installed versions ($PYENV_ROOT, by default ~/.pyenv), once per
distinct version; one that is found but does not start is skipped.
Neither script needs pytest.  Each script's stdout is compared with that
of the first interpreter.  Prints one line per interpreter and script,
then any differing lines.
Exits 1 when an output differs, when a script fails or reports a
mismatch, or when no interpreter is found.  Usage:

    python scripts/cross_python.py
"""

import difflib
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
RUNS = (("cli_digest.py", "300", "7"), ("verify_random.py", "200", "8", "0"))
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def candidates():
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    for version in VERSIONS:
        yield shutil.which(f"python{version}")
        yield from sorted(map(str, pyenv.glob(f"versions/{version}*/bin/python{version}")))


def interpreters() -> list[tuple[str, str]]:
    """(version, path) of each distinct version that is found and starts."""
    found = {}
    for exe in filter(None, candidates()):
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version.split()[0])"],
                               capture_output=True, text=True, env=ENV)
        if probe.returncode == 0:
            found.setdefault(probe.stdout.strip(), exe)
    return list(found.items())


def main():
    found = interpreters()
    if not found:
        print(f"no python{'/'.join(VERSIONS)} found", file=sys.stderr)
        sys.exit(1)
    failed = False
    reference = {}
    for version, exe in found:
        for script, *args in RUNS:
            start = time.perf_counter()
            proc = subprocess.run([exe, str(SCRIPTS / script), *args],
                                  capture_output=True, text=True, env=ENV)
            elapsed = time.perf_counter() - start
            digest = hashlib.sha1(proc.stdout.encode()).hexdigest()
            print(f"python {version}\t{script} {' '.join(args)}\texit {proc.returncode}\t"
                  f"sha1 {digest}\t{elapsed:.1f} s")
            if proc.returncode != 0:
                failed = True
                print(proc.stderr, end="")
            first_version, first_out = reference.setdefault(script, (version, proc.stdout))
            if proc.stdout != first_out:
                failed = True
                diff = difflib.unified_diff(first_out.splitlines(), proc.stdout.splitlines(),
                                            f"python {first_version}", f"python {version}", lineterm="")
                print("\n".join(list(diff)[:20]))
    print("outputs differ or a run failed" if failed else
          f"identical output on {len(found)} interpreters")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
