"""The scripts in scripts/ run from a checkout, from any directory, with no
PYTHONPATH and no install."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_verify_random(tmp_path):
    proc = run_script("verify_random.py", "20", "4", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "20 trials, depth 4: 0 mismatches" in proc.stdout


def test_case_sweep(tmp_path):
    proc = run_script("case_sweep.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "grid size:" in proc.stdout


def test_cli_digest_repeats(tmp_path):
    runs = [run_script("cli_digest.py", "20", "3", cwd=tmp_path) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 20
    assert all(len(line.split("\t")) == 4 for line in lines)
    assert runs[1].stdout.splitlines() == lines


def test_census_digest(tmp_path):
    proc = run_script("census_digest.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 * 7**4 * 2
    assert all(len(line.split("\t")) == 5 for line in lines)
    assert lines[0].startswith("-3 -3 -3 -3\t1 2\trank-deficient\tEigenpair(")
    assert any(line.startswith("-3/2 -3/2 -3/2 -1/2\t2 -3\tdistinct\t") for line in lines)
    assert any(line.endswith("\tDegenerateParameters") for line in lines)
