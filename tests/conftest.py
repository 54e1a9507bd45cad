"""Make the package importable in child processes without an install.

pytest's ``pythonpath`` setting covers this process only; the tests that
start ``python -m cubicorbit.cli`` need ``src`` on the inherited PYTHONPATH.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def int_digit_limit():
    """Python's default int/str digit limit, 4300, for one test, whatever
    PYTHONINTMAXSTRDIGITS says."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
