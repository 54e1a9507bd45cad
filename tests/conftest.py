"""Make the package importable in child processes without an install.

pytest's ``pythonpath`` setting covers this process only; the tests that
start ``python -m cubicorbit.cli`` need ``src`` on the inherited PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
