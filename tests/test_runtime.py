"""The installed package needs only the standard library, and its verdicts
survive ``python -O``.  Importing the CLI loads neither ``dataclasses`` nor
``inspect``, which every process would otherwise pay for at start-up.

sympy is a test dependency: ``FactoredValue.canonical_key`` uses it, and
acceptance criterion 2 calls that method.  Nothing in the package calls it.
"""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubicorbit"

# Runs the CLI with every import of sympy failing.
WITHOUT_SYMPY = (
    "import sys; sys.modules['sympy'] = None; "
    "from cubicorbit.cli import main; main()"
)

# Both exceed expand's digit estimate before iterate_direct's, so they once
# compared terms through sympy's factorint: the first crashed without
# sympy, the second ran for minutes with it.
BUDGET_1000 = ["verify", "-a", "1", "-b", "0", "-c=-2", "-d", "2",
               "--x0=-3/2", "--y0", "2/3", "-N", "7", "--digit-budget", "1000"]
SEVEN_DIGIT = ["verify", "-a", "1234567", "-b", "2345671", "-c", "3456712",
               "-d", "4567123", "--x0", "3", "--y0", "2", "-N", "11"]


def _run(args, *flags, timeout=120):
    return subprocess.run(
        [sys.executable, *flags, *args], capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("argv,depth", [(BUDGET_1000, 7), (SEVEN_DIGIT, 11)])
def test_verify_without_sympy(argv, depth):
    start = time.perf_counter()
    proc = _run(["-c", WITHOUT_SYMPY, *argv, "--json"])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_equal"] is True
    assert doc["equal_by_n"] == [True] * (depth + 1)
    assert elapsed < 60


def _sympy_imports(tree):
    """(qualified name of the enclosing function or '<module>', line) of
    every import of sympy in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "sympy" for name in names):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


def test_sympy_only_inside_canonical_key():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    imports, calls = [], []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        imports += [(path.name, scope, line) for scope, line in _sympy_imports(tree)]
        calls += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "canonical_key"
        ]
    assert [(name, scope) for name, scope, _ in imports] == [
        ("exact.py", "FactoredValue.canonical_key")
    ]
    assert calls == []


def test_verify_under_optimize_flag():
    plain = _run(["-m", "cubicorbit.cli", *BUDGET_1000])
    optimized = _run(["-m", "cubicorbit.cli", *BUDGET_1000], "-O")
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert plain.stdout.rstrip().endswith("all_equal=True")


def test_cli_import_leaves_out_dataclasses():
    # -S: no site hook may load either module before the import does
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import cubicorbit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = _run(["-c", code], "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
