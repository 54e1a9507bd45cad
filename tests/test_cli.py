import json
import subprocess
import sys
from fractions import Fraction

import pytest

from cubicorbit import cli
from cubicorbit.linearize import InitialPair
from cubicorbit.matrix import SystemParams, power
from cubicorbit.solve import iterate_direct, solve
from cubicorbit.zerosets import zero_set_member

F = Fraction


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out)


PARAMS = ["-a", "2", "-b", "1", "-c", "1", "-d", "2"]
INIT = ["--x0", "1", "--y0", "2"]


class TestClassify:
    def test_rank_deficient(self, capsys):
        code, out = run_cli(["classify", "-a", "1", "-b", "1", "-c", "1", "-d", "1"], capsys)
        assert code == 0
        assert "rank-deficient" in out

    def test_json(self, capsys):
        code, doc = run_json(["classify"] + PARAMS, capsys)
        assert code == 0
        assert doc == {"schema": "cubic-orbit/1", "case": "distinct"}

    def test_negative_equals_form(self, capsys):
        code, doc = run_json(["classify", "-a=1", "-b=1", "-c=1", "-d=-1"], capsys)
        assert code == 0
        assert doc["case"] == "antitrace-distinct"


class TestEigen:
    def test_rational(self, capsys):
        code, doc = run_json(["eigen"] + PARAMS, capsys)
        assert code == 0
        assert (doc["lambda1"], doc["lambda2"]) == ("3", "1")

    def test_irrational(self, capsys):
        code, doc = run_json(["eigen", "-a=1", "-b=1", "-c=1", "-d=-1"], capsys)
        assert code == 0
        assert doc["rational"] is False
        assert "sqrt(8)" in doc["lambda1"]


class TestPower:
    def test_matrix(self, capsys):
        code, doc = run_json(["power"] + PARAMS + ["-n", "2"], capsys)
        assert code == 0
        assert doc["matrix"] == [["5", "4"], ["4", "5"]]


class TestOrbit:
    def test_step(self, capsys):
        code, doc = run_json(["orbit"] + PARAMS + INIT + ["-n", "1"], capsys)
        assert code == 0
        assert (doc["u"], doc["v"]) == ("4", "5")


class TestZeroset:
    def test_member(self, capsys):
        code, doc = run_json(
            ["zeroset", "-a", "1", "-b", "1", "-c", "1", "-d=-1", "--x0", "1", "--y0", "1"],
            capsys,
        )
        assert code == 0
        assert doc["member"] is True and doc["witness"] == 1

    def test_non_member(self, capsys):
        code, doc = run_json(["zeroset"] + PARAMS + INIT, capsys)
        assert code == 0
        assert doc["member"] is False

    def test_unknown(self, capsys):
        code, doc = run_json(
            ["zeroset", "-a", "2", "-b", "1", "-c", "1", "-d", "0",
             "--x0", "2", "--y0", "3", "--horizon", "8"],
            capsys,
        )
        assert code == 0
        assert doc["status"] == "unknown-within-horizon" and doc["horizon"] == 8


class TestSolve:
    def test_matches_library(self, capsys):
        code, doc = run_json(["solve"] + PARAMS + INIT + ["-n", "2"], capsys)
        assert code == 0
        p = SystemParams(F(2), F(1), F(1), F(2))
        term = solve(p, InitialPair(F(1), F(2)), 2)
        assert F(doc["x"]) == term.x.expand()
        assert F(doc["y"]) == term.y.expand()
        oracle = iterate_direct(p, InitialPair(F(1), F(2)), 2)[2]
        assert F(doc["x"]) == oracle.x.expand()

    def test_factored_mode(self, capsys):
        code, doc = run_json(["solve"] + PARAMS + INIT + ["-n", "3", "--factored"], capsys)
        assert code == 0
        assert doc["x"]["sign"] in (-1, 0, 1)
        value = F(doc["x"]["sign"])
        for base, exp in doc["x"]["factors"]:
            value *= F(base) ** int(exp)
        term = solve(SystemParams(F(2), F(1), F(1), F(2)), InitialPair(F(1), F(2)), 3)
        assert value == term.x.expand()

    def test_trivial_exit_code(self, capsys):
        code, doc = run_json(
            ["solve", "-a", "1", "-b", "1", "-c", "1", "-d=-1",
             "--x0", "1", "--y0", "1", "-n", "3"],
            capsys,
        )
        assert code == 4
        assert doc["trivial"] == {"member": True, "witness": 1}


class TestIterate:
    def test_terms(self, capsys):
        code, doc = run_json(
            ["iterate", "-a", "1", "-b", "1", "-c", "1", "-d", "1",
             "--x0", "1", "--y0", "1", "-n", "2"],
            capsys,
        )
        assert code == 0
        assert [t["x"] for t in doc["terms"]] == ["1", "2", "16"]


class TestVerify:
    def test_all_equal(self, capsys):
        code, doc = run_json(["verify"] + PARAMS + INIT + ["-N", "3"], capsys)
        assert code == 0
        assert doc["all_equal"] is True
        assert doc["equal_by_n"] == [True] * 4

    def test_trivial(self, capsys):
        code, doc = run_json(
            ["verify", "-a", "1", "-b", "1", "-c", "1", "-d=-1",
             "--x0", "1", "--y0", "1", "-N", "3"],
            capsys,
        )
        assert code == 0
        assert doc["trivial"]["member"] is True
        assert doc["trivial"]["zeros_confirmed"] is True


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.run(["classify", "-a", "1"])
        assert err.value.code == 2

    def test_degenerate(self, capsys):
        code = cli.run(["zeroset", "-a", "0", "-b", "0", "-c", "1", "-d", "1"] + INIT)
        assert code == 3

    def test_budget_exceeded(self, capsys):
        code = cli.run(["solve"] + PARAMS + INIT + ["-n", "12", "--digit-budget", "1000"])
        assert code == 5

    def test_unknown_within_horizon(self, capsys):
        code = cli.run(
            ["solve", "-a", "2", "-b", "1", "-c", "1", "-d", "0",
             "--x0", "2", "--y0", "3", "-n", "20", "--horizon", "8"]
        )
        assert code == 6

    def test_trivial_via_iterate_path(self, capsys):
        # exit 4 also covers errors raised inside the library
        code = cli.run(["solve", "-a", "1", "-b", "1", "-c", "1", "-d=-1",
                        "--x0", "1", "--y0", "1", "-n", "1"])
        assert code == 4


def _lifted(fn):
    """Run fn with Python's int/str digit limit off, to read big CLI output."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


class TestDigitBudget:
    def test_solve_past_4300_digits(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, doc = run_json(["solve"] + PARAMS + INIT + ["-n", "9"], capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        term = solve(SystemParams(F(2), F(1), F(1), F(2)), InitialPair(F(1), F(2)), 9)
        assert _lifted(lambda: (F(doc["x"]), F(doc["y"]))) == (term.x.expand(), term.y.expand())

    def test_power_past_4300_digits(self, capsys):
        code, doc = run_json(["power"] + PARAMS + ["-n", "20000"], capsys)
        assert code == 0
        mat = power(SystemParams(F(2), F(1), F(1), F(2)), 20000)
        rows = _lifted(lambda: [[F(x) for x in row] for row in doc["matrix"]])
        assert rows == [[mat.a11, mat.a12], [mat.a21, mat.a22]]

    def test_printed_value_past_budget(self, capsys):
        limit = sys.get_int_max_str_digits()
        code = cli.run(["power"] + PARAMS + ["-n", "3000", "--digit-budget", "1000"])
        assert code == 5
        assert sys.get_int_max_str_digits() == limit


class TestInputChecks:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["power"] + PARAMS + ["-n=-1"], "-n must be >= 0"),
            (["orbit"] + PARAMS + INIT + ["-n=-1"], "-n must be >= 0"),
            (["solve"] + PARAMS + INIT + ["-n=-1"], "-n must be >= 0"),
            (["iterate"] + PARAMS + INIT + ["-n=-1"], "-n must be >= 0"),
            (["verify"] + PARAMS + INIT + ["-N=-1"], "-N must be >= 0"),
        ],
    )
    def test_negative_index_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            cli.run(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_internal_value_error_is_not_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "solve", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.run(["solve"] + PARAMS + INIT + ["-n", "2"])


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = ["solve"] + PARAMS + INIT + ["-n", "3", "--json", "--factored"]
        _, out1 = run_cli(argv[:-2] + argv[-2:], capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cubicorbit.cli", "classify",
         "-a", "1", "-b", "1", "-c", "1", "-d", "1", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "rank-deficient"
