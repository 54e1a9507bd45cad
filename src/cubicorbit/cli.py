"""Command-line front end.

Subcommands: classify, eigen, power, orbit, zeroset, solve, iterate,
verify.  Negative rational flag values are passed with '=':  -a=-1/2.

Exit codes: 0 success, 2 usage error, 3 degenerate parameters, 4 eventually
trivial solution (witness printed), 5 digit budget exceeded, 6 zero-set
membership unknown within the horizon.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from fractions import Fraction

from .errors import (
    DegenerateParameters,
    DigitBudgetExceeded,
    TrivialSolutionEncountered,
    UnknownWithinHorizon,
)
from .exact import DEFAULT_DIGIT_BUDGET, FactoredValue, QuadScalar, estimated_digits, format_rational, parse_rational
from .linearize import InitialPair, linear_orbit
from .matrix import SystemParams, classify, eigenvalues, power
from .solve import TrivialReport, iterate_direct, solve, verify
from .zerosets import DEFAULT_HORIZON, Membership, zero_set_member

SCHEMA = "cubic-orbit/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_TRIVIAL = 4
EXIT_BUDGET = 5
EXIT_UNKNOWN = 6


def _env_digit_budget() -> int:
    raw = os.environ.get("CUBIC_ORBIT_DIGIT_BUDGET")
    try:
        budget = int(raw) if raw else DEFAULT_DIGIT_BUDGET
    except ValueError:
        budget = 0
    if budget < 1000:
        raise ValueError(f"CUBIC_ORBIT_DIGIT_BUDGET must be an integer >= 1000, not {raw!r}")
    return budget


def _config(args):
    params = SystemParams(
        parse_rational(args.a), parse_rational(args.b),
        parse_rational(args.c), parse_rational(args.d),
    )
    init = None
    if getattr(args, "x0", None) is not None:
        init = InitialPair(parse_rational(args.x0), parse_rational(args.y0))
    budget = args.digit_budget if args.digit_budget is not None else _env_digit_budget()
    if args.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    if budget < 1000:
        raise ValueError("--digit-budget must be >= 1000")
    for flag in "nN":
        if getattr(args, flag, 0) < 0:
            raise ValueError(f"-{flag} must be >= 0")
    return params, init, budget


def _render(value, budget: int) -> str:
    """Text of a number, QuadScalar or FactoredValue whose every number fits
    the digit budget; Python's int/str digit limit is lifted to the budget
    for this conversion only."""
    if isinstance(value, FactoredValue):
        numbers = [x for factor in value.factors for x in factor]
    elif isinstance(value, QuadScalar):
        numbers = [value.p, value.q, value.D]
    else:
        numbers = [value]
    digits = max([estimated_digits(x, 1) for x in numbers], default=1)
    if digits > budget:
        raise DigitBudgetExceeded(digits, budget)
    limit = sys.get_int_max_str_digits()
    if 0 < limit < digits:
        sys.set_int_max_str_digits(budget)
    try:
        return format_rational(value) if isinstance(value, Fraction) else str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _value(fv: FactoredValue, args, budget: int):
    """The printed form of a value: its expanded text; under --factored its
    factored text, or its factored JSON object when --json is also set."""
    if not args.factored:
        return _render(fv.expand(budget), budget)
    if not args.json:
        return _render(fv, budget)
    return {
        "sign": fv.sign,
        "factors": [[_render(b, budget), _render(e, budget)] for b, e in fv.factors],
    }


def _emit(args, params, fields: dict, human_lines: Iterable[str]) -> int:
    """Print the human lines, or under --json one document that starts with
    the schema and the parameter case, followed by the command's fields."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, "case": classify(params).value, **fields}))
    else:
        for line in human_lines:
            print(line)
    return EXIT_OK


def _cmd_classify(args, params, init, budget):
    return _emit(args, params, {}, [f"case: {classify(params).value}"])


def _cmd_eigen(args, params, init, budget):
    eig = eigenvalues(params)
    doc = {
        "discriminant": _render(eig.discriminant, budget),
        "rational": eig.is_rational,
        "lambda1": _render(eig.lam1, budget),
        "lambda2": _render(eig.lam2, budget),
    }
    lines = [
        f"case: {classify(params).value}",
        f"discriminant: {doc['discriminant']}",
        f"lambda1: {doc['lambda1']}",
        f"lambda2: {doc['lambda2']}",
    ]
    return _emit(args, params, doc, lines)


def _cmd_power(args, params, init, budget):
    mat = power(params, args.n)
    rows = [
        [_render(mat.a11, budget), _render(mat.a12, budget)],
        [_render(mat.a21, budget), _render(mat.a22, budget)],
    ]
    lines = [f"[{rows[0][0]}, {rows[0][1]}]", f"[{rows[1][0]}, {rows[1][1]}]"]
    return _emit(args, params, {"n": args.n, "matrix": rows}, lines)


def _cmd_orbit(args, params, init, budget):
    state = linear_orbit(params, init, args.n)
    doc = {"n": state.n, "u": _render(state.u, budget), "v": _render(state.v, budget)}
    return _emit(args, params, doc, [f"u_{state.n} = {doc['u']}", f"v_{state.n} = {doc['v']}"])


def _cmd_zeroset(args, params, init, budget):
    verdict = zero_set_member(params, init, args.horizon)
    doc = {"status": verdict.status.value}
    lines = []
    if verdict.status is Membership.UNKNOWN_WITHIN_HORIZON:
        doc["horizon"] = verdict.horizon
        lines.append(f"member=unknown horizon={verdict.horizon}")
    else:
        doc["member"] = verdict.is_member
        if verdict.witness is not None:
            doc["witness"] = verdict.witness
            lines.append(f"member=true witness={verdict.witness}")
        else:
            lines.append("member=false")
    return _emit(args, params, doc, lines)


def _cmd_solve(args, params, init, budget):
    result = solve(params, init, args.n, horizon=args.horizon)
    if isinstance(result, TrivialReport):
        doc = {"n": args.n, "trivial": {"member": True, "witness": result.witness}}
        _emit(args, params, doc, [f"trivial solution, witness={result.witness}"])
        return EXIT_TRIVIAL
    doc = {
        "n": result.n,
        "x": _value(result.x, args, budget),
        "y": _value(result.y, args, budget),
        "trivial": {"member": False},
    }
    return _emit(args, params, doc, (f"{k}_{result.n} = {doc[k]}" for k in "xy"))


def _cmd_iterate(args, params, init, budget):
    terms = [
        {"n": t.n, "x": _value(t.x, args, budget), "y": _value(t.y, args, budget)}
        for t in iterate_direct(params, init, args.n, budget)
    ]
    lines = (f"x_{t['n']} = {t['x']}, y_{t['n']} = {t['y']}" for t in terms)
    return _emit(args, params, {"n": args.n, "terms": terms}, lines)


def _cmd_verify(args, params, init, budget):
    report = verify(params, init, args.N, digit_budget=budget, horizon=args.horizon)
    lines = [f"case: {report.case.value}"]
    if report.verdict.is_member:
        lines.append(
            f"trivial solution, witness={report.verdict.witness}, "
            f"zeros_confirmed={report.trivial_zeros_confirmed}"
        )
    else:
        lines += [
            f"n={n} equal={ok}" for n, ok in enumerate(report.equal_by_n)
        ]
        lines.append(f"all_equal={report.all_equal}")
    return _emit(args, params, report.to_dict(), lines)


_INIT = ("--x0", "--y0")

_INPUTS = {
    "--x0": {"help": "initial x0 (rational)"},
    "--y0": {"help": "initial y0 (rational)"},
    "-n": {"type": int, "help": "term index"},
    "-N": {"type": int, "help": "verification depth"},
}

# name: (function, help, inputs beyond -a..-d and the common flags)
_COMMANDS = {
    "classify": (_cmd_classify, "print the parameter case", ()),
    "eigen": (_cmd_eigen, "eigenvalue data of the coefficient matrix", ()),
    "power": (_cmd_power, "closed-form matrix power", ("-n",)),
    "orbit": (_cmd_orbit, "linearized orbit term (u_n, v_n)", (*_INIT, "-n")),
    "zeroset": (_cmd_zeroset, "zero-set membership", _INIT),
    "solve": (_cmd_solve, "closed-form solution term", (*_INIT, "-n")),
    "iterate": (_cmd_iterate, "direct iteration of the system", (*_INIT, "-n")),
    "verify": (_cmd_verify, "cross-check all solution paths", (*_INIT, "-N")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubic-orbit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (cmd, help_text, inputs) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(cmd=cmd)
        for flag in "abcd":
            sub.add_argument(f"-{flag}", required=True, help=f"coefficient {flag} (rational)")
        for flag in inputs:
            sub.add_argument(flag, required=True, **_INPUTS[flag])
        sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
        sub.add_argument("--digit-budget", type=int, default=None)
        sub.add_argument("--json", action="store_true")
        sub.add_argument("--factored", action="store_true")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
    except (ValueError, ZeroDivisionError) as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
    try:
        return args.cmd(args, *config)
    except DegenerateParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TrivialSolutionEncountered as exc:
        print(f"error: trivial solution, witness={exc.witness}", file=sys.stderr)
        return EXIT_TRIVIAL
    except DigitBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UnknownWithinHorizon as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
