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
    return int(raw) if raw else DEFAULT_DIGIT_BUDGET


def _add_params(sub: argparse.ArgumentParser):
    for flag in "abcd":
        sub.add_argument(f"-{flag}", required=True, help=f"coefficient {flag} (rational)")


def _add_init(sub: argparse.ArgumentParser):
    sub.add_argument("--x0", required=True, help="initial x0 (rational)")
    sub.add_argument("--y0", required=True, help="initial y0 (rational)")


def _add_common(sub: argparse.ArgumentParser, init=False, n=False, big_n=False):
    _add_params(sub)
    if init:
        _add_init(sub)
    if n:
        sub.add_argument("-n", type=int, required=True, help="term index")
    if big_n:
        sub.add_argument("-N", type=int, required=True, help="verification depth")
    sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    sub.add_argument("--digit-budget", type=int, default=None)
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--factored", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubic-orbit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("classify", help="print the parameter case"))
    _add_common(subs.add_parser("eigen", help="eigenvalue data of the coefficient matrix"))
    _add_common(subs.add_parser("power", help="closed-form matrix power"), n=True)
    _add_common(subs.add_parser("orbit", help="linearized orbit term (u_n, v_n)"), init=True, n=True)
    _add_common(subs.add_parser("zeroset", help="zero-set membership"), init=True)
    _add_common(subs.add_parser("solve", help="closed-form solution term"), init=True, n=True)
    _add_common(subs.add_parser("iterate", help="direct iteration of the system"), init=True, n=True)
    _add_common(subs.add_parser("verify", help="cross-check all solution paths"), init=True, big_n=True)
    return parser


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


def _value_json(fv: FactoredValue, factored: bool, budget: int):
    if not factored:
        return _render(fv.expand(budget), budget)
    return {
        "sign": fv.sign,
        "factors": [[_render(b, budget), _render(e, budget)] for b, e in fv.factors],
    }


def _value_text(fv: FactoredValue, factored: bool, budget: int) -> str:
    return _render(fv if factored else fv.expand(budget), budget)


def _emit(args, doc: dict, human_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(doc))
    else:
        for line in human_lines:
            print(line)
    return EXIT_OK


def _cmd_classify(args, params, init, budget):
    tag = classify(params)
    return _emit(args, {"schema": SCHEMA, "case": tag.value}, [f"case: {tag.value}"])


def _cmd_eigen(args, params, init, budget):
    tag = classify(params)
    eig = eigenvalues(params)
    doc = {
        "schema": SCHEMA,
        "case": tag.value,
        "discriminant": _render(eig.discriminant, budget),
        "rational": eig.is_rational,
        "lambda1": _render(eig.lam1, budget),
        "lambda2": _render(eig.lam2, budget),
    }
    lines = [
        f"case: {tag.value}",
        f"discriminant: {doc['discriminant']}",
        f"lambda1: {doc['lambda1']}",
        f"lambda2: {doc['lambda2']}",
    ]
    return _emit(args, doc, lines)


def _cmd_power(args, params, init, budget):
    mat = power(params, args.n)
    rows = [
        [_render(mat.a11, budget), _render(mat.a12, budget)],
        [_render(mat.a21, budget), _render(mat.a22, budget)],
    ]
    doc = {"schema": SCHEMA, "case": classify(params).value, "n": args.n, "matrix": rows}
    lines = [f"[{rows[0][0]}, {rows[0][1]}]", f"[{rows[1][0]}, {rows[1][1]}]"]
    return _emit(args, doc, lines)


def _cmd_orbit(args, params, init, budget):
    state = linear_orbit(params, init, args.n)
    doc = {
        "schema": SCHEMA,
        "case": classify(params).value,
        "n": state.n,
        "u": _render(state.u, budget),
        "v": _render(state.v, budget),
    }
    return _emit(args, doc, [f"u_{state.n} = {doc['u']}", f"v_{state.n} = {doc['v']}"])


def _cmd_zeroset(args, params, init, budget):
    verdict = zero_set_member(params, init, args.horizon)
    doc = {"schema": SCHEMA, "case": classify(params).value, "status": verdict.status.value}
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
    return _emit(args, doc, lines)


def _cmd_solve(args, params, init, budget):
    result = solve(params, init, args.n, horizon=args.horizon)
    tag = classify(params)
    if isinstance(result, TrivialReport):
        doc = {
            "schema": SCHEMA,
            "case": tag.value,
            "n": args.n,
            "trivial": {"member": True, "witness": result.witness},
        }
        _emit(args, doc, [f"trivial solution, witness={result.witness}"])
        return EXIT_TRIVIAL
    doc = {
        "schema": SCHEMA,
        "case": tag.value,
        "n": result.n,
        "x": _value_json(result.x, args.factored, budget),
        "y": _value_json(result.y, args.factored, budget),
        "trivial": {"member": False},
    }
    lines = [
        f"x_{result.n} = {_value_text(result.x, args.factored, budget)}",
        f"y_{result.n} = {_value_text(result.y, args.factored, budget)}",
    ]
    return _emit(args, doc, lines)


def _cmd_iterate(args, params, init, budget):
    terms = iterate_direct(params, init, args.n, budget)
    doc = {
        "schema": SCHEMA,
        "case": classify(params).value,
        "n": args.n,
        "terms": [
            {
                "n": t.n,
                "x": _value_json(t.x, args.factored, budget),
                "y": _value_json(t.y, args.factored, budget),
            }
            for t in terms
        ],
    }
    lines = [
        f"x_{t.n} = {_value_text(t.x, args.factored, budget)}, "
        f"y_{t.n} = {_value_text(t.y, args.factored, budget)}"
        for t in terms
    ]
    return _emit(args, doc, lines)


def _cmd_verify(args, params, init, budget):
    report = verify(params, init, args.N, digit_budget=budget, horizon=args.horizon)
    doc = {"schema": SCHEMA}
    doc.update(report.to_dict())
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
    return _emit(args, doc, lines)


_COMMANDS = {
    "classify": _cmd_classify,
    "eigen": _cmd_eigen,
    "power": _cmd_power,
    "orbit": _cmd_orbit,
    "zeroset": _cmd_zeroset,
    "solve": _cmd_solve,
    "iterate": _cmd_iterate,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
    except (ValueError, ZeroDivisionError) as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
    try:
        return _COMMANDS[args.command](args, *config)
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
