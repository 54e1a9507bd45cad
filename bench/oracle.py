"""Independent correctness oracle for the benchmark.

Nothing here imports cubicorbit.  Every check recomputes what it needs from
the system x' = x y (a x + b y), y' = x y (c x + d y) itself:

* terms x_n, y_n are compared modulo fixed large primes against the literal
  cubic recurrence iterated modulo the same primes;
* the zeros of the linear orbit (u_n, v_n) = A^n (x0, y0) come from an
  exact integer scan;
* the parameter case comes from det, discriminant and trace.

The primes are safe primes p = 2q + 1 (q prime), not Mersenne primes: every
residue other than 0 and +-1 then has multiplicative order q or 2q, so no
power of a small base repeats with a short period modulo p.
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

PRIMES = (4611686018427377339, 9223372036854771239)

SCHEMA = "cubic-orbit/1"
# Exit codes documented in the repository README; 2 (usage error) and any
# other code are failures, not outcomes.
EXIT_OK, EXIT_DEGENERATE, EXIT_TRIVIAL, EXIT_BUDGET, EXIT_UNKNOWN = 0, 3, 4, 5, 6
OUTCOME_EXITS = (EXIT_OK, EXIT_DEGENERATE, EXIT_TRIVIAL, EXIT_BUDGET, EXIT_UNKNOWN)


class Mismatch(Exception):
    """An output of the program disagrees with the oracle."""


class Stats:
    """Oracle bookkeeping for one run."""

    def __init__(self):
        self.primes_checked = 0
        self.primes_skipped = 0


# --- arithmetic ---------------------------------------------------------


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rat_mod(r: Fraction, p: int):
    """r modulo p, or None when p divides the denominator."""
    den = r.denominator % p
    if den == 0:
        return None
    return r.numerator * pow(den, -1, p) % p


def sign_of(r) -> int:
    return (r > 0) - (r < 0)


def case_of(a, b, c, d) -> str:
    """The parameter case by the documented precedence: det, then
    discriminant, then trace."""
    if a * d - b * c == 0:
        return "rank-deficient"
    if (a - d) ** 2 + 4 * b * c == 0:
        return "repeated"
    if a + d == 0:
        return "antitrace-distinct"
    return "distinct"


def is_degenerate(a, b, c, d) -> bool:
    return (a == 0 and b == 0) or (c == 0 and d == 0)


def mat_power(a, b, c, d, n: int):
    """A^n by repeated squaring over Fraction."""
    r = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    m = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))
    while n:
        if n & 1:
            r = mat_mul(r, m)
        m = mat_mul(m, m)
        n >>= 1
    return r


def mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def orbit_exact(params, init, n: int):
    """(u_n, v_n) exactly."""
    a, b, c, d = mat_power(*params, n)
    x0, y0 = init
    return a * x0 + b * y0, c * x0 + d * y0


def _integer_orbit(params, init):
    """An integer orbit with the same zeros as (u_k, v_k): scale A by the
    lcm of its denominators and the seed by the lcm of theirs."""
    params = [Fraction(t) for t in params]
    init = [Fraction(t) for t in init]
    la = math.lcm(*(t.denominator for t in params))
    li = math.lcm(*(t.denominator for t in init))
    a, b, c, d = (int(t * la) for t in params)
    u, v = (int(t * li) for t in init)
    return a, b, c, d, u, v


def first_zero(params, init, bound: int):
    """Least k <= bound with u_k v_k = 0, or None, by an exact scan."""
    a, b, c, d, u, v = _integer_orbit(params, init)
    for k in range(bound + 1):
        if u == 0 or v == 0:
            return k
        u, v = a * u + b * v, c * u + d * v
    return None


def literal_mod(params, init, n: int, p: int):
    """(x_n, y_n) modulo p by the literal cubic recurrence."""
    a, b, c, d, x, y = (rat_mod(Fraction(t), p) for t in (*params, *init))
    for _ in range(n):
        xy = x * y % p
        x, y = xy * (a * x + b * y) % p, xy * (c * x + d * y) % p
    return x, y


def factored_mod(sign: int, factors, p: int, cache: dict):
    """sign * prod(base^exp) modulo p with exponents reduced mod p - 1, or
    None when p divides a base's denominator.  Bases are Fractions;
    ``cache`` maps (numerator, denominator, exp) to its residue across calls."""
    acc = sign % p
    for base, exp in factors:
        key = (base.numerator, base.denominator, exp)
        r = cache.get(key)
        if r is None:
            num, den = key[0] % p, key[1] % p
            if den == 0 or (exp < 0 and num == 0):
                return None
            if num == 0:
                r = 0
            else:
                r = pow(num * pow(den, -1, p) % p, exp % (p - 1), p)
                if exp < 0:
                    r = pow(r, -1, p)
            cache[key] = r
        acc = acc * r % p
    return acc


def check_term(stats: Stats, params, init, n: int, x, y, what: str = "term"):
    """x and y are each a Fraction or a (sign, factors) pair; both must
    equal the literal x_n, y_n modulo every prime that divides no
    denominator, and at least one prime must be usable."""
    checked = 0
    for p in PRIMES:
        want = literal_mod(params, init, n, p)
        cache = {}
        got = tuple(
            rat_mod(v, p) if isinstance(v, Fraction) else factored_mod(v[0], v[1], p, cache)
            for v in (x, y)
        )
        if None in got:
            stats.primes_skipped += 1
            continue
        if got != want:
            raise Mismatch(f"{what}: n={n} differs from the literal recurrence mod {p}")
        checked += 1
    stats.primes_checked += checked
    if not checked:
        raise Mismatch(f"{what}: every prime divides a denominator")


def check_case(params, case: str):
    want = case_of(*params)
    if case != want:
        raise Mismatch(f"case {case!r}, oracle says {want!r}")


def check_member(params, init, witness: int):
    """The witness must give u v = 0 with no earlier zero."""
    if witness is None or witness < 0:
        raise Mismatch(f"bad witness {witness!r}")
    u, v = orbit_exact(params, init, witness)
    if u * v != 0:
        raise Mismatch(f"witness {witness}: u v != 0")
    if witness and first_zero(params, init, witness - 1) is not None:
        raise Mismatch(f"witness {witness}: an earlier index is zero")


def check_no_zero(params, init, bound: int):
    k = first_zero(params, init, bound)
    if k is not None:
        raise Mismatch(f"claimed no zero up to {bound}, but u v = 0 at {k}")


# --- CLI output -----------------------------------------------------------

_QUAD = re.compile(r"^(\S+) \+ (\S+)\*sqrt\((\S+)\)$")
_FACTOR = re.compile(r"^\(([^()]+)\)\^(\d+)$")


def parse_factored_text(text: str):
    """'-(p/q)^e * (r)^f' as printed by --factored, to (sign, factors)."""
    text = text.strip()
    if text == "0":
        return 0, []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    if text == "1":
        return sign, []
    factors = []
    for part in text.split(" * "):
        m = _FACTOR.match(part)
        if not m:
            raise Mismatch(f"unparsable factor {part[:40]!r}")
        factors.append((Fraction(m.group(1)), int(m.group(2))))
    return sign, factors


def value_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    if set(v) != {"sign", "factors"}:
        raise Mismatch(f"factored value keys {sorted(v)}")
    return v["sign"], [(Fraction(b), int(e)) for b, e in v["factors"]]


def value_from_text(s: str, factored: bool):
    return parse_factored_text(s) if factored else Fraction(s)


# Keys every --json document of a command must have, besides "schema".
DOC_KEYS = {
    "classify": ["case"],
    "eigen": ["case", "discriminant", "rational", "lambda1", "lambda2"],
    "power": ["case", "n", "matrix"],
    "orbit": ["case", "n", "u", "v"],
    "zeroset": ["case", "status"],
    "solve": ["case", "n", "trivial"],
    "iterate": ["case", "n", "terms"],
    "verify": ["case", "depth", "trivial", "equal_by_n", "all_equal"],
}


@contextmanager
def unlimited_digits():
    """Lift Python's 4300-digit limit on int/str conversion: exact values of
    many thousand digits are valid output, and the oracle must parse them."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _doc(stdout: str, keys):
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise Mismatch(f"--json printed {len(lines)} lines")
    doc = json.loads(lines[0])
    if doc.get("schema") != SCHEMA:
        raise Mismatch(f"schema {doc.get('schema')!r}")
    missing = set(keys) - set(doc)
    if missing:
        raise Mismatch(f"missing keys {sorted(missing)}")
    return doc


def _kv_line(line: str, prefix: str) -> str:
    if not line.startswith(prefix):
        raise Mismatch(f"expected {prefix!r}, got {line[:60]!r}")
    return line[len(prefix):]


def check_cli(stats: Stats, spec: dict, code: int, stdout: str):
    """Check one CLI invocation described by ``spec`` (see workloads.cli_mix)
    against the oracle.  Raises Mismatch on a wrong answer."""
    expected = spec["expect_exit"]
    if code != expected:
        raise Mismatch(f"exit {code}, oracle expects {expected}")
    if code != EXIT_OK and not (spec["cmd"] == "solve" and code == EXIT_TRIVIAL):
        return
    with unlimited_digits():
        _check_output(stats, spec, code, stdout)


def _check_output(stats, spec, code, stdout):
    cmd, params, init = spec["cmd"], spec["params"], spec.get("init")
    factored = spec.get("factored", False)
    lines = stdout.splitlines()
    doc = _doc(stdout, DOC_KEYS[cmd]) if spec["json"] else None
    # The case is checked here, once; check_verify_doc checks a verify report's.
    if doc is not None and cmd != "verify":
        check_case(params, doc["case"])
    elif doc is None and cmd in ("classify", "eigen"):
        check_case(params, _kv_line(lines[0], "case: "))
    if cmd == "classify":
        pass
    elif cmd == "eigen":
        _check_eigen(params, lines, doc)
    elif cmd == "power":
        rows = doc["matrix"] if doc else [line.strip("[]").split(", ") for line in lines]
        if tuple(Fraction(e) for row in rows for e in row) != mat_power(*params, spec["n"]):
            raise Mismatch(f"power n={spec['n']} differs from the oracle")
    elif cmd == "orbit":
        n = spec["n"]
        got = (doc["u"], doc["v"]) if doc else (_kv_line(lines[0], f"u_{n} = "),
                                                _kv_line(lines[1], f"v_{n} = "))
        if tuple(map(Fraction, got)) != orbit_exact(params, init, n):
            raise Mismatch(f"orbit n={n} differs from the oracle")
    elif cmd == "zeroset":
        _check_zeroset(params, init, spec["horizon"], stdout, doc)
    elif cmd == "solve":
        _check_solve(stats, spec, code, lines, doc, factored)
    elif cmd == "iterate":
        if doc:
            terms = [(t["n"], value_from_json(t["x"]), value_from_json(t["y"])) for t in doc["terms"]]
        else:
            terms = []
            for k, line in enumerate(lines):
                xs, ys = line.split(", ")
                terms.append((k, value_from_text(_kv_line(xs, f"x_{k} = "), factored),
                              value_from_text(_kv_line(ys, f"y_{k} = "), factored)))
        if [t[0] for t in terms] != list(range(spec["n"] + 1)):
            raise Mismatch("iterate: wrong term indices")
        for k, x, y in terms:
            check_term(stats, params, init, k, x, y, "iterate")
    elif cmd == "verify":
        _check_verify(params, init, spec["N"], spec["horizon"], lines, doc)
    else:
        raise Mismatch(f"no oracle for {cmd!r}")


def _check_eigen(params, lines, doc):
    a, b, c, d = (Fraction(t) for t in params)
    disc, half = (a - d) ** 2 + 4 * b * c, (a + d) / 2
    if doc:
        got = doc["discriminant"], doc["lambda1"], doc["lambda2"]
    else:
        got = tuple(_kv_line(lines[i], f"{k}: ") for i, k in
                    ((1, "discriminant"), (2, "lambda1"), (3, "lambda2")))
    if Fraction(got[0]) != disc:
        raise Mismatch("eigen: discriminant")
    for text, sgn in ((got[1], 1), (got[2], -1)):
        m = _QUAD.match(text)
        if m:
            p, q, D = (Fraction(g) for g in m.groups())
            ok = p == half and q == Fraction(sgn, 2) and D == disc
        else:
            lam = Fraction(text)
            ok = lam * lam - 2 * half * lam + (a * d - b * c) == 0 and sign_of(lam - half) in (sgn, 0)
        if not ok:
            raise Mismatch(f"eigen: eigenvalue {text[:40]!r}")
    if doc and doc["rational"] is not (_QUAD.match(got[1]) is None):
        raise Mismatch("eigen: rational flag")


def _check_zeroset(params, init, horizon, stdout, doc):
    zero = first_zero(params, init, horizon)
    if doc:
        status, witness = doc["status"], doc.get("witness")
        if status == "unknown-within-horizon" and doc.get("horizon") != horizon:
            raise Mismatch("zeroset: horizon")
    else:
        line = stdout.strip()
        if line.startswith("member=true witness="):
            status, witness = "member", int(line.split("=")[-1])
        elif line == "member=false":
            status, witness = "non-member", None
        elif line == f"member=unknown horizon={horizon}":
            status, witness = "unknown-within-horizon", None
        else:
            raise Mismatch(f"zeroset: {line[:60]!r}")
    if status == "member":
        check_member(params, init, witness)
    elif status in ("non-member", "unknown-within-horizon"):
        if zero is not None:
            raise Mismatch(f"zeroset: {status}, but u v = 0 at {zero}")
    else:
        raise Mismatch(f"zeroset: status {status!r}")


def _check_solve(stats, spec, code, lines, doc, factored):
    params, init, n = spec["params"], spec["init"], spec["n"]
    if code == EXIT_TRIVIAL:
        if doc:
            trivial = doc["trivial"]
            if trivial.get("member") is not True:
                raise Mismatch("solve: trivial.member")
            witness = trivial.get("witness")
        else:
            witness = int(_kv_line(lines[0], "trivial solution, witness="))
        check_member(params, init, witness)
        return
    if doc:
        if doc["n"] != n or doc["trivial"] != {"member": False} or not {"x", "y"} <= set(doc):
            raise Mismatch("solve: n, trivial, x or y")
        x, y = value_from_json(doc["x"]), value_from_json(doc["y"])
    else:
        x = value_from_text(_kv_line(lines[0], f"x_{n} = "), factored)
        y = value_from_text(_kv_line(lines[1], f"y_{n} = "), factored)
    check_no_zero(params, init, n)
    check_term(stats, params, init, n, x, y, "solve")


def _check_verify(params, init, depth, horizon, lines, doc):
    if not doc:
        doc = {"case": _kv_line(lines[0], "case: "), "depth": depth, "trivial": {}}
        if lines[1].startswith("trivial solution"):
            fields = dict(f.split("=") for f in lines[1].split(", ")[1:])
            doc["trivial"] = {"member": True, "witness": int(fields["witness"]),
                              "zeros_confirmed": fields["zeros_confirmed"] == "True"}
        else:
            doc["trivial"]["member"] = False
            doc["equal_by_n"] = [_kv_line(line, f"n={k} equal=") == "True"
                                 for k, line in enumerate(lines[1:-1])]
            doc["all_equal"] = _kv_line(lines[-1], "all_equal=") == "True"
    check_verify_doc(params, init, depth, horizon, doc)


def check_verify_doc(params, init, depth, horizon, doc):
    """A verify report (VerificationReport.to_dict or the CLI's JSON): the
    case and zero-set verdict must match the oracle, and a non-member must
    show agreement at every n <= depth."""
    check_case(params, doc["case"])
    if doc["depth"] != depth:
        raise Mismatch(f"verify: depth {doc['depth']}")
    trivial = doc["trivial"]
    if trivial["member"]:
        check_member(params, init, trivial.get("witness"))
        if trivial.get("zeros_confirmed") is not True:
            raise Mismatch("verify: zeros after the witness not confirmed")
        return
    unknown = "unknown_within_horizon" in trivial
    check_no_zero(params, init, horizon if unknown else max(depth, horizon))
    if doc["equal_by_n"] != [True] * (depth + 1) or doc["all_equal"] is not True:
        raise Mismatch("verify: closed forms disagree with direct iteration")


# --- self-test ------------------------------------------------------------


def reconstruction(params, init, n: int):
    """x_n, y_n as (sign, factors) from the linearization
    x_n = u_n prod_{k<n} (u_k v_k)^(3^(n-1-k)), written out independently."""
    a, b, c, d = params
    orbit = [tuple(init)]
    for _ in range(n):
        u, v = orbit[-1]
        orbit.append((a * u + b * v, c * u + d * v))
    prod = [(u * v, 3 ** (n - 1 - k)) for k, (u, v) in enumerate(orbit[:n])]
    u_n, v_n = orbit[n]
    return (1, prod + [(u_n, 1)]), (1, prod + [(v_n, 1)])


def self_test():
    """Show that the oracle accepts a correct value and rejects corrupted
    ones; returns a list of problems (empty when the oracle is sound)."""
    problems = []
    for p in PRIMES:
        if not (is_probable_prime(p) and is_probable_prime((p - 1) // 2)):
            problems.append(f"{p} is not a safe prime")
        if p & (p + 1) == 0:
            problems.append(f"{p} is a Mersenne prime")
    # (3,1,2,2) with seed (1,2) at n = 500 vanishes modulo 2^61 - 1.
    params, init, n = (3, 1, 2, 2), (Fraction(1), Fraction(2)), 500
    x, y = reconstruction(params, init, n)
    if rejects_term(params, init, n, x, y):
        problems.append("rejects a correct factored value")
    sign, factors = x
    bumped = [(factors[0][0], factors[0][1] + 1)] + factors[1:]
    if not rejects_term(params, init, n, (sign, bumped), y):
        problems.append("accepts an exponent + 1")
    if not rejects_term(params, init, n, (-sign, factors), y):
        problems.append("accepts a flipped sign")
    # x_3 of (2,1,1,2) from (1,2), printed as a plain rational.
    x, y = Fraction(1), Fraction(2)
    for _ in range(3):
        x, y = x * y * (2 * x + y), x * y * (x + 2 * y)
    if not rejects_term((2, 1, 1, 2), (1, 2), 3, -x, y):
        problems.append("accepts a negated rational")
    # power -n 20000 of (2,1,1,2) prints (3^20000 +- 1) / 2, about 9,540 digits:
    # values past Python's 4300-digit str limit must parse, and be checked.
    spec = dict(cmd="power", params=(2, 1, 1, 2), n=20000, json=False, expect_exit=EXIT_OK)
    with unlimited_digits():
        hi, lo = str((3 ** 20000 + 1) // 2), str((3 ** 20000 - 1) // 2)
    if rejects_cli(spec, f"[{hi}, {lo}]\n[{lo}, {hi}]\n"):
        problems.append("rejects a correct 9,540-digit matrix power")
    if not rejects_cli(spec, f"[{lo}, {hi}]\n[{hi}, {lo}]\n"):
        problems.append("accepts a wrong 9,540-digit matrix power")
    # A^2 = 0 and v_0 = 0: index 2 is a zero, but not the first one.
    try:
        check_member((1, 1, -1, -1), (1, 0), 2)
        problems.append("accepts a witness with an earlier zero")
    except Mismatch:
        pass
    return problems


def rejects_term(params, init, n, x, y) -> bool:
    try:
        check_term(Stats(), params, init, n, x, y, "self-test")
    except Mismatch:
        return True
    return False


def rejects_cli(spec, stdout) -> bool:
    try:
        check_cli(Stats(), spec, EXIT_OK, stdout)
    except Exception:  # the harness counts any exception as a wrong answer
        return True
    return False


if __name__ == "__main__":
    found = self_test()
    for problem in found:
        print(f"oracle self-test: {problem}")
    print("oracle self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
