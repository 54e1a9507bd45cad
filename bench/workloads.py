"""Workload inputs, operations and output checks.

Each workload draws its inputs from ``random.Random(seed)`` and hands the
program only the generated values.  Inputs come in rounds: a run attempts
whole rounds, so every run attempts the same mix of operations.  All
systems are built from integers; the oracle (oracle.py) never imports the
program.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import oracle

HORIZON = 64  # zero-set scan bound passed to the program explicitly


class Op:
    """One operation: ``params`` (a, b, c, d) and ``init`` (x0, y0) as
    Fractions, plus whatever the workload needs to run and check it."""

    __slots__ = ("params", "init", "n", "args", "spec")

    def __init__(self, params, init, n=None, args=None, spec=None):
        self.params = tuple(Fraction(t) for t in params)
        self.init = tuple(Fraction(t) for t in init) if init is not None else None
        self.n = n
        self.args = args
        self.spec = spec

    def __repr__(self):
        if isinstance(self.args, list):
            return " ".join(self.args)
        return f"params={self.params} init={self.init} n={self.n}"


def _check_solve_result(co, stats, op, result, scan_bound):
    """A TrivialReport needs a true first zero at its witness; an OrbitTerm
    needs no zero up to ``scan_bound`` and x_n, y_n equal to the literal
    recurrence modulo the oracle primes."""
    if isinstance(result, co.TrivialReport):
        oracle.check_case(op.params, result.case.value)
        oracle.check_member(op.params, op.init, result.witness)
        return
    if result.n != op.n:
        raise oracle.Mismatch(f"term index {result.n}, asked for {op.n}")
    oracle.check_no_zero(op.params, op.init, scan_bound)
    oracle.check_term(
        stats, op.params, op.init, op.n,
        (result.x.sign, result.x.factors), (result.y.sign, result.y.factors), "solve",
    )


class InProcess:
    """A workload whose op is one call of a public cubicorbit function;
    an op fails when the call raises."""

    def __init__(self, co, seed):
        self.co = co
        self.rng = random.Random(seed)

    def prepare(self, op):
        op.args = self.co.SystemParams(*op.params), self.co.InitialPair(*op.init)

    def run(self, op):
        return self.co.solve(*op.args, op.n, horizon=HORIZON)

    @staticmethod
    def failed(result):
        return isinstance(result, Exception)


# --- census ---------------------------------------------------------------

CENSUS_N = 8
CENSUS_INITS = ((1, 2), (2, -3))


class Census(InProcess):
    """solve(p, init, 8) over the non-degenerate grid {-3..3}^4 (2,304
    systems) times two initial pairs.  A round is that whole population,
    4,608 ops, in a seeded order: the median sits where the latency
    distribution is steep, so a round with another make-up would move it."""

    name = "census"
    tail_q = 0.99
    min_ops = 1000  # p99 keeps >= 10 samples beyond it

    def __init__(self, co, seed):
        super().__init__(co, seed)
        self.population = [
            (params, init)
            for params in itertools.product(range(-3, 4), repeat=4)
            if not oracle.is_degenerate(*params)
            for init in CENSUS_INITS
        ]

    def round(self):
        self.rng.shuffle(self.population)
        return [Op(params, init, CENSUS_N) for params, init in self.population]

    def check(self, stats, op, result):
        if not isinstance(result, self.co.TrivialReport):
            oracle.check_case(op.params, self.co.classify(op.args[0]).value)
        _check_solve_result(self.co, stats, op, result, HORIZON)


# --- deep_solve -----------------------------------------------------------

DEEP_N = (1000, 1250, 1500, 1750, 2000)


def _distinct_rational(rng, l2):
    """A = S diag(4, l2) S^-1 with S = [[1, s], [t, 1 + s t]] (det 1) and
    (x0, y0) = S (w1, w2) with w1, w2 > 0: every u_n, v_n is positive, so
    the pair is outside the zero set.  An even l2 would let u_n and v_n
    share powers of 2 and nearly halve the cost, so l2 is fixed per slot."""
    s, t = rng.choice((1, 2)), rng.choice((1, 2))
    S = (1, s, t, 1 + s * t)
    A = oracle.mat_mul(oracle.mat_mul(S, (4, 0, 0, l2)), (1 + s * t, -s, -t, 1))
    w1, w2 = rng.randint(1, 5), rng.randint(1, 5)
    return A, (S[0] * w1 + S[1] * w2, S[2] * w1 + S[3] * w2)


def _repeated(rng):
    """A = l I + N with N = [[p q, -p^2], [q^2, -p q]] nilpotent, so
    A^n (x0, y0) = l^(n-1) (l (x0, y0) + n (q x0 - p y0) (p, q)): with
    q x0 - p y0 > 0 every u_n, v_n is positive."""
    lam = rng.choice((2, 3))
    p, q = rng.choice((1, 2)), rng.choice((1, 2))
    while True:
        x0, y0 = rng.randint(1, 6), rng.randint(1, 6)
        if q * x0 - p * y0 > 0:
            break
    return (lam + p * q, -p * p, q * q, lam - p * q), (x0, y0)


def _rank_deficient(rng):
    """A = w z^T with positive w, z and a positive seed: never zero."""
    w = (rng.randint(1, 3), rng.randint(1, 3))
    z = (rng.randint(1, 3), rng.randint(1, 3))
    return (w[0] * z[0], w[0] * z[1], w[1] * z[0], w[1] * z[1]), (rng.randint(1, 5), rng.randint(1, 5))


def _antitrace(rng):
    """(a, b, c, -a) with a, b, c > 0 and a positive seed: x0 y0, a x0 + b y0
    and c x0 - a y0 are all nonzero, so the pair is outside Z3."""
    while True:
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        x0, y0 = rng.randint(1, 5), rng.randint(1, 5)
        if c * x0 - a * y0 != 0:
            return (a, b, c, -a), (x0, y0)


class DeepSolve(InProcess):
    """solve(p, init, n) with n in 1000..2000, left factored.  A round is
    twelve ops: a distinct-rational system (eigenvalues 4 and 1 or 3) and a
    repeated one at each n of DEEP_N, one rank-deficient and one trace-zero
    system."""

    name = "deep_solve"
    tail_q = 0.75
    min_ops = 40  # p75

    def round(self):
        rng = self.rng
        ops = [Op(*_distinct_rational(rng, 1 + 2 * (k % 2)), n) for k, n in enumerate(DEEP_N)]
        ops += [Op(*_repeated(rng), n) for n in DEEP_N]
        ops.append(Op(*_rank_deficient(rng), rng.choice(DEEP_N)))
        ops.append(Op(*_antitrace(rng), rng.choice(DEEP_N)))
        rng.shuffle(ops)
        return ops

    def check(self, stats, op, result):
        _check_solve_result(self.co, stats, op, result, op.n)


# --- verify_sweep ---------------------------------------------------------

VERIFY_DEPTHS = (10, 11)
VERIFY_BASE = 13
VERIFY_BASE_SEED = 2110


def _verify_base():
    """Thirteen systems from the grid {-3..3}^4 with initial pairs from
    {1, 2, 3}^2, drawn once from a fixed generator.  Their verify costs
    differ by 10x, so a per-run draw would move every end-to-end metric."""
    rng = random.Random(VERIFY_BASE_SEED)
    base = []
    for k in range(VERIFY_BASE):
        params = _grid_system(rng)
        base.append((params, (rng.randint(1, 3), rng.randint(1, 3)), VERIFY_DEPTHS[k % 2]))
    return base


def _variant(rng, params, init):
    """One of four cost-preserving images of (params, init): (x, y) -> (-x, -y)
    negates the orbit, and (a, b, c, d; x, y) -> (d, c, b, a; y, x) swaps
    the coordinates."""
    a, b, c, d = params
    x0, y0 = init
    if rng.random() < 0.5:
        x0, y0 = -x0, -y0
    if rng.random() < 0.5:
        (a, b, c, d), (x0, y0) = (d, c, b, a), (y0, x0)
    return (a, b, c, d), (x0, y0)


class VerifySweep(InProcess):
    """verify(p, init, depth) at depth 10 or 11.  A round is the thirteen
    systems of _verify_base, each in a seeded variant, in seeded order."""

    name = "verify_sweep"
    tail_q = 0.75
    min_ops = 40  # p75

    def __init__(self, co, seed):
        super().__init__(co, seed)
        self.base = _verify_base()

    def round(self):
        ops = [Op(*_variant(self.rng, params, init), depth) for params, init, depth in self.base]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        return self.co.verify(*op.args, op.n, horizon=HORIZON)

    def check(self, stats, op, report):
        oracle.check_verify_doc(op.params, op.init, op.n, HORIZON, report.to_dict())


# --- cli ------------------------------------------------------------------

FAULTY = [
    # Both exit 2 ("usage error: Exceeds the limit (4300 digits) for integer
    # string conversion") although the values are far inside the
    # documented 1,000,000-digit budget; the oracle expects exit 0.
    dict(cmd="solve", params=(2, 1, 1, 2), init=(1, 2), n=9, json=False),
    dict(cmd="power", params=(2, 1, 1, 2), n=20000, json=False),
]


def _grid_system(rng, nondegenerate=True):
    while True:
        params = tuple(rng.randint(-3, 3) for _ in range(4))
        if not (nondegenerate and oracle.is_degenerate(*params)):
            return params


def _rational_eigenvalues(a, b, c, d):
    disc = (a - d) ** 2 + 4 * b * c
    return disc >= 0 and math.isqrt(disc) ** 2 == disc


def _positive_system(rng):
    """Positive entries and rational eigenvalues: with a positive seed no
    u_n or v_n is ever zero, and membership is decided past any horizon."""
    while True:
        params = tuple(rng.randint(1, 3) for _ in range(4))
        if oracle.case_of(*params) == "distinct" and _rational_eigenvalues(*params):
            return params


def _irrational_system(rng):
    while True:
        params = _grid_system(rng)
        if oracle.case_of(*params) == "distinct" and not _rational_eigenvalues(*params):
            return params


def _member_system(rng):
    """Rank-deficient with a x0 + b y0 = 0: a member with witness 1."""
    a, b, t = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    return (a, b, t * a, t * b), (b, -a)


def _seed(rng):
    return rng.randint(1, 3), rng.randint(1, 3)


def cli_mix(rng):
    """One round: 24 commands covering all 8 subcommands in text and
    --json, every documented exit code but 2, and the two faulty commands.
    Positive systems with positive seeds never reach a zero, so their
    ``solve`` exits 0 (or 5 past the digit budget)."""
    g = _grid_system
    ok = oracle.EXIT_OK
    member_params, member_init = _member_system(rng)
    skolem = dict(cmd="solve", params=_irrational_system(rng), init=_seed(rng), n=HORIZON + 6,
                  json=True)
    skolem_zero = oracle.first_zero(skolem["params"], skolem["init"], HORIZON) is not None
    skolem["expect_exit"] = oracle.EXIT_TRIVIAL if skolem_zero else oracle.EXIT_UNKNOWN
    mix = [
        dict(cmd="classify", params=g(rng, False), json=False),
        dict(cmd="classify", params=g(rng, False), json=True),
        dict(cmd="eigen", params=g(rng, False), json=False),
        dict(cmd="eigen", params=g(rng, False), json=True),
        dict(cmd="power", params=g(rng, False), n=rng.randint(500, 2000), json=False),
        dict(cmd="power", params=g(rng, False), n=rng.randint(500, 2000), json=True),
        dict(cmd="orbit", params=g(rng, False), init=_seed(rng), n=rng.randint(500, 2000), json=False),
        dict(cmd="orbit", params=g(rng, False), init=_seed(rng), n=rng.randint(500, 2000), json=True),
        dict(cmd="zeroset", params=g(rng), init=_seed(rng), json=False),
        dict(cmd="zeroset", params=g(rng), init=_seed(rng), json=True),
        dict(cmd="solve", params=_positive_system(rng), init=_seed(rng), n=rng.randint(4, 5), json=False),
        dict(cmd="solve", params=_positive_system(rng), init=_seed(rng), n=rng.randint(4, 5), json=True),
        dict(cmd="solve", params=_positive_system(rng), init=_seed(rng), n=rng.randint(200, 400),
             json=True, factored=True),
        dict(cmd="solve", params=_positive_system(rng), init=_seed(rng), n=rng.randint(100, 200),
             json=False, factored=True),
        dict(cmd="iterate", params=g(rng), init=_seed(rng), n=rng.randint(3, 4), json=False),
        dict(cmd="iterate", params=g(rng), init=_seed(rng), n=rng.randint(3, 4), json=True),
        dict(cmd="verify", params=g(rng), init=_seed(rng), N=rng.randint(5, 7), json=False),
        dict(cmd="verify", params=g(rng), init=_seed(rng), N=rng.randint(5, 7), json=True),
        dict(cmd="solve", params=member_params, init=member_init, n=rng.randint(4, 9), json=True,
             expect_exit=oracle.EXIT_TRIVIAL),
        skolem,
        dict(cmd="zeroset", params=(rng.randint(1, 3), rng.randint(1, 3), 0, 0), init=_seed(rng),
             json=False, expect_exit=oracle.EXIT_DEGENERATE),
        dict(cmd="solve", params=_positive_system(rng), init=_seed(rng), n=40, json=False,
             expect_exit=oracle.EXIT_BUDGET),
    ] + [dict(spec) for spec in FAULTY]
    for spec in mix:
        spec.setdefault("expect_exit", ok)
        spec.setdefault("horizon", HORIZON)
    rng.shuffle(mix)
    return mix


def cli_argv(spec):
    a, b, c, d = spec["params"]
    argv = [spec["cmd"], f"-a={a}", f"-b={b}", f"-c={c}", f"-d={d}"]
    if spec.get("init") is not None:
        argv += [f"--x0={spec['init'][0]}", f"--y0={spec['init'][1]}"]
    if "n" in spec:
        argv += ["-n", str(spec["n"])]
    if "N" in spec:
        argv += ["-N", str(spec["N"])]
    if spec["json"]:
        argv.append("--json")
    if spec.get("factored"):
        argv.append("--factored")
    return argv


class Cli:
    """One `python -m cubicorbit.cli ...` child process per op, one at a
    time, from the 24-command mix of ``cli_mix``.  ``spawn(argv)`` is set by
    the harness and returns a ``subprocess.CompletedProcess``."""

    name = "cli"
    tail_q = 0.85
    min_ops = 67  # p85
    spawn = None

    def __init__(self, co, seed):
        self.rng = random.Random(seed)

    def round(self):
        return [
            Op(spec["params"], spec.get("init"), spec.get("n"), cli_argv(spec), spec)
            for spec in cli_mix(self.rng)
        ]

    def prepare(self, op):
        pass

    def run(self, op):
        return self.spawn(op.args)

    @staticmethod
    def failed(child):
        return child.returncode not in oracle.OUTCOME_EXITS

    def check(self, stats, op, child):
        oracle.check_cli(stats, op.spec, child.returncode, child.stdout)

WORKLOADS = {w.name: w for w in (Census, DeepSolve, VerifySweep, Cli)}
