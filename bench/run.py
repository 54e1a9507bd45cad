"""End-to-end and per-layer benchmark for cubicorbit.

    python3 bench/run.py --workload census --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

The program is imported from ``src/`` beside this directory, never from an
installed copy.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SHIM_MARK = "BENCH-TRACE "
# Identical work runs up to 20 % faster or slower from one process to the
# next on the reference machine, and at a steady speed within a process, so
# an untraced run splits its time over several consecutive worker processes.
WORKERS = {"census": 4, "deep_solve": 5, "verify_sweep": 5, "cli": 3}
TRACE_ROUNDS = {"census": 1, "deep_solve": 2, "verify_sweep": 3, "cli": 1}
WALL_LIMIT_S = 140  # no round starts after this much wall time in a run
NAMES = tuple(WORKERS)
E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "cubicorbit" / "__init__.py").is_file():
        die(f"no cubicorbit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubicorbit

    if Path(cubicorbit.__file__).resolve().parent != (SRC / "cubicorbit").resolve():
        die(f"imported cubicorbit from {cubicorbit.__file__}, not from {SRC}")
    return cubicorbit


def _child_env():
    env = dict(os.environ)
    env.pop("CUBIC_ORBIT_DIGIT_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


CHILD_ENV = _child_env()


def spawn(args):
    """Run ``python3 ARGS`` to its end with its output captured.  The result
    also carries ``spawned``, the CLOCK_MONOTONIC time just before the start."""
    spawned = time.monotonic()
    child = subprocess.run([sys.executable, *args], env=CHILD_ENV, capture_output=True,
                           text=True)
    child.spawned = spawned
    return child


def setup(co, name, seed):
    """Generate the first round of inputs."""
    import workloads

    wl = workloads.WORKLOADS[name](co, seed)
    if name == "cli":
        wl.spawn = lambda argv: spawn(["-m", "cubicorbit.cli", *argv])
    return wl, wl.round()


class Tally:
    def __init__(self):
        import oracle

        self.stats = oracle.Stats()
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.rss_kb = 0  # set by measure()

    def op(self, wl, op, tracer=None):
        if tracer:
            tracer.op += 1
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed operation, counted below
            out = exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        self.latencies.append(elapsed)
        if wl.failed(out):
            self.failed += 1
            return out
        try:
            wl.check(self.stats, op, out)
        except Exception as exc:  # a wrong or unparsable answer
            self.errors.append(f"wrong: {type(exc).__name__}: {exc} [{op}]")
        return out


def measure(wl, first, seconds, min_ops, wall_limit):
    """Whole rounds until ``seconds`` inside operations and ``min_ops``."""
    tally = Tally()
    ops = first
    wall0 = time.monotonic()
    while True:
        for op in ops:
            wl.prepare(op)
            tally.op(wl, op)
        if sum(tally.latencies) >= seconds and len(tally.latencies) >= min_ops:
            break
        if time.monotonic() - wall0 > wall_limit:
            print(f"bench: wall-clock limit after {len(tally.latencies)} ops", file=sys.stderr)
            break
        ops = wl.round()
    # For cli the peak is that of the largest child, which the worker reaped.
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    tally.rss_kb = resource.getrusage(who).ru_maxrss
    return tally


def worker(args, co):
    """One worker process of an untraced run; prints its tally as JSON."""
    wl, first = setup(co, args.workload, args.seed * 1000 + args.worker)
    ready = time.monotonic()
    share = WORKERS[args.workload]
    tally = measure(wl, first, args.seconds / share, math.ceil(wl.min_ops / share),
                    WALL_LIMIT_S / share)
    print(json.dumps({
        "ready": ready, "latencies": tally.latencies, "failed": tally.failed,
        "errors": tally.errors, "rss_kb": tally.rss_kb,
        "primes_checked": tally.stats.primes_checked,
        "primes_skipped": tally.stats.primes_skipped,
    }))
    return 0


def tail(latencies, q):
    ordered = sorted(latencies)
    return ordered[math.ceil(q * len(ordered)) - 1]


def measured(args, co):
    """The untraced run: consecutive worker processes, pooled."""
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tally = Tally()
    setups, rss_kb = [], 0
    argv = [str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    for k in range(WORKERS[args.workload]):
        child = spawn([*argv, "--worker", str(k)])
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            die(f"worker {k} exited {child.returncode}")
        part = json.loads(child.stdout.splitlines()[-1])
        setups.append(part["ready"] - child.spawned)
        tally.latencies += part["latencies"]
        tally.failed += part["failed"]
        tally.errors += part["errors"]
        rss_kb = max(rss_kb, part["rss_kb"])
        tally.stats.primes_checked += part["primes_checked"]
        tally.stats.primes_skipped += part["primes_skipped"]
    lat = tally.latencies
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail(lat, wl.tail_q) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    return wl, tally, metrics, None


def traced(args, co):
    """Each op of a fixed number of rounds runs twice in one process, once
    untraced and once traced, in alternating order; the overhead compares
    the two totals, so a drift of the machine's speed falls on both alike."""
    import tracing

    wl, first = setup(co, args.workload, args.seed)
    rounds = [first] + [wl.round() for _ in range(TRACE_ROUNDS[args.workload] - 1)]
    ops = [op for r in rounds for op in r]
    for op in ops:
        wl.prepare(op)
    tally = Tally()
    tracer = tracing.Tracer()
    summary, cli = {}, {}
    is_cli = wl.name == "cli"
    if is_cli:
        plain = wl.spawn

        def shim(argv):
            return spawn([str(BENCH / "cli_shim.py"), *argv])
    else:
        switch = tracing.install(tracer)
    total_s = {False: 0.0, True: 0.0}
    for k, op in enumerate(ops):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if is_cli:
                wl.spawn = shim if on else plain
            else:
                switch(on)
            out = tally.op(wl, op, tracer if on and not is_cli else None)
            total_s[on] += tally.latencies[-1]
            if on and is_cli:
                report = json.loads(out.stderr.rsplit(SHIM_MARK, 1)[1])
                tracing.merge(summary, report["summary"])
                cli["interp_start_ms"] = cli.get("interp_start_ms", 0.0) + (
                    report["start"] - out.spawned) * 1000
                cli["import_ms"] = cli.get("import_ms", 0.0) + report["import_ms"]
                cli["run_ms"] = cli.get("run_ms", 0.0) + report["run_ms"]
                tracer.spans += [[len(tally.latencies), *s[1:]] for s in report["spans"]]
    if not is_cli:
        switch(False)
        summary = tracer.summary()
    overhead = (total_s[True] - total_s[False]) / total_s[False] * 100
    return wl, tally, tracing.per_layer(summary, cli, overhead), tracer.spans


def report(args, wl, tally, metrics, spans):
    import oracle
    import tracing

    tally.errors += [f"oracle self-test: {p}" for p in oracle.self_test()]
    units = tracing.UNITS if args.trace else E2E_UNITS
    result = {
        "correct": not tally.errors,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  tail_percentile=100 * wl.tail_q, min_ops=wl.min_ops,
                  primes_checked=tally.stats.primes_checked,
                  primes_skipped=tally.stats.primes_skipped, errors=tally.errors,
                  python=sys.version.split()[0], nproc=os.cpu_count())
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  ops {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}  "
          f"tail p{100 * wl.tail_q:g}  primes skipped {tally.stats.primes_skipped}")
    for k, m in result["metrics"].items():
        print(f"  {k:36s} {m['value']:14.6g} {m['unit']}")
    for e in tally.errors[:10]:
        print(f"  ! {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, so no RSS leaks between them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    argv = [str(BENCH / "run.py"), "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    for name in NAMES:
        child = spawn([*argv, "--workload", name])
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        part = json.loads(child.stdout.splitlines()[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for k, m in part["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    co = import_program()
    if args.worker is not None:
        return worker(args, co)
    return report(args, *(traced if args.trace else measured)(args, co))


if __name__ == "__main__":
    sys.exit(main())
