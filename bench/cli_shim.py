"""Traced stand-in for `python -m cubicorbit.cli ARGS`.

Runs cubicorbit.cli.run(ARGS) with the layer wrappers of tracing.py
installed, then appends one line to stderr: a marker and a JSON report with
the process start time (CLOCK_MONOTONIC, comparable with the parent's), the
import and run times, the per-layer summary and the spans.
"""

import time

START = time.monotonic()

import sys  # noqa: E402


def main():
    t0 = time.perf_counter()
    import cubicorbit.cli as cli

    import_ms = (time.perf_counter() - t0) * 1000
    import json

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    t1 = time.perf_counter()
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    run_ms = (time.perf_counter() - t1) * 1000
    tracer.active = False
    sys.stdout.flush()
    report = {"start": START, "import_ms": import_ms, "run_ms": run_ms,
              "summary": tracer.summary(), "spans": tracer.spans}
    sys.stderr.write("\nBENCH-TRACE " + json.dumps(report) + "\n")
    return code


sys.exit(main())
