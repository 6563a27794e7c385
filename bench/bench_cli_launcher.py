"""Traced stand-in for ``python -m fenchelfix.cli``.

Times the interpreter start (from the runner's spawn time in
``BENCH_SPAWN_NS``, on the system-wide monotonic clock), the numpy import and
the package import, wraps every public function the CLI reaches, runs
``fenchelfix.cli.main`` and writes its spans to ``BENCH_TRACE_OUT`` as JSON.

Usage: PYTHONPATH=src python bench/bench_cli_launcher.py <cli arguments>
"""

import time

_started = time.monotonic_ns()
_t0 = time.perf_counter_ns()

import sys  # noqa: E402
import os  # noqa: E402

import numpy  # noqa: E402,F401

_t1 = time.perf_counter_ns()

import fenchelfix.cli  # noqa: E402

_t2 = time.perf_counter_ns()


def main() -> int:
    import bench_trace

    tracer = bench_trace.Tracer()
    interp_ns = _started - int(os.environ["BENCH_SPAWN_NS"])
    tracer.record("cli.interp", _t0 - interp_ns, _t0)
    tracer.record("cli.import.numpy", _t0, _t1)
    tracer.record("cli.import", _t1, _t2)
    bench_trace.install(tracer, bench_trace.targets(include_cli=True))
    try:
        code = tracer.wrap("cli.body", fenchelfix.cli.main)(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.write(os.environ["BENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
