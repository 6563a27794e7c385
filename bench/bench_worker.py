"""Worker process of solve-verify and grid-verify.

Started fresh by ``run.py`` with ``PYTHONPATH=src``.  It builds the round
from the seed, runs one untimed warm-up op, then runs one op per ``go`` from
the runner and sends back the op's time and output.  The runner checks each
output while this process waits, so checking never overlaps a timed op and
the checkers' memory never counts toward this process's peak RSS.

With ``--trace 1`` every op runs twice, traced and untraced, in alternating
order, so the run yields the per-layer figures and the tracing overhead.

Usage: python bench/bench_worker.py <workload> <seed> <trace> <spans-path>
"""

from __future__ import annotations

import resource
import sys
import time


def main(argv) -> int:
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    out = sys.stdout.buffer
    inp = sys.stdin.buffer
    sys.stdout = sys.stderr  # keep stray prints off the message channel

    import bench_ipc
    import bench_ops
    import bench_trace

    make_round, prepare, op = bench_ops.WORKLOADS[workload]
    specs = make_round(seed)
    bench_ipc.send(out, {"kind": "ready", "ops_per_round": len(specs)})

    op(prepare(specs[0]), bench_trace.no_span)  # untimed warm-up

    tracer = bench_trace.Tracer()
    wrapped = bench_trace.targets() if trace else []
    clock = time.perf_counter_ns
    index = 0
    while bench_ipc.recv(inp) == "go":
        spec = specs[index % len(specs)]
        args = prepare(spec)
        modes = [False] if not trace else ([True, False] if index % 2 == 0 else [False, True])
        results = []
        for traced in modes:
            span = bench_trace.no_span
            restore = None
            if traced:
                tracer.op = index
                restore = bench_trace.install(tracer, wrapped)
                span = tracer.span
            error = None
            result = None
            start = clock()
            try:
                if traced:
                    with span("op"):
                        result = op(args, span)
                else:
                    result = op(args, span)
            except Exception as exc:  # a failed op is counted, not fatal
                error = repr(exc)
            end = clock()
            if restore is not None:
                restore()
            results.append({"traced": traced, "ns": end - start, "out": result, "error": error})
        bench_ipc.send(out, {"kind": "op", "index": index, "results": results})
        del args, results, result
        index += 1

    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if trace:
        tracer.write(spans_path)
        totals = bench_trace.Totals()
        totals.add(tracer.spans)
        layers = totals.metrics(index)
    bench_ipc.send(out, {"kind": "done", "maxrss_kib": maxrss_kib, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
