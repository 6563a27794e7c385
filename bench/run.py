"""fenchelfix benchmark: one command for every workload.

    python3 bench/run.py --workload {cli-cold,solve-verify,grid-verify}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program is used from source
(``PYTHONPATH=src``).  A run measures the set-up time, then executes whole
rounds of the workload's fixed op sequence until at least ``--seconds`` of
op time have been measured, checks every op's output with the checkers in
``bench_checks``, takes each op's time as its median over the rounds, and
prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every op also runs traced
and the metrics are the per-layer ones plus the tracing overhead.  The full
record of the run goes to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time

# Children get the caller's environment.  The runner itself keeps OpenBLAS
# to one thread: its checks run between timed ops, and idle OpenBLAS threads
# spin for a while after each call, on the CPU a timed op would share.
CHILD_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("cli-cold", "solve-verify", "grid-verify")
SETUP_STARTS = 5  # cold starts per run; setup_s is their median
MAX_PROBLEMS = 20  # problems kept in the run record
# Fewest rounds of a solve-verify or grid-verify run, so that each op's
# median time rejects a sample taken while the machine ran slow.  cli-cold
# needs one round: each round already runs every config twice.
WORKER_MIN_ROUNDS = 3


def child_env(**extra) -> dict:
    env = dict(CHILD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def machine_facts(blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(module: str):
    """Seconds from spawning a fresh interpreter until it has imported
    ``module`` and is ready for its first op, for SETUP_STARTS starts; and
    the OpenBLAS thread count those interpreters run with."""
    probe = os.path.join(HERE, "bench_probe.py")
    samples = []
    threads = None
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, module], stdout=subprocess.PIPE, env=child_env())
        line = proc.stdout.readline()
        ready = time.perf_counter()
        threads = proc.stdout.read().strip().decode()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {module} failed")
        samples.append(ready - start)
    return samples, None if threads in ("", "None") else int(threads)


class Run:
    """Op times, counts and problems of one run.

    Times are kept per slot, an op's place in the round, so that each op's
    time can be taken as the median over the rounds of the run."""

    def __init__(self, per_round: int, min_rounds: int):
        self.per_round = per_round
        self.min_rounds = min_rounds
        self.untraced_ns: list = [[] for _ in range(per_round)]
        self.traced_ns: list = [[] for _ in range(per_round)]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: dict = {}

    def add(self, index: int, traced: bool, ns: int, error, problems) -> None:
        self.attempted += 1
        (self.traced_ns if traced else self.untraced_ns)[index % self.per_round].append(ns)
        if error is not None:
            self.failed += 1
            self.problems.append(f"failed: {error}")
        self.problems += [f"op {index}: {p}" for p in problems]

    def finished(self, index: int, seconds: float) -> bool:
        """True at a round boundary once at least ``min_rounds`` rounds and
        ``seconds`` of op time are measured."""
        if index < self.min_rounds * self.per_round or index % self.per_round:
            return False
        return sum(sum(t) for t in self.untraced_ns + self.traced_ns) / 1e9 >= seconds

    def checked(self, index: int, out, check) -> list:
        """Problems of one op's output.  An output bit-equal to one that
        passed the checks in an earlier round of the same slot passes
        without running them again; any other output is checked in full."""
        slot = index % self.per_round
        digest = hashlib.sha256(pickle.dumps(out, protocol=5)).digest()
        if self.digests.get(slot) == digest:
            return []
        problems = check(out)
        if not problems:
            self.digests.setdefault(slot, digest)
        return problems

    def op_ns(self, traced: bool) -> list:
        """Each op's time: the median of its slot's samples over the rounds."""
        return [statistics.median(t) for t in (self.traced_ns if traced else self.untraced_ns) if t]


# ---------------------------------------------------------------------------
# in-process workloads


def run_worker(args, specs: list) -> tuple:
    import bench_checks
    import bench_ipc

    check = {"solve-verify": bench_checks.check_solve, "grid-verify": bench_checks.check_grid}[args.workload]
    run = Run(len(specs), WORKER_MIN_ROUNDS)
    spans = os.path.join(RUNS, f"{args.workload}-s{args.seed}-spans.jsonl")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "bench_worker.py"), args.workload, str(args.seed), str(args.trace), spans],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
    )
    try:
        hello = bench_ipc.recv(proc.stdout)
        if hello["ops_per_round"] != len(specs):
            raise RuntimeError("worker and runner built different rounds")
        index = 0
        while not run.finished(index, args.seconds):
            bench_ipc.send(proc.stdin, "go")
            msg = bench_ipc.recv(proc.stdout)
            spec = specs[index % len(specs)]
            for res in msg["results"]:
                out = res["out"]
                problems = [] if out is None else run.checked(index, out, lambda o: check(spec, o))
                run.add(index, res["traced"], res["ns"], res["error"], problems)
            index += 1
        bench_ipc.send(proc.stdin, "stop")
        done = bench_ipc.recv(proc.stdout)
    finally:
        proc.stdin.close()
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return run, {"peak_rss_mib": done["maxrss_kib"] / 1024.0, "layers": done["layers"]}


# ---------------------------------------------------------------------------
# cli-cold


def write_cli_inputs(seed: int, folder: str) -> list:
    """Config files of every CLI set; returns, per set, its ops as
    (kind, argv, expectations)."""
    import bench_inputs

    os.makedirs(folder, exist_ok=True)
    sets = []
    for s in range(bench_inputs.CLI_SETS):
        ops = []
        for k, (kind, argv, config, expect) in enumerate(bench_inputs.cli_set(seed, s)):
            if config is not None:
                path = os.path.join(folder, f"set{s}-{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
                argv = argv[:1] + ["--config", path] + argv[1:]
            ops.append((kind, argv, expect))
        sets.append(ops)
    return sets


def cli_process(argv: list, traced: bool, folder: str):
    """Run one CLI process; return (ns, exit code, stdout, max RSS KiB,
    spans or None)."""
    out_path = os.path.join(folder, "stdout")
    err_path = os.path.join(folder, "stderr")
    trace_path = os.path.join(folder, "trace.jsonl")
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "bench_cli_launcher.py")] + argv
    else:
        cmd = [sys.executable, "-m", "fenchelfix.cli"] + argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        env = child_env(BENCH_TRACE_OUT=trace_path)
        env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
        start = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    spans = None
    if traced:
        with open(trace_path, "r", encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh.readlines()[1:]]
    return end - start, proc.returncode, stdout, usage.ru_maxrss, spans


def run_cli(args, order: list) -> tuple:
    import bench_checks
    import bench_trace

    folder = os.path.join(RUNS, f"cli-cold-s{args.seed}")
    sets = write_cli_inputs(args.seed, folder)
    run = Run(len(order), 1)
    cli_process(sets[0][0][1], False, folder)  # untimed warm-up
    first_report: dict = {}
    peak_kib = 0
    totals = bench_trace.Totals()
    spans_path = os.path.join(RUNS, f"cli-cold-s{args.seed}-spans.jsonl")
    spans_out = open(spans_path, "w", encoding="utf-8") if args.trace else None
    index = 0
    try:
        while not run.finished(index, args.seconds):
            s, k = order[index % len(order)]
            kind, argv, expect = sets[s][k]
            modes = [False] if not args.trace else ([True, False] if index % 2 == 0 else [False, True])
            for traced in modes:
                ns, code, stdout, rss, spans = cli_process(argv, traced, folder)
                problems = bench_checks.check_cli(kind, expect, code, stdout)
                key = (s, k)
                if key not in first_report:
                    first_report[key] = stdout
                elif first_report[key] != stdout:
                    problems.append(f"{kind}: report bytes differ from the same config's first report")
                if not traced:
                    peak_kib = max(peak_kib, rss)
                if spans is not None:
                    totals.add(spans)
                    for sp in spans:
                        sp[4] = index
                        spans_out.write(json.dumps(sp) + "\n")
                error = None
                if code not in (0, 3) and not stdout:
                    error = f"{kind}: exit {code} with no report"
                run.add(index, traced, ns, error, problems)
            index += 1
    finally:
        if spans_out is not None:
            spans_out.close()
    layers = totals.metrics(index) if args.trace else None
    return run, {"peak_rss_mib": peak_kib / 1024.0, "layers": layers}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fenchelfix", "__init__.py")):
        print(f"error: no fenchelfix sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    setup, threads = measure_setup("fenchelfix.cli" if args.workload == "cli-cold" else "fenchelfix")
    facts = machine_facts(threads)
    import bench_inputs

    started = time.perf_counter()
    if args.workload == "cli-cold":
        run, info = run_cli(args, bench_inputs.cli_round(args.seed))
    else:
        make_round = {"solve-verify": bench_inputs.solve_round, "grid-verify": bench_inputs.grid_round}[args.workload]
        run, info = run_worker(args, make_round(args.seed))
    wall_s = time.perf_counter() - started
    untraced = run.op_ns(False)

    if args.trace:
        metrics = dict(info["layers"])
        metrics["trace.overhead_ms.p50"] = (statistics.median(run.op_ns(True)) - statistics.median(untraced)) / 1e6
        import bench_trace

        units = dict(bench_trace.PER_LAYER)
    else:
        times = untraced
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(times) / (sum(times) / 1e9),
            "op_ms.p50": statistics.median(times) / 1e6,
            "op_ms.p90": statistics.quantiles(times, n=10, method="inclusive")[8] / 1e6,
            "peak_rss_mib": info["peak_rss_mib"],
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms", "peak_rss_mib": "MiB"}
    correct = not run.problems or all(p.startswith("failed:") for p in run.problems)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=facts,
        ops_per_round=run.per_round,
        rounds=min(len(t) for t in run.untraced_ns),
        wall_s=wall_s,
        setup_samples_s=setup,
        untraced_op_ns=run.untraced_ns,
        traced_op_ns=run.traced_ns,
        problems=run.problems[:MAX_PROBLEMS],
        problem_count=len(run.problems),
    )
    path = os.path.join(RUNS, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in run.problems[:MAX_PROBLEMS]:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
