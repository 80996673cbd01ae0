#!/usr/bin/env python3
"""pathconn benchmark: certified-answer throughput over seeded query lists.

One closed-loop client replays a workload's query list (a pure function of
--seed) against the public solver API, pass after pass, for about --seconds
seconds and at least two passes.  Every answer goes through the correctness
gate, untimed, and every pass must reproduce the first pass's answers
exactly.  With --trace 0 the end-to-end metrics are printed; with --trace 1
untraced and traced passes alternate and the per-layer metrics are printed.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload paths-structured --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all             # every workload, default seed
    python3 perfbench/run.py --workload all --held-out  # every workload, held-out seed

The benchmark measures whichever backend ``import pathconn`` selects and
never builds or selects one itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 11
MIN_PASSES = 2

# child process timed for setup_s: a fresh interpreter imports pathconn and
# builds every instance of the workload, and prints how long that took
SETUP_CHILD = (
    "import sys, time; t0 = time.perf_counter(); root, workload, seed = sys.argv[1:]; "
    "sys.path[:0] = [root + '/src', root + '/perfbench']; "
    "import workloads; workloads.build(workload, int(seed)); "
    "print(time.perf_counter() - t0)"
)


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import pathconn from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "pathconn", "__init__.py")):
        fail(f"no pathconn sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import pathconn
    if not os.path.abspath(pathconn.__file__).startswith(SRC + os.sep):
        fail(f"imported pathconn from {pathconn.__file__}, not from {SRC}")
    return pathconn


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the BENCHMARK.json metrics of one kind
    ("end_to_end" or "per_layer")."""
    if not os.path.isfile(SPEC_PATH):
        fail(f"no {SPEC_PATH}")
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights, so the estimate moves smoothly when samples near the quantile
    trade places or are sparse, where a single order statistic would jump
    from one sample to the next.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule inside each 1/n slice of [0, 1]
    total = 0.0
    weight_sum = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):
            u = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm)
        total += w * x
        weight_sum += w
    return total / weight_sum


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time of SETUP_REPEATS fresh processes, timed from the
    child's first statement, so interpreter start-up is left out."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, ROOT, workload, str(seed)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup child failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return statistics.median(times)


class Pass:
    """Results of one pass over the query list.

    failures maps a query's index to why it failed on this pass: it
    raised, or it failed the gate.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.latency: list[float] = []
        self.outcomes: list = []
        self.failures: dict[int, str] = {}
        self.spans: list[tuple] = []


def run_pass(queries, graphs, tracer=None) -> Pass:
    from gate import outcome, violations
    from workloads import run_query

    p = Pass(tracer is not None)
    clock = time.perf_counter
    for i, q in enumerate(queries):
        g = graphs[q.graph]
        if tracer is not None:
            tracer.query = i
        t0 = clock()
        try:
            result = run_query(q, g)
            error = None
        except Exception as exc:  # a raising query is a failed query
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.query = None
            tracer.add_query(i, t0, t1)
        p.latency.append(t1 - t0)
        if error is not None:
            p.outcomes.append(None)
            p.failures[i] = f"{q.label()}: raised {error}"
            continue
        p.outcomes.append(outcome(result))
        problems = violations(q, g, result)
        if problems:
            p.failures[i] = f"{q.label()}: {'; '.join(problems[:3])}"
    return p


def run_passes(queries, graphs, seconds: float, trace: bool) -> list[Pass]:
    """At least two passes, ending at the pass boundary nearest `seconds`.

    With trace, passes alternate untraced / traced, starting untraced.
    """
    from tracer import Tracer

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            with Tracer() as tracer:
                p = run_pass(queries, graphs, tracer)
            p.spans = tracer.spans
        else:
            p = run_pass(queries, graphs)
        passes.append(p)
        elapsed = time.perf_counter() - start
        # stop unless the next pass, of average length, ends nearer `seconds`
        if len(passes) >= MIN_PASSES and elapsed * (1 + 0.5 / len(passes)) >= seconds:
            return passes


def failed_runs(queries, passes: list[Pass]) -> dict[tuple[int, int], str]:
    """(pass, query) -> why that execution failed: it raised, failed the
    gate, or gave another answer than the first pass.  Each execution
    counts once, whatever the number of reasons."""
    first = passes[0].outcomes
    out = {}
    for j, p in enumerate(passes):
        for i, why in p.failures.items():
            out[j, i] = why
        for i, (a, b) in enumerate(zip(first, p.outcomes)):
            if (j, i) not in out and (a and a.signature) != (b and b.signature):
                out[j, i] = f"{queries[i].label()}: answer differs between passes"
    return out


def end_to_end(queries, passes: list[Pass], setup_s: float,
               failed: dict[tuple[int, int], str]) -> dict[str, float]:
    per_query = [statistics.median(p.latency[i] for p in passes)
                 for i in range(len(queries))]
    first = passes[0].outcomes
    failed_queries = {i for _, i in failed}
    return {
        "queries_per_s": len(queries) / sum(per_query),
        "query_p50_ms": 1000 * quantile(per_query, 0.5),
        "query_p90_ms": 1000 * quantile(per_query, 0.9),
        "decided_frac": sum(1 for o in first if o and o.decided) / len(queries),
        "correct_frac": 1 - len(failed_queries) / len(queries),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def write_trace(path: str, env: dict, queries, p: Pass) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "queries": [q.label() for q in queries],
                   "span_fields": ["name", "parent", "start", "end", "key",
                                   "units", "count", "complete"],
                   "spans": p.spans}, fh)
        fh.write("\n")


def run_workload(args, pathconn) -> int:
    import layers
    import workloads

    env = {"workload": args.workload, "seed": args.seed, "backend": pathconn.BACKEND,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "trace": args.trace, "seconds": args.seconds}
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    queries, graphs = workloads.build(args.workload, args.seed)
    passes = run_passes(queries, graphs, args.seconds, bool(args.trace))

    failed = failed_runs(queries, passes)
    attempted = len(queries) * len(passes)
    for why in list(failed.values())[:10]:
        print(f"FAIL {why}", file=sys.stderr)

    if args.trace:
        traced = [p for p in passes if p.traced]
        plain = [p for p in passes if not p.traced]
        metrics = layers.per_layer(queries, traced, plain)
        write_trace(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                    env, queries, traced[-1])
    else:
        metrics = end_to_end(queries, passes, setup_s, failed)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
             "computed and listed in BENCHMARK.json")

    env.update(queries=len(queries), passes=len(passes))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{len(queries)} queries per pass, {len(passes)} passes; latency percentiles "
          f"over {len(queries)} per-query medians")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then a combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    pathconn = import_library()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--held-out", action="store_true",
                    help=f"use the held-out seed {workloads.HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.held_out:
        args.seed = workloads.HELD_OUT_SEED
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, pathconn)


if __name__ == "__main__":
    sys.exit(main())
