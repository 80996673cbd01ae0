"""Per-layer metrics from the spans of traced passes.

Times are totals over one pass, in seconds; a ratio whose base is zero
(for example units_per_s of a layer the workload never calls) reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import BOUNDS, CHECK, ENUM_PATHS, PACK, QUERY, TREES

KERNEL = (ENUM_PATHS, PACK, TREES)
ENUMERATORS = (ENUM_PATHS, TREES)
SCANS = ("global", "at_least")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(queries, p) -> dict[str, float]:
    """Per-layer metrics of one traced pass (p.spans, p.outcomes)."""
    calls = defaultdict(int)
    secs = defaultdict(float)
    units = defaultdict(int)
    count = defaultdict(int)
    incomplete = defaultdict(int)
    query_s = 0.0
    child_s = 0.0
    kernel_sets = defaultdict(set)     # query -> terminal masks sent to a kernel
    kernel_units = defaultdict(int)    # query -> units the kernels reported
    enum_seen = set()
    enum_repeats = 0
    bound_sets = set()
    for name, parent, t0, t1, key, u, c, complete in p.spans:
        if name == QUERY:
            query_s += t1 - t0
            continue
        child_s += t1 - t0
        calls[name] += 1
        secs[name] += t1 - t0
        units[name] += u
        count[name] += c
        incomplete[name] += not complete
        if name in KERNEL:
            kernel_sets[parent].add(key)
            kernel_units[parent] += u
        if name in ENUMERATORS:
            enum_repeats += (parent, name, key) in enum_seen
            enum_seen.add((parent, name, key))
        elif name == BOUNDS:
            bound_sets.add((parent, key))

    total_units = 0
    undecided_units = 0
    for i, o in enumerate(p.outcomes):
        qu = o.units if o is not None and o.units is not None else kernel_units[i]
        total_units += qu
        if o is None or not o.decided:
            undecided_units += qu
    scans = [i for i, q in enumerate(queries) if q.op in SCANS]

    m: dict[str, float] = {}
    for layer in ENUMERATORS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.s"] = secs[layer]
        m[f"{layer}.units"] = units[layer]
        m[f"{layer}.candidates"] = count[layer]
        m[f"{layer}.truncated"] = incomplete[layer]
        m[f"{layer}.units_per_s"] = _ratio(units[layer], secs[layer])
    m[f"{PACK}.calls"] = calls[PACK]
    m[f"{PACK}.s"] = secs[PACK]
    m[f"{PACK}.units"] = units[PACK]
    m[f"{PACK}.complete_frac"] = _ratio(calls[PACK] - incomplete[PACK], calls[PACK])
    m[f"{PACK}.units_per_s"] = _ratio(units[PACK], secs[PACK])
    m["steiner.scan.subsets"] = _ratio(sum(len(kernel_sets[i]) for i in scans), len(scans))
    m["steiner.scan.self_s"] = query_s - child_s
    m[f"{BOUNDS}.calls"] = calls[BOUNDS]
    m[f"{BOUNDS}.s"] = secs[BOUNDS]
    m[f"{BOUNDS}.calls_per_subset"] = _ratio(calls[BOUNDS], len(bound_sets))
    m["steiner.units"] = _ratio(total_units, len(queries))
    enum_units = sum(units[layer] for layer in ENUMERATORS)
    m["steiner.enum_units_frac"] = _ratio(enum_units, sum(units[layer] for layer in KERNEL))
    m["steiner.enum.repeat_frac"] = _ratio(enum_repeats, sum(calls[x] for x in ENUMERATORS))
    m["steiner.undecided_units_frac"] = _ratio(undecided_units, total_units)
    m[f"{CHECK}.calls"] = calls[CHECK]
    m[f"{CHECK}.s"] = secs[CHECK]
    m["trace.pass_s"] = query_s
    return m


def per_layer(queries, traced, plain) -> dict[str, float]:
    """Medians over the traced passes, plus the tracing overhead."""
    runs = [pass_metrics(queries, p) for p in traced]
    out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    out["trace.overhead_frac"] = (statistics.median(sum(p.latency) for p in traced)
                                  / statistics.median(sum(p.latency) for p in plain) - 1)
    return out
