#!/usr/bin/env python3
"""Regenerate reference.json, the exact values the correctness gate uses.

The values come from the solver itself, unbudgeted, on the unrelabelled
instances, and every one must come back with status exact; where the paper
gives a closed form the solver's value is also checked against it.  The
table only needs regenerating when a workload's instance set changes (new
graphs, a new pool spec, pool size or pool seed); a solver change must
leave every entry as it is.

Usage: python3 perfbench/make_reference.py   (a few minutes, pure backend)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pathconn.steiner import global_connectivity, local_connectivity  # noqa: E402
from pathconn.transforms import line_graph  # noqa: E402

import workloads as wl  # noqa: E402


def exact_global(g, k, variant) -> int:
    r = global_connectivity(g, k, variant)
    if r.status != "exact":
        raise RuntimeError(f"global {variant} k={k} not exact: {r.status}")
    return r.value


def exact_local(g, s, variant) -> int:
    c = local_connectivity(g, s, variant)
    if c.status not in ("exact", "zero"):
        raise RuntimeError(f"local {variant} at {s} not exact: {c.status}")
    return c.value


def structured(ref: dict) -> None:
    graphs = wl.structured_graphs()
    for name, k, variant, s in wl.structured_queries():
        g = graphs[name]
        value = exact_global(g, k, variant) if s is None else exact_local(g, s, variant)
        closed = wl.closed_form(name, k, variant, local=s is not None)
        if closed is not None and value != closed:
            raise RuntimeError(f"{name} {variant} k={k} at {s}: solver {value} "
                               f"!= closed form {closed}")
        if closed is None:
            ref["structured"][wl.structured_key(name, k, variant, s)] = value


def pools(ref: dict) -> None:
    for g in wl.pool_graphs(wl.TREES_SPEC, wl.TREES_GRAPHS):
        ref["trees"][wl.graph_key(g)] = [exact_global(g, k, variant)
                                         for k, variant in wl.TREE_QUERIES]
    for g in wl.pool_graphs(wl.LINE_SPEC, wl.LINE_GRAPHS):
        omega = [exact_global(g, 3, "omega"), exact_global(g, 4, "omega")]
        ref["line"][wl.graph_key(g)] = omega
        lg = line_graph(g).graph
        for k, t, variant in wl.line_claims(*omega):
            # the claims are theorems; the unbudgeted solver must confirm them
            answer = wl.global_at_least(lg, k, t, variant)
            if answer != "yes":
                raise RuntimeError(f"L({wl.graph_key(g)}) {variant} k={k} >= {t}: "
                                   f"{answer}, expected yes")


def budgeted(ref: dict) -> None:
    # K4xK4 triple pi: exact in about a minute unbudgeted; L(K5) at k = 4
    # takes billions of units and stays without a reference value
    g = wl.product_graph(2, 3)
    ref["budgeted_global"]["K4xK4|3|pi"] = exact_global(g, 3, "pi")


def main() -> int:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    ref = {"source_commit": commit, "pool_seed": wl.POOL_SEED,
           "structured": {}, "trees": {}, "line": {}, "budgeted_global": {}}
    for part in (structured, pools, budgeted):
        part(ref)
        print(f"{part.__name__}: done", flush=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
