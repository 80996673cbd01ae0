"""Workload definitions: seeded query lists over the public solver API.

Each workload is a fixed list of queries, a pure function of the workload
seed.  The instance set of a workload is fixed: the paper's symmetric
families, built with the library constructors, and the first graphs of
pools that are sampled with the library's own sampler
(``pathconn.random_graphs``) from POOL_SEED, exactly as the verification
suites sample them.  The workload seed relabels the vertices of every
instance at random and sets the query order, so every seed poses the same
problems to the solver in another presentation: the search meets vertices,
edges and candidates in another order, while values and the cost profile
stay those of the instance set.

Each query carries its reference interval ``lo <= value <= hi`` (either end
may be unknown), filled in from closed forms, the reference table
(``reference.json``, keyed by the unrelabelled instance), a proven
inequality or a construction.  The gate in ``gate.py`` needs nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from pathconn.graphs import Graph, complete, complete_bipartite, cycle
from pathconn.random_graphs import RandomGraphSpec, sample_graph
from pathconn.steiner import (complete_graph_value, global_at_least,
                              global_connectivity, local_connectivity,
                              pack_at_least)
from pathconn.transforms import cartesian_product, line_graph

REFERENCE_PATH = Path(__file__).with_name("reference.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
POOL_SEED = 2016

# work-unit budgets, in the API's nominal milliseconds (500 units per ms).
# The construction suite probes at 10_000, which costs about 5 s per probe on
# the pure backend; a pass of this workload must stay near 16 s.  So each
# pair's first triple is also probed once at DEEP_PROBE_BUDGET_MS, and every
# other probe, like the budgeted global pi, runs at 1/100 of the suite's
# budget.  At each of these budgets a probe spends it all enumerating.
LINE_BUDGET_MS = 20_000       # the line suite's budget for one-sided checks
DEEP_PROBE_BUDGET_MS = 2_000  # pack_at_least at t = q on each pair's first triple
PROBE_BUDGET_MS = 100         # pack_at_least at t = q and q + 1 on every triple
GLOBAL_PI_BUDGET_MS = 100     # budgeted global pi on the hard symmetric graphs

# pools sampled with the suites' specs; a workload uses the first distinct
# graphs of its pool.  A random graph's cost depends on its labelling (the
# scan order of its terminal sets), so trees-random poses each graph under
# TREES_LABELLINGS labellings, which narrows the spread of its cost across
# seeds.
TREES_SPEC = RandomGraphSpec(n_min=4, n_max=7, m_min=3, m_max=12,
                             requirement="connected")
TREES_GRAPHS = 40
TREES_LABELLINGS = 2
LINE_SPEC = RandomGraphSpec(n_min=4, n_max=6, m_min=4, m_max=9,
                            requirement="2-connected")
LINE_GRAPHS = 12

PRODUCT_PAIRS = ((2, 3), (2, 4), (3, 5))
PROBE_TRIPLES = 13

WORKLOADS = ("paths-structured", "trees-random", "certify-budgeted")


@dataclass(frozen=True)
class Query:
    """One solver call plus the reference the gate checks it against.

    op: global (global_connectivity), local (local_connectivity), pack
    (pack_at_least) or at_least (global_at_least).  lo/hi bound the true
    value (global or local, as the op asks); None means unknown.
    """

    op: str
    graph: str
    k: int
    variant: str
    terminals: tuple[int, ...] | None = None
    t: int | None = None
    budget_ms: int | None = None
    lo: int | None = None
    hi: int | None = None
    source: str = "none"

    def label(self) -> str:
        parts = [self.op, self.graph, f"k={self.k}", self.variant]
        if self.terminals is not None:
            parts.append("s=" + ",".join(map(str, self.terminals)))
        if self.t is not None:
            parts.append(f"t={self.t}")
        if self.budget_ms is not None:
            parts.append(f"budget_ms={self.budget_ms}")
        return " ".join(parts)


def run_query(q: Query, g: Graph):
    """Make the query's solver call and return what the API returns."""
    if q.op == "global":
        return global_connectivity(g, q.k, q.variant, budget_ms=q.budget_ms)
    if q.op == "local":
        return local_connectivity(g, q.terminals, q.variant, budget_ms=q.budget_ms)
    if q.op == "pack":
        return pack_at_least(g, q.terminals, q.t, q.variant, budget_ms=q.budget_ms)
    if q.op == "at_least":
        return global_at_least(g, q.k, q.t, q.variant, budget_ms=q.budget_ms)
    raise ValueError(f"unknown op {q.op!r}")


def graph_key(g: Graph) -> str:
    """Canonical text key of a graph, used to index the reference table."""
    return f"{g.n}:" + ",".join(f"{u}-{v}" for u, v in g.edges)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Relabeller:
    """The seed's random vertex relabelling of each instance.

    Instances are relabelled in the order they are added, each
    with its own permutation drawn from the seed's generator.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.perms: dict[str, list[int]] = {}
        self.graphs: dict[str, Graph] = {}

    def add(self, name: str, g: Graph) -> None:
        perm = list(range(g.n))
        self.rng.shuffle(perm)
        self.perms[name] = perm
        self.graphs[name] = Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))

    def terminals(self, name: str, s: tuple[int, ...]) -> tuple[int, ...]:
        perm = self.perms[name]
        return tuple(sorted(perm[v] for v in s))


# ---------------------------------------------------------------------------
# paths-structured: the paper's symmetric families, pi and omega

def _complete_minus_edge(n: int) -> Graph:
    g = complete(n)
    return Graph(n, g.edges[1:])  # drops edge (0, 1)


def structured_graphs() -> dict[str, Graph]:
    """The fixed symmetric instances, built with the library constructors."""
    graphs = {f"K{n}": complete(n) for n in range(4, 8)}
    for a, b in ((3, 3), (3, 4), (4, 4), (3, 5)):
        graphs[f"K{a},{b}"] = complete_bipartite(a, b)
    for n in (5, 6, 7):
        graphs[f"K{n}-e"] = _complete_minus_edge(n)
    for a, b in ((2, 3), (2, 4)):
        graphs[f"K{a}xK{b}"] = cartesian_product(complete(a), complete(b)).graph
    graphs["L(K4)"] = line_graph(complete(4)).graph
    graphs["C5"] = cycle(5)
    graphs["C8"] = cycle(8)
    return graphs


# (graph, k, variant) left out: each costs seconds on the pure backend
GLOBAL_EXCLUDED = {("K7", 4, "pi"), ("K7", 4, "omega"), ("K7-e", 4, "pi")}
LOCAL_EXCLUDED = {("K7", 4, "pi"), ("K7-e", 4, "pi")}
PATH_VARIANTS = ("pi", "omega")


def structured_queries():
    """(graph, k, variant, terminals) of every structured query, unrelabelled.

    terminals is None for a global query; the local terminal sets are
    drawn once from POOL_SEED, so they are part of the instance set.
    """
    rng = random.Random(POOL_SEED)
    out = []
    for name, g in structured_graphs().items():
        for k in (3, 4):
            for variant in PATH_VARIANTS:
                if (name, k, variant) not in GLOBAL_EXCLUDED:
                    out.append((name, k, variant, None))
                if (name, k, variant) not in LOCAL_EXCLUDED:
                    out.append((name, k, variant, tuple(sorted(rng.sample(range(g.n), k)))))
    return out


def closed_form(name: str, k: int, variant: str, local: bool) -> int | None:
    """Closed-form value where the paper gives one, else None."""
    if variant != "pi":
        return None
    if name.startswith("K") and name[1:].isdigit():
        # every k-set of K_n is equivalent, so local == global
        return complete_graph_value(int(name[1:]), k)
    if not local and k == 3 and "," in name and "x" not in name:
        a, b = map(int, name[1:].split(","))
        return min(a // 2, b // 2)
    return None


def structured_key(name: str, k: int, variant: str,
                   terminals: tuple[int, ...] | None) -> str:
    key = f"{name}|{k}|{variant}"
    return key if terminals is None else key + "|" + ",".join(map(str, terminals))


def paths_structured(seed: int, ref: dict) -> tuple[list[Query], dict[str, Graph]]:
    rng = random.Random(seed)
    relabel = Relabeller(rng)
    for name, g in structured_graphs().items():
        relabel.add(name, g)
    queries = []
    for name, k, variant, s in structured_queries():
        value = closed_form(name, k, variant, local=s is not None)
        source = "closed-form"
        if value is None:
            value, source = ref["structured"][structured_key(name, k, variant, s)], "table"
        if s is None:
            queries.append(Query("global", name, k, variant, lo=value, hi=value,
                                 source=source))
        else:
            queries.append(Query("local", name, k, variant,
                                 terminals=relabel.terminals(name, s),
                                 lo=value, hi=value, source=source))
    rng.shuffle(queries)
    return queries, relabel.graphs


# ---------------------------------------------------------------------------
# pools

def pool_graphs(spec: RandomGraphSpec, count: int) -> list[Graph]:
    """The first `count` distinct graphs that the suites' sampler draws from
    POOL_SEED with this spec."""
    rng = random.Random(POOL_SEED)
    seen: dict[str, Graph] = {}
    while len(seen) < count:
        g = sample_graph(spec, rng)
        seen.setdefault(graph_key(g), g)
    return list(seen.values())


def _pool_entry(ref: dict, table: str, g: Graph):
    key = graph_key(g)
    if key not in ref[table]:
        raise LookupError(f"pool graph {key} has no reference in {table}; "
                          "regenerate reference.json with make_reference.py")
    return ref[table][key]


# ---------------------------------------------------------------------------
# trees-random: kappa and lambda on the inequality suite's random graphs

TREE_QUERIES = ((3, "kappa"), (3, "lambda"), (4, "kappa"), (4, "lambda"))


def trees_random(seed: int, ref: dict) -> tuple[list[Query], dict[str, Graph]]:
    rng = random.Random(seed)
    relabel = Relabeller(rng)
    queries = []
    for i, g in enumerate(pool_graphs(TREES_SPEC, TREES_GRAPHS)):
        values = _pool_entry(ref, "trees", g)
        for j in range(TREES_LABELLINGS):
            name = f"R{i:02d}.{j}"
            relabel.add(name, g)
            for (k, variant), value in zip(TREE_QUERIES, values):
                queries.append(Query("global", name, k, variant, lo=value, hi=value,
                                     source="table"))
    rng.shuffle(queries)
    return queries, relabel.graphs


# ---------------------------------------------------------------------------
# certify-budgeted: line-suite decisions, product probes, budgeted pi

def line_claims(omega3: int, omega4: int) -> list[tuple[int, int, str]]:
    """The line suite's one-sided claims value(L(G)) >= t, as (k, t, variant).

    Each claim is a proven inequality, so t is the reference lower bound;
    claims with t <= 0 need no solver call.  L(G) has G.m >= 4 vertices,
    so the k = 4 claims always apply.
    """
    claims = [(3, omega3, "pi"), (3, omega3 - 1, "omega"), (3, omega3 // 2, "pi"),
              (4, omega4 // 4, "pi"), (4, omega4 // 4, "omega")]
    return [(k, t, variant) for k, t, variant in claims if t > 0]


def product_graph(p: int, q: int) -> Graph:
    return cartesian_product(complete(2 * p), complete(2 * q - 2 * p + 2)).graph


def product_name(p: int, q: int) -> str:
    return f"K{2 * p}xK{2 * q - 2 * p + 2}"


BUDGETED_PI = (("K5,5", 3), ("K6,6", 3), ("K4xK4", 3), ("L(K5)", 4))


def certify_budgeted(seed: int, ref: dict) -> tuple[list[Query], dict[str, Graph]]:
    rng = random.Random(seed)
    relabel = Relabeller(rng)
    queries = []
    for i, g in enumerate(pool_graphs(LINE_SPEC, LINE_GRAPHS)):
        name = f"L(G{i:02d})"
        relabel.add(name, line_graph(g).graph)
        for k, t, variant in line_claims(*_pool_entry(ref, "line", g)):
            queries.append(Query("at_least", name, k, variant, t=t,
                                 budget_ms=LINE_BUDGET_MS, lo=t, source="theorem"))

    triples = random.Random(POOL_SEED)
    for p, q in PRODUCT_PAIRS:
        name = product_name(p, q)
        g = product_graph(p, q)
        relabel.add(name, g)
        for j in range(PROBE_TRIPLES):
            s = relabel.terminals(name, tuple(triples.sample(range(g.n), 3)))
            # the product construction gives q disjoint paths at every triple
            probes = [(q, PROBE_BUDGET_MS), (q + 1, PROBE_BUDGET_MS)]
            if j == 0:
                probes.append((q, DEEP_PROBE_BUDGET_MS))
            for t, budget_ms in probes:
                queries.append(Query("pack", name, 3, "pi", terminals=s, t=t,
                                     budget_ms=budget_ms, lo=q,
                                     source="construction"))

    # K4xK4 is already there as the (2, 3) product
    relabel.add("K5,5", complete_bipartite(5, 5))
    relabel.add("K6,6", complete_bipartite(6, 6))
    relabel.add("L(K5)", line_graph(complete(5)).graph)
    for name, k in BUDGETED_PI:
        value, source = closed_form(name, k, "pi", local=False), "closed-form"
        if value is None:
            value, source = ref["budgeted_global"].get(f"{name}|{k}|pi"), "table"
        queries.append(Query("global", name, k, "pi", budget_ms=GLOBAL_PI_BUDGET_MS,
                             lo=value, hi=value,
                             source="none" if value is None else source))
    rng.shuffle(queries)
    return queries, relabel.graphs


MAKERS = {
    "paths-structured": paths_structured,
    "trees-random": trees_random,
    "certify-budgeted": certify_budgeted,
}


def build(workload: str, seed: int, ref: dict | None = None):
    """(queries, graphs) for a workload: everything made before the first query."""
    if workload not in MAKERS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return MAKERS[workload](seed, load_reference() if ref is None else ref)
