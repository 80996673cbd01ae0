"""Recorded results of every solver entry point, pinned across revisions.

Each case calls one entry point of pathconn.steiner and keeps what a
caller sees: the value or answer, the status, the work units, the
terminal set and a digest of the witness family (or the error raised).
solver_golden.json holds the records of a reference revision; a change
that alters any of them alters observable results, and the failure names
every call that differs.

The cases cover all four variants, the k = 1, k > n and disconnected
conventions, budgets 0, 1, 2 and 100 and ones that stop a global scan
part way, thresholds below, at and above local_upper_bound, and
thresholds at and above the global value.  A threshold of 1 lists one
candidate.  A few pack_at_least probes, at thresholds of 2 or more, list
more than 256 candidates, so off triples they pack the cut 256-list, and
those it does not settle reach the steps every solve shares: the
residual two-path search at a triple, the DEFAULT_CAP listing and its
pack.

Regenerate the records, only for a change meant to alter results, with

    PYTHONPATH=src python tests/test_solver_golden.py

which prints every record it adds, drops or changes (entry point,
arguments, old -> new; None for a record that is absent) before it
writes the file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from pathconn.graphs import (Graph, InputError, complete, complete_bipartite,
                             cycle, net, star)
from pathconn.random_graphs import RandomGraphSpec, sample_graphs
from pathconn.steiner import (
    LOWER_BOUND, VARIANTS, enumerate_minimal_spaths,
    enumerate_minimal_strees, global_at_least, global_connectivity,
    local_connectivity, local_upper_bound, pack_at_least,
)
from pathconn.transforms import cartesian_product, line_graph

GOLDEN = Path(__file__).with_name("solver_golden.json")

ENTRY_POINTS = ("global_connectivity", "global_at_least", "local_connectivity",
                "pack_at_least", "enumerate_minimal_spaths",
                "enumerate_minimal_strees")

# budgets in ms, taken in turn by the calls of each entry point;
# budgets 3 and 20 stop some global scans part way
_LIMITS = (0, 1, 3, 20, 2, 100)


def _graphs() -> list[tuple[str, Graph]]:
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    named = [
        ("K1", complete(1)),
        ("K4", complete(4)),
        ("K5-e", complete(5).without_edge(0, 1)),
        ("K2,3", complete_bipartite(2, 3)),
        ("K3,3", complete_bipartite(3, 3)),
        ("C5", cycle(5)),
        ("star4", star(4)),
        ("net", net()),
        ("L(K4)", line_graph(complete(4)).graph),
        ("2K3", two_triangles),
        ("K4+isolated", Graph(5, complete(4).edges)),
    ]
    spec = RandomGraphSpec(n_min=5, n_max=6, m_min=5, m_max=9,
                           requirement="connected")
    named += [(f"random{i}", g)
              for i, g in enumerate(sample_graphs(spec, seed=2016, count=2))]
    return named


def _digest(family) -> str | None:
    if family is None:
        return None
    return hashlib.sha256(repr(tuple(family)).encode()).hexdigest()[:12]


def _certificate(cert) -> list:
    if cert is None:
        return [None, None, None, None]
    return [cert.value, cert.status, list(cert.terminals), _digest(cert.family)]


def _record(fn, *args, **kwargs) -> list:
    try:
        out = fn(*args, **kwargs)
    except InputError as exc:
        return ["error", str(exc)]
    if fn is global_connectivity:
        return [out.value, out.status, out.units,
                None if out.terminals is None else list(out.terminals),
                _digest(out.certificate.family if out.certificate else None)]
    if fn is global_at_least:
        return [out]
    if fn is local_connectivity:
        return _certificate(out)
    if fn is pack_at_least:
        return [out.answer, out.units] + _certificate(out.certificate)
    family, truncated = out
    return [len(family), truncated, _digest(family)]


def _call(fn, gname: str, g: Graph, *args, budget_ms=None):
    """(entry point, arguments, thunk); the arguments name the graph and
    every limit that is not the default."""
    shown = [gname] + [repr(a) for a in args]
    if budget_ms is not None:
        shown.append(f"budget_ms={budget_ms}")
    return (fn.__name__, ", ".join(shown),
            lambda: _record(fn, g, *args, budget_ms=budget_ms))


def _terminal_sets(g: Graph) -> list[tuple[int, ...]]:
    """One set per size 2..4: the first, last and every other vertex in turn."""
    picks = (tuple(range(g.n)), tuple(range(g.n))[::-1], tuple(range(0, g.n, 2)))
    return [tuple(sorted(picks[k % 3][:k])) for k in (2, 3, 4)
            if len(picks[k % 3]) >= k]


def _cases():
    """(entry point, arguments, thunk) for every call, in a fixed order.

    Every call is made once without limits and once with the next limits
    in that entry point's turn, so every limit meets every entry point
    without the full cross product.
    """
    turns = {fn: itertools.cycle(_LIMITS) for fn in ENTRY_POINTS}

    def calls(fn, gname, g, *args):
        budget = next(turns[fn.__name__])
        yield _call(fn, gname, g, *args)
        yield _call(fn, gname, g, *args, budget_ms=budget)

    for gname, g in _graphs():
        ks = sorted({1, 2, 3, 4, g.n + 1} - {k for k in (2, 3, 4) if k > g.n})
        for variant in VARIANTS:
            for k in ks:
                yield from calls(global_connectivity, gname, g, k, variant)
                value = global_connectivity(g, k, variant).value
                for t in sorted({value, value + 1} - {0}):
                    yield from calls(global_at_least, gname, g, k, t, variant)
            if g.n < 2:
                continue
            for s in _terminal_sets(g):
                yield from calls(local_connectivity, gname, g, s, variant)
                ub = local_upper_bound(g, s, variant)
                for t in sorted({1, ub, ub + 1} - {0}):
                    yield from calls(pack_at_least, gname, g, s, t, variant)
        for s in _terminal_sets(g):
            for enum in (enumerate_minimal_spaths, enumerate_minimal_strees):
                yield from calls(enum, gname, g, s)

    # probes whose candidate lists outgrow the first 256: the search hits
    # on K3xK3 (on its third weight draw) and misses on K7-e, where the
    # DEFAULT_CAP pack answers yes for omega and a proven no for pi; K7
    # at four terminals (1,272 candidates) answers yes from its cut 256-list
    k7e = complete(7).without_edge(0, 1)
    probes = [("K3xK3", cartesian_product(complete(3), complete(3)).graph,
               (0, 1, 3), 3, "pi"),
              ("K7-e", k7e, (0, 1, 2), 4, "omega"),
              ("K7-e", k7e, (0, 1, 2), 4, "pi"),
              ("K7", complete(7), (0, 1, 2, 3), 2, "pi")]
    for gname, g, s, t, variant in probes:
        for budget in (None, 3, 20):
            yield _call(pack_at_least, gname, g, s, t, variant, budget_ms=budget)

    # rejected input: the first failing check names the error
    k4, k0 = complete(4), Graph(0)
    for fn in (local_connectivity, pack_at_least):
        extra = (2,) if fn is pack_at_least else ()
        for s in ((0,), (0, 0, 1), (0, 9), "ab"):
            yield _call(fn, "K4", k4, s, *extra, "pi")
            yield _call(fn, "K4", k4, s, *extra, "tau")
        yield _call(fn, "K0", k0, (0, 1), *extra, "pi")
    for s in ((0,), (0, 0, 1), (0, 9)):
        yield _call(enumerate_minimal_spaths, "K4", k4, s)
        yield _call(enumerate_minimal_strees, "K4", k4, s)
    yield _call(pack_at_least, "K4", k4, (0, 1), 0, "pi")
    yield _call(global_connectivity, "K4", k4, 0, "pi")
    yield _call(global_connectivity, "K4", k4, 2, "tau")
    yield _call(global_connectivity, "K0", k0, 2, "pi")
    yield _call(global_connectivity, "K4", k4, 2, "pi", budget_ms=-1)
    yield _call(global_at_least, "K4", k4, 2, 0, "pi")
    yield _call(global_at_least, "K4", k4, 2, -1, "pi")
    yield _call(global_at_least, "K4", k4, 0, 1, "pi")


def _run_all() -> dict[str, dict[str, list]]:
    results: dict[str, dict[str, list]] = {entry: {} for entry in ENTRY_POINTS}
    for entry, args, run in _cases():
        results[entry][args] = json.loads(json.dumps(run()))
    return results


@pytest.fixture(scope="module")
def results() -> dict[str, dict[str, list]]:
    return _run_all()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, list]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_results_match_golden(results, golden, entry):
    got, want = results[entry], golden[entry]
    assert list(got) == list(want), f"{entry}: the calls are not those recorded"
    differ = [f"{entry}({args}): got {got[args]}, recorded {rec}"
              for args, rec in want.items() if got[args] != rec]
    assert not differ, f"{len(differ)} calls differ:\n" + "\n".join(differ[:20])


def test_cases_cover_the_budgeted_scan(golden):
    # a scan that solved some terminal set exactly before the budget ran out
    assert any(rec[1] == LOWER_BOUND and rec[3] is not None
               for rec in golden["global_connectivity"].values())


def _moved(old: dict[str, dict[str, list]], new: dict[str, dict[str, list]]) -> list[str]:
    """One line per record that new adds, drops or changes against old."""
    lines = []
    for entry in ENTRY_POINTS:
        was, now = old.get(entry, {}), new.get(entry, {})
        for args in list(was) + [a for a in now if a not in was]:
            if was.get(args) != now.get(args):
                lines.append(f"{entry}({args}): {was.get(args)} -> {now.get(args)}")
    return lines


if __name__ == "__main__":
    records = _run_all()
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    moved = _moved(old, records)
    for line in moved:
        print(line)
    print(f"{len(moved)} records moved")
    blocks = []
    for entry, calls in records.items():
        lines = [f"  {json.dumps(args)}:{json.dumps(rec, separators=(',', ':'))}"
                 for args, rec in calls.items()]
        blocks.append(f"{json.dumps(entry)}:{{\n" + ",\n".join(lines) + "\n}")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {sum(map(len, records.values()))} records to {GOLDEN}")
