"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from pathconn.graphs import complete, cycle  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return wl.load_reference()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_query_list_is_a_pure_function_of_the_seed(workload, ref):
    q1, g1 = wl.build(workload, 5, ref)
    q2, g2 = wl.build(workload, 5, ref)
    q3, _ = wl.build(workload, 6, ref)
    assert q1 == q2
    assert g1 == g2
    assert q1 != q3
    assert len(q1) >= 100
    assert {q.graph for q in q1} <= set(g1)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seeds_pose_the_same_problems_relabelled(workload, ref):
    q1, g1 = wl.build(workload, 5, ref)
    q2, g2 = wl.build(workload, 6, ref)

    def problem(q):
        return (q.op, q.graph, q.k, q.variant, q.t, q.budget_ms, q.lo, q.hi)

    assert sorted(map(problem, q1)) == sorted(map(problem, q2))
    assert g1.keys() == g2.keys()
    for name in g1:
        assert sorted(g1[name].degrees()) == sorted(g2[name].degrees())
    assert any(g1[name] != g2[name] for name in g1)


def test_relabelling_maps_terminals_with_the_graph():
    relabel = wl.Relabeller(wl.random.Random(3))
    g = wl.complete_bipartite(2, 3)
    relabel.add("K2,3", g)
    perm = relabel.perms["K2,3"]
    h = relabel.graphs["K2,3"]
    assert all(h.has_edge(perm[u], perm[v]) for u, v in g.edges) and h.m == g.m
    assert relabel.terminals("K2,3", (0, 1, 2)) == tuple(sorted(perm[v] for v in (0, 1, 2)))


def _k4_query(value):
    return wl.Query("global", "K4", 3, "pi", lo=value, hi=value, source="test")


def test_gate_accepts_a_correct_answer():
    g = complete(4)
    q = _k4_query(2)
    assert gate.violations(q, g, wl.run_query(q, g)) == []


def test_gate_rejects_a_planted_invalid_family():
    g = complete(4)
    q = _k4_query(2)
    res = wl.run_query(q, g)
    cert = res.certificate
    bad = dataclasses.replace(cert, family=(cert.family[0], cert.family[0]))
    problems = gate.violations(q, g, dataclasses.replace(res, certificate=bad))
    assert any(p.startswith("witness:") for p in problems)


def test_gate_rejects_a_wrong_exact_value():
    g = complete(4)
    q = _k4_query(3)
    problems = gate.violations(q, g, wl.run_query(q, g))
    assert any("outside reference" in p for p in problems)


def test_gate_checks_decisions_against_the_reference():
    g = cycle(5)
    no = wl.Query("at_least", "C5", 3, "pi", t=1, lo=1, source="test")
    assert gate.violations(no, g, "no")
    assert gate.violations(no, g, "yes") == []
    yes = wl.Query("pack", "C5", 3, "pi", terminals=(0, 1, 2), t=2, hi=1, source="test")
    assert gate.violations(yes, g, wl.run_query(yes, g)) == []
    planted = wl.run_query(dataclasses.replace(yes, t=1), g)
    assert planted.answer == "yes"
    assert gate.violations(yes, g, planted)


def test_tracer_restores_every_wrapped_function():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in tracer.targets()]
    with tracer.Tracer() as tr:
        assert all(getattr(o, a) is not fn for o, a, fn in originals)
        tr.query = 0
        wl.run_query(_k4_query(2), complete(4))
    assert all(getattr(o, a) is fn for o, a, fn in originals)
    names = {s[0] for s in tr.spans}
    assert {tracer.ENUM_PATHS, tracer.PACK, tracer.BOUNDS} <= names
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(getattr(o, a) is fn for o, a, fn in originals)


def test_metrics_are_those_of_benchmark_json():
    g = {"K4": complete(4), "C5": cycle(5)}
    queries = [_k4_query(2), wl.Query("local", "C5", 3, "kappa", terminals=(0, 1, 3))]
    plain = run.run_pass(queries, g)
    with tracer.Tracer() as tr:
        traced = run.run_pass(queries, g, tr)
    traced.spans = tr.spans
    passes = [plain, traced]
    assert run.failed_runs(queries, passes) == {}
    e2e = run.end_to_end(queries, passes, 0.1, {})
    per = layers.per_layer(queries, [traced], [plain])
    assert set(e2e) == set(run.metric_units("end_to_end"))
    assert set(per) == set(run.metric_units("per_layer"))
    assert per["kernel.pack.calls"] >= 2
    assert per["trees.enum.calls"] == 1


def test_each_failed_execution_counts_once():
    g = {"K4": complete(4)}
    queries = [_k4_query(3), _k4_query(2)]  # the first has a wrong reference
    passes = [run.run_pass(queries, g), run.run_pass(queries, g)]
    passes[1].outcomes[1] = None  # plant an answer that differs from pass 1
    failed = run.failed_runs(queries, passes)
    assert sorted(failed) == [(0, 0), (1, 0), (1, 1)]
    assert run.end_to_end(queries, passes, 0.1, failed)["correct_frac"] == 0


def test_quantile_is_smooth_across_a_gap():
    values = [1.0] * 50 + [10.0] * 51
    assert 1 < run.quantile(values, 0.5) < 10
    assert run.quantile([5.0] * 101, 0.9) == pytest.approx(5.0)
    xs = [float(x) for x in range(1, 102)]
    assert run.quantile(xs, 0.5) == pytest.approx(51.0)
