"""The residual two-path search of pathconn.steiner (_residual_paths).

At a triple of a path variant, steiner._solve runs this search for
every cap of 2 or more, before it lists anything.  An exact solve
(local_connectivity, and every set of a global_connectivity scan) calls
_solve with its cap: the proven bound, or in a scan after the first set
the least value so far, so a hit proves the value, or that the set
cannot lower the scan's minimum.  A threshold question (pack_at_least,
global_at_least) calls it with its goal, once its short candidate list
is cut by its cap.  These tests pin what the search
may and may not do: every family it returns is a valid disjoint family
of the size asked for, two runs agree in every detail, it never spends
more than its pool holds, and finding nothing never turns into a "no" or
changes an exact value.  A threshold question reaches the search only at
triples with more than 256 candidates (K7 has them, K6 does not), so the
scan tests lower the cap to reach it from global_at_least on small
graphs.
"""

import hashlib
import random
from itertools import combinations

import pytest

from oracle import naive_local_value
from pathconn import steiner
from pathconn.graphs import Graph, complete
from pathconn.random_graphs import RandomGraphSpec, sample_graphs
from pathconn.steiner import (
    OMEGA, PI, WorkBudget, _residual_paths, global_at_least,
    global_connectivity, local_connectivity, local_upper_bound, pack_at_least,
)
from pathconn.suites import _CONSTRUCTION_BUDGET_MS
from pathconn.witness import (family_violations, prescribed_triple,
                              product_witness_graph)
from test_steiner import _oracle_graphs

PAIRS = ((2, 3), (2, 4), (3, 5))


def _product(p, q):
    return product_witness_graph(p, q).graph, prescribed_triple(p, q)


def _rook(a, b):
    """K_a x K_b: vertex b*i + j is cell (i, j), adjacent along rows and columns."""
    n = a * b
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)
                          if (u // b == v // b) != (u % b == v % b)))


@pytest.fixture
def search_log(monkeypatch):
    """The families _residual_paths returns, in call order."""
    log = []

    def logged(*args):
        family = _residual_paths(*args)
        log.append(family)
        return family

    monkeypatch.setattr(steiner, "_residual_paths", logged)
    return log


def _digest(family) -> str:
    return hashlib.sha256(repr(family).encode()).hexdigest()[:12]


def _check(g, s, goal, variant, family):
    assert len(family) in (0, goal)
    assert family_violations(g, s, family, variant) == []
    assert all(path[0] < path[-1] for path in family)


@pytest.mark.parametrize("variant", (PI, OMEGA))
def test_sampled_families_verify_and_never_exceed_the_value(variant):
    spec = RandomGraphSpec(n_min=5, n_max=7, m_min=6, m_max=14,
                           requirement="connected")
    hits = 0
    for g in sample_graphs(spec, seed=23, count=8):
        for s in combinations(range(g.n), 3):
            value = local_connectivity(g, s, variant).value
            for goal in range(1, local_upper_bound(g, s, variant) + 1):
                family = _residual_paths(g, s, goal, variant, WorkBudget(None))
                _check(g, s, goal, variant, family)
                assert len(family) <= value
                hits += bool(family)
    assert hits > 0


@pytest.mark.parametrize("variant", (PI, OMEGA))
@pytest.mark.parametrize("p, q", PAIRS)
def test_product_families_verify(p, q, variant):
    g, s_star = _product(p, q)
    family = _residual_paths(g, s_star, q + 1, variant, WorkBudget(None))
    assert len(family) == q + 1
    _check(g, s_star, q + 1, variant, family)
    for s in list(combinations(range(g.n), 3))[::211]:
        _check(g, s, q, variant,
               _residual_paths(g, s, q, variant, WorkBudget(None)))


def test_two_runs_agree():
    g, s_star = _product(2, 4)
    pools = [WorkBudget(None), WorkBudget(None)]
    families = [_residual_paths(g, s_star, 5, PI, pool) for pool in pools]
    assert families[0] == families[1]
    assert pools[0].spent == pools[1].spent
    decisions = [pack_at_least(g, s_star, 5, PI, budget_ms=100) for _ in range(2)]
    assert len({(d.answer, d.units, _digest(d.certificate.family))
                for d in decisions}) == 1


@pytest.mark.parametrize("budget_ms", (0, 1))
@pytest.mark.parametrize("p, q", PAIRS)
def test_a_tiny_budget_finds_nothing_and_stays_within_it(p, q, budget_ms):
    g, s_star = _product(p, q)
    pool = WorkBudget(budget_ms)
    allowed = pool.left
    assert _residual_paths(g, s_star, q + 1, PI, pool) == ()
    assert pool.spent <= allowed


def test_the_search_stops_at_the_last_unit_of_its_pool():
    g, s_star = _product(2, 3)
    full = WorkBudget(None)
    assert len(_residual_paths(g, s_star, 4, PI, full)) == 4
    short = WorkBudget(None)
    short.left = full.spent - 1
    assert _residual_paths(g, s_star, 4, PI, short) == ()
    assert short.spent == full.spent - 1
    enough = WorkBudget(None)
    enough.left = full.spent + 1
    assert len(_residual_paths(g, s_star, 4, PI, enough)) == 4


@pytest.mark.parametrize("p, q", ((2, 4), (3, 5)))
def test_finding_nothing_never_answers_no(p, q):
    # at these triples the bound exceeds the local value q + 1 (column
    # generation gives LP values 5.25 and 6.75), so the search must fail,
    # and a budget-capped listing must leave the answer open
    g, s_star = _product(p, q)
    t = local_upper_bound(g, s_star, PI)
    assert t == q + 2
    assert _residual_paths(g, s_star, t, PI, WorkBudget(None)) == ()
    assert pack_at_least(g, s_star, t, PI, budget_ms=200).answer == "unknown"


@pytest.mark.parametrize("p, q", PAIRS)
def test_probe_proves_more_than_q_paths_at_the_prescribed_triple(p, q):
    g, s_star = _product(p, q)
    dec = pack_at_least(g, s_star, q + 1, PI, budget_ms=_CONSTRUCTION_BUDGET_MS)
    assert dec.answer == "yes"
    family = dec.certificate.family
    assert len(family) == q + 1
    assert family_violations(g, s_star, family, PI) == []


@pytest.mark.parametrize("g, s, goal", [
    (_rook(3, 3), (0, 1, 3), 3),  # a hit on the third draw
    (_rook(4, 4), (0, 1, 5), 4),  # a hit on the second draw
])
def test_a_later_weight_draw_turns_a_miss_into_a_hit(monkeypatch, g, s, goal):
    family = _residual_paths(g, s, goal, PI, WorkBudget(None))
    _check(g, s, goal, PI, family)
    assert len(family) == goal
    monkeypatch.setattr(steiner, "_RESIDUAL_DRAWS", 1)
    assert _residual_paths(g, s, goal, PI, WorkBudget(None)) == ()


def test_a_miss_falls_back_to_listing_and_packing(search_log):
    # the greedy search misses 4 omega paths at this triple of K7 - e; the
    # DEFAULT_CAP listing and pack finds them
    g, s = complete(7).without_edge(0, 1), (0, 1, 2)
    dec = pack_at_least(g, s, 4, OMEGA)
    assert search_log == [()]
    assert dec.answer == "yes"
    assert len(dec.certificate.family) == 4
    assert family_violations(g, s, dec.certificate.family, OMEGA) == []


def test_local_values_at_triples_do_not_depend_on_the_search(monkeypatch, search_log):
    # local_connectivity runs the search for ub paths at a triple before it
    # lists; a hit must give the value that listing and packing give, and
    # a miss must still reach it
    graphs = _oracle_graphs(seed=20, count=12) + [complete(5).without_edge(0, 1)]
    cases = [(g, s, variant) for g in graphs for s in combinations(range(g.n), 3)
             for variant in (PI, OMEGA)]
    with_search = [local_connectivity(g, s, variant) for g, s, variant in cases]
    assert any(search_log) and () in search_log
    monkeypatch.setattr(steiner, "_residual_stage", lambda s, variant: False)
    search_log.clear()
    for (g, s, variant), cert in zip(cases, with_search):
        off = local_connectivity(g, s, variant)
        assert (cert.value, cert.status) == (off.value, off.status), (g.edges, s, variant)
        assert cert.value == naive_local_value(g, s, variant)
        assert family_violations(g, s, cert.family, variant) == []
    assert search_log == []


def test_a_miss_still_reaches_a_proven_no(search_log):
    # the local pi value at this triple of K7 - e is 3, below its bound 4:
    # local_connectivity and pack_at_least each run the search for 4
    # paths, miss, and prove the value by listing and packing
    g, s = complete(7).without_edge(0, 1), (0, 1, 2)
    assert local_upper_bound(g, s, PI) == 4
    cert = local_connectivity(g, s, PI)
    assert (cert.value, cert.status) == (3, "exact")
    assert pack_at_least(g, s, 4, PI).answer == "no"
    assert search_log == [(), ()]


@pytest.mark.parametrize("variant", (PI, OMEGA))
@pytest.mark.parametrize("g", (complete(6), complete(7).without_edge(0, 1), _rook(2, 4)),
                         ids=("K6", "K7-e", "K2xK4"))
def test_global_scans_agree_with_scans_without_the_search(monkeypatch, search_log,
                                                          g, variant):
    # global_connectivity runs the search first at every triple it solves,
    # so the exact certificate may be the search's family; with a short
    # list of 8 candidates, global_at_least's threshold questions reach
    # the search too; every hit must leave the scan's value, status,
    # terminals and answers as they are without the search, with a family
    # of the same size that verifies
    monkeypatch.setattr(steiner, "_SHORT_CAP", 8)

    def scans():
        res = global_connectivity(g, 3, variant)
        family = res.certificate.family
        assert family_violations(g, res.terminals, family, variant) == []
        return (res.value, res.status, res.terminals, len(family),
                [global_at_least(g, 3, t, variant) for t in (res.value, res.value + 1)])

    with_search = scans()
    assert any(search_log)
    assert with_search[1] == "exact"
    assert with_search[4] == ["yes", "no"]
    monkeypatch.setattr(steiner, "_residual_stage", lambda s, variant: False)
    search_log.clear()
    assert scans() == with_search
    assert search_log == []


def _relabelled_rook(a, b, seed):
    """K_a x K_b relabelled by a seeded permutation, and that permutation."""
    perm = list(range(a * b))
    random.Random(seed).shuffle(perm)
    g = _rook(a, b)
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges)), perm


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_the_search_proves_a_local_value_that_reaches_its_bound(monkeypatch, seed):
    # K4 x K4 = L(K4,4): at a triple in one row, and at one in three rows
    # and columns, the pi bound is 4 and the search finds 4 paths within
    # 10 ms (5,000 units); without the search, listing and packing cannot
    # prove 4 within that budget (they take about 6M units)
    g, perm = _relabelled_rook(4, 4, seed)
    triples = [tuple(sorted(perm[v] for v in s)) for s in ((0, 1, 2), (0, 5, 10))]
    for s in triples:
        assert local_upper_bound(g, s, PI) == 4
        cert = local_connectivity(g, s, PI, budget_ms=10)
        assert (cert.value, cert.status) == (4, "exact")
        assert family_violations(g, s, cert.family, PI) == []
    monkeypatch.setattr(steiner, "_residual_stage", lambda s, variant: False)
    for s in triples:
        assert local_connectivity(g, s, PI, budget_ms=10).status == "lower-bound"


@pytest.mark.parametrize("seed", (None, 1, 97))
def test_a_budgeted_global_scan_of_the_rook_graph_is_exact(seed):
    # the first set of the scan is solved exactly by the search, and the
    # other three orbits reach 4 by their threshold questions, all within
    # the 50,000 units of 100 ms
    g = _rook(4, 4) if seed is None else _relabelled_rook(4, 4, seed)[0]
    res = global_connectivity(g, 3, PI, budget_ms=100)
    assert (res.value, res.status) == (4, "exact")
    assert res.units <= 50_000
    assert family_violations(g, res.terminals, res.certificate.family, PI) == []
