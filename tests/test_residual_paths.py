"""The residual two-path search of pathconn.steiner (_residual_paths).

At a triple of a path variant, steiner._at_least runs this search for
every threshold question, pack_at_least and the global scans alike, once
its short candidate list is cut by its cap; at any other set it packs
that list instead.  These tests pin what the search may and may not do:
every family it returns is a valid disjoint family of the size asked
for, two runs agree in every detail, it never spends more than its pool
holds, and finding nothing never turns into a "no".  A scan reaches the
search only at triples with more than 256 candidates (K7 has them, K6
does not), so the scan tests lower the cap to reach it on small graphs.
"""

import hashlib
from itertools import combinations

import pytest

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


def test_a_miss_still_reaches_a_proven_no(search_log):
    # the local pi value at this triple of K7 - e is 3, below its bound 4
    g, s = complete(7).without_edge(0, 1), (0, 1, 2)
    assert local_upper_bound(g, s, PI) == 4
    assert local_connectivity(g, s, PI).value == 3
    assert pack_at_least(g, s, 4, PI).answer == "no"
    assert search_log == [()]


@pytest.mark.parametrize("variant", (PI, OMEGA))
@pytest.mark.parametrize("g", (complete(6), complete(7).without_edge(0, 1), _rook(2, 4)),
                         ids=("K6", "K7-e", "K2xK4"))
def test_global_scans_agree_with_scans_without_the_search(monkeypatch, search_log,
                                                          g, variant):
    # with a short list of 8 candidates the global scans' threshold
    # questions reach the search at most triples; every hit must leave the
    # scan's answer as it is without the search
    monkeypatch.setattr(steiner, "_SHORT_CAP", 8)

    def scans():
        res = global_connectivity(g, 3, variant)
        return (res.value, res.status, res.terminals, res.certificate,
                [global_at_least(g, 3, t, variant) for t in (res.value, res.value + 1)])

    with_search = scans()
    assert any(search_log)
    assert with_search[1] == "exact"
    assert with_search[4] == ["yes", "no"]
    monkeypatch.setattr(steiner, "_residual_stage", lambda s, variant: False)
    search_log.clear()
    assert scans() == with_search
    assert search_log == []
