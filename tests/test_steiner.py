import gc
import random
from itertools import combinations

import pytest

import oracle
from oracle import (
    all_terminal_paths, all_terminal_trees, naive_global_value,
    naive_local_value,
)
from pathconn import _pure, steiner
from pathconn.graphs import Graph, InputError, complete, complete_bipartite, cycle, net, path, star
from pathconn.invariants import connectivity, edge_connectivity
from pathconn.random_graphs import RandomGraphSpec, sample_graph, sample_graphs
from pathconn.steiner import (
    EXACT, KAPPA, LAMBDA, LOWER_BOUND, OMEGA, PI, VARIANTS, ZERO,
    PackingCertificate, WorkBudget,
    complete_graph_value, enumerate_minimal_spaths, enumerate_minimal_strees,
    global_at_least, global_connectivity, local_connectivity,
    local_upper_bound, pack_at_least, terminal_set, upper_bound,
)
from pathconn.transforms import line_graph
from pathconn.witness import family_violations
from test_solver_golden import _cases as golden_cases, _graphs as golden_graphs


def _oracle_graphs(seed, count, n_min=4, n_max=6, m_max=9):
    spec = RandomGraphSpec(n_min=n_min, n_max=n_max, m_min=3, m_max=m_max,
                           requirement="none")
    return sample_graphs(spec, seed=seed, count=count)


def test_path_enumeration_matches_oracle():
    rng = random.Random(11)
    for g in _oracle_graphs(seed=11, count=15):
        for k in (2, 3, 4):
            s = tuple(sorted(rng.sample(range(g.n), k)))
            got, truncated = enumerate_minimal_spaths(g, s)
            assert not truncated
            assert sorted(got) == sorted(all_terminal_paths(g, s))


def test_tree_enumeration_matches_oracle():
    rng = random.Random(12)
    for g in _oracle_graphs(seed=12, count=10, m_max=8):
        for k in (2, 3):
            s = tuple(sorted(rng.sample(range(g.n), k)))
            got, truncated = enumerate_minimal_strees(g, s)
            assert not truncated
            assert sorted(got) == sorted(all_terminal_trees(g, s))


def test_local_values_match_oracle_all_variants():
    rng = random.Random(13)
    for g in _oracle_graphs(seed=13, count=12, m_max=8):
        for k in (2, 3, 4):
            s = tuple(sorted(rng.sample(range(g.n), k)))
            for variant in VARIANTS:
                cert = local_connectivity(g, s, variant)
                assert cert.status in (EXACT, ZERO)
                assert cert.value == naive_local_value(g, s, variant), (
                    g.edges, s, variant)
                assert family_violations(g, s, cert.family, variant) == []


def test_local_values_exhaustive_on_a_fixed_small_graph():
    g = Graph(5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)))
    for k in (2, 3, 4):
        for s in combinations(range(g.n), k):
            for variant in VARIANTS:
                cert = local_connectivity(g, s, variant)
                assert cert.value == naive_local_value(g, s, variant)


def test_global_values_match_oracle():
    for g in _oracle_graphs(seed=14, count=8, m_max=8):
        for k in (2, 3):
            for variant in VARIANTS:
                res = global_connectivity(g, k, variant)
                assert res.status == EXACT
                assert res.value == naive_global_value(g, k, variant), (
                    g.edges, k, variant)


def test_pair_values_equal_classical_connectivity():
    for g in _oracle_graphs(seed=15, count=10):
        kap, lam = connectivity(g), edge_connectivity(g)
        assert global_connectivity(g, 2, PI).value == kap
        assert global_connectivity(g, 2, KAPPA).value == kap
        assert global_connectivity(g, 2, OMEGA).value == lam
        assert global_connectivity(g, 2, LAMBDA).value == lam


def test_conventions():
    for variant in VARIANTS:
        # k = 1 is the minimum degree (0 on a single vertex)
        assert global_connectivity(path(4), 1, variant).value == 1
        assert global_connectivity(Graph(1), 1, variant).value == 0
        # k above the vertex count: 1 when connected, 0 when not
        assert global_connectivity(path(3), 5, variant).value == 1
        assert global_connectivity(Graph(3, ((0, 1),)), 5, variant).value == 0
        # disconnected graphs have value 0 with a witness subset
        res = global_connectivity(Graph(4, ((0, 1), (2, 3))), 2, variant)
        assert res.value == 0 and res.status == EXACT
        assert res.terminals is not None


def test_star_has_no_triple_path(calls):
    res = global_connectivity(star(4), 3, PI)
    assert res.value == 0 and res.status == EXACT
    calls["_candidates"].clear()
    cert = local_connectivity(star(4), (1, 2, 3), PI)
    assert cert.value == 0 and cert.status == ZERO
    # the bound there is 0, which settles the set without listing
    assert calls["_candidates"] == []


def _scan_graphs():
    """K7, K4,4, L(K4), the net, star(4) and the golden file's two random graphs."""
    spec = RandomGraphSpec(n_min=5, n_max=6, m_min=5, m_max=9, requirement="connected")
    named = [("K7", complete(7)), ("K4,4", complete_bipartite(4, 4)),
             ("L(K4)", line_graph(complete(4)).graph), ("net", net()), ("star4", star(4))]
    return named + [(f"random{i}", g)
                    for i, g in enumerate(sample_graphs(spec, seed=2016, count=2))]


_SCAN_GRAPHS = _scan_graphs()


@pytest.fixture
def calls(monkeypatch):
    """(terminal set, result) of every call to _at_least, _local_solve and
    _candidates, by name, in call order."""
    log = {"_at_least": [], "_local_solve": [], "_candidates": []}

    def logged(name):
        inner = getattr(steiner, name)

        def call(g, *args):
            out = inner(g, *args)
            log[name].append((args[1] if name != "_candidates" else args[0], out))
            return out
        monkeypatch.setattr(steiner, name, call)

    for name in log:
        logged(name)
    return log


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("g", [g for _, g in _SCAN_GRAPHS], ids=[n for n, _ in _SCAN_GRAPHS])
def test_the_global_scan_solves_each_orbit_set_once(calls, g, variant):
    from pathconn import _symmetry
    for k in (2, 3, 4):
        for log in calls.values():
            log.clear()
        res = global_connectivity(g, k, variant)
        assert res.status == EXACT
        assert calls["_at_least"] == []
        solved = [s for s, _ in calls["_local_solve"]]
        assert len(solved) == len(set(solved))
        assert set(solved) <= set(_symmetry.representatives(g, k, WorkBudget(None)))
        # the scan stops at its first zero
        zeros = [i for i, (_, cert) in enumerate(calls["_local_solve"]) if cert.value == 0]
        assert zeros == ([len(solved) - 1] if res.value == 0 else [])


def _one_graphs():
    """K4, C5, K2,3, star(4), the net and the inequality suite's first
    three sampled graphs at seed 1."""
    spec = RandomGraphSpec(n_min=4, n_max=7, m_min=3, m_max=12, requirement="connected")
    rng = random.Random(1)
    named = [("K4", complete(4)), ("C5", cycle(5)), ("K2,3", complete_bipartite(2, 3)),
             ("star4", star(4)), ("net", net())]
    return named + [(f"sample{i}", sample_graph(spec, rng)) for i in range(3)]


_ONE_GRAPHS = _one_graphs()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("g", [g for _, g in _ONE_GRAPHS], ids=[n for n, _ in _ONE_GRAPHS])
def test_a_question_of_one_takes_the_first_candidate(monkeypatch, g, variant):
    # a goal of 1, or an exact solve capped at 1, lists one candidate: the
    # first of the full list is the member, and an empty list proves none
    monkeypatch.setattr(steiner, "UNITS_PER_MS", 1)  # budget_ms counts units
    listing = enumerate_minimal_strees if variant in (KAPPA, LAMBDA) else enumerate_minimal_spaths
    for k in (2, 3, 4):
        for s in combinations(range(g.n), k):
            first = listing(g, s)[0][:1]
            dec = pack_at_least(g, s, 1, variant)
            assert dec.answer == ("yes" if first else "no")
            assert dec.answer == ("yes" if naive_local_value(g, s, variant) >= 1 else "no")
            assert (dec.certificate.family if first else dec.certificate) == (first or None)
            # it spends what listing one candidate spends (nothing under a bound of 0)
            bound = local_upper_bound(g, s, variant)
            pool = WorkBudget(None)
            if bound:
                steiner._candidates(g, s, variant, pool, 1)
            assert dec.units == pool.spent
            one = bound == 1
            if one:
                cert = local_connectivity(g, s, variant)
                assert (cert.family, cert.status) == (first, EXACT if first else ZERO)
            # a budget of b units buys b - 1 attempts, so the listing needs
            # one unit more than it spends; short of that nothing is proven
            for b in range(dec.units + 2):
                short = b <= dec.units and dec.units > 0
                got = pack_at_least(g, s, 1, variant, budget_ms=b)
                if short:
                    assert (got.answer, got.certificate) == ("unknown", None)
                else:
                    assert got == dec
                if one:
                    got = local_connectivity(g, s, variant, budget_ms=b)
                    assert got == (PackingCertificate(variant, s, (), LOWER_BOUND)
                                   if short else cert)


def test_complete_graph_formula_small():
    for n in range(3, 7):
        for k in range(3, n + 1):
            res = global_connectivity(complete(n), k, PI)
            assert res.status == EXACT
            assert res.value == complete_graph_value(n, k)


def test_complete_graph_value_validates():
    with pytest.raises(InputError):
        complete_graph_value(3, 1)
    with pytest.raises(InputError):
        complete_graph_value(3, 4)


def test_certificates_verify_and_match_value():
    g = complete_bipartite(3, 3)
    for variant in VARIANTS:
        cert = local_connectivity(g, (0, 1, 3), variant)
        assert cert.status == EXACT
        assert len(cert.family) == cert.value
        assert family_violations(g, (0, 1, 3), cert.family, variant) == []


def test_local_upper_bound_is_sound():
    dense = [complete(5), complete(5).without_edge(0, 1), complete_bipartite(3, 3)]
    for g in _oracle_graphs(seed=16, count=40) + dense:
        for k in (2, 3, 4):
            for s in combinations(range(g.n), k):
                for variant in VARIANTS:
                    assert naive_local_value(g, s, variant) <= local_upper_bound(
                        g, s, variant), (g.edges, s, variant)


def test_local_upper_bound_matches_the_original_formula():
    # the adjacency test reads neighbour masks instead of the edge index
    for _, g in golden_graphs():
        for k in (2, 3, 4):
            for s in combinations(range(g.n), k):
                for variant in VARIANTS:
                    assert local_upper_bound(g, s, variant) == oracle.local_upper_bound(
                        g, s, variant), (g.edges, s, variant)


def test_global_upper_bound_is_sound():
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    for g in _oracle_graphs(seed=17, count=8, m_max=8) + [two_triangles]:
        for k in (1, 2, 3):
            for variant in VARIANTS:
                assert naive_global_value(g, k, variant) <= upper_bound(g, k, variant)


def test_pack_decisions_match_oracle():
    rng = random.Random(18)
    for g in _oracle_graphs(seed=18, count=8, m_max=8):
        for k in (2, 3):
            s = tuple(sorted(rng.sample(range(g.n), k)))
            for variant in (PI, OMEGA):
                truth = naive_local_value(g, s, variant)
                for t in range(1, truth + 2):
                    dec = pack_at_least(g, s, t, variant)
                    assert dec.answer == ("yes" if truth >= t else "no")
                    if dec.answer == "yes":
                        assert len(dec.certificate.family) >= t
                        assert family_violations(
                            g, s, dec.certificate.family, variant) == []


def test_global_at_least_agrees_with_global_value():
    for g in _oracle_graphs(seed=19, count=6, m_max=8):
        for variant in (PI, OMEGA):
            value = global_connectivity(g, 3, variant).value
            assert global_at_least(g, 3, value, variant) == "yes"
            assert global_at_least(g, 3, value + 1, variant) == "no"
            assert global_at_least(g, 3, 0, variant) == "yes"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("t", (1, 2))
@pytest.mark.parametrize("g", (complete(7), complete_bipartite(3, 4), complete(6)),
                         ids=("K7", "K3,4", "K6"))
def test_every_caller_stages_a_set_the_same_way(g, t, variant):
    # with k = n the global scan has one terminal set, the one pack_at_least gets
    dec = pack_at_least(g, range(g.n), t, variant)
    assert steiner._global_at_least(g, g.n, t, variant, None) == (dec.answer, dec.units)


def test_budget_zero_degrades_to_lower_bound():
    g = complete(6)
    res = global_connectivity(g, 3, PI, budget_ms=0)
    assert res.status == LOWER_BOUND
    assert res.value <= complete_graph_value(6, 3)
    cert = local_connectivity(g, (0, 1, 2), PI, budget_ms=0)
    assert cert.status == LOWER_BOUND
    dec = pack_at_least(g, (0, 1, 2), 3, PI, budget_ms=0)
    assert dec.answer == "unknown"


def test_no_call_is_charged_past_its_budget(monkeypatch):
    # every pool a budgeted golden case makes, whatever its entry point,
    # spends at most its budget: a step that finds the pool spent does
    # nothing and is charged nothing
    pools = []

    class Pool(WorkBudget):
        def __init__(self, budget_ms=None):
            super().__init__(budget_ms)
            if budget_ms is not None:
                pools.append((budget_ms, self))

    monkeypatch.setattr(steiner, "WorkBudget", Pool)
    budgeted = 0
    for entry, args, run in golden_cases():
        if "budget_ms=" not in args:
            continue
        pools.clear()
        rec = run()
        budgeted += 1
        for budget_ms, pool in pools:
            assert pool.spent <= budget_ms * steiner.UNITS_PER_MS, (entry, args)
        if entry in ("global_connectivity", "pack_at_least") and rec[0] != "error":
            units = rec[2] if entry == "global_connectivity" else rec[1]
            assert units == sum(pool.spent for _, pool in pools), (entry, args)
    assert budgeted > 1000
    # the budget-cut global scans of certify-budgeted spend exactly theirs
    for g, k in ((complete_bipartite(5, 5), 3), (complete_bipartite(6, 6), 3),
                 (line_graph(complete(5)).graph, 4)):
        res = global_connectivity(g, k, PI, budget_ms=100)
        assert (res.status, res.units) == (LOWER_BOUND, 100 * steiner.UNITS_PER_MS)
    # a bound of 0 is a proven zero whatever the budget, for exact solves
    # and threshold questions alike
    assert local_connectivity(star(4), (1, 2, 3), PI, budget_ms=0).status == ZERO
    assert pack_at_least(star(4), (1, 2, 3), 1, PI, budget_ms=0).answer == "no"


def test_budgeted_results_are_bounded_by_truth():
    g = complete(6)
    truth = complete_graph_value(6, 3)
    for ms in (0, 1, 5, 50):
        res = global_connectivity(g, 3, PI, budget_ms=ms)
        assert res.value <= truth
        if res.status == EXACT:
            assert res.value == truth


def test_solver_calls_are_deterministic():
    g = complete_bipartite(3, 4)
    a = global_connectivity(g, 3, PI, budget_ms=2)
    b = global_connectivity(g, 3, PI, budget_ms=2)
    assert a == b
    c = local_connectivity(g, (0, 3, 4), KAPPA)
    d = local_connectivity(g, (0, 3, 4), KAPPA)
    assert c == d


def test_enumeration_budget_reports_truncation():
    g, s = complete(7), (0, 1, 2)
    full, truncated = enumerate_minimal_spaths(g, s)
    assert not truncated
    paths, truncated = enumerate_minimal_spaths(g, s, budget_ms=1)
    assert truncated and 0 < len(paths) < len(full)
    assert paths == full[:len(paths)]


@pytest.mark.parametrize("cap", [1, 5, 256])
def test_path_cap_keeps_a_prefix(cap):
    # every threshold question first lists the first 256 paths of the full list
    g, smask, huge = complete(7), 0b111, 1 << 62
    full, complete_, _ = _pure.enumerate_paths(g.n, g.masks, smask, huge, huge)
    assert complete_ and len(full) > 256
    paths, complete_, _ = _pure.enumerate_paths(g.n, g.masks, smask, cap, huge)
    assert (paths, complete_) == (full[:cap], False)


def test_terminal_set_validation():
    g = path(4)
    assert terminal_set(g, [2, 0]) == (0, 2)
    with pytest.raises(InputError):
        terminal_set(g, [0, 0])
    with pytest.raises(InputError):
        terminal_set(g, [0, 9])
    with pytest.raises(InputError):
        local_connectivity(g, (0,), PI)
    with pytest.raises(InputError):
        global_connectivity(g, 0, PI)
    with pytest.raises(InputError):
        local_connectivity(g, (0, 1), "sigma")
    with pytest.raises(InputError):
        pack_at_least(g, (0, 1), 0, PI)


def test_solver_size_guard():
    with pytest.raises(InputError):
        global_connectivity(Graph(65), 2, PI)
    with pytest.raises(InputError):
        global_connectivity(Graph(0), 1, PI)


def test_tree_values_dominate_path_values():
    # a terminal path is a terminal tree, so tree packings are never smaller
    rng = random.Random(20)
    for g in _oracle_graphs(seed=20, count=8, m_max=8):
        s = tuple(sorted(rng.sample(range(g.n), 3)))
        assert (local_connectivity(g, s, PI).value
                <= local_connectivity(g, s, KAPPA).value)
        assert (local_connectivity(g, s, OMEGA).value
                <= local_connectivity(g, s, LAMBDA).value)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_solve_leaves_no_garbage_cycles(variant):
    # the searches free their state when they return, so a global scan
    # (symmetry search, listing, packing) leaves nothing for the cyclic GC
    gc.collect()
    gc.disable()
    try:
        global_connectivity(complete_bipartite(3, 3), 3, variant)
        assert gc.collect() == 0
    finally:
        gc.enable()
