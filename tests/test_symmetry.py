"""The automorphism search and the orbit-reduced global scans.

A global scan takes one terminal set per orbit of the automorphisms that
pathconn._symmetry finds.  These tests check every generator against the
edge set, count orbits against a search over all permutations, and compare
the reduced scans with scans of every k-set (the search patched to find
nothing).  The search itself must find the same generators, spend the
same units and yield the same representatives as the original module,
copied unchanged into tests/oracle.py.
"""

import random
from itertools import combinations

import pytest

import oracle
from oracle import naive_orbit_count
from pathconn import _symmetry
from pathconn.graphs import Graph, complete, complete_bipartite, cycle
from pathconn.random_graphs import RandomGraphSpec, sample_graphs
from pathconn.steiner import (
    LOWER_BOUND, VARIANTS, WorkBudget, global_at_least, global_connectivity,
)
from pathconn.transforms import cartesian_product, line_graph
from test_solver_golden import _graphs as golden_graphs
from test_steiner import _oracle_graphs


def _relabel(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def _product(a: int, b: int) -> Graph:
    return cartesian_product(complete(a), complete(b)).graph


def _orbit_count(g: Graph, k: int) -> int:
    return len(list(_symmetry.representatives(g, k, WorkBudget())))


def _is_automorphism(g: Graph, h) -> bool:
    return (sorted(h) == list(range(g.n))
            and sorted(tuple(sorted((h[u], h[v]))) for u, v in g.edges) == list(g.edges))


def _small_graphs() -> list[Graph]:
    return (_oracle_graphs(seed=21, count=25, n_max=7)
            + [complete(n).without_edge(0, 1) for n in range(3, 8)]
            + [cycle(n) for n in range(3, 8)])


def test_every_generator_is_an_automorphism():
    graphs = _small_graphs() + [_relabel(_product(4, 4), 1), complete_bipartite(3, 4)]
    for g in graphs:
        for h in _symmetry.generators(g, WorkBudget()):
            assert _is_automorphism(g, h), (g.edges, h)


def test_orbit_counts_match_all_permutations():
    for g in _small_graphs():
        for k in range(1, g.n + 1):
            assert _orbit_count(g, k) == naive_orbit_count(g, k), (g.edges, k)


def test_representatives_are_least_in_their_orbits():
    g = _relabel(_product(3, 4), 2)
    gens = _symmetry.generators(g, WorkBudget())
    reps = list(_symmetry.representatives(g, 3, WorkBudget()))
    assert reps == sorted(reps)
    covered = set()
    for s in reps:
        orbit, stack = {s}, [s]
        while stack:
            t = stack.pop()
            for h in gens:
                u = tuple(sorted(h[v] for v in t))
                if u not in orbit:
                    orbit.add(u)
                    stack.append(u)
        assert min(orbit) == s and not orbit & covered
        covered |= orbit
    assert len(covered) == len(list(combinations(range(g.n), 3)))


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("g, k, orbits", [
    (_product(4, 4), 3, 4),
    (_product(4, 6), 3, 6),
    (complete_bipartite(5, 5), 3, 2),
    (complete_bipartite(6, 6), 3, 2),
    (complete(6), 3, 1),
    (complete(7), 4, 1),
], ids=("K4xK4", "K4xK6", "K5,5", "K6,6", "K6", "K7"))
def test_orbit_counts_under_relabelling(g, k, orbits, seed):
    assert _orbit_count(_relabel(g, seed), k) == orbits


@pytest.mark.parametrize("g, k, truth", [
    (_relabel(_product(4, 4), 3), 3, 4),
    (complete_bipartite(5, 5), 3, 2),
], ids=("K4xK4", "K5,5"))
def test_pool_spent_inside_the_search(g, k, truth):
    full = WorkBudget()
    all_gens = _symmetry.generators(g, full)
    for left in range(0, full.spent, 37):
        pool = WorkBudget()
        pool.left = left
        gens = _symmetry.generators(g, pool)
        assert pool.exhausted and pool.spent == left
        assert len(gens) < len(all_gens)
        assert all(_is_automorphism(g, h) for h in gens)
    # budget_ms=1 is fewer units than the search needs on these graphs
    assert full.spent > WorkBudget(1).left
    res = global_connectivity(g, k, "pi", budget_ms=1)
    assert res.value <= truth and res.status == LOWER_BOUND
    assert global_at_least(g, k, truth, "pi", budget_ms=1) in ("yes", "unknown")
    assert global_at_least(g, k, truth + 1, "pi", budget_ms=1) in ("no", "unknown")


def _scans(g: Graph, k: int, variant: str):
    res = global_connectivity(g, k, variant)
    fam = res.certificate.family if res.certificate else None
    answers = [global_at_least(g, k, t, variant) for t in (res.value, res.value + 1)]
    return (res.value, res.status, res.terminals, fam), answers


def test_reduced_scans_equal_full_scans(monkeypatch):
    graphs = _oracle_graphs(seed=14, count=8, m_max=8) + [g for _, g in golden_graphs()]
    cases = [(g, k, variant) for g in graphs for k in (2, 3, 4) if k <= g.n
             for variant in VARIANTS]
    reduced = [_scans(*case) for case in cases]
    monkeypatch.setattr(_symmetry, "generators", lambda g, pool: [])
    assert [_scans(*case) for case in cases] == reduced


@pytest.mark.parametrize("variant", VARIANTS)
def test_reduced_threshold_scans_on_a_relabelled_product(monkeypatch, variant):
    # K4xK4 has pair value 6 for every variant; its 120 pairs fall in 2 orbits
    g = _relabel(_product(4, 4), 4)
    reduced = [global_at_least(g, 2, t, variant) for t in (6, 7)]
    assert reduced == ["yes", "no"]
    monkeypatch.setattr(_symmetry, "generators", lambda g, pool: [])
    assert [global_at_least(g, 2, t, variant) for t in (6, 7)] == reduced


def _reference_graphs() -> list[Graph]:
    # K3,3 beside the prism: one refined cell holds two orbits, so a search
    # from a vertex of the other orbit fails and must not be repeated for
    # the vertices its stabiliser orbit already covers
    prism = ((6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11), (6, 9), (7, 10), (8, 11))
    two_cubic = Graph(12, complete_bipartite(3, 3).edges + prism)
    named = ([g for _, g in golden_graphs()] + _oracle_graphs(seed=19, count=25)
             + [_product(4, 4), _product(4, 6), line_graph(complete(4)).graph,
                line_graph(complete(5)).graph, complete_bipartite(6, 6), two_cubic])
    spec = RandomGraphSpec(n_min=1, n_max=9, m_min=0, m_max=36, requirement="connected")
    return ([h for i, g in enumerate(named) for h in (g, _relabel(g, i))]
            + sample_graphs(spec, seed=19, count=200))


def _pool(left: int | None) -> WorkBudget:
    pool = WorkBudget()
    if left is not None:
        pool.left = left
    return pool


def _search(module, g: Graph, left: int | None = None):
    pool = _pool(left)
    return module.generators(g, pool), pool.spent, pool.left


def _reps(module, g: Graph, k: int, left: int | None = None):
    pool = _pool(left)
    return list(module.representatives(g, k, pool)), pool.spent


def test_the_search_matches_the_original_module():
    # the bitmask search finds the same generators, charges the same units
    # and stops at the same point of every budget cut as the original
    for g in _reference_graphs():
        full = _search(oracle, g)
        assert _search(_symmetry, g) == full, g.edges
        spent = full[1]
        for left in {0, 1, 2, 3, spent // 4, spent // 2, spent - 1, spent}:
            assert _search(_symmetry, g, left) == _search(oracle, g, left), (g.edges, left)


def test_representatives_match_the_original_module():
    # every k, with an unlimited pool and with half the search's units; on
    # K4xK6 (24 vertices, 2^24 sets) only the sizes at both ends
    for g in _reference_graphs():
        half = _search(oracle, g)[1] // 2
        sizes = range(1, g.n + 1) if g.n <= 16 else (*range(1, 5), *range(g.n - 2, g.n + 1))
        for k in sizes:
            for left in (None, half):
                assert _reps(_symmetry, g, k, left) == _reps(oracle, g, k, left), (g.edges, k, left)
