"""The automorphism search and the orbit-reduced global scans.

A global scan takes one terminal set per orbit of the automorphisms that
pathconn._symmetry finds.  These tests check every generator against the
edge set, count orbits against a search over all permutations, and compare
the reduced scans with scans of every k-set (the search patched to find
nothing).
"""

import random
from itertools import combinations

import pytest

from oracle import naive_orbit_count
from pathconn import _symmetry
from pathconn.graphs import Graph, complete, complete_bipartite, cycle
from pathconn.steiner import (
    LOWER_BOUND, VARIANTS, WorkBudget, global_at_least, global_connectivity,
)
from pathconn.transforms import cartesian_product
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
