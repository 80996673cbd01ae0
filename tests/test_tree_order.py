"""The pruned tree enumerator against the original one kept in oracle.py.

The pruned search must emit the same trees in the same order, so values,
witness families and cap-truncated prefixes stay as they were; under a work
budget it enters only nodes the original enters, so it never returns fewer
trees than the original at the same budget.
"""

from itertools import combinations

import pytest

import oracle
from pathconn import _pure
from pathconn.graphs import complete, complete_bipartite
from pathconn.random_graphs import RandomGraphSpec, sample_graphs

HUGE = 1 << 62


def _cases():
    # the inequality suite's sampling at its default seed, n_max and m_max
    spec = RandomGraphSpec(n_min=4, n_max=7, m_min=3, m_max=12,
                           requirement="connected")
    graphs = sample_graphs(spec, seed=1, count=20)
    graphs += [complete(6), complete_bipartite(3, 4)]
    cases = []
    for g in graphs:
        for k in range(2, 6):
            for s in combinations(range(g.n), k):
                smask = sum(1 << v for v in s)
                cases.append((g.n, g.masks, g.edges, smask))
    return cases


CASES = _cases()


@pytest.mark.parametrize("cap", [HUGE, 1, 7, 256], ids=["uncapped", "1", "7", "256"])
def test_same_trees_in_the_same_order_for_no_more_units(cap):
    for args in CASES:
        want, want_complete, want_units = oracle.enumerate_trees(*args, cap, HUGE)
        got, got_complete, got_units = _pure.enumerate_trees(*args, cap, HUGE)
        assert (got, got_complete) == (want, want_complete), (args, cap)
        assert got_units <= want_units, (args, cap)


def test_budget_cut_is_a_prefix_no_shorter_than_the_original():
    for args in CASES:
        full, _, spent = oracle.enumerate_trees(*args, HUGE, HUGE)
        for budget in sorted({1, 2, 5, 17, 100, spent // 2, spent - 1}):
            want, _, _ = oracle.enumerate_trees(*args, HUGE, budget)
            got, _, _ = _pure.enumerate_trees(*args, HUGE, budget)
            assert got == full[:len(got)], (args, budget)
            assert len(got) >= len(want), (args, budget)
