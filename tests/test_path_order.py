"""The path enumerator against the original one kept in oracle.py.

The rewritten enumerator walks neighbour lists and settles its last level
in place from neighbour bitmasks, but it must emit the same paths in the
same order and count the same units at the same extension attempts.  So
(paths, complete, units) must equal the original's at every cap and every
budget, cut-offs included.  The selected backend's kernel is checked too when it is not the
pure one, so a compiled build is held to the original, not only to its
pure twin.
"""

from itertools import combinations

import pytest

import oracle
from pathconn import _pure
from pathconn._backend import impl
from pathconn.graphs import complete, complete_bipartite, cycle
from pathconn.random_graphs import RandomGraphSpec, sample_graphs
from pathconn.steiner import _smask
from pathconn.transforms import cartesian_product, line_graph

HUGE = 1 << 62

KERNELS = [_pure] if impl is _pure else [_pure, impl]
KERNEL_IDS = [kernel.BACKEND_NAME for kernel in KERNELS]

# small instances swept at every cut point: every budget from 0 to the
# complete run's units + 1, and every cap from 1 to its path count + 1.
# On K6 and L(K4) the last level's nodes have several free neighbours with
# the closing terminal among them; the k = 2 case has paths of length 1.
CUT_CASES = (
    (complete(5), (0, 1, 2)),
    (complete_bipartite(3, 4), (0, 1, 3, 4)),
    (cycle(8), (0, 3, 5)),
    (complete(6), (0, 1, 2)),
    (line_graph(complete(4)).graph, (0, 2, 5)),
    (complete_bipartite(3, 3), (0, 3)),
)


def cut_points(g, s):
    """Every (cap, budget) at which the listing of g at s stops early, plus
    the first one past its end on each axis."""
    paths, _, units = oracle.enumerate_paths(g.n, g.masks, _smask(s), HUGE, HUGE)
    return ([(HUGE, budget) for budget in range(units + 2)]
            + [(cap, HUGE) for cap in range(1, len(paths) + 2)])


def _cases():
    # the inequality suite's sampling at its default seed, n_max and m_max
    spec = RandomGraphSpec(n_min=4, n_max=7, m_min=3, m_max=12,
                           requirement="connected")
    graphs = sample_graphs(spec, seed=1, count=20)
    graphs += [complete(6), complete_bipartite(3, 4), line_graph(complete(4)).graph]
    return [(g.n, g.masks, _smask(s))
            for g in graphs for k in range(2, 6)
            for s in combinations(range(g.n), k)]


CASES = _cases()
LIMITS = ([(cap, HUGE) for cap in (HUGE, 1, 7, 256)]
          + [(HUGE, budget) for budget in (0, 1, 29)])


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_same_paths_and_units_as_the_original(kernel):
    for args in CASES:
        for cap, budget in LIMITS:
            want = oracle.enumerate_paths(*args, cap, budget)
            assert kernel.enumerate_paths(*args, cap, budget) == want, (args, cap, budget)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_same_cut_at_every_cap_and_budget(kernel):
    for g, s in CUT_CASES:
        for cap, budget in cut_points(g, s):
            want = oracle.enumerate_paths(g.n, g.masks, _smask(s), cap, budget)
            got = kernel.enumerate_paths(g.n, g.masks, _smask(s), cap, budget)
            assert got == want, (g.edges, s, cap, budget)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("side,s", [(4, (0, 5, 10)), (6, (0, 1, 7))],
                         ids=["K4xK4", "K6xK6"])
def test_product_triple_at_a_probe_budget(kernel, side, s):
    g = cartesian_product(complete(side), complete(side)).graph
    want = oracle.enumerate_paths(g.n, g.masks, _smask(s), HUGE, 50_000)
    assert kernel.enumerate_paths(g.n, g.masks, _smask(s), HUGE, 50_000) == want
