import pytest
from hypothesis import given, settings, strategies as st

from pathconn.graphs import (
    Graph, InputError, canon_edge, complete, complete_bipartite, cycle, net,
    path, star,
)
from pathconn.invariants import connectivity
from pathconn.transforms import (
    LabeledGraph, cartesian_product, line_graph, natural_iso_check,
)


@st.composite
def small_graphs(draw, n_min=1, n_max=5, need_edge=False):
    n = draw(st.integers(n_min, n_max))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True,
                          min_size=1 if need_edge else 0,
                          max_size=len(pool))) if pool else []
    return Graph(n, tuple(edges))


def test_line_graph_of_a_star_is_complete():
    assert line_graph(star(3)).graph == complete(3)
    assert line_graph(star(5)).graph == complete(5)


def test_line_graph_of_a_cycle_is_a_cycle():
    for n in range(3, 8):
        lg = line_graph(cycle(n)).graph
        assert (lg.n, lg.m) == (n, n)
        assert set(lg.degrees()) == {2}
        assert lg.is_connected()


def test_line_graph_of_k4_is_octahedral():
    lg = line_graph(complete(4)).graph
    assert (lg.n, lg.m) == (6, 12)
    assert set(lg.degrees()) == {4}
    assert connectivity(lg) == 4


def test_line_graph_labels_are_source_edges():
    g = net()
    lg = line_graph(g)
    assert lg.pairs == g.edges
    assert lg.graph.n == g.m


def test_line_graph_needs_an_edge():
    with pytest.raises(InputError):
        line_graph(Graph(3))


@settings(max_examples=60, deadline=None)
@given(small_graphs(n_min=2, need_edge=True))
def test_line_graph_edge_count_identity(g):
    lg = line_graph(g).graph
    assert lg.n == g.m
    assert lg.m == sum(d * (d - 1) // 2 for d in g.degrees())


@settings(max_examples=60, deadline=None)
@given(small_graphs(n_min=2, need_edge=True))
def test_line_graph_adjacency_means_shared_endpoint(g):
    lg = line_graph(g).graph
    for a in range(lg.n):
        for b in range(a + 1, lg.n):
            shares = bool(set(g.edges[a]) & set(g.edges[b]))
            assert lg.has_edge(a, b) == shares


def test_product_shape_and_degrees():
    gh = cartesian_product(path(3), cycle(4))
    assert gh.graph.n == 12
    assert gh.graph.m == 3 * 4 + 2 * 4
    for v, (i, j) in enumerate(gh.pairs):
        assert v == i * 4 + j
        assert gh.graph.degree(v) == path(3).degree(i) + cycle(4).degree(j)


def test_product_of_two_edges_is_a_four_cycle():
    gh = cartesian_product(path(2), path(2)).graph
    assert (gh.n, gh.m) == (4, 4)
    assert set(gh.degrees()) == {2}
    assert gh.is_connected()


def commutativity_check(g: Graph, h: Graph) -> bool:
    """Whether swapping coordinates maps g x h onto h x g exactly."""
    gh = cartesian_product(g, h).graph
    hg = cartesian_product(h, g).graph

    def swap(v: int) -> int:
        i, j = divmod(v, h.n)
        return j * g.n + i

    mapped = Graph(gh.n, tuple(canon_edge(swap(u), swap(v)) for u, v in gh.edges))
    return mapped == hg


@settings(max_examples=40, deadline=None)
@given(small_graphs(n_min=1, n_max=4), small_graphs(n_min=1, n_max=4))
def test_product_commutes_under_coordinate_swap(g, h):
    assert commutativity_check(g, h)


def test_product_needs_nonempty_factors():
    with pytest.raises(InputError):
        cartesian_product(Graph(0), path(2))


def test_labeled_graph_needs_one_pair_per_vertex():
    with pytest.raises(InputError):
        LabeledGraph(path(2), ((0, 0),))


def test_labeled_serialization_round_trips_the_graph():
    from pathconn.graphs import parse_graph
    gh = cartesian_product(complete(2), complete(3))
    text = gh.serialize(comments=("made by a test",))
    assert parse_graph(text) == gh.graph
    assert "label 0 0,0" in text and f"label {gh.graph.n - 1} 1,2" in text


def test_bipartite_line_graph_equals_product_with_matching_labels():
    for r in range(1, 7):
        for s in range(1, 7):
            assert natural_iso_check(r, s)
    with pytest.raises(InputError):
        natural_iso_check(0, 3)
