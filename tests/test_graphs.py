import pytest
from hypothesis import example, given, strategies as st

from pathconn.graphs import (
    Graph, InputError, canon_edge, complete, complete_bipartite, components,
    cycle, net, parse_graph, path, serialize_graph, star,
)


@st.composite
def graphs(draw, n_min=1, n_max=8):
    n = draw(st.integers(n_min, n_max))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pool:
        edges = draw(st.lists(st.sampled_from(pool), unique=True,
                              max_size=len(pool)))
    else:
        edges = []
    return Graph(n, tuple(edges))


def test_edges_are_canonicalized():
    g = Graph(4, ((2, 1), (0, 3), (1, 2), (3, 0), (0, 1)))
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.m == 3


def test_canon_edge_orders_endpoints():
    assert canon_edge(5, 2) == (2, 5)
    assert canon_edge(2, 5) == (2, 5)


@pytest.mark.parametrize("bad", [
    dict(n=-1, edges=()),
    dict(n=3, edges=((0, 0),)),
    dict(n=3, edges=((0, 3),)),
    dict(n=3, edges=((0,),)),
    dict(n=3, edges=(("a", 1),)),
])
def test_rejects_malformed_graphs(bad):
    with pytest.raises(InputError):
        Graph(bad["n"], bad["edges"])


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees()) == 2 * g.m


@given(graphs())
def test_masks_agree_with_adjacency(g):
    for v in range(g.n):
        assert g.masks[v] == sum(1 << w for w in g.adj[v])
        assert g.degree(v) == len(g.adj[v])


@given(graphs())
def test_edge_membership(g):
    for u, v in g.edges:
        assert g.has_edge(u, v) and g.has_edge(v, u)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == ((u, v) in g.edge_index)


@given(graphs(n_min=2))
def test_with_and_without_edge(g):
    u, v = 0, 1
    if g.has_edge(u, v):
        smaller = g.without_edge(u, v)
        assert smaller.m == g.m - 1
        assert Graph(g.n, smaller.edges + ((u, v),)) == g
    else:
        larger = Graph(g.n, g.edges + ((u, v),))
        assert larger.m == g.m + 1
        assert larger.without_edge(u, v) == g


def test_generator_shapes():
    assert complete(5).m == 10
    assert complete(0).n == 0
    b = complete_bipartite(2, 3)
    assert (b.n, b.m) == (5, 6)
    assert b.degrees() == (3, 3, 2, 2, 2)
    assert star(4).degrees() == (4, 1, 1, 1, 1)
    assert path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle(4).degrees() == (2, 2, 2, 2)
    h = net()
    assert (h.n, h.m) == (6, 6)
    assert sorted(h.degrees()) == [1, 1, 1, 3, 3, 3]


@pytest.mark.parametrize("fn,arg", [
    (complete, -1), (complete_bipartite, 0), (star, -2), (path, 0), (cycle, 2),
])
def test_generator_argument_validation(fn, arg):
    with pytest.raises(InputError):
        fn(arg, 3) if fn is complete_bipartite else fn(arg)


def test_components_split_and_removal():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    assert components(g) == ((0, 1, 2), (3, 4))
    assert components(g, {1}) == ((0,), (2,), (3, 4))
    assert g.is_connected() is False
    assert path(4).is_connected() is True


@given(graphs())
@example(Graph(1, ()))
@example(net())
def test_serialize_parse_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_emits_comments_first():
    text = serialize_graph(path(2), comments=("hello", ""))
    assert text.splitlines()[:2] == ["# hello", "#"]
    assert parse_graph(text) == path(2)


@pytest.mark.parametrize("text,fragment", [
    ("e 0 1\nn 2\n", "edge line before"),
    ("n 2\nn 2\n", "duplicate"),
    ("n 2\ne 0 0\n", "self-loop"),
    ("n 2\ne 0 5\n", "out of range"),
    ("n 2\ne 0\n", "expected"),
    ("n x\n", "integer"),
    ("q 1\n", "unknown directive"),
    ("# only a comment\n", "missing vertex count"),
])
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_graph(text)
