"""Line graphs and Cartesian products with provenance labels.

Both constructions return a LabeledGraph: the underlying Graph plus, for
each vertex, the pair it came from (an edge of the source graph, or a
coordinate pair of the product).  Labels are serialized as comments so any
consumer of the plain format can ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, InputError, canon_edge, complete, complete_bipartite, serialize_graph


@dataclass(frozen=True)
class LabeledGraph:
    """A graph whose vertices carry (int, int) provenance pairs."""

    graph: Graph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.pairs) != self.graph.n:
            raise InputError("labeled graph needs exactly one pair per vertex")

    def serialize(self, comments: tuple[str, ...] = ()) -> str:
        labels = tuple(f"label {v} {a},{b}" for v, (a, b) in enumerate(self.pairs))
        return serialize_graph(self.graph, comments + labels)


def line_graph(g: Graph) -> LabeledGraph:
    """Line graph: one vertex per edge, adjacent iff the edges share an endpoint.

    Vertex i of the result corresponds to g.edges[i] (canonical sorted order).
    """
    if g.m == 0:
        raise InputError("line_graph: graph has no edges")
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    out = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                out.add(canon_edge(ids[a], ids[b]))
    return LabeledGraph(Graph(g.m, tuple(sorted(out))), g.edges)


def cartesian_product(g: Graph, h: Graph) -> LabeledGraph:
    """Cartesian product: vertex (i, j) maps to flat id i * h.n + j.

    (i, j) ~ (i', j') iff i == i' and jj' is an edge of h, or j == j' and
    ii' is an edge of g.
    """
    if g.n == 0 or h.n == 0:
        raise InputError("cartesian_product: both factors need at least one vertex")
    edges = []
    for i in range(g.n):
        for u, v in h.edges:
            edges.append((i * h.n + u, i * h.n + v))
    for u, v in g.edges:
        for j in range(h.n):
            edges.append((u * h.n + j, v * h.n + j))
    pairs = tuple((i, j) for i in range(g.n) for j in range(h.n))
    return LabeledGraph(Graph(g.n * h.n, tuple(edges)), pairs)


def natural_iso_check(r: int, s: int) -> bool:
    """Check that the line graph of K_{r,s} equals K_r x K_s under index identity.

    The edge (i, r+j) of the complete bipartite graph has canonical index
    i*s + j, which is exactly the flat id of coordinate (i, j) in the
    product, so the two graphs must be identical, not merely isomorphic.
    """
    if r < 1 or s < 1:
        raise InputError("natural_iso_check: r and s must be >= 1")
    lg = line_graph(complete_bipartite(r, s))
    prod = cartesian_product(complete(r), complete(s))
    if lg.graph != prod.graph:
        return False
    # label consistency: edge (i, r+j) must sit where coordinate (i, j) sits
    for v in range(lg.graph.n):
        i, w = lg.pairs[v]
        if (i, w - r) != prod.pairs[v]:
            return False
    return True
