"""Small simple undirected graphs with a canonical edge representation.

Vertices are integers 0..n-1.  Edges are stored as a sorted tuple of (u, v)
pairs with u < v, so two graphs compare equal iff they have the same vertex
count and the same edge set.  Everything downstream (solvers, serialization,
witness checking) relies on this canonical form for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class InputError(ValueError):
    """Raised for malformed graph data or invalid parameters."""


def canon_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (min, max) form of an edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise InputError(f"vertex count must be a non-negative integer, got {self.n!r}")
        canon = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"edge {e!r} is not a pair") from None
            if not isinstance(u, int) or not isinstance(v, int):
                raise InputError(f"edge {e!r} has non-integer endpoints")
            if u == v:
                raise InputError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge {e!r} out of range for n={self.n}")
            canon.add(canon_edge(u, v))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists."""
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks, one int per vertex.

        Python ints have no width limit; the limit is the solvers' guard of
        64 vertices (steiner._check_solver_size), as the compiled kernel
        holds each mask in one 64-bit word."""
        out = [0] * self.n
        for u, v in self.edges:
            out[u] |= 1 << v
            out[v] |= 1 << u
        return tuple(out)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Canonical edge -> position in the sorted edge tuple."""
        return {e: i for i, e in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return canon_edge(u, v) in self.edge_index

    def without_edge(self, u: int, v: int) -> "Graph":
        e = canon_edge(u, v)
        if e not in self.edge_index:
            raise InputError(f"edge {e!r} not present")
        return Graph(self.n, tuple(x for x in self.edges if x != e))

    def is_connected(self) -> bool:
        return len(components(self)) <= 1

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def components(g: Graph, removed: frozenset[int] | set[int] = frozenset()) -> tuple[tuple[int, ...], ...]:
    """Connected components (sorted tuples) of g with `removed` vertices deleted."""
    seen = set(removed)
    out = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


# ---------------------------------------------------------------------------
# generators

def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 0:
        raise InputError("complete: n must be >= 0")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph; part A is 0..a-1, part B is a..a+b-1."""
    if a < 1 or b < 1:
        raise InputError("complete_bipartite: both part sizes must be >= 1")
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def star(leaves: int) -> Graph:
    """Star with the given number of leaves; the hub is vertex 0."""
    if leaves < 0:
        raise InputError("star: leaf count must be >= 0")
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def path(n: int) -> Graph:
    """Path on n vertices in natural order."""
    if n < 1:
        raise InputError("path: n must be >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle on n vertices in natural order."""
    if n < 3:
        raise InputError("cycle: n must be >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def net() -> Graph:
    """Triangle 0,1,2 with pendant vertices 3,4,5 attached to 0,1,2."""
    return Graph(6, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)))


GENERATORS = {
    "complete": (complete, 1),
    "bipartite": (complete_bipartite, 2),
    "star": (star, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "net": (net, 0),
}


# ---------------------------------------------------------------------------
# text format
#
#   # comment
#   n <count>
#   e <u> <v>
#
# The vertex count line comes before any edge line.  Serialization emits
# edges in canonical sorted order, so serialize/parse round-trips exactly.

def parse_graph(text: str) -> Graph:
    """Parse the graph text format; raises InputError with a line number."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate vertex count line")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'n <count>'")
            n = _parse_int(parts[1], lineno)
            if n < 0:
                raise InputError(f"line {lineno}: vertex count must be >= 0")
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge line before vertex count line")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'e <u> <v>'")
            u = _parse_int(parts[1], lineno)
            v = _parse_int(parts[2], lineno)
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
            edges.append((u, v))
        else:
            raise InputError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise InputError("missing vertex count line")
    return Graph(n, tuple(edges))


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"line {lineno}: expected an integer, got {tok!r}") from None


def serialize_graph(g: Graph, comments: tuple[str, ...] = ()) -> str:
    """Serialize to the text format; `comments` are emitted first."""
    lines = [f"# {c}" if c else "#" for c in comments]
    lines.append(f"n {g.n}")
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
