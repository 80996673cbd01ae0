"""Automorphism generators of a graph and one terminal set per orbit.

An automorphism maps every terminal set to one with the same local value
and bound, so a global scan needs one k-set per orbit of Aut(G).
generators finds a generating set by refinement and individualisation
(McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014).  Colour refinement makes an ordered partition equitable; a vertex
of its first smallest non-singleton cell is individualised and the
partition refined again, down to a discrete leaf.  The first such path
gives a leaf to compare with.  Then, level by level from the bottom of
that path, every vertex of the level's target cell that lies outside the
orbits known so far roots a depth-first search for a leaf with the same
cell sizes at every level, and the map from the first leaf to that leaf
is kept only if it maps the edge set onto itself.  At every node, of the
children in one orbit of the generators that fix the node's
individualised vertices, only the first is tried.

The search charges its pool one unit per adjacency entry or edge it
reads and stops once the pool is spent, keeping the generators found so
far: any set of automorphisms gives orbits on which the values are
constant.
"""

from __future__ import annotations

from itertools import combinations


class _Spent(Exception):
    """The pool ran out during the search."""


def _charge(pool, units: int) -> None:
    """Charge units to pool, or stop the search with what pool has left."""
    if units > pool.left:
        pool.charge(max(pool.left, 0))
        raise _Spent
    pool.charge(units)


def _refine(g, cells: list, stale: list, pool) -> list:
    """Split cells until every vertex of a cell has the same number of
    neighbours in each cell.  stale flags the cells not yet used as
    splitters.  Fragments are ordered by that number, so the result
    depends on the cells' positions, never on vertex labels.  Of the
    fragments of a cell already used as a splitter, the first largest
    needs no use of its own (Hopcroft)."""
    adj = g.adj
    while True in stale:
        i = stale.index(True)
        stale[i] = False
        _charge(pool, sum(len(adj[v]) for v in cells[i]))
        hits = [0] * g.n
        for v in cells[i]:
            for u in adj[v]:
                hits[u] += 1
        out, out_stale = [], []
        for cell, st in zip(cells, stale):
            counts = sorted({hits[v] for v in cell})
            parts = [tuple(v for v in cell if hits[v] == c) for c in counts]
            big = max(range(len(parts)), key=lambda j: len(parts[j]))
            out += parts
            out_stale += [st or j != big for j in range(len(parts))]
        cells, stale = out, out_stale
    return cells


def _child(g, cells: list, i: int, w: int, pool) -> list:
    """The refined partition with w individualised from cell i."""
    rest = tuple(v for v in cells[i] if v != w)
    cells = cells[:i] + [(w,), rest] + cells[i + 1:]
    return _refine(g, cells, [j == i for j in range(len(cells))], pool)


def _target(cells: list) -> int | None:
    """Index of the first smallest non-singleton cell; None at a leaf."""
    sizes = [(len(c), i) for i, c in enumerate(cells) if len(c) > 1]
    return min(sizes)[1] if sizes else None


def _orbits(n: int, gens) -> list[int]:
    """The least vertex of each vertex's orbit under gens."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for h in gens:
        for v in range(n):
            a, b = find(v), find(h[v])
            root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def generators(g, pool) -> list[tuple[int, ...]]:
    """Automorphisms of g, as vertex maps, that generate Aut(g); fewer when
    the pool runs out first.  Each one is checked against the edge set."""
    n, gens = g.n, []

    def fresh(cell, fixed, tried):
        # the vertices of cell in no orbit of tried under the generators
        # that fix every vertex of fixed; each is added to tried in turn.
        # The orbits change only when the caller's search between two
        # yields adds a generator.
        known = -1
        for w in cell:
            if known != len(gens):
                known = len(gens)
                orbit = _orbits(n, [h for h in gens if all(h[v] == v for v in fixed)])
            if all(orbit[w] != orbit[x] for x in tried):
                tried.append(w)
                yield w

    def leads_to_leaf(cells, depth, fixed):
        # whether the subtree at cells holds a leaf that an automorphism
        # maps the first leaf to; the automorphism joins gens
        if [len(c) for c in cells] != shapes[depth]:
            return False
        i = _target(cells)
        if i is None:
            h = [0] * n
            for a, (b,) in zip(first, cells):
                h[a] = b
            # a bijection that maps every edge to an edge maps the edge set onto itself
            _charge(pool, g.m)
            if any(not (g.masks[h[u]] >> h[v]) & 1 for u, v in g.edges):
                return False
            gens.append(tuple(h))
            return True
        return any(leads_to_leaf(_child(g, cells, i, w, pool), depth + 1, fixed + (w,))
                   for w in fresh(cells[i], fixed, []))

    try:
        path, chosen = [_refine(g, [tuple(range(n))], [True], pool)], []
        while (i := _target(path[-1])) is not None:
            chosen.append(path[-1][i][0])
            path.append(_child(g, path[-1], i, chosen[-1], pool))
        first = [c[0] for c in path[-1]]
        shapes = [[len(c) for c in cells] for cells in path]
        for depth in reversed(range(len(chosen))):
            cells, fixed = path[depth], tuple(chosen[:depth])
            i = _target(cells)
            for w in fresh(cells[i], fixed, [chosen[depth]]):
                leads_to_leaf(_child(g, cells, i, w, pool), depth + 1, fixed + (w,))
    except _Spent:
        pass
    finally:
        # leads_to_leaf refers to itself: break the cycle so its state goes now
        del leads_to_leaf
    return gens


def representatives(g, k: int, pool):
    """Yield the lexicographically smallest k-set of each orbit of the group
    that generators finds, in lexicographic order.  The first k-set is the
    least of its orbit under any group, so it comes before the search, and
    a scan that stops there pays nothing for it; with k = n there is no
    other set and no search."""
    gens, seen = None, set()
    for s in combinations(range(g.n), k):
        if s in seen:
            continue
        yield s
        if gens is None:
            gens = generators(g, pool) if k < g.n else []
        stack = [s]
        while stack:
            t = stack.pop()
            for h in gens:
                u = tuple(sorted(h[v] for v in t))
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
