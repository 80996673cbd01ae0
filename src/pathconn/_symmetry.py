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

Vertex sets are bitmasks.  Refinement counts a vertex's neighbours in
the splitter as the popcount of its neighbour mask and the splitter's
mask, and leaves singleton and unsplit cells as they are.  The orbit
test at a node reads one mask, the union of the orbits of the children
already tried under the generators that fix the node's individualised
vertices; it grows as a child is tried and is rebuilt only when a
generator joins.  An orbit of k-sets is closed over k-set masks, the
image of a set under a generator h being the OR of 1 << h[v].

The search charges its pool the splitter's degree sum at each refinement
step and the edge count at each leaf it checks, one unit per adjacency
entry or edge that a search on neighbour lists would read, and stops
once the pool is spent, keeping the generators found so far: any set of
automorphisms gives orbits on which the values are constant.
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
    adj, masks = g.adj, g.masks
    while True in stale:
        i = stale.index(True)
        stale[i] = False
        units, splitter = 0, 0
        for v in cells[i]:
            units += len(adj[v])
            splitter |= 1 << v
        _charge(pool, units)
        out, out_stale = [], []
        for cell, st in zip(cells, stale):
            if len(cell) > 1:
                hits = [(masks[v] & splitter).bit_count() for v in cell]
                counts = sorted(set(hits))
                if len(counts) > 1:
                    parts = [tuple(v for v, c in zip(cell, hits) if c == want)
                             for want in counts]
                    big = max(range(len(parts)), key=lambda j: len(parts[j]))
                    out += parts
                    out_stale += [st or j != big for j in range(len(parts))]
                    continue
            out.append(cell)
            out_stale.append(st)
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


def _close(mask: int, todo: list, gens) -> int:
    """mask, a vertex set holding every vertex of todo, with the orbits of
    those vertices under gens added."""
    while todo:
        v = todo.pop()
        for h in gens:
            u = h[v]
            if not mask >> u & 1:
                mask |= 1 << u
                todo.append(u)
    return mask


def generators(g, pool) -> list[tuple[int, ...]]:
    """Automorphisms of g, as vertex maps, that generate Aut(g); fewer when
    the pool runs out first.  Each one is checked against the edge set."""
    n, gens = g.n, []

    def fresh(cell, fixed, tried):
        # the vertices of cell outside tried, a vertex mask closed under
        # the generators that fix every vertex of fixed; each one's orbit
        # joins tried as it is yielded.  The generators change only when
        # the caller's search between two yields adds one.
        known, stab = 0, []
        for w in cell:
            if known != len(gens):
                joined = [h for h in gens[known:] if all(h[v] == v for v in fixed)]
                known = len(gens)
                if joined:
                    stab += joined
                    tried = _close(tried, [v for v in range(n) if tried >> v & 1], stab)
            if not tried >> w & 1:
                tried = _close(tried | 1 << w, [w], stab)
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
                   for w in fresh(cells[i], fixed, 0))

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
            for w in fresh(cells[i], fixed, 1 << chosen[depth]):
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
    bits = [1 << v for v in range(g.n)]
    for s, mask in zip(combinations(range(g.n), k), map(sum, combinations(bits, k))):
        if mask in seen:
            continue
        yield s
        if gens is None:
            gens = generators(g, pool) if k < g.n else []
            images = [(h, [bits[u] for u in h]) for h in gens]
        stack = [s]
        while stack:
            t = stack.pop()
            for h, image in images:
                u = sum(map(image.__getitem__, t))
                if u not in seen:
                    seen.add(u)
                    stack.append(tuple(map(h.__getitem__, t)))
