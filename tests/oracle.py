"""Independent naive oracles for the exact solvers.

Everything here is written from the definitions, sharing no code with the
package kernels: terminal paths by plain DFS between terminal pairs,
terminal trees by scanning all edge subsets, packing by exhaustive
include/skip search, and cut-based connectivity by removing every subset.
Slow on purpose; only run at small scale.

The exceptions are at the end: the package's original path and tree
enumerators, automorphism search and local upper bound, copied unchanged.
The rewritten code must list the same paths and trees in the same order,
find the same generators and representatives, and give the same bounds,
so these copies are the reference for order, caps, budgets and values.
"""

from __future__ import annotations

from itertools import combinations, permutations

from pathconn.graphs import Graph
from pathconn.steiner import _capacity_bound


def _adj_sets(g: Graph) -> list[set[int]]:
    nbr: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def _path_edges(seq: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    return frozenset(
        (min(a, b), max(a, b)) for a, b in zip(seq, seq[1:]))


def all_terminal_paths(g: Graph, s) -> list[tuple[int, ...]]:
    """Every simple path that contains all of s and ends in two of them."""
    sset = set(s)
    nbr = _adj_sets(g)
    found: list[tuple[int, ...]] = []

    def extend(seq: list[int], seen: set[int]) -> None:
        v = seq[-1]
        if v in sset and v > seq[0] and sset <= seen:
            found.append(tuple(seq))
        for w in sorted(nbr[v]):
            if w not in seen:
                seq.append(w)
                seen.add(w)
                extend(seq, seen)
                seen.remove(w)
                seq.pop()

    for a in sorted(sset):
        extend([a], {a})
    return found


def all_terminal_trees(g: Graph, s) -> list[tuple[tuple[int, int], ...]]:
    """Every edge subset forming a tree that contains s with leaves in s."""
    sset = set(s)
    out: list[tuple[tuple[int, int], ...]] = []
    for r in range(1, g.m + 1):
        for sub in combinations(g.edges, r):
            verts = {v for e in sub for v in e}
            if not sset <= verts or len(sub) != len(verts) - 1:
                continue
            # connectivity of the covered vertex set under the chosen edges
            nbr: dict[int, set[int]] = {v: set() for v in verts}
            for u, v in sub:
                nbr[u].add(v)
                nbr[v].add(u)
            seen = set()
            stack = [next(iter(verts))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(nbr[v] - seen)
            if seen != verts:
                continue
            if any(len(nbr[v]) == 1 and v not in sset for v in verts):
                continue
            out.append(tuple(sorted(sub)))
    return out


def max_disjoint(members, s, internal: bool, is_tree: bool) -> int:
    """Largest pairwise compatible subfamily, by exhaustive search."""
    sset = set(s)
    edge_sets = []
    inner_sets = []
    for item in members:
        if is_tree:
            edge_sets.append(frozenset(item))
            verts = {v for e in item for v in e}
        else:
            edge_sets.append(_path_edges(item))
            verts = set(item)
        inner_sets.append(frozenset(verts - sset))
    best = 0

    def rec(i: int, used_edges: frozenset, used_inner: frozenset, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == len(members) or size + (len(members) - i) <= best:
            return
        if not (edge_sets[i] & used_edges) and not (
                internal and inner_sets[i] & used_inner):
            rec(i + 1, used_edges | edge_sets[i],
                used_inner | inner_sets[i], size + 1)
        rec(i + 1, used_edges, used_inner, size)

    rec(0, frozenset(), frozenset(), 0)
    return best


def naive_local_value(g: Graph, s, variant: str) -> int:
    is_tree = variant in ("kappa", "lambda")
    internal = variant in ("pi", "kappa")
    members = all_terminal_trees(g, s) if is_tree else all_terminal_paths(g, s)
    return max_disjoint(members, s, internal, is_tree)


def _connected(g: Graph, verts: set[int]) -> bool:
    if not verts:
        return True
    nbr = _adj_sets(g)
    seen = set()
    stack = [next(iter(sorted(verts)))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(w for w in nbr[v] if w in verts and w not in seen)
    return seen == verts


def naive_global_value(g: Graph, k: int, variant: str) -> int:
    if k == 1:
        return min(g.degrees()) if g.n > 1 else 0
    connected = _connected(g, set(range(g.n)))
    if k > g.n:
        return 1 if connected else 0
    if not connected:
        return 0
    return min(naive_local_value(g, s, variant)
               for s in combinations(range(g.n), k))


def naive_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete."""
    n = g.n
    if n <= 1:
        return 0
    for r in range(n - 1):
        for cut in combinations(range(n), r):
            rest = set(range(n)) - set(cut)
            if len(rest) > 1 and not _connected(g, rest):
                return r
    return n - 1


def naive_edge_connectivity(g: Graph) -> int:
    if g.n <= 1:
        return 0
    if not _connected(g, set(range(g.n))):
        return 0
    for r in range(g.m + 1):
        for cut in combinations(range(g.m), r):
            keep = [e for i, e in enumerate(g.edges) if i not in cut]
            sub = Graph(g.n, tuple(keep))
            if not _connected(sub, set(range(g.n))):
                return r
    return g.m


def naive_orbit_count(g: Graph, k: int) -> int:
    """Number of orbits of Aut(g) on k-sets, by trying every permutation."""
    edges = set(g.edges)
    auts = [p for p in permutations(range(g.n))
            if all(tuple(sorted((p[u], p[v]))) in edges for u, v in g.edges)]
    return len({frozenset(tuple(sorted(p[v] for v in s)) for p in auts)
                for s in combinations(range(g.n), k)})


# ---------------------------------------------------------------------------
# the original path enumerator, kept unchanged as the order and unit reference

def enumerate_paths(n, adj, smask, cap, budget):
    """Enumerate terminal paths in increasing (length, start, sequence) order.

    adj: neighbor bitmasks.  smask: terminal bitmask with >= 2 bits.
    Returns (paths, complete, units); complete is False when the cap or the
    budget stopped enumeration early.
    """
    units = 0
    out = []
    terms = [v for v in range(n) if (smask >> v) & 1]
    k = len(terms)
    for length in range(k - 1, n):
        for s in terms:
            seq = [s]
            used = 1 << s
            cur = [0]
            while seq:
                depth = len(seq) - 1
                if depth == length:
                    t = seq[-1]
                    if t > s and (smask >> t) & 1 and (smask & ~used) == 0:
                        out.append(tuple(seq))
                        if len(out) >= cap:
                            return out, False, units
                    used &= ~(1 << seq.pop())
                    cur.pop()
                    continue
                rest = (adj[seq[-1]] & ~used) >> cur[-1]
                if rest == 0:
                    used &= ~(1 << seq.pop())
                    cur.pop()
                    continue
                w = cur[-1] + (rest & -rest).bit_length() - 1
                cur[-1] = w + 1
                units += 1
                if units >= budget:
                    return out, False, units
                if (smask & ~used & ~(1 << w)).bit_count() > length - depth - 1:
                    continue
                seq.append(w)
                used |= 1 << w
                cur.append(0)
    return out, True, units


# ---------------------------------------------------------------------------
# the original tree enumerator, kept unchanged as the order reference

def enumerate_trees(n, adj, edges, smask, cap, budget):
    """Enumerate terminal trees ordered by (extra vertex set, edge list).

    Extra vertex sets are scanned by increasing size, lexicographic within a
    size.  For each set X the spanning trees of the subgraph induced on
    terminals + X whose leaves are all terminals are listed by include-first
    search over the canonical edge list.  Shared by both backends.
    """
    units = 0
    out = []
    others = [v for v in range(n) if not (smask >> v) & 1]
    k = n - len(others)
    for xsize in range(len(others) + 1):
        for xset in combinations(others, xsize):
            units += 1
            if units >= budget:
                return out, False, units
            umask = smask
            for x in xset:
                umask |= 1 << x
            # every extra vertex must be internal, so it needs degree >= 2
            if any((adj[x] & umask).bit_count() < 2 for x in xset):
                continue
            sub = [e for e in edges if (umask >> e[0]) & 1 and (umask >> e[1]) & 1]
            nu = k + xsize
            if len(sub) < nu - 1:
                continue
            done, units = _span_trees(sub, nu, umask, xset, out, cap, budget, units)
            if not done:
                return out, False, units
    return out, True, units


def _span_trees(sub, nu, umask, xset, out, cap, budget, units):
    """Append spanning trees of the induced subgraph whose leaves are terminals.

    Returns (done, units); done is False when the cap or budget was hit.
    """
    verts = [v for v in range(umask.bit_length()) if (umask >> v) & 1]
    pos = {v: i for i, v in enumerate(verts)}
    parent = list(range(nu))

    # no path compression: the include branch must roll back a union with a
    # single assignment, which compression side effects would corrupt
    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    picked = []
    deg = {v: 0 for v in verts}

    def spans(idx):
        # can the picked edges plus the undecided suffix still connect all?
        p2 = [find(i) for i in range(nu)]

        def f2(a):
            while p2[a] != a:
                a = p2[a]
            return a

        comps = len({f2(i) for i in range(nu)})
        if comps == 1:
            return True
        for u, v in sub[idx:]:
            ru, rv = f2(pos[u]), f2(pos[v])
            if ru != rv:
                p2[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return False

    def rec(idx):
        # returns 0 = done, 1 = budget hit, 2 = cap hit
        nonlocal units
        units += 1
        if units >= budget:
            return 1
        if len(picked) == nu - 1:
            if all(deg[x] >= 2 for x in xset):
                out.append(tuple(picked))
                if len(out) >= cap:
                    return 2
            return 0
        if idx == len(sub):
            return 0
        if nu - 1 - len(picked) > len(sub) - idx:
            return 0
        if not spans(idx):
            return 0
        u, v = sub[idx]
        ru, rv = find(pos[u]), find(pos[v])
        if ru != rv:
            parent[ru] = rv
            picked.append(sub[idx])
            deg[u] += 1
            deg[v] += 1
            st = rec(idx + 1)
            deg[u] -= 1
            deg[v] -= 1
            picked.pop()
            parent[ru] = ru
            if st:
                return st
        return rec(idx + 1)

    st = rec(0)
    return st == 0, units


# ---------------------------------------------------------------------------
# the original automorphism search (pathconn._symmetry on vertex tuples and a
# union-find of orbits), kept unchanged as the generator and unit reference

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


# ---------------------------------------------------------------------------
# the original local upper bound (pathconn.steiner.local_upper_bound, with
# has_edge), kept unchanged as the value reference

def local_upper_bound(g: Graph, s: tuple[int, ...], variant: str) -> int:
    """Combinatorial upper bound on the local value at terminal set s.

    Components: the smallest terminal degree; one less when two equal-degree
    terminals are adjacent (for k >= 3 the member through that edge, or its
    absence, always wastes one endpoint slot); and the slot, edge and vertex
    terms of _capacity_bound over the total terminal degree.
    """
    k = len(s)
    degs = [g.degree(v) for v in s]
    bound = min(degs)
    if k >= 3:
        for u, v in combinations(s, 2):
            if g.has_edge(u, v) and g.degree(u) == g.degree(v):
                bound = min(bound, g.degree(u) - 1)
    return max(min(bound, _capacity_bound(g, k, variant, sum(degs))), 0)
