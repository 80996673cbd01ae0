"""Pure-Python search kernels.

This module is the reference twin of the compiled kernel (_kernel.pyx).
Both must visit search nodes in exactly the same order, count work units
at exactly the same points and return the same outputs, so that values,
witness families, completion flags, and budget cutoffs agree bit-for-bit
across backends.  The contract does not cover loop shape: a twin may walk
neighbour lists where the other scans bitmasks, settle a level in place
where the other pushes it, or count a level's attempts in one popcount
where the other counts them one by one, as long as nodes, unit points and
outputs agree (a cut inside a level counted at once returns the units of
the attempt it stops at).

Work units are abstract: one unit per path-extension attempt, per tree
search node, per extra-vertex set considered, per packing candidate scan.
Budgets expressed in units make every result machine-independent.

Terminal paths and trees:
  * a terminal path contains every terminal and both its endpoints are
    terminals; it is emitted oriented from its smaller endpoint;
  * a terminal tree contains every terminal and all its leaves are
    terminals; it is emitted as a sorted tuple of canonical edges.
"""

from __future__ import annotations

from itertools import combinations

BACKEND_NAME = "pure"


def enumerate_paths(n, adj, smask, cap, budget):
    """Enumerate terminal paths in increasing (length, start, sequence) order.

    adj: neighbor bitmasks.  smask: terminal bitmask with >= 2 bits.
    Returns (paths, complete, units); complete is False when the cap or the
    budget stopped enumeration early.

    For each length and each terminal start, a depth-bounded search grows
    the path.  Each node on the path keeps an iterator over its sorted
    neighbour list, so the next extension is the next neighbour not on the
    path.  Every extension attempt costs one unit.  An attempt is pushed
    only while the terminals still off the path fit in the steps left
    (the count of them is kept as the path grows and shrinks).

    A child w that would land at depth length - 1, the last level, is
    settled in place from its parent, with the path kept also as a
    bitmask.  Its attempts are its neighbours off the path (free), counted
    at once by popcount.  The one terminal still off the path closes a
    path when it lies above the start and in free; its attempt comes right
    after those of the free neighbours below it.  A cut inside the level
    returns the units of the attempt it stops at: a budget cut returns
    budget before that attempt tests for the close, and a cap cut returns
    the closing attempt's count.  Neither w nor a leaf is pushed.  At
    length 1 (k = 2) the start itself is the last level, and its attempts
    are counted one by one.  The compiled kernel pushes every node and
    counts each attempt; both count the same units at the same attempts
    and emit the same paths.
    """
    nbrs = [[w for w in range(n) if (adj[v] >> w) & 1] for v in range(n)]
    term = [(smask >> v) & 1 for v in range(n)]
    terms = [v for v in range(n) if term[v]]
    k = len(terms)
    units = 0
    out = []
    on = [False] * n  # on the current path
    for length in range(k - 1, n):
        for s in terms:
            if length == 1:
                # k == 2: the start is the last level; it closes on the
                # other terminal when that lies above it
                close = terms[1] if s == terms[0] else -1
                for w in nbrs[s]:
                    units += 1
                    if units >= budget:
                        return out, False, units
                    if w == close:
                        out.append((s, w))
                        if len(out) >= cap:
                            return out, False, units
                continue
            seq = [s]
            on[s] = True
            onmask = 1 << s  # the same path as a bitmask
            left = k - 1  # terminals not on the path
            its = [iter(nbrs[s])]
            while its:
                room = length - len(seq)
                for w in its[-1]:
                    if on[w]:
                        continue
                    units += 1
                    if units >= budget:
                        return out, False, units
                    tw = term[w]
                    if left - tw > room:
                        continue
                    if room > 1:
                        seq.append(w)
                        on[w] = True
                        onmask |= 1 << w
                        left -= tw
                        its.append(iter(nbrs[w]))
                        break
                    # w is on the last level: its attempts are its free
                    # neighbours, and only the one terminal still off the
                    # path (left - tw <= room == 1), above the start, closes
                    free = adj[w] & ~onmask
                    close = (smask & ~onmask & ~(1 << w)).bit_length() - 1
                    if close > s and (free >> close) & 1:
                        at = units + (free & ((1 << close) - 1)).bit_count() + 1
                        if at < budget:
                            out.append((*seq, w, close))
                            if len(out) >= cap:
                                return out, False, at
                    units += free.bit_count()
                    if units >= budget:
                        return out, False, budget
                else:
                    its.pop()
                    v = seq.pop()
                    on[v] = False
                    onmask ^= 1 << v
                    left += term[v]
    return out, True, units


def enumerate_trees(n, adj, edges, smask, cap, budget):
    """Enumerate terminal trees ordered by (extra vertex set, edge list).

    Extra vertex sets are scanned by increasing size, lexicographic within a
    size.  A set X is skipped when some x in X has fewer than two neighbours
    in terminals + X, since x must be internal, or when the subgraph induced
    on terminals + X has too few edges to span it.  Otherwise the spanning
    trees of that subgraph whose leaves are all terminals are listed by
    include-first search over the canonical edge list (see _span_trees).
    Work units: one per extra vertex set, plus one per tree search node.
    Shared by both backends.
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

    Include-first search over sub, on local vertex positions 0..nu-1: a
    node at index idx has decided the edges before idx, and emits the picked
    edges once there are nu - 1 of them.  A child is skipped when it fails
    a condition that every tree below it meets, so the search lists exactly
    the trees, in exactly the order, of the unpruned search.  The prunes,
    and why each condition holds for every tree below the child:

    * include (a, b) only when a and b lie in different picked components,
      and when the degree shortfall of the extra vertices can still be met:
      each x in xset needs degree 2, and the r edges still to pick can
      lower the total shortfall by at most 2r;
    * exclude (a, b) only when the edges after idx still number at least
      the r edges still to pick;
    * exclude (a, b) only when each extra endpoint can still reach degree
      2 with its picked edges plus its undecided edges after idx;
    * exclude (a, b) only when a still reaches b over the picked and the
      undecided edges.  Every tree below the node lies inside that graph,
      so it must stay connected.  Excluding is the only step that shrinks
      it, so this is the only place to test it, and the test is skipped
      when picked edges already join a and b.

    One work unit per node entered.  The earlier search (kept in
    tests/oracle.py), which tested the edge count and rebuilt connectivity
    at every node, enters every node this one enters, in the same order, so
    at the same budget this search never yields fewer trees.  Returns (done, units); done is False when
    the cap or budget was hit.
    """
    verts = [v for v in range(umask.bit_length()) if (umask >> v) & 1]
    pos = {v: i for i, v in enumerate(verts)}
    ends = [(pos[u], pos[v]) for u, v in sub]
    m = len(sub)
    # avail[i]: positions joined to i by a picked or an undecided edge
    avail = [0] * nu
    for a, b in ends:
        avail[a] |= 1 << b
        avail[b] |= 1 << a
    if not _reach(avail, 1, (1 << nu) - 1):
        return True, units
    # need[i]: degree position i must reach (2 for an extra vertex, else 0);
    # slack[i]: how many more edges at i the search may exclude
    need = [0] * nu
    slack = [m] * nu
    for x in xset:
        i = pos[x]
        need[i] = 2
        slack[i] = avail[i].bit_count() - 2
    deg = [0] * nu
    parent = list(range(nu))
    picked = []
    short = 2 * len(xset)  # sum over extra vertices of max(0, 2 - degree)

    # no path compression: the include branch must roll back a union with a
    # single assignment, which compression side effects would corrupt
    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def rec(idx):
        # returns 0 = done, 1 = budget hit, 2 = cap hit
        nonlocal units, short
        units += 1
        if units >= budget:
            return 1
        left = nu - 1 - len(picked)
        if left == 0:
            # short == 0 here, or the include prune would have cut this node
            out.append(tuple(picked))
            return 2 if len(out) >= cap else 0
        a, b = ends[idx]
        ra, rb = find(a), find(b)
        if ra != rb:
            gain = (deg[a] < need[a]) + (deg[b] < need[b])
            if short - gain <= 2 * (left - 1):
                short -= gain
                deg[a] += 1
                deg[b] += 1
                parent[ra] = rb
                picked.append(sub[idx])
                st = rec(idx + 1)
                picked.pop()
                parent[ra] = ra
                deg[a] -= 1
                deg[b] -= 1
                short += gain
                if st:
                    return st
        if left > m - idx - 1 or slack[a] == 0 or slack[b] == 0:
            return 0
        bit_a, bit_b = 1 << a, 1 << b
        avail[a] ^= bit_b
        avail[b] ^= bit_a
        st = 0
        if ra == rb or _reach(avail, bit_a, bit_b):
            slack[a] -= 1
            slack[b] -= 1
            st = rec(idx + 1)
            slack[a] += 1
            slack[b] += 1
        avail[a] ^= bit_b
        avail[b] ^= bit_a
        return st

    st = rec(0)
    del rec  # rec refers to itself: break the cycle so its state goes now
    return st == 0, units


def _reach(adj, seen, goal):
    """True when the vertex set seen reaches every vertex of goal along adj.

    adj holds neighbour bitmasks; seen and goal are vertex bitmasks.
    """
    frontier = seen
    while seen & goal != goal:
        if not frontier:
            return False
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~seen
        seen |= grown
    return True


def solve_pack(n, m, eid, cands, is_tree, smask, internal, slots_per, zcap,
               degs, target, prune_below_target, budget):
    """Maximum disjoint-family search over candidate footprints.

    Candidates are vertex tuples (paths) or edge tuples (trees).  Two
    candidates conflict when they share an edge, or, for internal variants,
    when they share a vertex outside the terminal set.  Finds a maximum
    pairwise compatible family; with target > 0 the search stops as soon as
    a family of that size is found, and with prune_below_target it also
    discards subtrees that cannot reach the target (decision mode: the
    returned best is then only a valid lower bound unless complete).

    Returns (best, best_sel, complete, units).
    """
    big = len(cands)
    k = len(degs)
    terms = [v for v in range(n) if (smask >> v) & 1]
    tpos = {v: i for i, v in enumerate(terms)}
    navail = n - k

    fps = []
    ne = []
    ev = []
    tu = []
    for cand in cands:
        if is_tree:
            ed = cand
            vmask = 0
            for u, v in ed:
                vmask |= (1 << u) | (1 << v)
        else:
            vmask = 0
            for v in cand:
                vmask |= 1 << v
            ed = [(cand[i], cand[i + 1]) if cand[i] < cand[i + 1]
                  else (cand[i + 1], cand[i]) for i in range(len(cand) - 1)]
        fp = (vmask & ~smask) if internal else 0
        row = [0] * k
        for u, v in ed:
            fp |= 1 << (n + eid[u * n + v])
            if (smask >> u) & 1:
                row[tpos[u]] += 1
            if (smask >> v) & 1:
                row[tpos[v]] += 1
        fps.append(fp)
        ne.append(len(ed))
        ev.append((vmask & ~smask).bit_count())
        tu.extend(row)

    best = 0
    best_sel: list[int] = []
    sel: list[int] = []
    used_tu = [0] * k
    acc = 0
    u_ne = 0
    u_ev = 0
    u_z = 0
    units = 0

    def rec(start):
        # returns 0 = exhausted, 1 = budget hit, 2 = target reached
        nonlocal acc, u_ne, u_ev, u_z, units, best, best_sel
        for i in range(start, big):
            units += 1
            if units >= budget:
                return 1
            f = fps[i]
            if f & acc:
                continue
            saved = acc
            acc = saved | f
            u_ne += ne[i]
            u_ev += ev[i]
            zero_extra = 1 if ev[i] == 0 else 0
            u_z += zero_extra
            base = i * k
            for t in range(k):
                used_tu[t] += tu[base + t]
            sel.append(i)
            st = 0
            if len(sel) > best:
                best = len(sel)
                best_sel = sel.copy()
                if target and best >= target:
                    st = 2
            if st == 0:
                fut = degs[0] - used_tu[0]
                ssum = 0
                for t in range(k):
                    d = degs[t] - used_tu[t]
                    if d < fut:
                        fut = d
                    ssum += d
                x = ssum // slots_per
                if x < fut:
                    fut = x
                x = (m - u_ne) // (k - 1)
                if x < fut:
                    fut = x
                if internal:
                    x = (navail - u_ev) + (zcap - u_z if zcap > u_z else 0)
                    if x < fut:
                        fut = x
                x = big - i - 1
                if x < fut:
                    fut = x
                pot = len(sel) + fut
                if pot > best and (not prune_below_target or target == 0 or pot >= target):
                    st = rec(i + 1)
            sel.pop()
            for t in range(k):
                used_tu[t] -= tu[base + t]
            u_z -= zero_extra
            u_ev -= ev[i]
            u_ne -= ne[i]
            acc = saved
            if st:
                return st
        return 0

    status = rec(0)
    del rec  # rec refers to itself: break the cycle so its state goes now
    return best, best_sel, status == 0, units
