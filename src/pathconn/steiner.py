"""Exact connectivity over terminal sets via enumeration and disjoint packing.

Four variants, named by their conventional symbols:

  pi      internally disjoint terminal paths   (share exactly the terminals)
  omega   edge-disjoint terminal paths
  kappa   internally disjoint terminal trees
  lambda  edge-disjoint terminal trees

The local value for a terminal set S is the largest disjoint family of
minimal terminal paths/trees; restricting to minimal ones is lossless
because trimming a non-terminal leaf or end never breaks disjointness.
The global value is the minimum of the local values over all k-subsets,
with the usual conventions: k = 1 gives the minimum degree, a disconnected
graph gives 0, and a connected graph with fewer than k vertices gives 1.

A question of one (does s carry one member?) is answered by _first,
which lists a single candidate: the threshold questions with goal 1 and
the exact solves capped at 1 ask it, and nothing else runs for them.
Threshold questions (pack_at_least, global_at_least) of 2 or more are
staged by one routine, _at_least, in the same order for both callers.
Once a short candidate list turns out to be cut by its cap, the terminal
set picks one cheap attempt: a seeded residual two-path search
(_residual_paths) at a triple of a path variant, a pack of the cut list
anywhere else.  Either may answer yes; only a complete enumeration and
pack answers no.  Exact solves (local_connectivity and every set of
global_connectivity's scan) capped at 2 or more are staged by
_local_solve: at such a triple it runs the search first, for as many
paths as its cap allows, and a hit meets the cap with no listing; a miss
falls through to listing and packing DEFAULT_CAP candidates.

The global scans (global_connectivity, global_at_least) visit one terminal
set per orbit of the automorphisms that _symmetry finds: the
lexicographically smallest.  An automorphism keeps every local value and
bound, and that set comes first of its orbit in either scan's order, so
without a budget the scans return the value, terminals and witness of a
scan of every k-set (short of a DEFAULT_CAP listing that a set's labels
cut).  The search's units are charged to the scan's pool.

Budgets are deterministic work units (see _pure); budget_ms is converted at
a fixed rate so identical inputs give identical outputs on any machine.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations

from ._backend import impl
from ._pure import enumerate_trees as _enumerate_trees
from .graphs import Graph, InputError, components
from .invariants import connectivity, edge_connectivity

PI, OMEGA, KAPPA, LAMBDA = "pi", "omega", "kappa", "lambda"
VARIANTS = (PI, OMEGA, KAPPA, LAMBDA)

_INTERNAL = {PI: True, OMEGA: False, KAPPA: True, LAMBDA: False}
_TREE = {PI: False, OMEGA: False, KAPPA: True, LAMBDA: True}

DEFAULT_CAP = 200_000  # the most candidates listed for one terminal set
UNITS_PER_MS = 500
_INF_UNITS = 1 << 62

EXACT, LOWER_BOUND, ZERO = "exact", "lower-bound", "zero"


def complete_graph_value(n: int, k: int) -> int:
    """Largest internally disjoint terminal-path family in a complete graph.

    Closed form floor((2n + k^2 - 3k) / (2k - 2)); valid for 2 <= k <= n.
    Used only for reporting and as a documented sanity bound, never inside
    the solver, so solver results verify it independently.
    """
    if not 2 <= k <= n:
        raise InputError("complete_graph_value needs 2 <= k <= n")
    return (2 * n + k * k - 3 * k) // (2 * k - 2)


class WorkBudget:
    """Deterministic work-unit pool shared across solver calls."""

    def __init__(self, budget_ms: int | None = None):
        if budget_ms is None:
            self.left = _INF_UNITS
        elif budget_ms < 0:
            raise InputError("budget must be >= 0")
        else:
            self.left = budget_ms * UNITS_PER_MS
        self.spent = 0

    def charge(self, units: int) -> None:
        self.left -= units
        self.spent += units

    @property
    def exhausted(self) -> bool:
        return self.left <= 0


@dataclass(frozen=True)
class PackingCertificate:
    """A disjoint family witnessing a local value.

    family holds vertex tuples for path variants, edge tuples for tree
    variants.  status: exact (value is the local optimum), lower-bound
    (search stopped early), zero (proven empty).  value == len(family).
    """

    variant: str
    terminals: tuple[int, ...]
    family: tuple[tuple, ...]
    status: str

    @property
    def value(self) -> int:
        return len(self.family)


@dataclass(frozen=True)
class GlobalResult:
    """Result of a global scan over all k-subsets."""

    variant: str
    k: int
    value: int
    status: str  # exact | lower-bound
    terminals: tuple[int, ...] | None
    certificate: PackingCertificate | None
    units: int


@dataclass(frozen=True)
class PackDecision:
    """Answer to `is there a disjoint family of size >= t`."""

    answer: str  # yes | no | unknown
    certificate: PackingCertificate | None
    units: int


def terminal_set(g: Graph, vertices) -> tuple[int, ...]:
    """Validate and canonicalize a terminal set (sorted, distinct, in range)."""
    try:
        s = tuple(sorted(vertices))
    except TypeError:
        raise InputError(f"terminal set {vertices!r} is not iterable") from None
    if len(s) != len(set(s)):
        raise InputError(f"terminal set {s!r} has repeated vertices")
    for v in s:
        if not isinstance(v, int) or not 0 <= v < g.n:
            raise InputError(f"terminal {v!r} out of range for n={g.n}")
    return s


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _check_solver_size(g: Graph) -> None:
    if g.n > 64:
        raise InputError("solvers support at most 64 vertices")
    if g.n == 0:
        raise InputError("graph has no vertices")


def _local_terminals(g: Graph, s) -> tuple[int, ...]:
    """Check the graph and return the canonical terminal set of a local call."""
    _check_solver_size(g)
    s = terminal_set(g, s)
    if len(s) < 2:
        raise InputError("need at least two terminals")
    return s


def _smask(s: tuple[int, ...]) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def _eid_flat(g: Graph) -> list[int]:
    eid = [-1] * (g.n * g.n)
    for i, (u, v) in enumerate(g.edges):
        eid[u * g.n + v] = i
        eid[v * g.n + u] = i
    return eid


def _slots_per(k: int, variant: str) -> int:
    """Terminal degree slots one member consumes: k for a tree, 2k - 2 for a
    path (two endpoints and k - 2 interior terminals)."""
    return k if _TREE[variant] else 2 * k - 2


def _capacity_bound(g: Graph, k: int, variant: str, degree_sum: int) -> int:
    """The slot, edge and vertex terms of both upper bounds.

    degree_sum terminal degree slots divided by the slots one member
    consumes; total edges divided by the k - 1 edges one member needs; and
    for internal variants the non-terminal vertex budget plus the
    floor(k/2) members that fit inside the terminals.
    """
    bound = min(degree_sum // _slots_per(k, variant), g.m // (k - 1))
    if _INTERNAL[variant]:
        bound = min(bound, k // 2 + (g.n - k))
    return bound


def local_upper_bound(g: Graph, s: tuple[int, ...], variant: str) -> int:
    """Combinatorial upper bound on the local value at terminal set s.

    Components: the smallest terminal degree; one less when two equal-degree
    terminals are adjacent (for k >= 3 the member through that edge, or its
    absence, always wastes one endpoint slot); and the slot, edge and vertex
    terms of _capacity_bound over the total terminal degree.
    """
    k, adj, masks = len(s), g.adj, g.masks
    degs = [len(adj[v]) for v in s]
    bound = min(degs)
    if k >= 3:
        for (u, du), (v, dv) in combinations(zip(s, degs), 2):
            if du == dv and masks[u] >> v & 1:
                bound = min(bound, du - 1)
    return max(min(bound, _capacity_bound(g, k, variant, sum(degs))), 0)


def upper_bound(g: Graph, k: int, variant: str) -> int:
    """Global sanity upper bound on the k-value.

    The convention value where one applies (see _convention).  Otherwise
    combines the combinatorial local bound at a worst-case style subset with
    the closed-form complete-graph value (internal paths embed into the
    complete graph on the same vertices), the vertex connectivity when a
    subset avoiding a minimum cut exists, and the edge connectivity for
    edge-disjoint variants.  Not used inside the solver.
    """
    _check_variant(variant)
    if k < 1:
        raise InputError("k must be >= 1")
    if g.n == 0:
        raise InputError("graph has no vertices")
    conv = _convention(g, k, variant)
    if conv is not None:
        return conv.value
    degs = sorted(g.degrees())
    bound = degs[0]
    if k >= 3:
        for u, v in g.edges:
            if g.degree(u) == g.degree(v):
                bound = min(bound, g.degree(u) - 1)
                break
    bound = min(bound, _capacity_bound(g, k, variant, sum(degs[:k])))
    if variant == PI:
        bound = min(bound, complete_graph_value(g.n, k))
    if _INTERNAL[variant]:
        kap = connectivity(g)
        if k <= g.n - kap:
            bound = min(bound, kap)
    else:
        bound = min(bound, edge_connectivity(g))
    return max(bound, 0)


def enumerate_minimal_spaths(g: Graph, s, *, budget_ms: int | None = None):
    """All minimal terminal paths for s, canonical order.

    Returns (paths, truncated); truncated means DEFAULT_CAP or the budget
    stopped enumeration before it was exhaustive.
    """
    s = _local_terminals(g, s)
    paths, complete = _candidates(g, s, PI, WorkBudget(budget_ms), DEFAULT_CAP)
    return tuple(paths), not complete


def enumerate_minimal_strees(g: Graph, s, *, budget_ms: int | None = None):
    """All minimal terminal trees for s (edge tuples), canonical order."""
    s = _local_terminals(g, s)
    trees, complete = _candidates(g, s, KAPPA, WorkBudget(budget_ms), DEFAULT_CAP)
    return tuple(trees), not complete


def _candidates(g: Graph, s, variant, pool: WorkBudget, cap: int):
    """At most cap candidates for s, charged to pool: (cands, complete)."""
    smask = _smask(s)
    if _TREE[variant]:
        cands, complete, units = _enumerate_trees(g.n, g.masks, g.edges, smask, cap, pool.left)
    else:
        cands, complete, units = impl.enumerate_paths(g.n, g.masks, smask, cap, pool.left)
    pool.charge(units)
    return cands, complete


def _pack(g: Graph, eid, s, variant, pool: WorkBudget, cands, enum_complete: bool,
          target: int, decide: bool):
    """Pack listed candidates toward target with what pool has left.

    decide selects decision mode, which prunes every branch that cannot
    reach target.  Returns (family, proven): proven means that the listing
    was complete and the pack ran to the end without reaching target
    first, so family is a largest family (exact mode) or no family reaches
    target (decision mode).
    """
    if not cands:
        return (), enum_complete
    k = len(s)
    _, sel, pack_complete, units = impl.solve_pack(
        g.n, g.m, eid, cands, _TREE[variant], _smask(s), _INTERNAL[variant],
        _slots_per(k, variant), k // 2, [g.degree(v) for v in s],
        target, decide, max(pool.left, 0))
    pool.charge(units)
    return tuple(cands[i] for i in sel), pack_complete and enum_complete


def _first(g: Graph, s, variant, pool: WorkBudget):
    """Answer whether s carries one member by listing one candidate.

    Returns (family, proven) as _pack does at target 1: the candidate
    listed is the member, the one a pack of any list would take first; an
    empty list proves that there is none only when it is complete, not
    when the pool cut it.
    """
    cands, complete = _candidates(g, s, variant, pool, 1)
    return tuple(cands), complete


_SHORT_CAP = 256  # candidates a threshold question lists before looking further
_RESIDUAL_DRAWS = 3  # weight draws the residual search tries


def _residual_stage(s, variant) -> bool:
    """Whether _residual_paths serves s: triples of the path variants."""
    return len(s) == 3 and not _TREE[variant]


def _at_least(g: Graph, eid, s, variant, goal: int, pool: WorkBudget):
    """Stage the question whether s carries goal >= 1 disjoint members.

    0. When local_upper_bound(g, s, variant) is below goal, the answer is
       a proven no with no work.  A goal of 1 is answered by _first, and
       the steps below serve goals of 2 or more.
    1. List the first _SHORT_CAP candidates.  When that list is complete
       or the pool is spent, packing it settles the question.
    2. Make one cheap attempt, chosen by s: _residual_paths at a triple of
       a path variant (see _residual_stage), a pack of the cut list toward
       goal at any other set.
    3. On a miss, list and pack DEFAULT_CAP candidates with what the pool
       has left.

    Returns (family, proven) as _pack does: family has goal members or is
    the largest found, and proven means that no family reaches goal.
    """
    if local_upper_bound(g, s, variant) < goal:
        return (), True
    if goal == 1:
        return _first(g, s, variant, pool)
    cands, complete = _candidates(g, s, variant, pool, _SHORT_CAP)
    if complete or pool.exhausted:
        return _pack(g, eid, s, variant, pool, cands, complete, goal, True)
    if _residual_stage(s, variant):
        found = _residual_paths(g, s, goal, variant, pool)
    else:
        found, _ = _pack(g, eid, s, variant, pool, cands, False, goal, True)
    if len(found) >= goal or pool.exhausted:
        return found, False
    cands, complete = _candidates(g, s, variant, pool, DEFAULT_CAP)
    family, proven = _pack(g, eid, s, variant, pool, cands, complete, goal, True)
    return max(found, family, key=len), proven


def _residual_paths(g: Graph, s, goal: int, variant: str, pool: WorkBudget):
    """Look for goal disjoint terminal paths at a triple s, one at a time.

    Each round tries every terminal as the middle vertex and computes a
    min-cost pair of internally disjoint paths from it to the other two
    terminals (Suurballe & Tarjan, Networks 14, 1984); see _two_paths.
    Non-terminal vertices carry random weights drawn from
    random.Random(terminal mask).  The cheapest pair (the earliest middle
    on ties), joined at its middle and oriented from its smaller endpoint,
    becomes the next member; a middle's search stops early once its pair
    cannot cost less than the cheapest so far in the round.  Then
    pi blocks the member's non-terminal vertices and edges, omega its edges
    only.  When a round finds no pair, the search starts over under fresh
    weights, at most _RESIDUAL_DRAWS draws in all.

    One work unit per arc scanned, charged to pool; the search stops as
    soon as it has spent what pool holds.  Returns goal members, or () when
    it stopped first: finding nothing proves nothing.
    """
    if pool.exhausted:
        return ()
    smask = _smask(s)
    rng = random.Random(smask)
    limit = pool.left
    scanned = 0
    try:
        for _ in range(_RESIDUAL_DRAWS):
            weight = [0 if (smask >> v) & 1 else rng.randint(1, g.n) for v in range(g.n)]
            blocked_v = 0
            blocked_e = set()
            family = []
            while len(family) < goal:
                best = None
                for mid in s:
                    found, scanned = _two_paths(g, weight, mid, [t for t in s if t != mid],
                                                blocked_v, blocked_e,
                                                None if best is None else best[0],
                                                scanned, limit)
                    if scanned >= limit:
                        return ()
                    if found is not None:  # it costs less than best
                        best = found
                if best is None:
                    break
                path = best[1]
                family.append(path if path[0] < path[-1] else path[::-1])
                if _INTERNAL[variant]:
                    blocked_v |= _smask(path) & ~smask
                blocked_e.update(zip(path, path[1:]))
                blocked_e.update(zip(path[1:], path))
            if len(family) == goal:
                return tuple(family)
        return ()
    finally:
        pool.charge(scanned)


def _two_paths(g: Graph, weight, mid, ends, blocked_v, blocked_e, beat, scanned, limit):
    """Min-cost pair of internally disjoint paths from mid to both ends.

    A two-unit min-cost flow by successive shortest paths (Dijkstra with
    potentials, each run stopped at the sink) on the vertex-split graph,
    which is never built.  Vertex u becomes in(u) = 2u and out(u) = 2u + 1,
    joined by an arc of capacity 1 and cost weight[u]; edge u-y becomes the
    arcs out(u) -> in(y) and out(y) -> in(u); a sink 2n is joined to in(e)
    for both ends.  The flow leaves out(mid).  No arc enters mid or a
    vertex of blocked_v, no arc follows a directed edge of blocked_e, and
    an end leads only to the sink, so the two flow paths stop at different
    ends.

    beat, unless None, is the cost to undercut: the search gives up once
    no pair can cost less.  scanned counts arcs looked at so far; the
    search stops when it reaches limit.  Returns ((cost, path), scanned),
    or (None, scanned) when no pair exists, none costs less than beat, or
    the search stopped; path runs from one end through mid to the other.
    """
    adj = g.adj
    sink = 2 * g.n
    src = 2 * mid + 1
    closed = blocked_v | (1 << mid)  # vertices no edge arc may enter
    end_mask = (1 << ends[0]) | (1 << ends[1])
    used = 0  # vertices whose split arc (the sink arc at an end) carries flow
    into = [-1] * g.n  # into[y] = x when the arc out(x) -> in(y) carries flow
    pot = [0] * (sink + 1)
    # a distance d popped in the first round bounds the pair's cost below
    # by 2d, as each of its paths costs at least the shortest; in the
    # second, by floor + d, the first path's cost plus the second's (its
    # reduced distance plus the first's cost)
    floor = 0
    for rnd in range(2):
        dist = [None] * (sink + 1)
        via = [-1] * (sink + 1)
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, x = heapq.heappop(heap)
            if beat is not None and floor + (2 - rnd) * d >= beat:
                return None, scanned
            if x == sink:
                break
            if d > dist[x]:
                continue
            u = x >> 1
            if x & 1:  # out(u): the edge arcs, and back over u's split arc
                nbrs = adj[u]
                scanned += len(nbrs) + 1
                steps = [(2 * y, 0) for y in nbrs
                         if not (closed >> y) & 1 and into[y] != u
                         and (u, y) not in blocked_e]
                if (used >> u) & 1:
                    steps.append((x - 1, -weight[u]))
            else:  # in(u): the split or sink arc, and back over the edge arc in
                scanned += 2
                steps = []
                if not (used >> u) & 1:
                    steps.append((sink, 0) if (end_mask >> u) & 1 else (x + 1, weight[u]))
                if into[u] >= 0:
                    steps.append((2 * into[u] + 1, 0))
            if scanned >= limit:
                return None, limit
            d += pot[x]
            for y, c in steps:
                nd = d + c - pot[y]
                if dist[y] is None or nd < dist[y]:
                    dist[y] = nd
                    via[y] = x
                    heapq.heappush(heap, (nd, y))
        top = dist[sink]
        if top is None:
            return None, scanned
        if not rnd:
            floor = 2 * top
            # the search stopped at the sink: capping every distance at the
            # sink's makes the potentials for the second round, under which
            # each reduced cost of the residual graph is nonnegative
            pot = [top if d is None or d > top else d for d in dist]
        added = []
        y = sink
        while y != src:
            x = via[y]
            if y == sink or x >> 1 == y >> 1:  # a sink or split arc, either way
                used ^= 1 << (x >> 1)
            elif x & 1:  # out(a) -> in(b) gains flow
                added.append((x >> 1, y >> 1))
            else:  # in(b) -> out(a) cancels the flow on out(a) -> in(b)
                into[x >> 1] = -1
            y = x
        for a, b in added:
            into[b] = a

    # each end's flow path, followed back to mid
    halves = []
    for e in ends:
        seq = [e]
        while seq[-1] != mid:
            seq.append(into[seq[-1]])
        halves.append(seq)
    path = tuple(halves[0] + halves[1][-2::-1])
    return (sum(weight[v] for v in path), path), scanned


def _local_solve(g: Graph, eid, s, variant, pool: WorkBudget,
                 ub: int) -> PackingCertificate:
    """Exact-intent local solve; degrades to lower-bound on budget expiry.

    ub caps the search: no member past the ub-th is looked for.  It is
    either a proven upper bound on the local value at s (at most
    local_upper_bound(g, s, variant)), or, in a global scan, the least
    value proven so far, which only a smaller value at s can improve on.
    A cap of 0 is always a proven bound, as a scan stops at its first
    zero, so it settles s as zero without listing, and a cap of 1 is
    settled by _first, which lists one candidate.
    At a cap of 2 or more, at a triple of a path variant (see
    _residual_stage) the residual search looks for ub members first; a hit
    reaches the cap, so it is exact.  A miss, or a search that spent the
    pool, proves nothing and falls through to listing DEFAULT_CAP
    candidates and packing them.

    A family of ub members has status exact.  Under a proven bound that is
    the local value; under a scan's least value it only means "not below
    ub", and the scan keeps no such certificate.
    """
    if pool.exhausted:
        return PackingCertificate(variant, s, (), LOWER_BOUND)
    if ub == 0:
        return PackingCertificate(variant, s, (), ZERO)
    if ub == 1:
        family, proven = _first(g, s, variant, pool)
    else:
        if _residual_stage(s, variant):
            family = _residual_paths(g, s, ub, variant, pool)
            if family:
                return PackingCertificate(variant, s, family, EXACT)
        cands, complete = _candidates(g, s, variant, pool, DEFAULT_CAP)
        family, proven = _pack(g, eid, s, variant, pool, cands, complete, ub, False)
    if not family:
        status = ZERO if proven else LOWER_BOUND
    else:
        status = EXACT if proven or len(family) >= ub else LOWER_BOUND
    return PackingCertificate(variant, s, family, status)


def local_connectivity(g: Graph, s, variant: str,
                       budget_ms: int | None = None) -> PackingCertificate:
    """Largest disjoint family of minimal terminal paths/trees for s."""
    _check_variant(variant)
    s = _local_terminals(g, s)
    pool = WorkBudget(budget_ms)
    return _local_solve(g, _eid_flat(g), s, variant, pool,
                        local_upper_bound(g, s, variant))


def pack_at_least(g: Graph, s, t: int, variant: str,
                  budget_ms: int | None = None) -> PackDecision:
    """Decide whether a disjoint family of size >= t exists for s."""
    _check_variant(variant)
    s = _local_terminals(g, s)
    if t < 1:
        raise InputError("t must be >= 1")
    pool = WorkBudget(budget_ms)
    family, proven = _at_least(g, _eid_flat(g), s, variant, t, pool)
    cert = PackingCertificate(variant, s, family, LOWER_BOUND) if family else None
    answer = "yes" if len(family) >= t else "no" if proven else "unknown"
    return PackDecision(answer, cert, pool.spent)


def _convention(g: Graph, k: int, variant: str) -> GlobalResult | None:
    """The global result fixed by convention, or None when no convention applies.

    k = 1 gives the minimum degree (0 on a single vertex) at a vertex of
    that degree.  k > n gives 1 on a connected graph and 0 otherwise, with
    no terminal set.  A disconnected graph with 2 <= k <= n gives 0 at a
    k-set meeting two components, certified by the empty family with status
    zero; the other conventions carry no certificate.
    """
    n = g.n
    if k == 1:
        degs = g.degrees()
        v = min(range(n), key=lambda i: degs[i])
        return GlobalResult(variant, k, degs[v] if n > 1 else 0, EXACT, (v,), None, 0)
    connected = g.is_connected()
    if k > n:
        return GlobalResult(variant, k, 1 if connected else 0, EXACT, None, None, 0)
    if connected:
        return None
    comps = components(g)
    picked = [comps[0][0], comps[1][0]]
    rest = sorted(set(range(n)) - set(picked))
    s = tuple(sorted(picked + rest[:k - 2]))
    return GlobalResult(variant, k, 0, EXACT, s, PackingCertificate(variant, s, (), ZERO), 0)


def global_connectivity(g: Graph, k: int, variant: str,
                        budget_ms: int | None = None) -> GlobalResult:
    """Minimum local value over all k-subsets, with the conventions of
    _convention for k = 1, k > n and disconnected graphs; one set per
    orbit is solved."""
    _check_variant(variant)
    if k < 1:
        raise InputError("k must be >= 1")
    _check_solver_size(g)
    conv = _convention(g, k, variant)
    if conv is not None:
        return conv

    # loaded on first use, so that a process that makes no global scan
    # does not load it at start-up
    from . import _symmetry

    eid = _eid_flat(g)
    pool = WorkBudget(budget_ms)
    # one set per orbit, each set's bound computed once; scan by (bound, set)
    subsets = sorted((local_upper_bound(g, s, variant), s)
                     for s in _symmetry.representatives(g, k, pool))

    best_val: int | None = None
    best_s: tuple[int, ...] | None = None
    best_cert: PackingCertificate | None = None
    low: int | None = None  # smallest lower bound over the sets scanned

    for ub, s in subsets:
        if pool.exhausted:
            # the sets not scanned have lower bound 0
            return GlobalResult(variant, k, 0, LOWER_BOUND, best_s, best_cert, pool.spent)
        # sets come in ascending bound order and best_val is a proven value
        # at an earlier set, so best_val <= that set's bound <= ub here: a
        # set that reaches best_val cannot lower the minimum
        cert = _local_solve(g, eid, s, variant, pool, ub if best_val is None else best_val)
        low = cert.value if low is None else min(low, cert.value)
        if cert.status in (EXACT, ZERO) and (best_val is None or cert.value < best_val):
            best_val, best_s, best_cert = cert.value, s, cert
            if best_val == 0:
                break

    # best_val is one of the lower bounds, so it is the value iff it is the least
    status = EXACT if low == best_val else LOWER_BOUND
    return GlobalResult(variant, k, low, status, best_s, best_cert, pool.spent)


def global_at_least(g: Graph, k: int, t: int, variant: str,
                    budget_ms: int | None = None) -> str:
    """Decide whether every k-subset admits a disjoint family of size >= t.

    Returns "yes", "no", or "unknown".  Much cheaper than an exact global
    scan when only a lower bound needs checking.
    """
    return _global_at_least(g, k, t, variant, budget_ms)[0]


def _global_at_least(g: Graph, k: int, t: int, variant: str,
                     budget_ms: int | None) -> tuple[str, int]:
    """global_at_least's answer and the units its pool charged."""
    _check_variant(variant)
    if k < 1 or t < 0:
        raise InputError("k must be >= 1 and t >= 0")
    _check_solver_size(g)
    if t == 0:
        return "yes", 0
    conv = _convention(g, k, variant)
    if conv is not None:
        return ("yes" if conv.value >= t else "no"), 0
    from . import _symmetry  # loaded on first use, as in global_connectivity

    eid = _eid_flat(g)
    pool = WorkBudget(budget_ms)
    for s in _symmetry.representatives(g, k, pool):
        if pool.exhausted:
            return "unknown", pool.spent
        family, proven = _at_least(g, eid, s, variant, t, pool)
        if len(family) < t:
            return ("no" if proven else "unknown"), pool.spent
    return "yes", pool.spent
