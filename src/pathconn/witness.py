"""Explicit disjoint-family constructions and an independent family checker.

The product construction targets K_R x K_C with R = 2p and C = 2q - 2p + 2
(both even, q = (R + C - 2) / 2) and produces, for any terminal triple,
exactly q internally disjoint terminal paths.  One table, _CASES, maps the
triple's shape (how many rows and columns it occupies) to its case and
builder; column-heavy shapes build in the transposed grid and map back.
product_witness builds a family and checks it, and prescribed_instance
always runs its optimality probe; both report what fails, never raise it.
Only bad p, q or terminals raise (InputError).

verify_family is deliberately naive (set arithmetic on vertices and edges,
no bitmasks, no shared code with the solvers) so it can vouch for solver
certificates and constructed families alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import Graph, InputError, canon_edge, complete, complete_bipartite
from .steiner import (
    KAPPA, LAMBDA, PI, GlobalResult, PackDecision, PackingCertificate,
    LOWER_BOUND, global_connectivity, local_upper_bound, pack_at_least,
    terminal_set,
)
from .transforms import LabeledGraph, cartesian_product, line_graph


# ---------------------------------------------------------------------------
# independent verification

def family_violations(g: Graph, s, family, variant: str) -> list[str]:
    """All reasons the family fails to certify the variant's value at s."""
    s = terminal_set(g, s)
    sset = set(s)
    tree = variant in (KAPPA, LAMBDA)
    internal = variant in (PI, KAPPA)
    problems = []
    vsets = []
    esets = []
    for idx, item in enumerate(family):
        tag = f"member {idx}"
        if tree:
            edges = [tuple(e) for e in item]
            eset = set()
            vset = set()
            ok = True
            for e in edges:
                if len(e) != 2 or canon_edge(*e) not in g.edge_index:
                    problems.append(f"{tag}: {e!r} is not an edge of the graph")
                    ok = False
                    break
                ce = canon_edge(*e)
                if ce in eset:
                    problems.append(f"{tag}: repeated edge {ce!r}")
                    ok = False
                    break
                eset.add(ce)
                vset.update(ce)
            if not ok:
                continue
            if not edges or len(eset) != len(vset) - 1 or not _connected_on(vset, eset):
                problems.append(f"{tag}: edges do not form a tree")
                continue
        else:
            verts = list(item)
            if len(verts) < 2 or len(set(verts)) != len(verts):
                problems.append(f"{tag}: not a simple path")
                continue
            eset = set()
            ok = True
            for a, b in zip(verts, verts[1:]):
                if canon_edge(a, b) not in g.edge_index:
                    problems.append(f"{tag}: ({a}, {b}) is not an edge of the graph")
                    ok = False
                    break
                eset.add(canon_edge(a, b))
            if not ok:
                continue
            vset = set(verts)
        if not sset <= vset:
            problems.append(f"{tag}: missing terminals {sorted(sset - vset)}")
            continue
        vsets.append((idx, vset))
        esets.append((idx, eset))
    for i in range(len(esets)):
        for j in range(i + 1, len(esets)):
            ii, ei = esets[i]
            jj, ej = esets[j]
            shared = ei & ej
            if shared:
                problems.append(f"members {ii} and {jj} share edges {sorted(shared)}")
            if internal:
                extra = (vsets[i][1] & vsets[j][1]) - sset
                if extra:
                    problems.append(f"members {ii} and {jj} share non-terminals {sorted(extra)}")
    return problems


def _connected_on(vset, eset) -> bool:
    verts = list(vset)
    if not verts:
        return False
    adj = {v: [] for v in verts}
    for u, v in eset:
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def verify_family(g: Graph, s, family, variant: str) -> bool:
    """True iff the family is a valid disjoint witness family for s."""
    return not family_violations(g, s, family, variant)


# ---------------------------------------------------------------------------
# complete graphs

def complete_graph_witness(n: int, s) -> tuple[tuple[int, ...], ...]:
    """floor(n/2) internally disjoint terminal paths for a triple in K_n."""
    g = complete(n)
    s = terminal_set(g, s)
    if len(s) != 3:
        raise InputError("complete_graph_witness needs exactly three terminals")
    a, b, c = s
    rest = [v for v in range(n) if v not in s]
    fam = [(a, b, c)]
    if rest:
        fam.append((b, rest[0], a, c))
        w = rest[1:]
        for i in range(0, len(w) - 1, 2):
            fam.append((a, w[i], b, w[i + 1], c))
    return tuple(fam)


# ---------------------------------------------------------------------------
# products of complete graphs

def product_grid(p: int, q: int) -> tuple[int, int]:
    """The (rows, cols) = (2p, 2q - 2p + 2) grid of the construction for (p, q)."""
    if p < 2 or q < p + 1:
        raise InputError("product construction needs p >= 2 and q >= p + 1")
    return 2 * p, 2 * q - 2 * p + 2


@lru_cache(maxsize=8)
def product_witness_graph(p: int, q: int) -> LabeledGraph:
    """The product K_{2p} x K_{2q-2p+2}, labeled with coordinates; vertex
    r * cols + c is cell (r, c).  Cached: the frozen result is shared."""
    rows, cols = product_grid(p, q)
    return cartesian_product(complete(rows), complete(cols))


@dataclass(frozen=True)
class ProductWitness:
    """The constructed family at one triple of K_{2p} x K_{2q-2p+2}.

    case names the construction case that built it.  problems lists every
    reason the family is not q internally disjoint terminal paths (a wrong
    size first, then the checker's findings); it is empty when it is.
    """

    case: str
    family: tuple[tuple[int, ...], ...]
    problems: tuple[str, ...]


def product_witness(p: int, q: int, s) -> ProductWitness:
    """Build the family at the triple s and check it; a defective family is
    reported in problems, never raised.  InputError only for bad p, q or s.

    Builder cells are not range-checked: the checker judges the flat family
    that is returned, so a cell outside the grid is reported wherever its
    flat id breaks that family.
    """
    rows, cols = product_grid(p, q)
    g = product_witness_graph(p, q).graph
    s = terminal_set(g, s)
    if len(s) != 3:
        raise InputError("product construction needs exactly three terminals")
    trip = [divmod(v, cols) for v in s]
    fam = tuple(tuple(r * cols + c for r, c in pathc)
                for pathc in _product_family(rows, cols, trip))
    problems = [] if len(fam) == q else [f"size {len(fam)} != {q}"]
    problems += family_violations(g, s, fam, PI)
    return ProductWitness(_case(trip)[0], fam, tuple(problems))


def _case(trip):
    """The _CASES entry of the triple's shape."""
    return _CASES[len({r for r, _ in trip}), len({c for _, c in trip})]


def _product_family(rows, cols, trip):
    """Coordinate paths from the builder of the triple's case."""
    _, build, transposed = _case(trip)
    if not transposed:
        return build(rows, cols, trip)
    return [[(r, c) for c, r in pathc]
            for pathc in build(cols, rows, [(c, r) for r, c in trip])]


def _free(total, used):
    return [i for i in range(total) if i not in used]


def _all_distinct(rows, cols, trip):
    """All rows and all columns distinct."""
    (r1, c1), (r2, c2), (r3, c3) = sorted(trip)
    x, y, z = (r1, c1), (r2, c2), (r3, c3)
    fam = [
        [x, (r1, c2), y, (r2, c3), z],
        [x, (r2, c1), y, (r3, c2), z],
    ]
    fr = _free(rows, {r1, r2, r3})
    fc = _free(cols, {c1, c2, c3})
    t = min(len(fr), len(fc))
    for a, b in zip(fr[:t], fc[:t]):
        fam.append([x, (a, c1), (a, c2), y, (r2, b), (r3, b), z])
    for i in range(t, len(fc) - 1, 2):
        b, b2 = fc[i], fc[i + 1]
        fam.append([x, (r1, b), (r2, b), y, (r2, b2), (r3, b2), z])
    for i in range(t, len(fr) - 1, 2):
        a, a2 = fr[i], fr[i + 1]
        fam.append([x, (a, c1), (a, c2), y, (a2, c2), (a2, c3), z])
    return fam


def _row_pair(trip):
    """The two terminals that share a row (by column), and the third."""
    rows = [r for r, _ in trip]
    (z,) = (rc for rc in trip if rows.count(rc[0]) == 1)
    return sorted((rc for rc in trip if rc != z), key=lambda rc: rc[1]), z


def _shared_row_fresh(rows, cols, trip):
    """x, y in row r1; z in a fresh row and a fresh column."""
    (x, y), z = _row_pair(trip)
    r1, cx = x
    _, cy = y
    r2, cz = z
    fam = [
        [x, y, (r1, cz), z],
        [y, (r2, cy), z, (r2, cx), x],
    ]
    fr = _free(rows, {r1, r2})
    fc = _free(cols, {cx, cy, cz})
    for i in range(0, len(fr) - 1, 2):
        a, a2 = fr[i], fr[i + 1]
        fam.append([x, (a, cx), (a, cy), y, (a2, cy), (a2, cz), z])
    for i in range(0, len(fc) - 1, 2):
        b, b2 = fc[i], fc[i + 1]
        fam.append([x, (r1, b), y, (r1, b2), (r2, b2), z])
    return fam


def _shared_row_stacked(rows, cols, trip):
    """x, y in row r1; z directly below x (same column)."""
    (x, y), z = _row_pair(trip)
    if y[1] == z[1]:
        x, y = y, x
    r1, c1 = x
    _, c2 = y
    r2, _ = z
    fr = _free(rows, {r1, r2})
    fc = _free(cols, {c1, c2})
    a0 = fr[0]
    fam = [
        [y, (r2, c2), z, x],
        [z, (a0, c1), x, y],
    ]
    rest_rows = fr[1:]
    i = 0
    while i + 1 < len(rest_rows):
        a, a2 = rest_rows[i], rest_rows[i + 1]
        fam.append([x, (a, c1), (a, c2), y, (a2, c2), (a2, c1), z])
        i += 2
    ci = 0
    if i < len(rest_rows):
        a, b = rest_rows[i], fc[0]
        fam.append([x, (a, c1), (a, c2), y, (r1, b), (r2, b), z])
        ci = 1
    while ci + 1 < len(fc):
        b, b2 = fc[ci], fc[ci + 1]
        fam.append([x, (r1, b), y, (r1, b2), (r2, b2), z])
        ci += 2
    return fam


def _one_row(rows, cols, trip):
    """All three terminals in one row."""
    (r1, c1), (r1b, c2), (r1c, c3) = sorted(trip, key=lambda rc: rc[1])
    x, y, z = (r1, c1), (r1b, c2), (r1c, c3)
    fr = _free(rows, {r1})
    fc = _free(cols, {c1, c2, c3})
    a0 = fr[0]
    fam = [
        [x, y, z],
        [y, (a0, c2), (a0, c1), x, z],
    ]
    rest = fr[1:]
    for i in range(0, len(rest) - 1, 2):
        a, a2 = rest[i], rest[i + 1]
        fam.append([x, (a, c1), (a, c2), y, (a2, c2), (a2, c3), z])
    for i in range(0, len(fc) - 1, 2):
        b, b2 = fc[i], fc[i + 1]
        fam.append([x, (r1, b), y, (r1, b2), z])
    return fam


# A triple's shape (distinct rows, distinct columns) -> its case label, its
# builder, and whether the builder runs in the transposed grid.  Three
# distinct cells of a grid take one of these six shapes.
_CASES = {
    (1, 3): ("one-row", _one_row, False),
    (3, 1): ("one-column", _one_row, True),
    (3, 3): ("rows-and-columns-distinct", _all_distinct, False),
    (2, 3): ("shared-row", _shared_row_fresh, False),
    (2, 2): ("shared-row-stacked", _shared_row_stacked, False),
    (3, 2): ("shared-column", _shared_row_fresh, True),
}


# ---------------------------------------------------------------------------
# line graph instance with prescribed values

@dataclass(frozen=True)
class PrescribedInstance:
    """A bipartite base graph and its line graph with certified path values.

    The base is K_{2p, 2q-2p+2}: its triple path value is exactly p, and its
    line graph (identical to the product K_{2p} x K_{2q-2p+2} under the
    index-preserving correspondence) carries a constructed family of q
    internally disjoint paths at a solver-chosen triple.  The gap q - p is
    therefore certified as at least prescribed, unless line_problems lists
    why not: a line graph that differs from the product first, then why
    that family fails its check.

    refutation is the optimality probe at that same triple: answer "no"
    pins the local value to exactly q, "yes" shows that it exceeds q (the
    family is a strict lower bound there), and "unknown" means the work
    budget expired first.  refutation_problems lists why a "yes" family is
    not more than q verified disjoint paths, which only a solver defect can
    cause; it is empty for a sound "yes" and for the other answers.
    """

    base: Graph
    base_result: GlobalResult
    line: LabeledGraph
    line_certificate: PackingCertificate
    line_problems: tuple[str, ...]
    refutation: PackDecision
    refutation_problems: tuple[str, ...]


def prescribed_triple(p: int, q: int) -> tuple[int, int, int]:
    """The triple of the product for (p, q) that prescribed_instance certifies
    and probes: the first triple of least local_upper_bound."""
    g = product_witness_graph(p, q).graph
    return min(combinations(range(g.n), 3),
               key=lambda s: (local_upper_bound(g, s, PI), s))


def prescribed_instance(p: int, q: int,
                        budget_ms: int | None = 60_000) -> PrescribedInstance:
    """Build the instance, certify both values, and probe the q upper bound.

    The probe always runs, at budget_ms: it asks whether q + 1 disjoint
    paths fit at the chosen triple.  The exact solve on the bipartite base
    runs unbudgeted up to 10 base vertices and at budget_ms beyond, where
    it may degrade to a lower-bound certificate.  A line graph that differs
    from the product, a defective family or an unverifiable "yes" is
    reported in the instance's problem lists, never raised.
    """
    rows, cols = product_grid(p, q)
    base = complete_bipartite(rows, cols)
    base_result = global_connectivity(
        base, 3, PI, budget_ms=None if rows + cols <= 10 else budget_ms)
    line = line_graph(base)
    g = product_witness_graph(p, q).graph
    s_star = prescribed_triple(p, q)
    witness = product_witness(p, q, s_star)
    line_problems = witness.problems
    if line.graph != g:
        line_problems = ("line graph does not match the product layout",
                         *line_problems)
    cert = PackingCertificate(PI, s_star, witness.family, LOWER_BOUND)
    refutation = pack_at_least(g, s_star, q + 1, PI, budget_ms=budget_ms)
    refutation_problems = []
    if refutation.answer == "yes":
        extra = refutation.certificate.family if refutation.certificate else ()
        if len(extra) <= q:
            refutation_problems.append(f"size {len(extra)} <= {q}")
        refutation_problems += family_violations(g, s_star, extra, PI)
    return PrescribedInstance(base, base_result, line, cert, line_problems,
                              refutation, tuple(refutation_problems))
