"""Verification suites: formulas, inequalities, line-graph bounds, constructions.

Each suite emits one record per check: suite, claim id, instance,
expected relation, observed values, verdict.  Verdicts are "pass",
"fail", or "inconclusive" (budget-limited; never counted as failure).
Every global value the suites solve goes through `_value`, the one place
that handles a result that is not exact (budget-capped): the check that
reads it is recorded as inconclusive with observed text "budget-capped",
once, even when the check needs two values or other checks read the same
value; never as a pass, a fail or a skip.  The construction suite's base
value comes from `prescribed_instance` instead, and its lower bound fails
the check only when it already exceeds p.
Reports are pure functions of (seed, parameters): instances come from the
seeded sampler and solver effort is measured in deterministic work units,
so identical invocations serialize byte-identically.

Inequalities that halve a connectivity are asserted in floored form: the
real-valued reading is false (K_{3,3} has triple path value 1 against
connectivity 3), see the bipartite checks in the formulas suite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, InputError, complete, complete_bipartite, cycle, net, star
from .invariants import connectivity, edge_connectivity, k_connectivity_cut, min_degree
from .random_graphs import RandomGraphSpec, sample_graph
from .steiner import (
    KAPPA, LAMBDA, OMEGA, PI, EXACT,
    _global_at_least, complete_graph_value, global_connectivity, upper_bound,
)
from .transforms import line_graph, natural_iso_check
from .witness import (complete_graph_witness, prescribed_instance,
                      product_grid, product_witness, verify_family)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

SUITE_NAMES = ("formulas", "inequalities", "line", "construction")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    claim: str
    instance: str
    relation: str
    observed: str
    verdict: str

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "claim": self.claim,
            "instance": self.instance,
            "relation": self.relation,
            "observed": self.observed,
            "verdict": self.verdict,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    params: dict
    checks: list[CheckResult] = field(default_factory=list)
    units: int = 0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.verdict == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.verdict == FAIL)

    @property
    def inconclusive(self) -> int:
        return sum(1 for c in self.checks if c.verdict == INCONCLUSIVE)

    def record(self, claim: str, instance: str, relation: str, observed: str,
               verdict: str) -> None:
        self.checks.append(CheckResult(self.suite, claim, instance, relation,
                                       observed, verdict))

    def require(self, claim: str, instance: str, relation: str, observed: str,
                ok: bool) -> None:
        self.record(claim, instance, relation, observed, PASS if ok else FAIL)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
            "totals": {
                "checks": len(self.checks),
                "passed": self.passed,
                "failed": self.failed,
                "inconclusive": self.inconclusive,
            },
            "units": self.units,
            "checks": [c.to_dict() for c in self.checks],
        }


def _desc(g: Graph, label: str = "") -> str:
    """Reproducible one-line instance description."""
    edges = ",".join(f"{u}-{v}" for u, v in g.edges)
    head = f"{label}:" if label else ""
    return f"{head}n={g.n};m={g.m};edges=[{edges}]"


def _value(report: SuiteReport, claim: str, inst: str, relation: str,
           g: Graph, k: int, variant: str):
    """Exact global result, or None after recording the check that reads
    it as inconclusive, when the result is not exact (budget-capped)."""
    res = global_connectivity(g, k, variant)
    report.units += res.units
    if res.status == EXACT:
        return res
    report.record(claim, inst, relation, "budget-capped", INCONCLUSIVE)
    return None


def _one_sided(report: SuiteReport, claim: str, inst: str, relation: str,
               g: Graph, k: int, t: int, variant: str,
               budget_ms: int | None) -> None:
    """Record a claim of the form value(g, k, variant) >= t."""
    if t <= 0:
        report.record(claim, inst, relation, f"bound {t} <= 0", PASS)
        return
    ans, units = _global_at_least(g, k, t, variant, budget_ms)
    report.units += units
    verdict = {"yes": PASS, "no": FAIL, "unknown": INCONCLUSIVE}[ans]
    report.record(claim, inst, relation, f"at-least-{t}: {ans}", verdict)


# ---------------------------------------------------------------------------
# formulas

def suite_formulas(max_n: int = 7) -> SuiteReport:
    rep = SuiteReport("formulas", 0, {"max_n": max_n})

    for n in range(3, max_n + 1):
        for k in range(3, n + 1):
            want = complete_graph_value(n, k)
            claim = ("complete-path-value", f"K_{n};k={k}",
                     "path value == floor((2n+k^2-3k)/(2k-2))")
            res = _value(rep, *claim, complete(n), k, PI)
            if res is not None:
                rep.require(*claim, f"solver={res.value} formula={want}",
                            res.value == want)

    for a in range(2, 6):
        for b in range(a, 6):
            want = min(a // 2, b // 2)
            claim = ("bipartite-triple-path-value", f"K_{a},{b}",
                     "triple path value == min(floor(a/2), floor(b/2))")
            res = _value(rep, *claim, complete_bipartite(a, b), 3, PI)
            if res is not None:
                rep.require(*claim, f"solver={res.value} formula={want}",
                            res.value == want)

    for n in (4, 6):
        kn = complete(n)
        for e in kn.edges:
            inst = f"K_{n}-e;e={e[0]}-{e[1]}"
            claim = ("complete-minus-edge-below-half", inst,
                     "triple path value < n/2")
            res = _value(rep, *claim, kn.without_edge(*e), 3, PI)
            if res is None:
                continue
            rep.require(*claim, f"solver={res.value} n/2={n // 2}",
                        res.value < n / 2)
            if n == 6:
                rep.require("complete-6-minus-edge-value", inst,
                            "triple path value == 2",
                            f"solver={res.value}", res.value == 2)

    for leaves in range(3, 7):
        claim = ("star-triple-path-zero", f"star;leaves={leaves}",
                 "triple path value == 0")
        res = _value(rep, *claim, star(leaves), 3, PI)
        if res is not None:
            rep.require(*claim, f"solver={res.value}", res.value == 0)

    return rep


# ---------------------------------------------------------------------------
# inequalities

_BOUND_KS = (3, 4)
_INEQ_MIN_N = 4  # the fewest vertices of a sampled graph
_INEQ_MAX_N = 7  # the most, by default


def _check_graph_inequalities(rep: SuiteReport, g: Graph, inst: str) -> None:
    delta = min_degree(g)
    kap = connectivity(g)
    lam = edge_connectivity(g)

    claim = ("single-terminal-convention", inst, "k=1 value == min degree")
    res1 = _value(rep, *claim, g, 1, PI)
    if res1 is not None:
        rep.require(*claim, f"value={res1.value} delta={delta}",
                    res1.value == delta)
    pair_expect = {PI: kap, OMEGA: lam, KAPPA: kap, LAMBDA: lam}
    pair_claim = {
        PI: "pair-path-equals-connectivity",
        OMEGA: "pair-edge-path-equals-edge-connectivity",
        KAPPA: "pair-tree-equals-connectivity",
        LAMBDA: "pair-edge-tree-equals-edge-connectivity",
    }
    for variant in (PI, OMEGA, KAPPA, LAMBDA):
        claim = (pair_claim[variant], inst, "k=2 value == flow value")
        res = _value(rep, *claim, g, 2, variant)
        if res is not None:
            rep.require(*claim,
                        f"value={res.value} flow={pair_expect[variant]}",
                        res.value == pair_expect[variant])

    cut2 = k_connectivity_cut(g, 2)
    rep.require("cut-pair-equals-connectivity", inst,
                "2-cut value == connectivity",
                f"cut={cut2} kappa={kap}", cut2 == kap)

    degs = g.degrees()
    has_min_adj = any(degs[u] == delta and degs[v] == delta
                      for u, v in g.edges)

    for k in _BOUND_KS:
        if k > g.n:
            continue
        tag = f"{inst};k={k}"
        # the checks below read all four values, so the first capped one
        # ends the block with its one inconclusive record
        vals = {}
        for variant in (PI, OMEGA, KAPPA, LAMBDA):
            res = _value(rep, "variant-order", f"{tag};{variant}",
                         "pi_k <= kappa_k <= lambda_k, "
                         "pi_k <= omega_k <= lambda_k", g, k, variant)
            if res is None:
                break
            vals[variant] = res
        if len(vals) < 4:
            continue
        pi, om = vals[PI].value, vals[OMEGA].value
        ka, la = vals[KAPPA].value, vals[LAMBDA].value
        rep.require("path-le-edge-path", tag, "pi_k <= omega_k",
                    f"pi={pi} omega={om}", pi <= om)
        rep.require("path-le-tree", tag, "pi_k <= kappa_k",
                    f"pi={pi} kappa_k={ka}", pi <= ka)
        rep.require("edge-path-le-edge-tree", tag, "omega_k <= lambda_k",
                    f"omega={om} lambda_k={la}", om <= la)
        rep.require("tree-le-edge-tree", tag, "kappa_k <= lambda_k",
                    f"kappa_k={ka} lambda_k={la}", ka <= la)
        rep.require("edge-path-le-min-degree", tag, "omega_k <= delta",
                    f"omega={om} delta={delta}", om <= delta)
        if has_min_adj:
            rep.require("edge-path-adjacent-min-degree", tag,
                        "omega_k <= delta - 1 (adjacent min-degree pair)",
                        f"omega={om} delta={delta}", om <= delta - 1)
        rep.require("path-le-complete-value", tag,
                    "pi_k <= complete-graph value at same order",
                    f"pi={pi} bound={complete_graph_value(g.n, k)}",
                    pi <= complete_graph_value(g.n, k))
        rep.require("path-ge-scaled-connectivity", tag,
                    "pi_k >= floor(kappa / 2^(k-2))",
                    f"pi={pi} bound={kap >> (k - 2)}", pi >= kap >> (k - 2))
        rep.require("path-le-connectivity", tag, "pi_k <= kappa",
                    f"pi={pi} kappa={kap}", pi <= kap)
        if k == 3:
            rep.require("edge-path-ge-scaled-edge-connectivity", tag,
                        "omega_3 >= floor(lambda / 2)",
                        f"omega={om} bound={lam // 2}", om >= lam // 2)
        for variant, res in vals.items():
            ub = upper_bound(g, k, variant)
            rep.require("value-le-upper-bound", f"{tag};{variant}",
                        "value <= structural upper bound",
                        f"value={res.value} ub={ub}", res.value <= ub)
            if res.certificate is not None and res.value > 0:
                ok = (verify_family(g, res.certificate.terminals,
                                    res.certificate.family, variant)
                      and res.certificate.value == res.value)
                rep.require("certificate-validity", f"{tag};{variant}",
                            "certificate verifies and matches value",
                            f"value={res.value} family={res.certificate.value}",
                            ok)


def _check_min_n(name: str, value: int) -> None:
    if value < _INEQ_MIN_N:
        raise InputError(f"{name} must be >= {_INEQ_MIN_N} for the inequality "
                         f"suite's random graphs, got {value}")


def _check_count(count: int) -> None:
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")


def suite_inequalities(seed: int = 1, count: int = 200,
                       n_max: int = _INEQ_MAX_N, m_max: int = 12) -> SuiteReport:
    _check_count(count)
    _check_min_n("n_max", n_max)
    rep = SuiteReport("inequalities", seed,
                      {"count": count, "n_max": n_max, "m_max": m_max})

    h = net()
    claim = ("tree-vs-cut-discrimination", _desc(h, "net"),
             "tree value 1 differs from cut value 2")
    res3 = _value(rep, *claim, h, 3, KAPPA)
    if res3 is not None:
        cut3 = k_connectivity_cut(h, 3)
        rep.require(*claim, f"kappa_3={res3.value} cut_3={cut3}",
                    res3.value == 1 and cut3 == 2)

    c5 = cycle(5)
    claim = ("five-cycle-values", _desc(c5, "C_5"),
             "pi_3 == omega_3 == 1 == delta - 1")
    p5 = _value(rep, *claim, c5, 3, PI)
    o5 = p5 and _value(rep, *claim, c5, 3, OMEGA)
    if o5 is not None:
        rep.require(*claim, f"pi={p5.value} omega={o5.value}",
                    p5.value == o5.value == 1 == min_degree(c5) - 1)

    spec = RandomGraphSpec(n_min=_INEQ_MIN_N, n_max=n_max, m_min=3, m_max=m_max,
                           requirement="connected")
    rng = random.Random(seed)
    for i in range(count):
        g = sample_graph(spec, rng)
        _check_graph_inequalities(rep, g, _desc(g, f"sample{i}"))
    return rep


# ---------------------------------------------------------------------------
# line graphs

def _line_checks_shallow(rep: SuiteReport, g: Graph, inst: str,
                         budget_ms: int | None) -> None:
    lam = edge_connectivity(g)
    lg = line_graph(g).graph
    kap_l = connectivity(lg)
    lam_l = edge_connectivity(lg)
    if lam >= 2:
        rep.require("line-connectivity-ge-edge-connectivity", inst,
                    "kappa(L) >= lambda when lambda >= 2",
                    f"kappa(L)={kap_l} lambda={lam}", kap_l >= lam)
    rep.require("line-edge-connectivity-growth", inst,
                "lambda(L) >= 2*lambda - 2",
                f"lambda(L)={lam_l} lambda={lam}", lam_l >= 2 * lam - 2)

    claim = ("line-path-ge-base-edge-path", inst, "pi_3(L) >= omega_3")
    om3 = _value(rep, *claim, g, 3, OMEGA)
    if om3 is not None:
        _one_sided(rep, *claim, lg, 3, om3.value, PI, budget_ms)
        _one_sided(rep, "line-edge-path-drop", inst,
                   "omega_3(L) >= omega_3 - 1", lg, 3, om3.value - 1, OMEGA,
                   budget_ms)
        _one_sided(rep, "line-path-ge-scaled-edge-path", inst,
                   "pi_3(L) >= floor(omega_3 / 2)", lg, 3, om3.value // 2, PI,
                   budget_ms)
    if g.n < 4 or lg.n < 4:
        return
    inst4 = f"{inst};k=4"
    claim = ("line-path-ge-scaled-edge-path", inst4,
             "pi_4(L) >= floor(omega_4 / 4)")
    om4 = _value(rep, *claim, g, 4, OMEGA)
    if om4 is not None:
        _one_sided(rep, *claim, lg, 4, om4.value // 4, PI, budget_ms)
        _one_sided(rep, "line-edge-path-ge-scaled-edge-path", inst4,
                   "omega_4(L) >= floor(omega_4 / 4)", lg, 4, om4.value // 4,
                   OMEGA, budget_ms)


def _line_checks_deep(rep: SuiteReport, g: Graph, inst: str,
                      budget_ms: int | None) -> None:
    kap = connectivity(g)
    lg = line_graph(g).graph
    if lg.m == 0:
        return
    llg = line_graph(lg).graph
    kap_ll = connectivity(llg)
    rep.require("double-line-connectivity-growth", inst,
                "kappa(L(L)) >= 2*kappa - 2",
                f"kappa(LL)={kap_ll} kappa={kap}", kap_ll >= 2 * kap - 2)

    if llg.n >= 3:
        claim = ("double-line-path-drop", inst, "pi_3(L(L)) >= pi_3 - 1")
        pi3 = _value(rep, *claim, g, 3, PI)
        if pi3 is not None:
            _one_sided(rep, *claim, llg, 3, pi3.value - 1, PI, budget_ms)
    if g.n >= 4 and llg.n >= 4:
        claim = ("double-line-scaled-path-drop", inst,
                 "pi_4(L(L)) >= floor((pi_4 - 1) / 2)")
        pi4 = _value(rep, *claim, g, 4, PI)
        if pi4 is not None:
            _one_sided(rep, *claim, llg, 4, (pi4.value - 1) // 2, PI,
                       budget_ms)


def suite_linegraph(seed: int = 1, count: int = 50,
                    budget_ms: int | None = 20_000) -> SuiteReport:
    """Line-graph checks on count sampled graphs, and double-line-graph
    checks on count * 2 // 5 more (20 at the default 50)."""
    _check_count(count)
    count_deep = count * 2 // 5
    rep = SuiteReport("line", seed,
                      {"count": count, "count_deep": count_deep,
                       "budget_ms": budget_ms})

    c5 = cycle(5)
    lg5 = line_graph(c5).graph
    claim = ("cycle-self-line-graph", _desc(c5, "C_5"),
             "L(C_5) == C_5 up to labels and pi_3(L) >= omega_3 == 1")
    o5 = _value(rep, *claim, c5, 3, OMEGA)
    p5 = o5 and _value(rep, *claim, lg5, 3, PI)
    if p5 is not None:
        rep.require(*claim, f"omega_3={o5.value} pi_3(L)={p5.value}",
                    sorted(lg5.degrees()) == sorted(c5.degrees())
                    and lg5.m == c5.m and p5.value >= o5.value == 1)

    k4 = complete(4)
    claim = ("line-path-ge-base-edge-path", _desc(k4, "K_4"),
             "pi_3(L(K_4)) >= omega_3(K_4) == 2")
    ok4 = _value(rep, *claim, k4, 3, OMEGA)
    pl4 = ok4 and _value(rep, *claim, line_graph(k4).graph, 3, PI)
    if pl4 is not None:
        rep.require(*claim, f"omega_3={ok4.value} pi_3(L)={pl4.value}",
                    ok4.value == 2 and pl4.value >= 2)

    rng = random.Random(seed)
    shallow = RandomGraphSpec(n_min=4, n_max=6, m_min=4, m_max=9,
                              requirement="2-connected")
    for i in range(count):
        g = sample_graph(shallow, rng)
        _line_checks_shallow(rep, g, _desc(g, f"sample{i}"), budget_ms)
    deep = RandomGraphSpec(n_min=4, n_max=6, m_min=4, m_max=7,
                           requirement="2-connected")
    for i in range(count_deep):
        g = sample_graph(deep, rng)
        _line_checks_deep(rep, g, _desc(g, f"deep{i}"), budget_ms)
    return rep


# ---------------------------------------------------------------------------
# constructions

_CONSTRUCTION_BUDGET_MS = 10_000


def suite_construction(seed: int = 1, pairs=((2, 3), (2, 4), (3, 5)),
                       sample: int = 500,
                       budget_ms: int | None = _CONSTRUCTION_BUDGET_MS) -> SuiteReport:
    rep = SuiteReport("construction", seed,
                      {"pairs": [list(pq) for pq in pairs], "sample": sample,
                       "budget_ms": budget_ms})

    for n in range(3, 13):
        g = complete(n)
        bad = 0
        total = 0
        want = complete_graph_value(n, 3)
        for s in combinations(range(n), 3):
            fam = complete_graph_witness(n, s)
            total += 1
            if len(fam) != want or not verify_family(g, s, fam, PI):
                bad += 1
        rep.require("complete-witness-families", f"K_{n}",
                    "every triple gets a verified family of the formula size",
                    f"triples={total} failures={bad} size={want}", bad == 0)

    rng = random.Random(seed)
    for p, q in pairs:
        rows, cols = product_grid(p, q)
        inst = f"p={p};q={q};grid={rows}x{cols}"

        rep.require("line-of-bipartite-is-product", inst,
                    "L(K_a,b) coincides with K_a x K_b under index labels",
                    "checked", natural_iso_check(rows, cols))

        nverts = rows * cols
        if nverts <= 16:
            triples = list(combinations(range(nverts), 3))
        else:
            seen = set()
            while len(seen) < sample:
                seen.add(tuple(sorted(rng.sample(range(nverts), 3))))
            triples = sorted(seen)
        bad = 0
        cases = {}
        first_bad = ""
        for s in triples:
            w = product_witness(p, q, s)
            cases[w.case] = cases.get(w.case, 0) + 1
            if w.problems:
                bad += 1
                if not first_bad:
                    first_bad = f" first={s}:{w.problems[0]}"
        case_txt = ",".join(f"{k}:{v}" for k, v in sorted(cases.items()))
        rep.require("product-witness-families", inst,
                    "every sampled triple gets q verified disjoint paths",
                    f"triples={len(triples)} failures={bad} "
                    f"cases[{case_txt}]{first_bad}", bad == 0)

        instd = prescribed_instance(p, q, budget_ms=budget_ms)
        base, ref = instd.base_result, instd.refutation
        rep.units += base.units + ref.units
        if base.status == EXACT:
            rep.require("prescribed-base-value", inst,
                        "bipartite base triple path value == p exactly",
                        f"value={base.value} status=exact", base.value == p)
        else:
            rep.record("prescribed-base-value", inst,
                       "bipartite base triple path value == p exactly",
                       f"lower-bound={base.value} (budget-capped)",
                       INCONCLUSIVE if base.value <= p else FAIL)
        cert = instd.line_certificate
        rep.require("prescribed-line-certificate", inst,
                    "line graph carries a verified q-path lower bound",
                    f"terminals={cert.terminals} size={cert.value}",
                    not instd.line_problems)

        # either definite answer of the q + 1 probe is sound ("yes" makes
        # the family a strict lower bound), so only an unverifiable yes fails
        relation = ("probe whether q+1 disjoint paths fit at the certified "
                    "triple; a yes must carry an independently verified family")
        if ref.answer == "yes":
            sound = not instd.refutation_problems
            rep.record("prescribed-refutation", inst, relation,
                       f"answer=yes verified={sound} (local value exceeds q; "
                       "the family stays a valid lower bound)",
                       PASS if sound else FAIL)
        else:
            rep.record("prescribed-refutation", inst, relation,
                       f"answer={ref.answer}",
                       PASS if ref.answer == "no" else INCONCLUSIVE)
    return rep


# ---------------------------------------------------------------------------
# aggregation and serialization

def run_suite(name: str, seed: int = 1, count: int | None = None,
              max_n: int | None = None,
              budget_ms: int | None = None) -> SuiteReport:
    """One suite under the options of `pathconn verify`.

    count is the sampled suites' graph count.  max_n is the formulas
    suite's largest K_n, and caps the inequality suite's graphs, which
    never exceed that suite's default size.  The line and construction
    suites read budget_ms.  An option left None keeps the suite's default.
    """
    def given(**opts):
        return {key: val for key, val in opts.items() if val is not None}

    if count is not None:
        _check_count(count)
    if name == "formulas":
        return suite_formulas(**given(max_n=max_n))
    if name == "inequalities":
        if max_n is not None:
            _check_min_n("max_n", max_n)
            max_n = min(max_n, _INEQ_MAX_N)
        return suite_inequalities(seed, **given(count=count, n_max=max_n))
    if name == "line":
        return suite_linegraph(seed, **given(count=count, budget_ms=budget_ms))
    if name == "construction":
        return suite_construction(seed, **given(budget_ms=budget_ms))
    raise InputError(f"unknown suite {name!r}")


def run_all(seed: int = 1, count: int | None = None, max_n: int | None = None,
            budget_ms: int | None = None) -> list[SuiteReport]:
    """All four suites, with the options of run_suite, except that the
    line suite gets a quarter of count (default 50, against the
    inequality suite's 200)."""
    if max_n is not None:
        _check_min_n("max_n", max_n)
    line_count = None if count is None else count // 4
    return [run_suite(name, seed, line_count if name == "line" else count,
                      max_n, budget_ms) for name in SUITE_NAMES]


def reports_to_dict(reports: list[SuiteReport]) -> dict:
    return {
        "reports": [r.to_dict() for r in reports],
        "totals": {
            "checks": sum(len(r.checks) for r in reports),
            "passed": sum(r.passed for r in reports),
            "failed": sum(r.failed for r in reports),
            "inconclusive": sum(r.inconclusive for r in reports),
        },
    }


def serialize_reports(reports: list[SuiteReport]) -> str:
    return json.dumps(reports_to_dict(reports), sort_keys=True, indent=2) + "\n"


def render_reports(reports: list[SuiteReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"suite {r.suite}: {r.passed} passed, {r.failed} failed, "
                     f"{r.inconclusive} inconclusive ({len(r.checks)} checks, "
                     f"{r.units} units)")
        for c in r.checks:
            if c.verdict != PASS:
                lines.append(f"  [{c.verdict.upper()}] {c.claim} @ {c.instance}")
                lines.append(f"    expected {c.relation}; observed {c.observed}")
    total_fail = sum(r.failed for r in reports)
    total_inc = sum(r.inconclusive for r in reports)
    if total_fail:
        lines.append(f"RESULT: FAIL ({total_fail} failing checks)")
    elif total_inc:
        lines.append(f"RESULT: PASS with {total_inc} inconclusive checks")
    else:
        lines.append("RESULT: PASS")
    return "\n".join(lines) + "\n"


def exit_code(reports: list[SuiteReport]) -> int:
    if any(r.failed for r in reports):
        return 1
    if any(r.inconclusive for r in reports):
        return 2
    return 0
