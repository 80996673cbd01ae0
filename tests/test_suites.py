import json

import pytest

import pathconn.steiner as steiner
import pathconn.suites as suites
import pathconn.witness as witness
from pathconn.graphs import InputError
from pathconn.steiner import (EXACT, LOWER_BOUND, GlobalResult, PackDecision,
                              PackingCertificate)
from pathconn.suites import (
    FAIL, INCONCLUSIVE, PASS, CheckResult, SuiteReport, exit_code,
    render_reports, reports_to_dict, run_all, run_suite, serialize_reports,
    suite_construction, suite_formulas, suite_inequalities, suite_linegraph,
)


def test_formulas_suite_passes_at_reduced_scale():
    rep = suite_formulas(max_n=5)
    assert rep.failed == 0
    assert rep.inconclusive == 0
    assert rep.passed == len(rep.checks) > 0
    claims = {c.claim for c in rep.checks}
    assert "complete-path-value" in claims
    assert "bipartite-triple-path-value" in claims
    assert "star-triple-path-zero" in claims


def test_inequalities_suite_passes_at_reduced_scale():
    rep = suite_inequalities(seed=5, count=8, n_max=6, m_max=10)
    assert rep.failed == 0, [c for c in rep.checks if c.verdict == FAIL][:3]
    claims = {c.claim for c in rep.checks}
    assert "tree-vs-cut-discrimination" in claims
    assert "pair-path-equals-connectivity" in claims
    assert "path-ge-scaled-connectivity" in claims


def test_line_suite_passes_at_reduced_scale():
    rep = suite_linegraph(seed=5, count=6, budget_ms=10_000)
    assert rep.failed == 0, [c for c in rep.checks if c.verdict == FAIL][:3]
    claims = {c.claim for c in rep.checks}
    assert "cycle-self-line-graph" in claims
    assert "line-path-ge-base-edge-path" in claims
    assert "double-line-path-drop" in claims


def test_construction_suite_passes_at_reduced_scale():
    rep = suite_construction(seed=5, pairs=((2, 3),), sample=50,
                             budget_ms=4_000)
    assert rep.failed == 0, [c for c in rep.checks if c.verdict == FAIL][:3]
    claims = {c.claim for c in rep.checks}
    assert "product-witness-families" in claims
    assert "prescribed-base-value" in claims
    assert "complete-witness-families" in claims


def test_construction_suite_accepts_verified_probe_resolution():
    # A large enough probe budget resolves the optimality question at the
    # chosen triple with a verified larger family; that is a sound outcome
    # and must pass (the construction is still a valid lower bound).
    rep = suite_construction(seed=5, pairs=((2, 3),), sample=10,
                             budget_ms=20_000)
    assert rep.failed == 0, [c for c in rep.checks if c.verdict == FAIL][:3]
    probes = [c for c in rep.checks if c.claim == "prescribed-refutation"]
    assert len(probes) == 1
    assert probes[0].observed.startswith("answer=yes verified=True")
    assert probes[0].verdict == PASS


def test_reports_serialize_deterministically():
    reports = [suite_formulas(max_n=4), suite_inequalities(seed=2, count=4)]
    again = [suite_formulas(max_n=4), suite_inequalities(seed=2, count=4)]
    assert serialize_reports(reports) == serialize_reports(again)
    data = json.loads(serialize_reports(reports))
    assert [r["suite"] for r in data["reports"]] == ["formulas", "inequalities"]
    for r in data["reports"]:
        assert r["totals"]["checks"] == len(r["checks"])


def test_different_seed_changes_sampled_instances():
    a = suite_inequalities(seed=2, count=4)
    b = suite_inequalities(seed=3, count=4)
    assert {c.instance for c in a.checks} != {c.instance for c in b.checks}


def test_render_mentions_result_and_counts():
    rep = suite_formulas(max_n=4)
    text = render_reports([rep])
    assert "suite formulas:" in text
    assert "RESULT: PASS" in text


def test_exit_codes():
    ok = SuiteReport("formulas", 1, {})
    ok.record("a", "i", "r", "o", PASS)
    bad = SuiteReport("formulas", 1, {})
    bad.record("a", "i", "r", "o", FAIL)
    soft = SuiteReport("formulas", 1, {})
    soft.record("a", "i", "r", "o", INCONCLUSIVE)
    assert exit_code([ok]) == 0
    assert exit_code([ok, soft]) == 2
    assert exit_code([ok, soft, bad]) == 1
    assert "RESULT: FAIL" in render_reports([bad])


def test_run_all_covers_every_suite_at_tiny_scale():
    reports = run_all(seed=2, count=4, max_n=4, budget_ms=4_000)
    assert [r.suite for r in reports] == list(suites.SUITE_NAMES)
    assert sum(r.failed for r in reports) == 0


def test_small_max_n_is_rejected_by_name():
    with pytest.raises(InputError, match=r"^max_n must be >= 4"):
        run_all(max_n=3)
    with pytest.raises(InputError, match=r"^n_max must be >= 4"):
        suite_inequalities(n_max=3)


def test_negative_count_is_rejected_by_name():
    calls = (lambda: suite_linegraph(count=-5),
             lambda: suite_inequalities(count=-1),
             lambda: run_suite("inequalities", count=-1),
             lambda: run_suite("formulas", count=-1))
    for call in calls:
        with pytest.raises(InputError, match=r"^count must be >= 0, got -"):
            call()


def test_line_report_counts_every_unit_it_spends(monkeypatch):
    """rep.units covers the threshold decisions as well as the exact values."""
    charged = []

    class CountingBudget(steiner.WorkBudget):
        def charge(self, units):
            charged.append(units)
            super().charge(units)

    monkeypatch.setattr(steiner, "WorkBudget", CountingBudget)
    rep = suite_linegraph(seed=5, count=3, budget_ms=2_000)
    assert rep.units == sum(charged) > 0


def test_corrupted_solver_is_caught():
    """Harness sensitivity: an off-by-one solver must produce failures."""
    real = suites.global_connectivity

    def lying(g, k, variant, budget_ms=None):
        res = real(g, k, variant, budget_ms=budget_ms)
        return GlobalResult(res.variant, res.k, res.value + 1, EXACT,
                            res.terminals, res.certificate, res.units)

    suites.global_connectivity = lying
    try:
        rep = suite_formulas(max_n=4)
    finally:
        suites.global_connectivity = real
    assert rep.failed >= 1
    failing = [c for c in rep.checks if c.verdict == FAIL]
    # the failing record names a reproducible instance
    assert all(c.instance for c in failing)


def test_capped_values_are_inconclusive_never_failed():
    """Every non-exact solver result gives exactly one inconclusive check."""
    real = suites.global_connectivity
    calls = []

    def capped(g, k, variant, budget_ms=None):
        calls.append((g, k, variant))
        return GlobalResult(variant, k, 0, LOWER_BOUND, None, None, 1)

    suites.global_connectivity = capped
    try:
        reports = [suite_formulas(max_n=4),
                   suite_inequalities(seed=5, count=3, n_max=5, m_max=8),
                   suite_linegraph(seed=5, count=3, budget_ms=2_000)]
    finally:
        suites.global_connectivity = real
    for rep in reports:
        capped_checks = [c for c in rep.checks if c.verdict == INCONCLUSIVE]
        assert rep.failed == 0, [c for c in rep.checks if c.verdict == FAIL]
        assert len(capped_checks) >= 1
        assert all(c.observed == "budget-capped" for c in capped_checks)
    assert sum(r.inconclusive for r in reports) == len(calls)
    assert sum(r.units for r in reports) == len(calls)


def test_corrupted_checker_is_caught(monkeypatch):
    """A verifier that rejects everything must fail the construction suite."""
    monkeypatch.setattr(witness, "family_violations",
                        lambda g, s, fam, variant: ["injected defect"])
    rep = suite_construction(seed=5, pairs=((2, 3),), sample=10,
                             budget_ms=2_000)
    assert rep.failed >= 1


def test_defective_construction_is_a_failed_check(monkeypatch):
    """A builder that drops a path gives fail records, not an exception."""
    real = witness._product_family
    monkeypatch.setattr(witness, "_product_family",
                        lambda rows, cols, trip: real(rows, cols, trip)[:-1])
    rep = suite_construction(seed=5, pairs=((2, 3),), sample=10,
                             budget_ms=100)
    verdicts = {c.claim: c for c in rep.checks}
    fams = verdicts["product-witness-families"]
    assert fams.verdict == FAIL and "failures=560" in fams.observed
    assert "size 2 != 3" in fams.observed
    assert verdicts["prescribed-line-certificate"].verdict == FAIL


def test_unsound_probe_answer_is_a_failed_check(monkeypatch):
    """A "yes" whose family does not verify fails prescribed-refutation."""
    def bogus(g, s, t, variant, budget_ms=None):
        fam = tuple(tuple(s) for _ in range(t))  # t copies of one path
        return PackDecision("yes", PackingCertificate(variant, s, fam,
                                                      LOWER_BOUND), 1)

    monkeypatch.setattr(witness, "pack_at_least", bogus)
    rep = suite_construction(seed=5, pairs=((2, 3),), sample=10,
                             budget_ms=100)
    (ref,) = [c for c in rep.checks if c.claim == "prescribed-refutation"]
    assert ref.verdict == FAIL
    assert ref.observed.startswith("answer=yes verified=False")
