import json
import random
from itertools import combinations

import pytest

import pathconn.witness as witness
from pathconn.cli import main
from pathconn.graphs import InputError, complete, cycle, path
from pathconn.steiner import (EXACT, KAPPA, LAMBDA, LOWER_BOUND, OMEGA, PI,
                              PackDecision, PackingCertificate)
from pathconn.suites import FAIL, suite_construction
from pathconn.transforms import line_graph
from pathconn.witness import (
    complete_graph_witness, family_violations, prescribed_instance,
    product_witness, product_witness_graph, verify_family,
)

CASES = (
    "one-row", "one-column", "rows-and-columns-distinct",
    "shared-row", "shared-row-stacked", "shared-column",
)


def test_checker_accepts_a_valid_path_family():
    g = cycle(4)
    fam = ((0, 1, 2), (0, 3, 2))
    assert verify_family(g, (0, 2), fam, PI)
    assert verify_family(g, (0, 2), fam, OMEGA)


def test_checker_accepts_a_valid_tree_family():
    g = complete(4)
    fam = ((((0, 1), (0, 2))), (((1, 3), (2, 3))))
    assert verify_family(g, (1, 2), fam, KAPPA)


@pytest.mark.parametrize("fam,fragment", [
    ((((0, 1, 2), (0, 1, 2))), "share edges"),          # identical members
    ((((0, 1, 2), (2, 1, 0))), "share edges"),          # reversed duplicate
    (((0, 2, 1),), "not an edge"),                      # hop absent from graph
    (((0, 1, 1, 2),), "not a simple path"),             # repeated vertex
    (((0, 1),), "missing terminals"),                   # terminal 2 not hit
    (((0,),), "not a simple path"),                     # too short
])
def test_checker_flags_bad_paths(fam, fragment):
    g = path(3)  # 0-1-2
    problems = family_violations(g, (0, 2), fam, PI)
    assert any(fragment in p for p in problems)


def test_checker_flags_shared_interior_only_for_internal_variants():
    g = complete(5)
    fam = ((0, 2, 1), (0, 3, 2, 4, 1))  # edge-disjoint, both visit vertex 2
    assert family_violations(g, (0, 1), fam, PI) == [
        "members 0 and 1 share non-terminals [2]"]
    # the edge-disjoint reading allows a shared interior vertex
    assert verify_family(g, (0, 1), fam, OMEGA)
    assert verify_family(g, (0, 1), ((0, 2, 1), (0, 3, 1)), PI)


@pytest.mark.parametrize("fam,fragment", [
    (((((0, 1), (2, 3)),)), "do not form a tree"),      # disconnected forest
    (((((0, 1), (1, 2), (0, 2)),)), "do not form a tree"),  # cycle
    (((((0, 1), (1, 0)),)), "repeated edge"),
    (((((0, 5),),)), "not an edge"),
    (((((0, 1),),)), "missing terminals"),
    ((((),)), "do not form a tree"),                    # empty member
])
def test_checker_flags_bad_trees(fam, fragment):
    g = complete(4)
    problems = family_violations(g, (0, 2), fam, KAPPA)
    assert any(fragment in p for p in problems)


def test_checker_flags_edge_sharing_trees():
    g = complete(4)
    fam = (((0, 1), (1, 2)), ((0, 1), (0, 2)))
    for variant in (KAPPA, LAMBDA):
        assert any("share edges" in p
                   for p in family_violations(g, (0, 2), fam, variant))


def test_complete_witness_counts_and_verifies():
    for n in range(3, 11):
        g = complete(n)
        triples = (list(combinations(range(n), 3)) if n <= 7
                   else [(0, 1, 2), (0, n // 2, n - 1), (n - 3, n - 2, n - 1)])
        for s in triples:
            fam = complete_graph_witness(n, s)
            assert len(fam) == n // 2
            assert verify_family(g, s, fam, PI), (n, s)


def test_complete_witness_validates_input():
    with pytest.raises(InputError):
        complete_graph_witness(5, (0, 1))
    with pytest.raises(InputError):
        complete_graph_witness(4, (0, 1, 9))


def test_product_graph_shape():
    lg = product_witness_graph(2, 3)
    assert lg.graph.n == 16
    assert set(lg.graph.degrees()) == {6}
    assert product_witness_graph(2, 3) is lg
    with pytest.raises(InputError):
        product_witness_graph(1, 3)
    with pytest.raises(InputError):
        product_witness_graph(2, 2)


def test_product_families_exhaustive_at_smallest_size():
    g = product_witness_graph(2, 3).graph
    seen = {}
    for s in combinations(range(16), 3):
        w = product_witness(2, 3, s)
        assert w.problems == (), s
        assert len(w.family) == 3
        assert verify_family(g, s, w.family, PI), s
        seen[w.case] = seen.get(w.case, 0) + 1
    assert set(seen) == set(CASES)
    assert sum(seen.values()) == 560


def test_product_families_sampled_at_larger_sizes():
    rng = random.Random(5)
    for p, q in ((2, 4), (3, 4)):
        g = product_witness_graph(p, q).graph
        for _ in range(120):
            s = tuple(sorted(rng.sample(range(g.n), 3)))
            w = product_witness(p, q, s)
            assert w.problems == (), (p, q, s)
            assert len(w.family) == q
            assert verify_family(g, s, w.family, PI), (p, q, s)


def test_product_family_validates_input():
    with pytest.raises(InputError):
        product_witness(2, 3, (0, 1))
    with pytest.raises(InputError):
        product_witness(2, 3, (0, 1, 99))
    with pytest.raises(InputError):
        product_witness(1, 3, (0, 1, 2))


def test_prescribed_instance_end_to_end():
    inst = prescribed_instance(2, 3, budget_ms=2_000)
    assert inst.base_result.value == 2
    assert inst.base_result.status == EXACT
    assert inst.line.graph == product_witness_graph(2, 3).graph
    cert = inst.line_certificate
    assert len(cert.family) == 3
    assert verify_family(inst.line.graph, cert.terminals, cert.family, PI)
    assert inst.line_problems == ()
    assert inst.refutation.answer in ("no", "unknown", "yes")


def test_prescribed_instance_probe_resolves_with_larger_budget():
    # With enough budget the probe finds a verified 4-path family at the
    # chosen triple: the 3-path construction is a strict lower bound there,
    # and the instance must report that instead of treating it as an error.
    inst = prescribed_instance(2, 3, budget_ms=60_000)
    ref = inst.refutation
    assert ref.answer == "yes"
    fam = ref.certificate.family
    assert len(fam) == 4
    assert verify_family(inst.line.graph, inst.line_certificate.terminals,
                         fam, PI)
    assert inst.refutation_problems == ()


def _drop_last_path(monkeypatch):
    real = witness._product_family
    monkeypatch.setattr(witness, "_product_family",
                        lambda rows, cols, trip: real(rows, cols, trip)[:-1])


def test_defective_family_is_reported_not_raised(monkeypatch):
    _drop_last_path(monkeypatch)
    w = product_witness(2, 3, (0, 5, 10))
    assert w.case == "rows-and-columns-distinct"
    assert len(w.family) == 2 and w.problems == ("size 2 != 3",)
    inst = prescribed_instance(2, 3, budget_ms=0)
    assert inst.line_problems == ("size 2 != 3",)


def test_unsound_probe_answer_is_reported_not_raised(monkeypatch):
    def bogus(g, s, t, variant, budget_ms=None):
        fam = tuple(tuple(s) for _ in range(t))  # t copies of one path
        return PackDecision("yes", PackingCertificate(variant, s, fam,
                                                      LOWER_BOUND), 1)

    monkeypatch.setattr(witness, "pack_at_least", bogus)
    inst = prescribed_instance(2, 3, budget_ms=0)
    assert inst.refutation.answer == "yes"
    assert any("share edges" in p for p in inst.refutation_problems)
    assert inst.line_problems == ()


def _cell_outside_grid(monkeypatch):
    """Builders that route the first path through cell (rows, 0), one row
    below the grid: flat id rows * cols, which is no vertex."""
    real = witness._product_family

    def build(rows, cols, trip):
        fam = real(rows, cols, trip)
        return [[fam[0][0], (rows, 0), *fam[0][1:]], *fam[1:]]

    monkeypatch.setattr(witness, "_product_family", build)


def test_out_of_grid_cell_is_reported_not_raised(monkeypatch):
    _cell_outside_grid(monkeypatch)
    w = product_witness(2, 3, (0, 5, 10))
    assert w.case == "rows-and-columns-distinct"
    assert w.family[0][:2] == (0, 16)
    assert w.problems == ("member 0: (0, 16) is not an edge of the graph",)
    inst = prescribed_instance(2, 3, budget_ms=0)
    assert inst.line_problems and "is not an edge" in inst.line_problems[0]


def test_out_of_grid_cell_fails_the_command_and_the_suite(monkeypatch, capsys):
    _cell_outside_grid(monkeypatch)
    assert main(["witness", "--p", "2", "--q", "3", "--set", "0,5,10",
                 "--json"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["valid"] is False and rec["family"][0][:2] == [0, 16]
    rep = suite_construction(seed=5, pairs=((2, 3),), sample=10,
                             budget_ms=100)
    verdicts = {c.claim: c.verdict for c in rep.checks}
    assert verdicts["product-witness-families"] == FAIL
    assert verdicts["prescribed-line-certificate"] == FAIL


def test_line_graph_that_differs_from_the_product_is_reported(monkeypatch):
    # the line graph of the base with one edge removed has 15 vertices
    monkeypatch.setattr(witness, "line_graph",
                        lambda base: line_graph(base.without_edge(0, 4)))
    inst = prescribed_instance(2, 3, budget_ms=0)
    assert inst.line.graph.n == 15
    assert inst.line_problems == (
        "line graph does not match the product layout",)
    assert len(inst.line_certificate.family) == 3
