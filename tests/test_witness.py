import random
from itertools import combinations

import pytest

import pathconn.witness as witness
from pathconn.graphs import InputError, complete, cycle, path
from pathconn.steiner import (EXACT, KAPPA, LAMBDA, LOWER_BOUND, OMEGA, PI,
                              PackDecision, PackingCertificate)
from pathconn.witness import (
    ProductCoordinates, complete_graph_witness,
    family_violations, prescribed_instance, product_witness,
    product_witness_family, product_witness_graph, verify_family,
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


def test_product_coordinates_round_trip():
    grid = ProductCoordinates(4, 6)
    for v in range(24):
        r, c = grid.coords(v)
        assert grid.flat(r, c) == v
    with pytest.raises(InputError):
        grid.flat(4, 0)
    with pytest.raises(InputError):
        grid.coords(24)


def test_product_graph_shape():
    lg = product_witness_graph(2, 3)
    assert lg.graph.n == 16
    assert set(lg.graph.degrees()) == {6}
    with pytest.raises(InputError):
        product_witness_graph(1, 3)
    with pytest.raises(InputError):
        product_witness_graph(2, 2)


def test_product_families_exhaustive_at_smallest_size():
    g = product_witness_graph(2, 3).graph
    seen = {}
    for s in combinations(range(16), 3):
        fam = product_witness_family(2, 3, s)
        assert len(fam) == 3
        assert verify_family(g, s, fam, PI), s
        case = product_witness(2, 3, s).case
        seen[case] = seen.get(case, 0) + 1
    assert set(seen) == set(CASES)
    assert sum(seen.values()) == 560


def test_product_families_sampled_at_larger_sizes():
    rng = random.Random(5)
    for p, q in ((2, 4), (3, 4)):
        g = product_witness_graph(p, q).graph
        for _ in range(120):
            s = tuple(sorted(rng.sample(range(g.n), 3)))
            fam = product_witness_family(p, q, s)
            assert len(fam) == q
            assert verify_family(g, s, fam, PI), (p, q, s)


def test_product_family_validates_input():
    with pytest.raises(InputError):
        product_witness_family(2, 3, (0, 1))
    with pytest.raises(InputError):
        product_witness_family(2, 3, (0, 1, 99))


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
    # the raising entry point keeps its contract
    with pytest.raises(AssertionError, match="size 2 != 3"):
        product_witness_family(2, 3, (0, 5, 10))
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
