import json

import pytest

import pathconn.witness as witness
from pathconn.cli import main
from pathconn.graphs import complete, net, parse_graph


def _gen(tmp_path, name, *argv):
    out = tmp_path / name
    assert main(["gen", *argv, "-o", str(out)]) == 0
    return out


def test_gen_simple_families(tmp_path, capsys):
    f = _gen(tmp_path, "k5.g", "--family", "complete", "--params", "5")
    assert parse_graph(f.read_text()) == complete(5)
    assert main(["gen", "--family", "net"]) == 0
    assert parse_graph(capsys.readouterr().out) == net()


def test_gen_arity_error(capsys):
    assert main(["gen", "--family", "bipartite", "--params", "3"]) == 3
    assert "2 parameter(s)" in capsys.readouterr().err


def test_gen_line_of_and_product(tmp_path, capsys):
    base = _gen(tmp_path, "k13.g", "--family", "star", "--params", "3")
    assert main(["gen", "--family", "line-of", "--input", str(base)]) == 0
    out = capsys.readouterr().out
    assert parse_graph(out) == complete(3)
    assert "label 0 0,1" in out  # line vertex 0 came from edge (0, 1)

    f2 = _gen(tmp_path, "p2.g", "--family", "path", "--params", "2")
    assert main(["gen", "--family", "product", "--input", str(f2),
                 "--input2", str(f2)]) == 0
    prod = parse_graph(capsys.readouterr().out)
    assert (prod.n, prod.m) == (4, 4)

    assert main(["gen", "--family", "line-of"]) == 3
    assert main(["gen", "--family", "product", "--input", str(f2)]) == 3
    capsys.readouterr()


def test_compute_global_and_local(tmp_path, capsys):
    f = _gen(tmp_path, "k5.g", "--family", "complete", "--params", "5")
    assert main(["compute", "--input", str(f), "--param", "pi", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "value=2" in out and "status=exact" in out and "  path " in out

    assert main(["compute", "--input", str(f), "--param", "pi", "--k", "3",
                 "--set", "0,2,4", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["value"] == 2 and rec["status"] == "exact"
    assert rec["witness_set"] == [0, 2, 4]
    assert len(rec["family"]) == 2


def test_compute_tree_output_lists_edges(tmp_path, capsys):
    f = _gen(tmp_path, "net.g", "--family", "net")
    assert main(["compute", "--input", str(f), "--param", "kappa",
                 "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "value=1" in out and "  tree " in out


def test_compute_cut_parameter(tmp_path, capsys):
    f = _gen(tmp_path, "net.g", "--family", "net")
    assert main(["compute", "--input", str(f), "--param", "kappa-cut",
                 "--k", "3", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["value"] == 2 and len(rec["witness_set"]) == 2

    assert main(["compute", "--input", str(f), "--param", "kappa-cut",
                 "--k", "3", "--set", "0,1,2"]) == 3
    capsys.readouterr()


def test_compute_budget_exhaustion_exits_two(tmp_path, capsys):
    f = _gen(tmp_path, "k6.g", "--family", "complete", "--params", "6")
    code = main(["compute", "--input", str(f), "--param", "pi", "--k", "3",
                 "--budget-ms", "0", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["status"] == "lower-bound"


def test_compute_input_validation(tmp_path, capsys):
    f = _gen(tmp_path, "k5.g", "--family", "complete", "--params", "5")
    assert main(["compute", "--input", str(f), "--param", "pi", "--k", "3",
                 "--set", "0,1"]) == 3
    assert main(["compute", "--input", str(f), "--param", "pi", "--k", "3",
                 "--set", "0,1,x"]) == 3
    assert main(["compute", "--input", str(tmp_path / "missing.g"),
                 "--param", "pi", "--k", "3"]) == 3
    bad = tmp_path / "bad.g"
    bad.write_text("e 0 1\n")
    assert main(["compute", "--input", str(bad), "--param", "pi",
                 "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_witness_single_triple(capsys):
    assert main(["witness", "--p", "2", "--q", "3", "--set", "0,5,10",
                 "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["case"] == "rows-and-columns-distinct"
    assert rec["valid"] and len(rec["family"]) == 3


def test_witness_reports_a_defective_family(monkeypatch, capsys):
    real = witness._product_family
    monkeypatch.setattr(witness, "_product_family",
                        lambda rows, cols, trip: real(rows, cols, trip)[:-1])
    assert main(["witness", "--p", "2", "--q", "3", "--set", "0,5,10",
                 "--json"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["valid"] is False and rec["violations"] == ["size 2 != 3"]
    assert len(rec["family"]) == 2


def test_witness_requires_set_or_all(capsys):
    assert main(["witness", "--p", "2", "--q", "3"]) == 3
    assert main(["witness", "--p", "1", "--q", "3", "--all"]) == 3
    capsys.readouterr()


def test_witness_all_triples(capsys):
    assert main(["witness", "--p", "2", "--q", "3", "--all", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["triples"] == 560 and rec["failures"] == 0
    assert sum(rec["cases"].values()) == 560


def test_verify_formulas_small(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "formulas", "--max-n", "4",
                 "--json", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["totals"]["failed"] == 0
    assert data["reports"][0]["suite"] == "formulas"

    assert main(["verify", "--suite", "formulas", "--max-n", "4"]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_verify_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify", "--suite", "inequalities", "--count", "5",
                     "--seed", "2", "--max-n", "6", "--json",
                     "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_keeps_an_explicit_zero_budget(tmp_path):
    for suite, extra in (("line", ["--count", "1"]), ("construction", [])):
        out = tmp_path / f"{suite}.json"
        assert main(["verify", "--suite", suite, *extra, "--budget-ms", "0",
                     "--json", "-o", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data["reports"][0]["params"]["budget_ms"] == 0


def test_verify_honours_explicit_zero_count_and_max_n(tmp_path, capsys):
    for suite, args, param in (
            ("inequalities", ["--count", "0", "--max-n", "4"], "count"),
            ("line", ["--count", "0"], "count"),
            ("formulas", ["--max-n", "0"], "max_n")):
        out = tmp_path / f"{suite}.json"
        assert main(["verify", "--suite", suite, *args,
                     "--json", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["reports"][0]["params"][param] == 0
    line = json.loads((tmp_path / "line.json").read_text())["reports"][0]
    assert line["params"]["count_deep"] == 0
    assert not [c for c in line["checks"]
                if c["instance"].startswith(("sample", "deep"))]
    assert main(["verify", "--suite", "line", "--count", "-1"]) == 3
    assert "count must be >= 0" in capsys.readouterr().err


def test_verify_rejects_max_n_below_inequality_graphs(capsys):
    for suite in ("inequalities", "all"):
        assert main(["verify", "--suite", suite, "--max-n", "3"]) == 3
        assert "max_n must be >= 4" in capsys.readouterr().err


def test_entry_point_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
