"""Command line interface: generate graphs, compute values, emit witnesses,
and run the verification suites.

Exit codes: 0 success, 1 suite failure, 2 inconclusive (budget-limited or
non-exact result), 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from .graphs import GENERATORS, Graph, InputError, parse_graph, serialize_graph
from .invariants import k_connectivity_cut
from .steiner import (EXACT, KAPPA, LAMBDA, OMEGA, PI, ZERO,
                      global_connectivity, local_connectivity, terminal_set)
from .suites import (SUITE_NAMES, exit_code, render_reports, run_all,
                     run_suite, serialize_reports)
from .transforms import cartesian_product, line_graph
from .witness import product_witness, product_witness_graph

_PARAMS = {"pi": PI, "omega": OMEGA, "kappa": KAPPA, "lambda": LAMBDA}


def _read_graph(fname: str) -> Graph:
    try:
        with open(fname, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {fname}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise InputError(f"bad vertex list {text!r}") from exc


def _cmd_gen(args) -> int:
    fam = args.family
    if fam in GENERATORS:
        fn, arity = GENERATORS[fam]
        params = args.params or []
        if len(params) != arity:
            raise InputError(f"family {fam!r} needs {arity} parameter(s), "
                             f"got {len(params)}")
        g = fn(*params)
        _emit(serialize_graph(g, (f"family {fam} "
                                  f"{' '.join(str(p) for p in params)}".strip(),)),
              args.output)
        return 0
    if fam == "line-of":
        if not args.input:
            raise InputError("gen --family line-of needs --input FILE")
        lg = line_graph(_read_graph(args.input))
        _emit(lg.serialize((f"line graph of {args.input}",)), args.output)
        return 0
    if fam == "product":
        if not args.input or not args.input2:
            raise InputError("gen --family product needs --input and --input2")
        lg = cartesian_product(_read_graph(args.input), _read_graph(args.input2))
        _emit(lg.serialize((f"product of {args.input} and {args.input2}",)),
              args.output)
        return 0
    raise InputError(f"unknown family {fam!r}")


def _cmd_compute(args) -> int:
    g = _read_graph(args.input)
    sel = _parse_set(args.set) if args.set else None

    if args.param == "kappa-cut":
        if sel is not None:
            raise InputError("kappa-cut is a global parameter; --set not supported")
        value, cut = k_connectivity_cut(g, args.k, with_cut=True)
        record = {"param": args.param, "k": args.k, "value": value,
                  "status": "exact", "witness_set": list(cut), "family": []}
        if args.json:
            _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", None)
        else:
            _emit(f"param=kappa-cut k={args.k} value={value} status=exact "
                  f"removed={','.join(map(str, cut)) or '-'}\n", None)
        return 0

    variant = _PARAMS.get(args.param)
    if variant is None:
        raise InputError(f"unknown parameter {args.param!r}")
    if sel is not None:
        s = terminal_set(g, sel)
        if len(s) != args.k:
            raise InputError(f"--set has {len(s)} vertices but --k is {args.k}")
        cert = local_connectivity(g, s, variant, budget_ms=args.budget_ms)
        value, status, terminals, family = (cert.value, cert.status, s,
                                            cert.family)
    else:
        res = global_connectivity(g, args.k, variant, budget_ms=args.budget_ms)
        value, status, terminals = res.value, res.status, res.terminals
        family = res.certificate.family if res.certificate else ()

    fam_lists = [[list(e) for e in mem] if variant in (KAPPA, LAMBDA)
                 else list(mem) for mem in family]
    record = {"param": args.param, "k": args.k, "value": value,
              "status": status,
              "witness_set": list(terminals) if terminals else [],
              "family": fam_lists}
    if args.json:
        _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", None)
    else:
        terms = ",".join(map(str, terminals)) if terminals else "-"
        lines = [f"param={args.param} k={args.k} value={value} "
                 f"status={status} terminals={terms}"]
        for mem in family:
            if variant in (KAPPA, LAMBDA):
                lines.append("  tree " + " ".join(f"{u}-{v}" for u, v in mem))
            else:
                lines.append("  path " + "-".join(map(str, mem)))
        _emit("\n".join(lines) + "\n", None)
    return 0 if status in (EXACT, ZERO) else 2


def _witness_record(p: int, q: int, s) -> dict:
    w = product_witness(p, q, s)
    return {
        "p": p, "q": q, "set": list(s), "case": w.case,
        "family": [list(mem) for mem in w.family],
        "valid": not w.problems, "violations": list(w.problems),
    }


def _cmd_witness(args) -> int:
    p, q = args.p, args.q
    if args.set is None and not args.all:
        raise InputError("witness needs --set i,j,k or --all")
    if args.set is not None:
        rec = _witness_record(p, q, _parse_set(args.set))
        if args.json:
            _emit(json.dumps(rec, sort_keys=True, indent=2) + "\n", args.output)
        else:
            lines = [f"p={p} q={q} set={','.join(map(str, rec['set']))} "
                     f"case={rec['case']} valid={rec['valid']}"]
            lines += ["  path " + "-".join(map(str, mem)) for mem in rec["family"]]
            lines += [f"  violation: {v}" for v in rec["violations"]]
            _emit("\n".join(lines) + "\n", args.output)
        return 0 if rec["valid"] else 1

    total = 0
    cases: dict[str, int] = {}
    for s in combinations(range(product_witness_graph(p, q).graph.n), 3):
        rec = _witness_record(p, q, s)
        total += 1
        cases[rec["case"]] = cases.get(rec["case"], 0) + 1
        if not rec["valid"]:
            if args.json:
                _emit(json.dumps({"checked": total, "first_failure": rec},
                                 sort_keys=True, indent=2) + "\n", args.output)
            else:
                _emit(f"FAIL after {total} triples at set="
                      f"{','.join(map(str, rec['set']))}: "
                      f"{'; '.join(rec['violations'])}\n", args.output)
            return 1
    summary = {"p": p, "q": q, "triples": total, "failures": 0,
               "cases": dict(sorted(cases.items()))}
    if args.json:
        _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.output)
    else:
        case_txt = ", ".join(f"{k}: {v}" for k, v in sorted(cases.items()))
        _emit(f"p={p} q={q}: all {total} triples valid ({case_txt})\n",
              args.output)
    return 0


def _cmd_verify(args) -> int:
    # an absent option keeps the suite's own default
    opts = {"seed": args.seed, "count": args.count, "max_n": args.max_n,
            "budget_ms": args.budget_ms}
    reports = (run_all(**opts) if args.suite == "all"
               else [run_suite(args.suite, **opts)])
    text = serialize_reports(reports) if args.json else render_reports(reports)
    _emit(text, args.output)
    return exit_code(reports)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pathconn",
        description="Exact path and tree connectivity values, witnesses, "
                    "and verification suites on small graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph in the text format")
    gen.add_argument("--family", required=True,
                     choices=sorted(GENERATORS) + ["line-of", "product"])
    gen.add_argument("--params", type=int, nargs="*")
    gen.add_argument("--input", help="base graph file (line-of, product)")
    gen.add_argument("--input2", help="second factor file (product)")
    gen.add_argument("-o", "--output")
    gen.set_defaults(fn=_cmd_gen)

    comp = sub.add_parser("compute", help="compute a connectivity value")
    comp.add_argument("--input", required=True)
    comp.add_argument("--param", required=True,
                      choices=sorted(_PARAMS) + ["kappa-cut"])
    comp.add_argument("--k", type=int, required=True)
    comp.add_argument("--set", help="terminal vertices v1,v2,...")
    comp.add_argument("--budget-ms", type=int, dest="budget_ms")
    comp.add_argument("--json", action="store_true")
    comp.set_defaults(fn=_cmd_compute)

    wit = sub.add_parser("witness",
                         help="construct disjoint path families in products")
    wit.add_argument("--p", type=int, required=True)
    wit.add_argument("--q", type=int, required=True)
    wit.add_argument("--set", help="terminal triple i,j,k (flat ids)")
    wit.add_argument("--all", action="store_true",
                     help="check every vertex triple")
    wit.add_argument("--json", action="store_true")
    wit.add_argument("-o", "--output")
    wit.set_defaults(fn=_cmd_witness)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", required=True,
                     choices=list(SUITE_NAMES) + ["all"])
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--max-n", type=int, dest="max_n")
    ver.add_argument("--count", type=int)
    ver.add_argument("--budget-ms", type=int, dest="budget_ms")
    ver.add_argument("--json", action="store_true")
    ver.add_argument("-o", "--output")
    ver.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
