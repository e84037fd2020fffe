"""Command-line front end.

Verbs: gen (corpus), complete (family operators), check (one suite, or
every suite in turn with --suite all), counterexample (named constructions),
ordinal (CNF calculus), render (DOT).
Exit codes: 0 success, 1 a check failed, 2 usage or bad input, 3 a
capacity or search budget was exhausted.  All output is deterministic;
--seed is accepted for interface stability but nothing consumes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .completions import chain_ideals, downsets, fdown, ideals, iterate_id
from .morphisms import DEFAULT_BUDGET, BudgetExceeded
from .poset import CapacityExceeded, PosetError, from_up_rows
from .serialize import (
    family_order_from_json,
    family_to_json,
    json_dumps,
    map_to_json,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from .verification import (
    FAILS,
    PER_INSTANCE,
    SUITES,
    UNKNOWN,
    build_atoms_lattice,
    build_chain_bundle,
    build_idemb_tower,
    generate_corpus,
    run_suite,
    summarize,
)

COMPLETE_OPS = ("down", "id", "Id", "chid", "chId", "fdown", "idpow")
# Id(P) is isomorphic to P for finite P, so iterating it further shows nothing
# new.  This cap bounds the number of stages; it does not bound their cost.
# Each stage's labels nest the previous stage's, so their length grows with
# --k, and render_elemset's LABEL_CAP is what stops a long run (exit 3).
IDPOW_MAX_K = 64


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posetideals",
        description="finite poset completions, morphism searches, and checks")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--budget", type=int, default=None,
                    help="backtracking node budget (env POSETIDEALS_BUDGET)")
    ap.add_argument("--seed", type=int, default=None,
                    help="reserved; all algorithms are deterministic")
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="emit the corpus of all small posets")
    g.add_argument("--max-n", type=int, default=5)
    g.add_argument("--out", default="-")

    c = sub.add_parser("complete", help="apply a completion operator")
    c.add_argument("--op", choices=COMPLETE_OPS, required=True)
    c.add_argument("--k", type=int, default=1, help="iterations for idpow")
    c.add_argument("--in", dest="inp", default="-", help="poset JSON file")
    c.add_argument("--out", default="-")

    k = sub.add_parser("check", help="run a verification suite")
    k.add_argument("--suite", choices=SUITES + ("all",), required=True,
                   help="one suite, or all of them in turn")
    k.add_argument("--max-n", type=int, default=5)
    k.add_argument("--k", type=int, default=3)
    k.add_argument("--out", default="-")

    x = sub.add_parser("counterexample", help="emit a named construction")
    x.add_argument("--name", choices=("chain-bundle", "atoms", "idemb-tower"),
                   required=True)
    x.add_argument("--k", type=int, default=3,
                   help="size parameter; stage count for idemb-tower")
    x.add_argument("--in", dest="inp", default=None,
                   help="base lattice for idemb-tower (default: diamond)")
    x.add_argument("--out", default="-")

    o = sub.add_parser("ordinal", help="evaluate ordinal expressions")
    o.add_argument("--expr", help="e.g. 'w^2*3 + w + 5' or 'id(w+1)'")
    o.add_argument("--product",
                   help="comma-separated chain descriptors, e.g. 'w,w1'")

    r = sub.add_parser("render", help="emit a DOT Hasse diagram")
    r.add_argument("--in", dest="inp", default="-",
                   help="poset or family JSON file")
    r.add_argument("--out", default="-")
    return ap


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _diamond():
    return from_up_rows((0b1111, 0b1010, 0b1100, 0b1000),
                        labels=("0", "a", "b", "1"))


def _cmd_gen(args) -> int:
    corpus = generate_corpus(args.max_n)
    if args.format == "json":
        lines = [json_dumps({"instance": iid, "poset": poset_to_json(P)})
                 for iid, P in corpus.items()]
        _write("\n".join(lines) + "\n", args.out)
    else:
        counts = " ".join(f"n={n}:{len(row)}" for n, row in enumerate(corpus.by_size))
        total = sum(len(row) for row in corpus.by_size)
        _write(f"{counts} total={total}\n", args.out)
    return 0


def _cmd_complete(args) -> int:
    P = poset_from_json(_read_json(args.inp))
    if args.op == "idpow":
        if args.k > IDPOW_MAX_K:
            raise CapacityExceeded(f"--k {args.k} exceeds the idpow cap {IDPOW_MAX_K}")
        stage = iterate_id(P, args.k)
        _write(json_dumps(poset_to_json(stage)) + "\n", args.out)
        return 0
    F = {
        "down": lambda: downsets(P),
        "id": lambda: ideals(P, include_empty=False),
        "Id": lambda: ideals(P, include_empty=True),
        "chid": lambda: chain_ideals(P, include_empty=False),
        "chId": lambda: chain_ideals(P, include_empty=True),
        "fdown": lambda: fdown(P),
    }[args.op]()
    _write(json_dumps(family_to_json(F)) + "\n", args.out)
    return 0


def _cmd_check(args, budget: int) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    chunks, verdicts = [], set()
    for suite in suites:
        reports = run_suite(suite, max_n=args.max_n, budget=budget, k=args.k)
        verdicts.update(r.verdict for r in reports)
        if args.format == "json":
            lines = [json_dumps(r.to_json()) for r in reports]
        else:
            lines = []
            for r in reports:
                lines.append(f"{r.check} {r.instance}: {r.verdict}")
                if r.witness and "trace" in r.witness:
                    lines.append("  trace: " + ",".join(r.witness["trace"]))
            # only per-instance suites count their reports per corpus size
            corpus = generate_corpus(args.max_n) if suite in PER_INSTANCE else None
            lines.append(summarize(reports, corpus))
        chunks.append("\n".join(lines) + "\n")
    _write("".join(chunks), args.out)
    if FAILS in verdicts:
        return 1
    if UNKNOWN in verdicts:
        return 3
    return 0


def _cmd_counterexample(args) -> int:
    if args.name == "chain-bundle":
        P = build_chain_bundle(args.k)
        doc = poset_to_json(P)
        text = f"chain-bundle(k={args.k}): {P.n} elements\n"
    elif args.name == "atoms":
        M, f = build_atoms_lattice(args.k)
        doc = {"poset": poset_to_json(M), "map": map_to_json(f)}
        text = f"atoms(k={args.k}): {M.n} elements, map kind {f.kind}\n"
    else:
        base = _diamond() if args.inp is None else poset_from_json(_read_json(args.inp))
        P = build_idemb_tower(base, args.k)
        doc = poset_to_json(P)
        text = f"idemb-tower(stages={args.k}): {P.n} elements\n"
    if args.format == "json":
        _write(json_dumps(doc) + "\n", args.out)
    else:
        _write(text, args.out)
    return 0


def _cmd_ordinal(args) -> int:
    # imported here, so that no other verb pays for loading the ordinal calculus
    from .ordinals import cnf_parse, cnf_str, parse_descriptor, product_has_cofinal_chain

    if (args.expr is None) == (args.product is None):
        raise ValueError("ordinal needs exactly one of --expr / --product")
    if args.expr is not None:
        value = cnf_str(cnf_parse(args.expr))
        if args.format == "json":
            print(json_dumps({"expr": args.expr, "value": value}))
        else:
            print(value)
        return 0
    descs = [parse_descriptor(t) for t in args.product.split(",")]
    result = product_has_cofinal_chain(descs)
    if args.format == "json":
        print(json_dumps({"chains": args.product.split(","), "cofinal_chain": result}))
    else:
        print("true" if result else "false")
    return 0


def _cmd_render(args) -> int:
    doc = _read_json(args.inp)
    is_family = isinstance(doc, dict) and "sets" in doc
    P = family_order_from_json(doc) if is_family else poset_from_json(doc)
    _write(poset_to_dot(P), args.out)
    return 0


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("POSETIDEALS_BUDGET", str(DEFAULT_BUDGET))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"POSETIDEALS_BUDGET must be an integer, got {raw!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        budget = _budget(args)
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if getattr(args, "max_n", 0) < 0:
            raise ValueError(f"--max-n must be >= 0, got {args.max_n}")
        if args.verb == "gen":
            return _cmd_gen(args)
        if args.verb == "complete":
            return _cmd_complete(args)
        if args.verb == "check":
            return _cmd_check(args, budget)
        if args.verb == "counterexample":
            return _cmd_counterexample(args)
        if args.verb == "ordinal":
            return _cmd_ordinal(args)
        return _cmd_render(args)
    except (CapacityExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PosetError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
