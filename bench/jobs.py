#!/usr/bin/env python3
"""One timed job of a benchmark workload, run in a fresh interpreter.

    python3 bench/jobs.py setup gen-n7|sweep-n7 --seed N
    python3 bench/jobs.py job gen-n7|sweep-n7 --seed N [--trace]
    python3 bench/jobs.py job thm31-n6 --seed N --trace

``run.py`` starts these with the checkout's src on PYTHONPATH, times them
from outside and checks the JSON line each job prints last.  ``setup`` does
only what a job does before its first check (interpreter start-up, imports,
and for sweep-n7 loading and relabelling the frozen corpus) and prints
nothing.  The untraced thm31-n6 job is the real CLI and needs no entry here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import traceback
from collections import Counter
from time import perf_counter, perf_counter_ns

from common import A000112, CORPUS_N7, SWEEP_EXPECTED, THM31_ARGV, WORKLOADS
from tracer import Tracer

PER_INSTANCE = ("thm21", "cor23", "cor32", "acc")


def load_sweep_corpus(seed: int):
    """The frozen n<=7 corpus with every poset relabelled by a permutation
    drawn from ``seed``, as a Corpus for check_lemma_5_1.

    Relabelling cannot change a verdict, only the search order.
    """
    from posetideals.poset import validate_up_rows
    from posetideals.verification import Corpus

    doc = json.loads(CORPUS_N7.read_text())
    if tuple(doc["counts"]) != A000112:
        raise ValueError(f"{CORPUS_N7.name}: counts {doc['counts']} differ from A000112")
    rng = random.Random(seed)
    by_size = []
    for n, row in enumerate(doc["up_rows"]):
        if len(row) != A000112[n]:
            raise ValueError(f"{CORPUS_N7.name}: {len(row)} posets of size {n}")
        out = []
        for up in row:
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [0] * n
            for i, r in enumerate(up):
                image = 0
                for j in range(n):
                    if r >> j & 1:
                        image |= 1 << perm[j]
                rows[perm[i]] = image
            out.append(validate_up_rows(rows))
        by_size.append(tuple(out))
    return Corpus(len(by_size) - 1, tuple(by_size), doc["provenance"])


def sweep(corpus) -> dict:
    """Every suite but thm31, dispatched the way run_suite dispatches it.

    Functions are looked up on the module at call time so that a traced job
    reaches the wrappers.  Each per-instance check is timed on its own.
    """
    from posetideals import verification as v
    from posetideals.morphisms import DEFAULT_BUDGET

    calls = {
        "thm21": lambda P, iid: v.check_theorem_2_1(P, iid, DEFAULT_BUDGET),
        "cor23": lambda P, iid: v.check_corollary_2_3_hypothesis(P, iid, DEFAULT_BUDGET),
        "cor32": lambda P, iid: v.check_corollary_3_2(P, iid, DEFAULT_BUDGET),
        "acc": lambda P, iid: v.check_acc(P, iid),
    }
    items = corpus.items()
    tallies: dict[str, Counter] = {s: Counter() for s in SWEEP_EXPECTED}
    inst_ns = []
    for suite in PER_INSTANCE:
        check = calls[suite]
        for iid, P in items:
            t0 = perf_counter_ns()
            try:
                verdict = check(P, iid).verdict
            except Exception:  # a crashed check is a failed check; keep going
                traceback.print_exc()
                verdict = "error"
            inst_ns.append(perf_counter_ns() - t0)
            tallies[suite][verdict] += 1
    for suite, run in (
        ("lemma51", lambda: v.check_lemma_5_1(corpus, v.chains_battery(3), "chains<=3",
                                              DEFAULT_BUDGET)),
        ("kurepa", lambda: [v.check_kurepa_atoms(k) for k in (2, 3)]),
    ):
        try:
            tallies[suite].update(r.verdict for r in run())
        except Exception:
            traceback.print_exc()
            tallies[suite]["error"] += 1
    return {"tallies": tallies, "inst_ns": inst_ns}


def gen() -> dict:
    from posetideals import verification

    corpus = verification.generate_corpus(7, ceiling=7)
    return {"counts": [len(row) for row in corpus.by_size]}


def thm31(tracer: Tracer) -> dict:
    t0 = perf_counter()
    from posetideals import cli
    import_s = perf_counter() - t0
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(THM31_ARGV))
    return {"exit": code, "stdout": out.getvalue(), "import_s": import_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "job"))
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None

    if args.workload == "thm31-n6":
        if args.mode != "job" or tracer is None:
            ap.error("thm31-n6 runs here only as a traced job")
        result = thm31(tracer)
    elif args.workload == "gen-n7":
        import posetideals.verification  # noqa: F401  (the set-up being timed)

        if args.mode == "setup":
            return 0
        if tracer is not None:
            tracer.install()
        result = gen()
    else:
        corpus = load_sweep_corpus(args.seed)
        if args.mode == "setup":
            return 0
        if tracer is not None:
            tracer.install()
        result = sweep(corpus)

    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace"]["cli.import_s"] = result.pop("import_s", 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
