#!/usr/bin/env python3
"""Freeze the n<=7 poset corpus that the sweep-n7 workload reads.

    python3 bench/freeze_corpus.py

Builds ``generate_corpus(7, ceiling=7)`` from the checkout's src, checks the
per-size counts against OEIS A000112 and that every stored poset is its own
canonical form with a distinct key, and writes the up-rows with the corpus
provenance and the commit they were built at.  Run it once; the sweep
relabels the frozen posets per seed instead of regenerating them.
"""

from __future__ import annotations

import json
import sys

from common import A000112, CORPUS_N7, SRC, git_commit

sys.path.insert(0, str(SRC))

from posetideals.morphisms import canonical_key  # noqa: E402
from posetideals.verification import generate_corpus  # noqa: E402


def main() -> int:
    corpus = generate_corpus(7, ceiling=7)
    counts = tuple(len(row) for row in corpus.by_size)
    if counts != A000112:
        print(f"error: corpus counts {counts} differ from A000112 {A000112}", file=sys.stderr)
        return 1
    keys = [P.up for row in corpus.by_size for P in row]
    if len(set(keys)) != len(keys):
        print("error: canonical keys are not distinct", file=sys.stderr)
        return 1
    if any(canonical_key(P) != P.up for row in corpus.by_size for P in row):
        print("error: a stored poset is not in canonical form", file=sys.stderr)
        return 1
    doc = {
        "built_by": "generate_corpus(7, ceiling=7)",
        "provenance": corpus.provenance,
        "commit": git_commit(),
        "counts": list(counts),
        "up_rows": [[list(P.up) for P in row] for row in corpus.by_size],
    }
    CORPUS_N7.parent.mkdir(exist_ok=True)
    CORPUS_N7.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {CORPUS_N7.name}: {sum(counts)} posets, counts {list(counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
