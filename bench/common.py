"""Paths, constants and provenance shared by the benchmark's scripts.

Nothing here imports posetideals: run.py and the timed children decide
themselves when the package is imported, so that import time stays
measurable.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "posetideals" / "__init__.py"
CORPUS_N7 = BENCH / "data" / "corpus_n7.json"

# OEIS A000112: posets on n unlabelled points, n = 0..7.
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045)

WORKLOADS = ("gen-n7", "thm31-n6", "sweep-n7")
THM31_ARGV = ("--format", "json", "check", "--suite", "thm31", "--max-n", "6")
THM31_REPORTS = 78

# Per-suite (verdict, count) every sweep-n7 job must give, whatever the seed.
SWEEP_EXPECTED = {
    "thm21": ("holds", 2451),
    "cor23": ("vacuous", 2451),
    "cor32": ("holds", 2451),
    "lemma51": ("holds", 4),
    "acc": ("holds", 2451),
    "kurepa": ("holds", 2),
}


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    where the tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    src first on the path, and no budget override from the caller."""
    env = dict(os.environ)
    env.pop("POSETIDEALS_BUDGET", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def host() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
