#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one BENCH trajectory file.

    python3 bench/trajectory.py --out bench/BENCH_0.json

For every workload in BENCHMARK.json: ten untraced runs, seeds 1 to 10, then
one traced run with seed 1.  Per end-to-end metric it records the ten values,
their median and quartiles, and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.  Runs happen one after another, never at once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import BENCH, ROOT, git_commit, host

SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    doc = {"commit": git_commit(), "host": host(), "run_seconds": spec["run_seconds"],
           "seeds": SEEDS, "workloads": {}}
    for w in [x["name"] for x in spec["workloads"]]:
        runs = [run(w, s, spec["run_seconds"], 0) for s in SEEDS]
        traced = run(w, SEEDS[0], spec["run_seconds"], 1)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {"unit": m["unit"], **summarize(values, m["bound"])}
        doc["workloads"][w] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "jobs_per_run": [r["provenance"]["jobs"] for r in runs],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in metrics.items():
            print(f"{w:9} {name:12} median {s['median']:.4g} {s['unit']:5} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
