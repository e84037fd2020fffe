#!/usr/bin/env python3
"""The posetideals benchmark: time to a complete, checked verdict.

    python3 bench/run.py --workload gen-n7|thm31-n6|sweep-n7 \\
        --seed N --seconds S --trace 0|1

Workloads (one single-threaded process at a time, closed loop: a job starts
when the previous one has ended):

  gen-n7    generate_corpus(7, ceiling=7) in a fresh interpreter; canonical
            labelling dominates.  Exhaustive input, so the seed has no effect.
  thm31-n6  the real CLI, ``python -m posetideals --format json check
            --suite thm31 --max-n 6``; semilattice hom search dominates.  The
            only workload through cli and serialize.  Seed has no effect.
  sweep-n7  every suite but thm31 over the frozen n<=7 corpus, relabelled by
            the seed; map search and completions dominate, canonical
            labelling is never called.

A run times set-up (start-up and imports; for sweep-n7 also loading and
relabelling the corpus) SETUP_REPS times, in batches between its jobs so that
the median spans the whole run, and runs jobs until the next one would end
past ``--seconds``, always at least one.  Every job's output
is checked: verdicts and counts, not bytes.  With ``--trace 1`` the run
alternates an untraced job with a traced one and reports per-layer metrics
instead (see tracer.py).  A provenance line precedes the result, which is
the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

from common import (
    A000112,
    BENCH,
    CORPUS_N7,
    PACKAGE,
    ROOT,
    SWEEP_EXPECTED,
    THM31_ARGV,
    THM31_REPORTS,
    WORKLOADS,
    child_env,
    git_commit,
    host,
)
from tracer import metric_names

JOBS = str(BENCH / "jobs.py")
SETUP_REPS = 30
SETUP_BATCH = 3
CHILD_TIMEOUT_S = 120


@dataclass
class Child:
    code: int
    out: str
    wall_s: float
    peak_rss_mb: float


def spawn(argv: list[str]) -> Child:
    """Run one process to completion and time it from outside.

    The process is reaped with wait4 so that its own peak RSS is read; a
    watchdog kills it after CHILD_TIMEOUT_S.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    streams: dict[str, str] = {}
    readers = [threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
               for k, f in (("out", proc.stdout), ("err", proc.stderr))]
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    try:
        for r in readers:
            r.start()
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for r in readers:
            if r.ident is not None:
                r.join()
        proc.stdout.close()
        proc.stderr.close()
    if streams["err"]:
        sys.stderr.write(streams["err"])
    return Child(proc.returncode, streams["out"], wall, usage.ru_maxrss / 1024)


def last_json(child: Child) -> dict | None:
    lines = child.out.strip().splitlines()
    if child.code != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


@dataclass
class Outcome:
    """What one job contributes: checks attempted and failed, and the
    per-instance latencies it measured (none for whole-job workloads)."""
    attempted: int
    failed: int
    inst_ms: list[float]
    trace: dict | None


def check_gen(child: Child) -> Outcome:
    doc = last_json(child)
    attempted = len(A000112)  # one count per size
    if doc is None or len(doc.get("counts", ())) != attempted:
        return Outcome(attempted, attempted, [], None)
    failed = sum(a != b for a, b in zip(doc["counts"], A000112))
    return Outcome(attempted, failed, [], doc.get("trace"))


def check_thm31_reports(code: int, stdout: str) -> tuple[int, int]:
    lines = stdout.splitlines()
    attempted = max(THM31_REPORTS, len(lines))
    if code != 0:
        return attempted, attempted
    holds = 0
    for line in lines:
        try:
            report = json.loads(line)
        except json.JSONDecodeError:
            continue
        holds += report.get("check") == "thm31" and report.get("verdict") == "holds"
    return attempted, attempted - min(holds, THM31_REPORTS)


def check_thm31(child: Child, traced: bool) -> Outcome:
    if not traced:
        return Outcome(*check_thm31_reports(child.code, child.out), [], None)
    doc = last_json(child)
    if doc is None:
        return Outcome(THM31_REPORTS, THM31_REPORTS, [], None)
    return Outcome(*check_thm31_reports(doc["exit"], doc["stdout"]), [], doc["trace"])


def check_sweep(child: Child) -> Outcome:
    doc = last_json(child)
    attempted = sum(count for _, count in SWEEP_EXPECTED.values())
    if doc is None:
        return Outcome(attempted, attempted, [], None)
    attempted = failed = 0
    for suite, (verdict, count) in SWEEP_EXPECTED.items():
        tally = doc["tallies"].get(suite, {})
        seen = max(count, sum(tally.values()))
        attempted += seen
        failed += seen - min(tally.get(verdict, 0), count)
    return Outcome(attempted, failed, [ns / 1e6 for ns in doc["inst_ns"]], doc.get("trace"))


def setup_argv(workload: str, seed: int) -> list[str]:
    if workload == "thm31-n6":
        return [sys.executable, "-m", "posetideals", "--help"]
    return [sys.executable, JOBS, "setup", workload, "--seed", str(seed)]


def job_argv(workload: str, seed: int, traced: bool) -> list[str]:
    if workload == "thm31-n6" and not traced:
        return [sys.executable, "-m", "posetideals", *THM31_ARGV]
    return [sys.executable, JOBS, "job", workload, "--seed", str(seed)] + (["--trace"] if traced else [])


def run_job(workload: str, seed: int, traced: bool) -> tuple[Child, Outcome]:
    child = spawn(job_argv(workload, seed, traced))
    if workload == "gen-n7":
        return child, check_gen(child)
    if workload == "thm31-n6":
        return child, check_thm31(child, traced)
    return child, check_sweep(child)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 samples p99 is the max."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops and reaps the job it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for need in (PACKAGE, CORPUS_N7):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "commit": git_commit(), **host()}

    def set_up(reps: int) -> list[Child]:
        return [spawn(setup_argv(args.workload, args.seed)) for _ in range(reps)]

    setups: list[Child] = []
    untraced: list[tuple[Child, Outcome]] = []
    traced: list[tuple[Child, Outcome]] = []
    start = perf_counter()
    elapsed = 0.0
    while True:
        # keep the set-ups level with the share of the run that has passed
        due = min(SETUP_REPS, SETUP_BATCH + round(SETUP_REPS * elapsed / args.seconds))
        setups += set_up(max(0, due - len(setups)))
        untraced.append(run_job(args.workload, args.seed, False))
        if args.trace:
            traced.append(run_job(args.workload, args.seed, True))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(untraced) > args.seconds:
            break
    setups += set_up(SETUP_REPS - len(setups))
    if any(c.code != 0 for c in setups):
        print(f"error: set-up of {args.workload} failed", file=sys.stderr)
        return 1

    outcomes = [o for _, o in untraced + traced]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    walls = [c.wall_s for c, _ in untraced]
    wall_s = statistics.median(walls)

    if args.trace:
        per_job = [o.trace for _, o in traced if o.trace is not None]
        metrics = {}
        for name, unit in metric_names():
            if name == "trace.wall_s":
                value = statistics.median(c.wall_s for c, _ in traced)
            elif name == "trace.overhead_s":
                value = statistics.median(c.wall_s for c, _ in traced) - wall_s
            else:
                value = statistics.median(t[name] for t in per_job) if per_job else 0
            metrics[name] = {"value": value, "unit": unit}
    else:
        # whole-job workloads have one instance per job: the job itself
        inst_ms = [x for _, o in untraced for x in o.inst_ms] or [w * 1000 for w in walls]
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(c.wall_s for c in setups), "unit": "s"},
            "inst_p50_ms": {"value": statistics.median(inst_ms), "unit": "ms"},
            "inst_p99_ms": {"value": percentile(inst_ms, 0.99), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(c.peak_rss_mb for c, _ in untraced),
                            "unit": "MB"},
        }
        provenance["instances"] = len(inst_ms)

    provenance.update(jobs=len(untraced), traced_jobs=len(traced), setup_reps=SETUP_REPS,
                      failed_frac=failed / attempted)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
