#!/usr/bin/env python3
"""Paired performance gate: does a change make any end-to-end metric worse?

    python3 tools/perf_gate.py <parent-tree> <change-tree>

Both arguments are checkouts of the repository (for a pull request: the
merge-base and the change). For every workload in the parent's
`BENCHMARK.json` the gate runs `PAIRS` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

once in each tree, alternating which tree runs first, on one host. Each
tree builds into its own `.bench_build`. The bounds come from the parent,
so a change cannot loosen its own gate.

It prints one row per workload and `end_to_end` metric: both medians,
their ratio (change / parent), the parent's interquartile range and the
verdict. It exits 1 when any row is `worse`, when the change fails a
larger share of its checked operations than the parent, or when any run
exits non-zero; otherwise 0. The raw runs go to
`<change-tree>/.bench_results/perf_gate.json`.

Verdicts (see `verdict`):

* `worse` - the change's median is worse than the parent's by more than
  the metric's `bound` (a fraction of the parent's median);
* `unresolved` - not worse, but the parent's own runs spread wider than
  the bound, so a regression of that size could not be seen, and not
  every change run beats every parent run. Reported, not failed: the
  smallest metric, serve-mixed's ~20 ms `setup_s`, has been measured
  with an interquartile range of 45% of its median on unchanged code,
  and a gate that fails on such spreads is always red;
* `ok` - neither.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Five pairs per workload, one seed per pair, both trees on the same seed.
# On a 2-core host, parent against an unchanged copy gave median ratios of
# 0.95-1.06 and parent interquartile ranges of at most 15% of the median
# (mc-model setup_s; 10% or less elsewhere), well inside the 0.25 bounds;
# the whole gate took 17 minutes (see CHANGES.md).
SEEDS = (7, 23, 41, 59, 83)
PAIRS = len(SEEDS)

# A run that has not finished in this many seconds counts as failed.
RUN_TIMEOUT_S = 900


def verdict(parent, change, better, bound):
    """Judges one metric from the two trees' per-run values.

    Returns (verdict, ratio, parent_iqr): verdict is `ok`, `worse` or
    `unresolved` (see the module docs); ratio is change median / parent
    median.
    """
    p1, parent_median, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    ratio = change_median / parent_median
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    iqr = p3 - p1
    if worse_by > bound:
        return "worse", ratio, iqr
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if iqr > bound * parent_median and not dominates:
        return "unresolved", ratio, iqr
    return "ok", ratio, iqr


def failed_share_grew(parent_runs, change_runs):
    """True when the change fails a larger share of attempted operations."""

    def share(runs):
        return sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)

    return share(change_runs) > share(parent_runs)


def run(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns its result object or raises."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "CARGO_TARGET_DIR": str(tree / ".bench_build")}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_tree, change_tree = (Path(a).resolve() for a in argv)
    spec = json.loads((parent_tree / "BENCHMARK.json").read_text())
    start = time.monotonic()
    runs = {}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            sides = runs[workload] = {"parent": [], "change": []}
            for pair, seed in enumerate(SEEDS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent_tree if side == "parent" else change_tree
                    print(f"perf-gate: {workload} pair {pair + 1}/{PAIRS} seed {seed} {side}",
                          file=sys.stderr, flush=True)
                    sides[side].append(run(tree, workload, seed, spec["run_seconds"]))
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as e:
        print(f"perf-gate: FAIL: {e}", file=sys.stderr)
        return 1

    failures = []
    print(f"{'workload':12} {'metric':17} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'parent IQR':>11}  verdict")
    for workload, sides in runs.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            judged, ratio, iqr = verdict(parent, change, metric["better"], metric["bound"])
            print(f"{workload:12} {name:17} {statistics.median(parent):12.4g} "
                  f"{statistics.median(change):12.4g} {ratio:7.3f} {iqr:11.4g}  {judged}")
            if judged == "worse":
                failures.append(f"{workload} {name} worse")
        if failed_share_grew(sides["parent"], sides["change"]):
            failures.append(f"{workload}: the change fails a larger share of operations")

    results = change_tree / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / "perf_gate.json").write_text(json.dumps(
        {"seeds": SEEDS, "runs": runs, "failures": failures}, indent=1) + "\n")
    minutes = (time.monotonic() - start) / 60
    for failure in failures:
        print(f"perf-gate: FAIL: {failure}")
    print(f"perf-gate: {'FAIL' if failures else 'PASS'} "
          f"({PAIRS} pairs x {len(runs)} workloads, {minutes:.1f} min)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
