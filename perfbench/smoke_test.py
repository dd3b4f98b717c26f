#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes. Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload, untraced and traced, and for two seeds, it runs
`perfbench/run.py --size tiny --seconds 1` and checks that:

* the run exits 0 and its last line is the result object, with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`, and no failures;
* the metrics are exactly the `end_to_end` (untraced) or `per_layer`
  (traced) metrics of `BENCHMARK.json`, each with its unit and a finite
  value; end-to-end values are positive;
* the two seeds generate different inputs but report the same metric set.

Finally it checks that `run.py` fails without printing a result in a
directory that holds only `BENCHMARK.json` and `perfbench/`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("suite-sweep", "mc-model", "mc-collapse", "serve-mixed")
SEEDS = (1, 2)


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(spec, workload, seed, trace):
    """Runs one case; returns (inputs digest, metric names) or raises."""
    proc = run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in wanted], set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    digest = next(line.split()[1] for line in lines if line.startswith("inputs_sha256 "))
    return digest, tuple(metrics)


def check_lonely_dir(spec):
    """Runs in a directory with only BENCHMARK.json and the benchmark's paths."""
    lonely = ROOT / ".bench_work" / "smoke-lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    lonely.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lonely)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, lonely / path, ignore=shutil.ignore_patterns("target"))
    try:
        proc = run(lonely, WORKLOADS[0], 1, 0)
        assert proc.returncode != 0, "run.py succeeded without the repository"
        assert '"metrics"' not in proc.stdout, "run.py printed a result without the repository"
    finally:
        shutil.rmtree(lonely, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            seen = {}
            for seed in SEEDS:
                try:
                    seen[seed] = check_run(spec, workload, seed, trace)
                except (AssertionError, json.JSONDecodeError, StopIteration) as e:
                    failures += 1
                    print(f"FAIL {workload} trace {trace} seed {seed}: {e}")
            if len(seen) == len(SEEDS):
                (d1, m1), (d2, m2) = seen[SEEDS[0]], seen[SEEDS[1]]
                ok = d1 != d2 and m1 == m2
                failures += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {workload} trace {trace}: "
                      f"inputs differ across seeds: {d1 != d2}, same metric set: {m1 == m2}")
    try:
        check_lonely_dir(spec)
        print("ok   run.py fails without the repository")
    except AssertionError as e:
        failures += 1
        print(f"FAIL lonely directory: {e}")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
