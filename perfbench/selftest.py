"""Smallest-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in ``BENCHMARK.json`` at ``--size smoke`` for
one second, untraced and traced, and checks that each run exits 0, that
its output checks pass, and that its last line carries exactly the
end-to-end (or per-layer) metrics of ``BENCHMARK.json`` with their
units.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload: str, trace: int, expected: dict) -> list:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("checks: %d attempted, %d failed"
                        % (result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing %s, extra %s"
                        % (sorted(set(expected) - set(metrics)),
                           sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append("%s: unit %r, expected %r"
                            % (name, got.get("unit"), unit))
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: value %r" % (name, got.get("value")))
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(workload, trace, groups[trace])
            print("%s %s --trace %d" % ("FAIL" if problems else "ok  ",
                                        workload, trace))
            for line in problems:
                print("    " + line)
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
