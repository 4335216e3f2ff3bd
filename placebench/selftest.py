#!/usr/bin/env python3
"""Self-test of the repository benchmark (run.py in this directory).

    python3 placebench/selftest.py

Runs every workload at a tiny scale, untraced and traced, and checks that:
  * the result line has exactly correct/attempted/failed/metrics, no job
    fails, and every metric BENCHMARK.json names is emitted with its unit;
  * a deliberately illegal output is counted as a failed job;
  * gp-fast32-t1 and gp-fast32-t4 write bit-identical placements;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits non-zero at the first failed check. Takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.002"
SEED = "3"


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "placebench" / "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "0",
           "--trace", str(trace), "--scale", SCALE, "--min-jobs", "2",
           *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(json.loads(l[len("fingerprint "):]) for l in lines
                       if l.startswith("fingerprint "))
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(result)}")
    return result, fingerprint


def check_metrics(result, expected, what, nonzero):
    names = {m["name"]: m["unit"] for m in expected}
    check(set(result["metrics"]) == set(names),
          f"{what}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    for name, metric in result["metrics"].items():
        check(metric["unit"] == names[name],
              f"{what}: {name} unit {metric['unit']} != {names[name]}")
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{what}: {name} = {value!r}")
        check(not nonzero or value > 0, f"{what}: {name} = {value}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outputs = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            what = f"{workload} trace={trace}"
            result, fingerprint = result_of(run(workload, trace), what)
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] == 2, f"{what}: {result}")
            check_metrics(result, expected, what, nonzero=trace == 0)
            if trace == 0:
                outputs[workload] = (ROOT / fingerprint["output"]).read_bytes()
            print(f"ok   {what}")

    check(outputs["gp-fast32-t1"] == outputs["gp-fast32-t4"],
          "gp-fast32-t1 and gp-fast32-t4 placements differ")
    print("ok   gp-fast32-t1 and gp-fast32-t4 write identical placements")

    result, _ = result_of(run("gp-fast32-t1", 0, "--inject-illegal", "1"),
                          "injected illegal output")
    check(not result["correct"] and result["attempted"] == 2 and
          result["failed"] == 1, f"injected illegal output: {result}")
    print("ok   an illegal output counts as a failed job")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "placebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("gp-fast32-t1", 0, cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)
    print("ok   without the placer sources the benchmark fails cleanly")


if __name__ == "__main__":
    main()
