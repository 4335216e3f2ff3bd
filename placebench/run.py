#!/usr/bin/env python3
"""The repository benchmark: whole-flow placement jobs (read -> place ->
write) on generated bigblue4 stand-ins. README.md in this directory lists
the workloads, the metrics and what each metric should move.

    python3 placebench/run.py --workload gp-fast32-t1 --seed 18 \
        --seconds 30 --trace 0

Builds the placer and the job program from source (Release, under
.bench_build/), generates the workload's input from --seed, then runs one
job per process, back to back, for --seconds (at least --min-jobs jobs).
Every job's written placement is checked. After each job, LOADS - 1 more
processes load the same input; the run's setup_s is the median of all
those loads, the jobs' own included. A job during which the hypervisor
stole more than STEAL_SHARE of its place_s is disturbed: it still counts
as attempted, the run goes on for up to EXTEND x --seconds more to gather
--min-jobs undisturbed jobs, and disturbed jobs are timed only to make up
half of the run's jobs (see timed()).

The last line of stdout is one JSON object: correct / attempted / failed /
metrics. --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced jobs and reports the per-layer metrics plus the
tracing overhead, and writes the spans and the last traced job's run
report next to the output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "placebench"
WORK = ROOT / ".bench_build" / "placebench-work"

# name -> bigblue4 stand-in scale; the job program holds the rest of each
# workload's configuration.
WORKLOADS = {
    "gp-fast32-t1": 0.01,
    "gp-fast32-t4": 0.01,
    "backend-scatter64-t1": 0.03,
}
END_TO_END_UNITS = {"place_s": "s", "cpu_s": "s", "hpwl": "dbu",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# A run must end within this many seconds, jobs included.
RUN_DEADLINE_S = 170.0
# Fresh-process loads of the input per job. A load takes ~0.15 s on the GP
# workloads and, on the development box, differs by up to 40% between
# processes (with the vCPU a process lands on), so setup_s needs more
# processes than jobs to settle.
LOADS = 3
# A job is disturbed when the host steal on the CPUs it used exceeds this
# share of its place_s. /proc/stat counts steal over all CPUs, so a job on
# T of N CPUs is charged T/N of it. A 4-thread job loses ~0.8 s of wall
# time per stolen second, since every fork-join waits for the descheduled
# vCPU; quiet jobs see under 1%.
STEAL_SHARE = 0.02
# How much longer than --seconds a run may go on to gather undisturbed jobs.
EXTEND = 0.4


def fail(message):
    print(f"placebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no placer sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "placebench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / "placebench"


def run_job(binary, workload, input_dir, out, traced, report, inject,
            timeout):
    cmd = [str(binary), "job", "--workload", workload, "--input",
           str(input_dir), "--out", str(out), "--trace",
           "1" if traced else "0", "--inject-illegal", "1" if inject else "0"]
    if traced:
        cmd += ["--report", str(report)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "placed": False,
                "reason": f"job exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "placed": False,
                "reason": f"job exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


def load_seconds(binary, workload, input_dir):
    """One fresh-process load of the input, in seconds; None if it fails."""
    try:
        proc = subprocess.run(
            [str(binary), "load", "--workload", workload, "--input",
             str(input_dir)], capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def median_of(jobs, key):
    # A non-finite value arrives as null (its job already failed the check).
    values = [j[key] for j in jobs if j.get(key) is not None]
    return statistics.median(values) if values else 0.0


def steal_share(job):
    host = job["fingerprint"]
    cpus = min(1.0, host["threads"] / host["nproc"])
    return job["host.steal_s"] * cpus / max(job["place_s"], 1e-9)


def disturbed(job):
    return job.get("placed", False) and steal_share(job) > STEAL_SHARE


def timed(jobs):
    """The jobs whose times count: every undisturbed job that placed,
    topped up with the least disturbed ones to half of the placed jobs, so
    a run inside a steal episode still reports its calmest jobs."""
    placed = sorted((j for j in jobs if j.get("placed")), key=steal_share)
    quiet = sum(1 for j in placed if not disturbed(j))
    return placed[:max(quiet, (len(placed) + 1) // 2)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=18,
                        help="generator seed (18 = the suite's bigblue4)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's design scale")
    parser.add_argument("--min-jobs", type=int, default=None,
                        help="jobs to run even past --seconds "
                             "(default 3, or 4 with --trace 1)")
    parser.add_argument("--inject-illegal", type=int, default=-1,
                        metavar="JOB",
                        help="self-test: corrupt this job's output")
    args = parser.parse_args()

    binary = build()
    scale = args.scale if args.scale is not None else WORKLOADS[args.workload]
    min_jobs = args.min_jobs if args.min_jobs is not None else (
        4 if args.trace else 3)
    work = WORK / f"{args.workload}-s{args.seed}-x{scale:g}-t{args.trace}"
    input_dir = work / "input"
    out = work / "out.pl"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen = subprocess.run(
        [str(binary), "generate", "--seed", str(args.seed), "--scale",
         repr(scale), "--out", str(input_dir)],
        capture_output=True, text=True)
    if gen.returncode != 0:
        sys.stderr.write(gen.stderr)
        fail("input generation failed")

    start = time.monotonic()
    jobs = []
    spans = []
    reference = None
    while True:
        elapsed = time.monotonic() - start
        longest = max((j["wall_s"] for j in jobs), default=0.0)
        quiet = sum(1 for j in jobs if j.get("placed") and not disturbed(j))
        if len(jobs) >= min_jobs and elapsed >= args.seconds and (
                quiet >= min_jobs or elapsed >= (1 + EXTEND) * args.seconds):
            break
        if jobs and elapsed + 1.5 * longest > RUN_DEADLINE_S:
            break
        index = len(jobs)
        traced = args.trace == 1 and index % 2 == 1
        launched = time.monotonic()
        job = run_job(binary, args.workload, input_dir, out, traced,
                      work / "report.json", index == args.inject_illegal,
                      max(5.0, RUN_DEADLINE_S - elapsed))
        job["wall_s"] = time.monotonic() - launched
        job["job"] = index
        job["traced"] = traced
        if job["placed"]:
            loads = [job["setup_s"]] + [
                load_seconds(binary, args.workload, input_dir)
                for _ in range(LOADS - 1)]
            job["setup_loads_s"] = loads
            if None in loads:
                job["ok"] = False
                job["reason"] = "a load-only process failed"
        if job["ok"]:
            # Every repeat of a workload writes the same bytes.
            written = out.read_bytes()
            if reference is None:
                reference = written
            elif written != reference:
                job["ok"] = False
                job["reason"] = "output .pl differs from the first job's"
        # Span ids and times become run-wide: ids continue across jobs,
        # times count from the start of the run.
        offset = launched - start
        base = len(spans)
        for span in job.pop("spans", []):
            parent = span["parent"]
            spans.append(dict(span, id=base + span["id"], job=index,
                              parent=base + parent if parent >= 0 else -1,
                              start_s=span["start_s"] + offset,
                              end_s=span["end_s"] + offset))
        jobs.append(job)
        summary = {k: v for k, v in job.items()
                   if k not in ("layers", "fingerprint")}
        print("job " + json.dumps(summary), flush=True)

    failed = sum(1 for j in jobs if not j["ok"])
    # Timings come from jobs whose placement completed; a job that failed
    # only its output check still ran the whole flow.
    untraced = timed([j for j in jobs if not j["traced"]])
    traced = timed([j for j in jobs if j["traced"]])

    fingerprint = {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "trace": args.trace, "seconds": args.seconds, "jobs": len(jobs),
        "output": str(out.relative_to(ROOT)),
        "host.steal_s": [j.get("host.steal_s") for j in jobs],
        "disturbed_jobs": [j["job"] for j in jobs if disturbed(j)],
        "timed_jobs": sorted(j["job"] for j in untraced + traced),
    }
    fingerprint.update(jobs[0].get("fingerprint", {}) if jobs else {})
    print("fingerprint " + json.dumps(fingerprint), flush=True)

    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": median_of(untraced, name), "unit": unit}
        # Loads are single-process and short, so every load of the run
        # counts, not only the timed jobs' ones.
        loads = [s for j in jobs if not j["traced"]
                 for s in j.get("setup_loads_s", []) if s is not None]
        if loads:
            metrics["setup_s"]["value"] = statistics.median(loads)
    else:
        layered = [j["layers"] for j in traced if "layers" in j]
        for name in (layered[0] if layered else {}):
            metrics[name] = {
                "value": statistics.median(l[name]["value"] for l in layered),
                "unit": layered[0][name]["unit"]}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "place_s") -
                     median_of(untraced, "place_s"),
            "unit": "s"}
        (work / "spans.json").write_text(
            "[\n" + ",\n".join(json.dumps(s) for s in spans) + "\n]\n")

    result = {"correct": failed == 0, "attempted": len(jobs),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
