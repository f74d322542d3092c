#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program osbench (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) into .bench_build/ at the checkout root, runs one
workload, checks osbench's result line against BENCHMARK.json, and prints
it as the last line of stdout.

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 10 --trace 0

Workloads: serve-hit, serve-miss, serve-fault, campaign. --trace 1 runs the
traced variant, which prints the per-layer ledger instead of the end-to-end
metrics and writes its spans to .bench_build/spans-<workload>.txt.

An untraced run splits --seconds over several osbench processes run one after
another and reports each metric's median over them: on a shared host, the
speed a process gets varies from process to process, and pooling processes
averages that out. Every process must print the same simulated-statistics
digest.
"""
import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-hit", "serve-miss", "serve-fault", "campaign")
RUN_TIMEOUT_S = 170  # all osbench processes of one run, after the build
BUILD_TYPE = "Release"
# osbench processes per untraced run. A campaign repetition takes ~17 s of
# CPU, so the campaign splits its budget over fewer processes.
PROCESSES = {"campaign": 2}
DEFAULT_PROCESSES = 8


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # The checkout's build area; CARGO_TARGET_DIR names it when set.
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(bdir), "--target", "osbench", "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the run's report.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = bdir / "osbench"
    if not exe.is_file():
        fail("build produced no osbench binary")
    return exe


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def provenance(args):
    return (f"provenance: workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} nproc={os.cpu_count()} machine={platform.machine()} "
            f"build={BUILD_TYPE} OSIRIS_TRACE=ON python={platform.python_version()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir)
    want = expected_metrics(args.trace == 1)

    procs = 1 if args.trace else PROCESSES.get(args.workload, DEFAULT_PROCESSES)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / procs), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(bdir.parent / f"spans-{args.workload}.txt")]
    reports, results, digests = [], [], set()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for _ in range(procs):
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
        lines = r.stdout.rstrip("\n").split("\n")
        if r.returncode != 0 or not lines[-1].startswith("{"):
            sys.stderr.write(r.stdout)
            fail(f"osbench exited with status {r.returncode} and no result", 1)
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("result line has unexpected keys", 1)
        if list(result["metrics"]) != want:
            fail("result metrics differ from BENCHMARK.json", 1)
        digests.update(re.findall(r"digest ([0-9a-f]{16})", lines[0]))
        reports.append(lines[:-1])
        results.append(result)

    merged = {
        "correct": all(r["correct"] for r in results) and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": results[0]["metrics"][name]["unit"]}
            for name in want
        },
    }
    if len(digests) != 1:
        print(f"perfbench: processes disagree on the digest: {sorted(digests)}", file=sys.stderr)

    print(provenance(args))
    for i, report in enumerate(reports):
        print(f"process {i + 1}/{procs}:")
        for line in report:
            print(line)
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
