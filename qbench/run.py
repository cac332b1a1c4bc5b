#!/usr/bin/env python3
"""qbench: the benchmark of the Q system.

Run from the repository root:

    python3 qbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 qbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 qbench/run.py --selftest

Workloads: serve, feedback, onboard, catalog (see BENCHMARK.json for why
each exists); "all" runs them one after another and fails if any fails.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run, whose spans are written to
<build>/traces/<workload>-seed<n>.jsonl.

The script builds qbench/ (which compiles the Q library from src/) with
CMake into $CARGO_TARGET_DIR/qbench, or .bench_build/qbench when the
variable is unset, then runs the benchmark binary. The binary checks the
system's outputs, prints every metric with its unit, better direction and
sample count, and ends its output with one JSON result line. The script
exits non-zero, without a result line, when the build fails, when the
binary's metric table disagrees with BENCHMARK.json, or when the run
fails or takes too long.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve", "feedback", "onboard", "catalog"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "qbench")


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", target, "-j", jobs]]
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                code = None
                log.write("qbench: %s\n" % err)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                sys.stderr.write("qbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(out, target)


def check_metric_table(binary):
    """The binary's metric table must match BENCHMARK.json."""
    spec_path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, timeout=60, check=True).stdout
    table = {m["name"]: m for m in json.loads(listed)}
    problems = []
    for section, kind in (("end_to_end", "end_to_end"),
                          ("per_layer", "per_layer")):
        want = [m["name"] for m in table.values() if m["kind"] == kind]
        have = [m["name"] for m in spec[section]]
        if sorted(want) != sorted(have):
            problems.append("%s lists %s, the benchmark measures %s"
                            % (section, sorted(have), sorted(want)))
        for m in spec[section]:
            t = table.get(m["name"])
            if t and (t["unit"] != m["unit"] or t["better"] != m["better"]):
                problems.append("%s: unit/better %s/%s, benchmark %s/%s"
                                % (m["name"], m["unit"], m["better"],
                                   t["unit"], t["better"]))
    for p in problems:
        sys.stderr.write("qbench: BENCHMARK.json disagrees: %s\n" % p)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("qbench_selftest")
        main_binary = binary and build("qbench")
        if not main_binary or not check_metric_table(main_binary):
            return 2
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("qbench")
    if binary is None or not check_metric_table(binary):
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out", os.path.join(
                build_dir(), "traces", "%s-seed%d.jsonl" % (workload, args.seed))]
        sys.stdout.flush()
        try:
            code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.stderr.write("qbench: %s exceeded %d s\n"
                             % (workload, RUN_TIMEOUT_S))
            code = 3
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
