#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the simulator libraries plus the perfbench binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. The binary's human-readable lines are printed as they
are, then every metric by name with its unit, then, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}. The metrics are the
end_to_end list of BENCHMARK.json with --trace 0 and its per_layer list
with --trace 1. The binary's full record (host descriptor, digests, checks,
every metric) is kept in .bench_build/results/, and the spans of a traced
run beside it. Exits 1 when an output check failed and 2 when the build or
run failed, in which case no result is printed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the perfbench target; output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found beside perfbench/")

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    results_dir = os.path.join(out_root, "results")
    build(build_dir)
    os.makedirs(results_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--out-dir", results_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(run.stdout, end="")
        fail(f"{args.workload} exited with code {run.returncode}")
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    measured = record["metrics"]
    for name, metric in measured.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    checks = record["checks"]
    print(f"  error_rate = {checks['error_rate']:.6g} ratio "
          f"({checks['failed']} failed of {checks['attempted']} checks)")

    # BENCHMARK.json is the one list of metrics. A per-layer metric the
    # workload does not report reads 0: the workload never calls that layer.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    listed = {metric["name"]: metric["unit"] for metric in wanted}
    if args.trace:
        for name, metric in measured.items():
            if listed.get(name) != metric["unit"]:
                fail(f"per-layer metric {name} [{metric['unit']}] is not listed "
                     "with that unit")
    metrics = {}
    for name, unit in listed.items():
        got = measured.get(name)
        if got is None and args.trace:
            got = {"value": 0.0, "unit": unit}
        if got is None or got["unit"] != unit:
            fail(f"metric {name} [{unit}] not reported as listed")
        metrics[name] = {"value": got["value"], "unit": unit}

    path = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    correct = checks["failed"] == 0 and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
