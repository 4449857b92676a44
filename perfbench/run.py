#!/usr/bin/env python3
"""End-to-end benchmark of the FRAPP repository (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload mine-bin --seed 1 --seconds 15 --trace 0

Builds the library, `frapp_cli` and the C++ runner (perfbench/CMakeLists.txt,
Release) into .bench_build/perfbench, runs one workload through the runner
and prints its result as the last line of stdout: one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1; a traced run also writes
.bench_build/perfbench-traces/<workload>-seed<N>.json in Chrome trace-event
format, loadable in Perfetto). Build output and diagnostics go to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("mine-bin", "append-window", "dist-tcp", "serve-zipf")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", build_dir, "--target", "perfbench_runner",
         "frapp_cli", "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "perfbench-work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [
        os.path.join(build_dir, "perfbench_runner"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--cli", os.path.join(build_dir, "frapp", "frapp_cli"),
        "--work-dir", work_dir,
    ]
    if args.trace:
        trace_dir = os.path.join(out_dir, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    runner = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)

    def stop(signum, frame):
        runner.kill()  # its children die with it (PR_SET_PDEATHSIG)
        runner.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = runner.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        stop(None, None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if runner.returncode != 0 or not lines:
        print("perfbench: runner failed (exit %d)" % runner.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
