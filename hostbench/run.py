#!/usr/bin/env python3
"""Build and run the host-performance benchmark (see hostbench/README.md).

Run from the root of a checkout:

    python3 hostbench/run.py --workload team_scale --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --test              # the benchmark's own tests + lint
    python3 hostbench/run.py --write-reference   # regenerate reference.txt

The first run configures and builds the simulator library, the benchmark
and trace_summarize under $CARGO_TARGET_DIR (default .bench_build). The
last line of stdout is the result JSON: correct, attempted, failed and
metrics. With --trace 0 the measuring process is preceded by
SETUP_RUNS - 1 set-up-only processes, and setup_s is the median of all
SETUP_RUNS cold set-ups. With --trace 1 the benchmark also writes its
spans as Chrome trace-event JSON, which must pass
`trace_summarize --validate`; the rollup's per-layer self times are
printed above the result.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.txt")
RUN_TIMEOUT_S = 170
SETUP_RUNS = 3


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hostbench")


def build(targets):
    """Configure once, then bring `targets` up to date; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return out


def clean_env():
    """The process environment without the simulator's EBS_* switches, so
    worker count and tracing come from the benchmark alone."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EBS_")}


def rollup_self_times(rollup):
    """Per-path (count, total s, self s) from trace_summarize's span rollup."""
    spans = {}
    process = ""
    line_re = re.compile(r"^\s+(\d+)x\s+total_s=([0-9.eE+-]+)\s+(.+)$")
    for line in rollup.splitlines():
        if line.startswith("== "):
            process = line.strip("= ")
        elif "[tasks]" in line or "[instants]" in line:
            process = None
        elif process is not None:
            m = line_re.match(line)
            if m:
                key = (process, m.group(3))
                spans[key] = [int(m.group(1)), float(m.group(2))]
    result = {}
    for (proc, path), (count, total) in spans.items():
        children = sum(
            t
            for (p2, child), (_, t) in spans.items()
            if p2 == proc and child.startswith(path + ";") and ";" not in child[len(path) + 1 :]
        )
        result[(proc, path)] = (count, total, total - children)
    return result


def check_trace(trace_path, summarize):
    """Validate the span file; print per-layer self time. Returns ok."""
    validate = subprocess.run(
        [summarize, trace_path, "--validate"], capture_output=True, text=True
    )
    sys.stdout.write(validate.stdout)
    sys.stdout.write(validate.stderr)
    if validate.returncode != 0:
        print("hostbench: trace_summarize found violations", flush=True)
        return False
    rollup = subprocess.run([summarize, trace_path], capture_output=True, text=True)
    if rollup.returncode != 0:
        print("hostbench: trace_summarize rollup failed", flush=True)
        return False
    for (proc, path), (count, total, self_s) in sorted(rollup_self_times(rollup.stdout).items()):
        calls = re.search(r" x(\d+)$", path)
        per_call = ""
        if calls:
            per_call = f"  {self_s * 1e6 / (count * int(calls.group(1))):.4f} us/call"
        print(f"trace {proc}: {path}  {count}x  total {total:.6f} s  self {self_s:.6f} s{per_call}")
    return True


def run_binary(cmd, deadline):
    """Run one benchmark process; returns (result JSON, other stdout lines)."""
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env=clean_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result line")


def run_benchmark(args):
    out = build(["hostbench", "trace_summarize"])
    deadline = time.monotonic() + RUN_TIMEOUT_S
    binary = os.path.join(out, "hostbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", REFERENCE,
    ]
    # Cold set-ups in processes of their own; the measuring process's
    # set-up is the last of them.
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setup, lines = run_binary(cmd + ["--setup-only", "1"], deadline)
            for line in lines:
                print(line)
            setups.append(setup)
    trace_path = os.path.join(out, f"trace_{args.workload}.json")
    if args.trace:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        cmd += ["--trace-out", trace_path]
    result, lines = run_binary(cmd, deadline)
    for line in lines:
        print(line)
    if setups:
        setup_s = [s["metrics"]["setup_s"]["value"] for s in setups]
        setup_s.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
        print(f"hostbench {args.workload}: setup_s median of " + ", ".join(f"{v:.6f}" for v in setup_s))
        for s in setups:
            result["attempted"] += s["attempted"]
            result["failed"] += s["failed"]
            result["correct"] = result["correct"] and s["correct"]
    if args.trace:
        summarize = os.path.join(out, "ebs", "tools", "trace_summarize")
        if not check_trace(trace_path, summarize):
            result["correct"] = False
    print(json.dumps(result), flush=True)


def run_tests():
    out = build(["hostbench_test", "ebs_lint"])
    test = subprocess.run([os.path.join(out, "hostbench_test")], env=clean_env())
    sources = sorted(
        os.path.join(BENCH_DIR, f)
        for f in os.listdir(BENCH_DIR)
        if f.endswith((".cpp", ".h"))
    )
    lint = subprocess.run([os.path.join(out, "ebs", "tools", "ebs_lint"), *sources])
    print(f"hostbench_test exit {test.returncode}, ebs_lint exit {lint.returncode}")
    sys.exit(0 if test.returncode == 0 and lint.returncode == 0 else 1)


def write_reference():
    out = build(["hostbench"])
    proc = subprocess.run(
        [os.path.join(out, "hostbench"), "--write-reference", REFERENCE], env=clean_env()
    )
    sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's own tests and lint")
    parser.add_argument("--write-reference", action="store_true", help="regenerate reference.txt")
    args = parser.parse_args()
    if args.test:
        run_tests()
    elif args.write_reference:
        write_reference()
    elif not args.workload:
        parser.error("--workload is required")
    elif args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    else:
        run_benchmark(args)


if __name__ == "__main__":
    main()
