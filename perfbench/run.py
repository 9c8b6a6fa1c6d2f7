#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/aptbench.cpp).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--threads <n>] [--smoke]

Run from the root of a checkout. The first call configures and builds the
library sources plus the benchmark binary under $CARGO_TARGET_DIR (default
.bench_build) with CMake; later calls rebuild incrementally. The binary runs
with APT_NUM_THREADS=<threads> (default 2) and its output is passed through;
its last line is the result JSON. Exits nonzero, without a result line, when
the build fails or the binary does not produce a well-formed result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "aptbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "aptbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "aptbench"


def parse_result(line):
    """The result JSON of the binary's last line, or None if malformed."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    return res


def run(binary, workload, seed, seconds, trace, threads, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", str(binary.parent)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, APT_NUM_THREADS=str(threads))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        code, lines = run(binary, args.workload, args.seed, args.seconds, args.trace,
                          args.threads, args.smoke)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    res = parse_result(lines[-1]) if lines else None
    for line in lines[:-1] if res else lines:
        print(line)
    if res is None:
        print(f"perfbench: no result line (exit code {code})", file=sys.stderr)
        return code or 4
    print(json.dumps(res))
    return code if code else (0 if res["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
