#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload stream_paced --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library sources in src/ it links) into
.bench_build/perfbench with CMake, runs one workload, and prints the
result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 prints every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.
--seconds defaults to BENCHMARK.json's run_seconds.
Build and progress output goes to stderr.  Exits non-zero, printing no
result, when the build, the run or the result's shape fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"  # the self-test's scratch files
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not (ROOT / "src" / "udt" / "socket.hpp").is_file():
        raise RuntimeError(f"library sources missing under {ROOT / 'src'}")
    cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cfg += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (cfg, ["cmake", "--build", str(BUILD), "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return BUILD


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    return {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Raises unless `result` has exactly the promised shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        raise RuntimeError("attempted/failed are not valid counts")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{missing}, unexpected {extra}, or units differ")


def run(args):
    build_dir = build()
    seconds = args.seconds or spec()["run_seconds"]
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited {done.returncode}")
    result = json.loads(lines[-1])
    check_result(result, args.trace)
    print(lines[-1], flush=True)


def selftest():
    build_dir = build()
    WORK.mkdir(parents=True, exist_ok=True)
    ok = subprocess.run([str(build_dir / "perfbench_selftest"),
                         str(WORK)]).returncode == 0
    ok = subprocess.run([sys.executable, "-m", "unittest", "-v",
                         "test_names"], cwd=HERE / "tests").returncode == 0 and ok
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build, then run the benchmark's own tests")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        run(args)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
