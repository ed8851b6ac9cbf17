#!/usr/bin/env python3
"""Run every workload over several seeds and record how steady it is.

    python3 perfbench/steadiness.py --runs 10 --first-seed 101

For each workload of BENCHMARK.json this makes --runs untraced runs, one
seed each, and one traced run.  For every end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound.  The record is stamped with the git commit, nproc, the
kernel and the datapath the traced run saw, and written as JSON and as a
Markdown table under perfbench/results/.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1])


def git_commit():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+uncommitted" if dirty else "")


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def markdown(record):
    out = [f"# Steadiness: {record['date']}", "",
           f"commit `{record['commit']}`, nproc {record['nproc']}, "
           f"kernel {record['kernel']}, {record['runs']} seeds per workload "
           f"from {record['first_seed']}, {record['run_seconds']} s per run.",
           "", "| workload | metric | median | q1 | q3 | spread | bound |",
           "|---|---|---|---|---|---|---|"]
    for w, res in record["workloads"].items():
        for name, s in res["end_to_end"].items():
            out.append(f"| {w} | {name} | {s['median']:.5g} | {s['q1']:.5g} "
                       f"| {s['q3']:.5g} | {s['spread']:.3f} "
                       f"| {s['bound']} |")
    out += ["", "| workload | uring_active | gso_active | gro_active | "
            "shards | failed / attempted |", "|---|---|---|---|---|---|"]
    for w, res in record["workloads"].items():
        d = res["datapath"]
        out.append(f"| {w} | {d['uring_active']} | {d['gso_active']} | "
                   f"{d['gro_active']} | {d['shards']} | "
                   f"{res['failed']} / {res['attempted']} |")
    return "\n".join(out) + "\n"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    now = datetime.datetime.now(datetime.timezone.utc)
    record = {"date": now.strftime("%Y-%m-%d %H:%M UTC"),
              "commit": git_commit(), "nproc": os.cpu_count(),
              "kernel": platform.release(), "run_seconds": seconds,
              "runs": args.runs, "first_seed": args.first_seed,
              "workloads": {}}
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(w, seed, seconds, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}"
                for k, v in results[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        traced = run_once(w, args.first_seed, seconds, 1)
        layer = traced["metrics"]
        record["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "datapath": {
                "uring_active": layer["channel.uring_active"]["value"],
                "gso_active": layer["channel.gso_active"]["value"],
                "gro_active": layer["channel.gro_active"]["value"],
                "shards": layer["multiplexer.shards"]["value"],
            },
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"]
                                 for r in results], bounds[name])
                for name in bounds
            },
            "per_layer": {k: v["value"] for k, v in layer.items()},
        }

    stem = now.strftime("%Y-%m-%d-%H%M") + "-" + record["commit"][:7]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    (RESULTS / f"{stem}.md").write_text(markdown(record))
    print(markdown(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
