#!/usr/bin/env python3
"""Perf smoke: compare a BENCH_*.json against a committed baseline.

Usage: compare_bench.py CURRENT.json BASELINE.json [--tolerance 0.2]
                        [--skip-unless KEY]... [--skip-if KEY]...

The baseline file lists only the keys worth gating on — structural numbers
(syscalls per packet, payload copies per byte) that are stable run over run,
not raw throughput, which shared CI runners scatter far beyond any useful
band.  Every baseline key must exist in the current document and lie within
the relative tolerance of the baseline value; keys present in the current
document but not in the baseline are ignored.  Exits non-zero on the first
report of any violation (all keys are still printed).

--skip-unless KEY gates the whole comparison on a capability flag in the
CURRENT document: when KEY is missing, zero, or falsy there (e.g.
uring_supported on a kernel without io_uring), the script prints SKIPPED and
exits 0 instead of failing on keys the run could not produce.  --skip-if
KEY is the converse: skip when KEY is truthy (e.g. gso_active, for the
baseline of a run with offload off).  Both may be repeated; any one that
applies skips the comparison.
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed relative deviation (0.2 = +/-20%%)")
    ap.add_argument("--skip-unless", metavar="KEY", action="append",
                    default=[],
                    help="skip (exit 0) unless KEY is truthy in CURRENT")
    ap.add_argument("--skip-if", metavar="KEY", action="append", default=[],
                    help="skip (exit 0) if KEY is truthy in CURRENT")
    args = ap.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    for key in args.skip_unless:
        if not current.get(key):
            print(f"SKIPPED: {args.current} has no truthy "
                  f"'{key}' — comparison not applicable here")
            return 0
    for key in args.skip_if:
        if current.get(key):
            print(f"SKIPPED: {args.current} has a truthy "
                  f"'{key}' — comparison not applicable here")
            return 0

    skipped_meta = {"git_sha", "generated_utc"}
    failures = 0
    print(f"{'key':44} {'baseline':>12} {'current':>12} {'dev':>8}")
    for key, base in baseline.items():
        if key in skipped_meta or not isinstance(base, (int, float)):
            continue
        cur = current.get(key)
        if not isinstance(cur, (int, float)):
            print(f"{key:44} {base:12.4g} {'MISSING':>12} {'':>8}  FAIL")
            failures += 1
            continue
        if base == 0:
            # No relative band around zero; baselines should not list such
            # keys, but tolerate them rather than divide by zero.
            status = "ok" if cur == 0 else "FAIL"
            print(f"{key:44} {base:12.4g} {cur:12.4g} {'n/a':>8}  {status}")
            failures += status == "FAIL"
            continue
        dev = abs(cur - base) / abs(base)
        status = "ok" if dev <= args.tolerance else "FAIL"
        print(f"{key:44} {base:12.4g} {cur:12.4g} {dev:7.1%}  {status}")
        failures += status == "FAIL"

    if failures:
        print(f"\n{failures} key(s) outside the +/-{args.tolerance:.0%} band "
              f"of {args.baseline}", file=sys.stderr)
        return 1
    print(f"\nall keys within +/-{args.tolerance:.0%} of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
