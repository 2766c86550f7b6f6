#!/usr/bin/env python3
"""Interleaved A/B benchmark runner.

Compares two builds of the same google-benchmark binary on a shared,
noisy host. Absolute numbers from separate sessions are untrustworthy
(run-to-run spread on this class of machine reaches +/-15%), so the only
honest protocol is to interleave the binaries in one session and compare
statistics that cancel host drift:

  * runs alternate A,B with the order swapped every pair (ABBA ABBA ...)
    so slow-drifting load taxes both binaries equally;
  * per-benchmark comparison uses min-of-runs (robust to one-sided noise:
    the best case a binary achieved) and median-of-runs (central
    tendency) of real_time and cpu_time;
  * ratio reported is A/B per benchmark, i.e. >1.0 means B is faster.

Usage:
  tools/bench_ab.py --a <baseline-binary> --b <candidate-binary> \
      --filter <regex> [--runs 8] [--min-time 0.2] [--out results.json]

The positional benchmark binary arguments must both support
--benchmark_format=json (any google-benchmark binary does).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(binary, bench_filter, min_time):
    cmd = [
        binary,
        "--benchmark_filter=" + bench_filter,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark run failed: {' '.join(cmd)}")
    # The binaries print a human header before the JSON document.
    out = proc.stdout
    start = out.find("{")
    if start < 0:
        raise RuntimeError(f"no JSON in output of {binary}")
    doc = json.loads(out[start:])
    results = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        results[name] = {
            "real_time": float(bench["real_time"]),
            "cpu_time": float(bench["cpu_time"]),
        }
    return results


def merge(acc, one_run):
    for name, times in one_run.items():
        acc.setdefault(name, {"real_time": [], "cpu_time": []})
        acc[name]["real_time"].append(times["real_time"])
        acc[name]["cpu_time"].append(times["cpu_time"])


def summarize(a_acc, b_acc):
    summary = {}
    for name in sorted(a_acc):
        if name not in b_acc:
            continue
        entry = {}
        for metric in ("real_time", "cpu_time"):
            a_samples = a_acc[name][metric]
            b_samples = b_acc[name][metric]
            a_min, b_min = min(a_samples), min(b_samples)
            a_med = statistics.median(a_samples)
            b_med = statistics.median(b_samples)
            entry[metric] = {
                "a_min": a_min,
                "b_min": b_min,
                "a_median": a_med,
                "b_median": b_med,
                "min_ratio_a_over_b": a_min / b_min if b_min else None,
                "median_ratio_a_over_b": a_med / b_med if b_med else None,
            }
        summary[name] = entry
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True, help="baseline binary (A)")
    ap.add_argument("--b", required=True, help="candidate binary (B)")
    ap.add_argument("--filter", required=True, help="benchmark name regex")
    ap.add_argument("--runs", type=int, default=8,
                    help="runs per binary (default 8)")
    # A plain number: libbenchmark before 1.8 rejects a unit suffix.
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="--benchmark_min_time per run, seconds (default 0.2)")
    ap.add_argument("--out", help="write full results JSON here")
    args = ap.parse_args()

    a_acc, b_acc = {}, {}
    for pair in range(args.runs):
        # Swap order every pair: A,B then B,A then A,B ...
        order = [("A", args.a, a_acc), ("B", args.b, b_acc)]
        if pair % 2 == 1:
            order.reverse()
        for label, binary, acc in order:
            sys.stderr.write(f"[bench_ab] pair {pair + 1}/{args.runs}: "
                             f"{label} = {binary}\n")
            merge(acc, run_once(binary, args.filter, args.min_time))

    summary = summarize(a_acc, b_acc)
    doc = {
        "method": ("interleaved A/B, order swapped each pair; "
                   f"{args.runs} runs per binary of filter "
                   f"'{args.filter}' at min_time {args.min_time}; "
                   "ratios are A/B (>1.0 means B faster)"),
        "a": args.a,
        "b": args.b,
        "benchmarks": summary,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)

    if not summary:
        sys.stderr.write("[bench_ab] no overlapping benchmarks matched\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
