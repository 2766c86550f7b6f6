#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload fileserver|varmail|recovery \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; traced runs leave their spans in
perfbench/spans/ there, as gzipped TSV, one pair of files per workload.
perfbench's report lines start with '#'; the last line printed is the
result JSON. Exits non-zero, printing no result, when the build or the
run fails.
"""
import argparse
import glob
import gzip
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configure once, then bring perfbench up to date. Returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def compress_spans(spans_dir):
    """Gzip the span tables a traced run wrote (they run to 100s of MB)."""
    for path in glob.glob(os.path.join(spans_dir, "*.tsv")):
        with open(path, "rb") as src, gzip.open(path + ".gz", "wb",
                                                compresslevel=1) as dst:
            shutil.copyfileobj(src, dst, 1 << 20)
        os.remove(path)


def check_workers(state_path, workload, seed, lines):
    """Flag a run whose autotuned worker counts differ from earlier runs."""
    workers = sorted({m.group(1) for l in lines
                      for m in [re.search(r"workers (.*) \(qdepth", l)] if m})
    if not workers:
        return
    seen = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            seen = json.load(f)
    first = seen.setdefault(workload, {"seed": seed, "workers": workers})
    if first["workers"] != workers:
        log(f"warning: {workload} seed {seed} resolved workers "
            f"{workers} but seed {first['seed']} resolved {first['workers']}")
    with open(state_path, "w") as f:
        json.dump(seen, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fileserver", "varmail", "recovery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    # Compiler and run temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    exe = build(build_dir, env)
    if exe is None:
        log("build failed")
        return 2
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", spans_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run failed with exit code {proc.returncode}")
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the run printed no result")
        return 3
    if set(result) != RESULT_KEYS:
        log(f"unexpected result keys {sorted(result)}")
        return 3
    for line in lines[:-1]:
        print(line)
    compress_spans(spans_dir)
    check_workers(os.path.join(build_dir, "resolved_workers.json"),
                  args.workload, args.seed, lines[:-1])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
