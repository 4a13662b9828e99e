#!/usr/bin/env python3
"""Builds the stems end-to-end benchmark from source and runs one workload.

Run from the root of a stems checkout:

    python3 perfbench/run.py --workload join_sim --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds an optimized binary under
$CARGO_TARGET_DIR (default .bench_build) from perfbench/CMakeLists.txt;
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is always the benchmark's result object (see README.md).
A traced run (--trace 1) also writes its spans as Chrome trace JSON to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "stems_perfbench"
# A run measures for --seconds plus set-up; anything near the 180 s a run
# may take means it hung.
RUN_TIMEOUT_S = 170

# Per-layer counts that the sim executor must repeat exactly for a seed.
SIM_COUNTS = [
    "sim.events_per_query",
    "sim.events_per_routed",
    "sim.virtual_ms_per_query",
    "eddy.routed_per_query",
    "eddy.constraint_violations",
    "stem.builds_per_query",
    "stem.probes_per_query",
    "stem.matches_per_probe",
    "am.rows_read_per_result",
    "am.index_probes_per_query",
    "sm.pass_ratio",
    "runtime.allocs_per_routed",
    "runtime.alloc_bytes_per_result",
    "spill.ios_per_query",
    "spill.bytes_per_query",
    "spill.pool_evictions_per_query",
    "spill.partitions_spilled",
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(1)
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which(
        "ninja"
    ):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (cmd, ["cmake", "--build", out, "-j", jobs]):
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(1)
    return os.path.join(out, BINARY)


def commit_id():
    """The git commit, or a hash of the sources when there is no repository."""
    try:
        result = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        result = subprocess.run(
            [binary] + args,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return result.returncode, result.stdout or ""


def self_test(binary):
    """The correctness gate catches a dropped row, and the sim executor's
    per-layer counts repeat exactly for a seed."""
    code, _ = run(binary, ["--self-test", "drop-row"])
    if code != 0:
        log("self-test drop-row failed")
        return 1
    for workload in ("join_sim", "spill_sim"):
        counts = []
        for _ in range(2):
            code, out = run(
                binary,
                ["--workload", workload, "--seed", "7", "--seconds", "3",
                 "--trace", "1"],
                capture=True,
            )
            if code != 0:
                log("self-test %s run failed" % workload)
                return 1
            metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
            counts.append({k: metrics[k]["value"] for k in SIM_COUNTS})
        diff = [k for k in SIM_COUNTS if counts[0][k] != counts[1][k]]
        if diff or counts[0]["sim.events_per_query"] <= 0:
            log("self-test %s: counts differ between runs: %s" % (workload, diff))
            return 1
        print("self-test %s: %d sim-executor counts identical across two runs"
              % (workload, len(SIM_COUNTS)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    cmd = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit_id(),
    ]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    code, _ = run(binary, cmd)
    return code


if __name__ == "__main__":
    sys.exit(main())
