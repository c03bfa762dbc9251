#!/usr/bin/env python3
"""Closed-loop MapReduce job benchmark.

Builds perfbench/ (which compiles the library from src/) into the build
directory, runs one workload, stamps the result with its environment and
prints, as the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --workload crawl-distinct --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when the build fails, a job fails, or a job's
output differs from the reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("crawl-distinct", "weblog-window", "wordcount-spill")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds the benchmark; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", jobs, "--target", "jobbench"]]
    with open(log_path, "w") as build_log:
        for step in steps:
            code = subprocess.call(step, cwd=ROOT, stdout=build_log,
                                   stderr=subprocess.STDOUT)
            if code != 0:
                build_log.flush()
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                log("build failed: " + " ".join(step))
                return None
    return os.path.join(out_dir, "jobbench")


def cmake_cache(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_version(out_dir):
    compiler = cmake_cache(out_dir, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        return out.splitlines()[0] if out else compiler
    except (OSError, subprocess.SubprocessError):
        return compiler


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the files the binary is built from, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    load_start = os.getloadavg()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    load_end = os.getloadavg()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result (exit %d)" % proc.returncode)
        return 4
    for line in lines[:-1]:
        print(line)

    build_type = cmake_cache(out_dir, "CMAKE_BUILD_TYPE")
    env = {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "build_type": build_type,
        "release_build": build_type == "Release",
        "compiler": compiler_version(out_dir),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup_jobs_dropped": result["workload"]["warmup_jobs_dropped"],
    }
    if build_type != "Release":
        log("WARNING: %s build; timings are not comparable" % build_type)
    print("env " + json.dumps(env, sort_keys=True))
    print("workload " + json.dumps(result["workload"], sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
