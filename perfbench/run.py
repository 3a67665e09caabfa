#!/usr/bin/env python3
"""Builds and runs the repository benchmark declared in BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run from the repository root. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library
one directory up) under .bench_build/; later calls rebuild only what
changed. The binary generates its inputs from --seed, measures for
--seconds, checks its outputs, and prints a metadata line and a result
line. This script validates the result against the metric names and
units BENCHMARK.json declares (end-to-end ones with --trace 0, per-layer
ones with --trace 1), checks that a seed's EC structure is the same on
every run in this checkout, and prints the result as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed check prints a result without metrics and exits 1; a missing
library or a failed build exits 2 without a result.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# Files whose content identifies the program under test, for the
# record's source hash (the checkout the benchmark runs in may not be a
# git repository).
SOURCE_SUFFIXES = (".cc", ".h", ".txt", ".json", ".py")


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        die("no library sources next to perfbench/ (run from the "
            "repository root)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT, env=env,
                    timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as error:
                die("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha256():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and
                             not d.startswith("build"))
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def check_metrics(metrics, declared, trace):
    """Empty string when `metrics` is exactly the declared set."""
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        return "metric names differ: missing %s, undeclared %s" % (missing,
                                                                   extra)
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != declared[name]:
            return "%s has unit %r, declared %r" % (name, metric.get("unit"),
                                                    declared[name])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s is not a finite number" % name
        if not trace and value <= 0:
            return "end-to-end metric %s is not positive" % name
    return ""


def check_ec_structure(args, facts):
    """Empty string when this seed published the same classes as before."""
    path = os.path.join(OUT, "ec_structure.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = "%s/%d/%s" % (args.workload, args.seed, "tiny" if args.tiny else "")
    now = [facts["ecs"], facts["ec_hash"]]
    if key in seen and seen[key] != now:
        return "seed %d published %s, earlier runs %s" % (args.seed, now,
                                                          seen[key])
    seen[key] = now
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small tables, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        die("no BENCHMARK.json at the repository root")
    declared = declared_metrics(args.trace)

    build()
    sha = git_sha()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", sha]
    if args.tiny:
        command.append("--tiny")
    if args.trace:
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(OUT, "trace", args.workload + ".csv")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(done.stderr)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(done.stdout[-2000:])
        die("benchmark binary printed no result (exit %d)" % done.returncode,
            1)

    problem = "" if done.returncode == 0 and result["correct"] else (
        meta.get("error") or "exit code %d" % done.returncode)
    if not problem:
        problem = (check_metrics(result["metrics"], declared, args.trace) or
                   check_ec_structure(args, meta["facts"]))
    meta["source_sha256"] = source_sha256()
    meta["error"] = problem or None
    if problem:
        result["correct"] = False
        result["metrics"] = {}
    record = {"meta": meta, "result": result}
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    record_path = os.path.join(
        OUT, "records", "%s-seed%d-trace%d%s.json" %
        (args.workload, args.seed, args.trace, "-tiny" if args.tiny else ""))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    if problem:
        print("perfbench: check failed: " + problem, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
