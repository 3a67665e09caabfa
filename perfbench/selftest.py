#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's contract (keys, limits,
well-formed names and units), then runs every workload once untraced
and once traced at a tiny size (--tiny, one second) and checks that
each result line is well-formed, correct, and carries exactly the
declared metrics with their declared units. Exits 1 on any failure.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def spec_problems(spec):
    problems = []
    if set(spec) != SPEC_KEYS:
        problems.append("top-level keys %s" % sorted(spec))
        return problems
    command = spec["command"]
    if not (1 <= len(command) <= 32 and
            all(isinstance(a, str) and len(a) <= 200 for a in command)):
        problems.append("command shape")
    if any(a.startswith("/") or ".." in a.split("/") for a in command):
        problems.append("command leaves the repository")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]):
        problems.append("paths")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        problems.append("run_seconds")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count")
    for w in spec["workloads"]:
        names.append(w.get("name", ""))
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(
                w["why"]) > 200:
            problems.append("workload %r" % w.get("name"))
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("end_to_end count")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("per_layer count")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            names.append(m.get("name", ""))
            if set(m) != keys or not UNIT.match(m["unit"]) or m[
                    "better"] not in ("lower", "higher"):
                problems.append("%s metric %r" % (section, m.get("name")))
            if "bound" in keys and not 0 < m["bound"] <= 0.25:
                problems.append("bound of %r" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s")
    problems += ["bad name %r" % n for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("duplicate names")
    return problems


def run_problems(spec, workload, trace):
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    command = spec["command"] + ["--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        return ["exit %d: %s" % (done.returncode, done.stderr[-500:])]
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("not correct")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append("metrics missing %s, undeclared %s" % (
            sorted(set(declared) - set(metrics)),
            sorted(set(metrics) - set(declared))))
    for name, m in metrics.items():
        if not NAME.match(name) or set(m) != {"value", "unit"}:
            problems.append("malformed metric %r" % name)
        elif m["unit"] != declared.get(name) or not UNIT.match(m["unit"]):
            problems.append("unit of %r" % name)
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            problems.append("value of %r" % name)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for problem in spec_problems(spec):
        print("BENCHMARK.json: " + problem)
        failures += 1
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = run_problems(spec, workload, trace)
            print("%-12s trace=%d %s" % (workload, trace,
                                        "; ".join(problems) or "ok"))
            failures += len(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
