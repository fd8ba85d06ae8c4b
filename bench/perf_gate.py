#!/usr/bin/env python3
"""Perf gate: perfbench medians of this checkout against a base commit.

Usage: perf_gate.py [BASE]    (BASE is a git revision, default HEAD^)

Run from a git checkout. The script exports BASE with `git archive` and
builds perfbench for it and for this checkout, each in its own directory
under .perf_gate/. For every workload it then runs PAIRS alternating
base/head pairs of `perfbench/run.py --seconds SECONDS --trace 0`.

It fails if any run is not `correct` or has failed payments. It also
fails if the head median of an `end_to_end` metric in BENCHMARK.json is
worse than the base median by more than that metric's `bound`, a
fraction of the base median, in the metric's `better` direction.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 10
SECONDS = 2
SEED = 1
WORKLOADS = ["fig6-flow", "ripple-packet", "service-adversarial"]


def medians(spec, runs):
    """Median of each end-to-end metric over perfbench result objects."""
    return {m["name"]: statistics.median(r["metrics"][m["name"]]["value"]
                                         for r in runs)
            for m in spec["end_to_end"]}


def compare(spec, base_runs, head_runs):
    """Returns one message per failed check of one workload's runs (lists
    of perfbench result objects); an empty list means the gate passes."""
    problems = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for r in runs:
            if r["correct"] is not True or r["failed"] > 0:
                problems.append(f"a {side} run has correct={r['correct']}, "
                                f"failed={r['failed']}")
    base_medians = medians(spec, base_runs)
    head_medians = medians(spec, head_runs)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base, head = base_medians[name], head_medians[name]
        worse = head - base if metric["better"] == "lower" else base - head
        if worse > metric["bound"] * abs(base):
            problems.append(f"{name}: head median {head:g} is worse than base "
                            f"median {base:g} by more than "
                            f"{metric['bound']:.0%}")
    return problems


def build(tree, bdir):
    """Builds perfbench as perfbench/run.py does, so that the timed runs
    start within run.py's deadline and find the binary up to date."""
    steps = [["cmake", "--build", bdir, "--target", "perfbench", "-j",
              str(max(1, min(4, os.cpu_count() or 1)))]]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                         bdir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is the gate's report.
        subprocess.run(cmd, stdout=sys.stderr, check=True)


def run(tree, bdir, workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=dict(os.environ, CARGO_TARGET_DIR=bdir),
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv):
    if len(argv) > 2:
        sys.exit(__doc__)
    base_rev = argv[1] if len(argv) == 2 else "HEAD^"
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    work = os.path.join(root, ".perf_gate")
    base_tree = os.path.join(work, "base-src")
    shutil.rmtree(base_tree, ignore_errors=True)
    os.makedirs(base_tree)
    archive = subprocess.run(["git", "archive", base_rev], cwd=root,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
    sides = {"base": (base_tree, os.path.join(work, "base-build")),
             "head": (root, os.path.join(work, "head-build"))}
    for tree, bdir in sides.values():
        build(tree, bdir)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    problems = []
    for workload in WORKLOADS:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            # Alternate which side goes first so host drift hits both.
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                runs[side].append(run(*sides[side], workload))
        base, head = medians(spec, runs["base"]), medians(spec, runs["head"])
        for name in base:
            print(f"{workload:20} {name:16} base {base[name]:<12g} "
                  f"head {head[name]:g}")
        problems += [f"{workload}: {p}"
                     for p in compare(spec, runs["base"], runs["head"])]
    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)
    print(f"OK: no end-to-end metric worse than {base_rev} beyond its bound")


if __name__ == "__main__":
    main(sys.argv)
