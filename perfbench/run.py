#!/usr/bin/env python3
"""Builds and runs the Spider end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds `perfbench` from source with CMake into $CARGO_TARGET_DIR (or
`.bench_build`); later calls reuse the build. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.

--trace 0 runs the named workload and reports its end-to-end metrics.
--trace 1 is the traced run: it runs every workload's traced pass, each
in its own process, and reports every per-layer metric. Each layer is
measured on the workload that exercises it (README.md has the table);
the process-wide metrics (mem.*, alloc.*, trace.*) come from the named
workload. Exits non-zero without a result if the build or a run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig6-flow", "ripple-packet", "service-adversarial"]
PROCESS_METRICS = {"mem.setup_rss_mb", "alloc.setup_count", "trace.overhead_ratio"}
# Every run, traced ones included, must end well inside 180 s.
DEADLINE_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(bdir):
    """Configures once, then brings the binary up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "perfbench")
    if not os.path.exists(exe):
        fail("build produced no perfbench binary")
    return exe


def run_child(exe, workload, args, trace, spans, deadline):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish in time")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        facts = json.loads(lines[-2])["facts"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        fail("%s printed no facts and result lines" % workload)
    if not same_digest(exe, workload, args.seed, facts["metrics_digest"]):
        print("%s: CHECK FAILED: metrics digest differs from an earlier run "
              "of this build and seed" % workload)
        result["correct"] = False
        result["failed"] = result["attempted"]
    return result


def same_digest(exe, workload, seed, digest):
    """Timed and traced runs of one build and seed must simulate the same
    outcomes; the first run of each records its digest in the build dir."""
    path = os.path.join(os.path.dirname(exe), "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = "%s/%d/%d" % (workload, seed, os.stat(exe).st_mtime_ns)
    if known.setdefault(key, digest) != digest:
        return False
    with open(path, "w") as f:
        json.dump(known, f, indent=1)
    return True


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    names = expected_names(args.trace)
    bdir = build_dir()
    exe = build(bdir)

    if args.trace == 0:
        result = run_child(exe, args.workload, args, 0, None, deadline)
    else:
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in order:
            child = run_child(exe, w, args, 1,
                              os.path.join(bdir, "spans-%s.json" % w), deadline)
            result["correct"] = result["correct"] and child["correct"]
            result["attempted"] += child["attempted"]
            result["failed"] += child["failed"]
            for name, metric in child["metrics"].items():
                if name in PROCESS_METRICS:
                    if w == args.workload:
                        result["metrics"][name] = metric
                elif name in result["metrics"]:
                    fail("two workloads report " + name)
                else:
                    result["metrics"][name] = metric

    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))))
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s has no finite value" % name)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {n: metrics[n] for n in names}}))


if __name__ == "__main__":
    main()
