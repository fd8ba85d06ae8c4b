#!/usr/bin/env python3
"""Checks a fresh bench report against its committed golden.

Usage: check_golden.py [--update] GOLDEN FRESH

GOLDEN and FRESH are BENCH_*.json reports. The VOLATILE keys (wall
clock, throughput, thread count and memory readings) are dropped from
both at every depth; everything left is seed-deterministic and must
match exactly. Exits 1 naming the first JSON path that differs.

--update rewrites GOLDEN from FRESH instead, dropping every VOLATILE key
that GOLDEN does not already hold (BENCH_scale.json keeps `rss_mb`,
which CI's memory gate reads).
"""

import json
import sys

VOLATILE = frozenset({
    "wall_seconds", "events_per_sec", "threads", "build_seconds",
    "serial_seconds", "parallel_seconds", "speedup_parallel", "peak_rss_mb",
    "rss_mb", "events_per_wall_sec",
})


def strip(doc):
    """Returns `doc` without the VOLATILE keys, at every depth."""
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k not in VOLATILE}
    if isinstance(doc, list):
        return [strip(v) for v in doc]
    return doc


def refresh(golden, fresh):
    """Returns `fresh` without the VOLATILE keys `golden` lacks."""
    if isinstance(fresh, dict):
        old = golden if isinstance(golden, dict) else {}
        return {k: v if k in VOLATILE else refresh(old.get(k), v)
                for k, v in fresh.items() if k not in VOLATILE or k in old}
    if isinstance(fresh, list):
        old = golden if isinstance(golden, list) else []
        return [refresh(old[i] if i < len(old) else None, v)
                for i, v in enumerate(fresh)]
    return fresh


def first_difference(golden, fresh, path="$"):
    """Returns a description of the first place `fresh` leaves `golden`,
    or None if the two documents are equal (types included)."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in list(golden) + [k for k in fresh if k not in golden]:
            at = f"{path}.{key}"
            if key not in fresh:
                return f"{at}: missing from the fresh report"
            if key not in golden:
                return f"{at}: not in the golden"
            diff = first_difference(golden[key], fresh[key], at)
            if diff:
                return diff
        return None
    if isinstance(golden, list) and isinstance(fresh, list):
        for i, (g, f) in enumerate(zip(golden, fresh)):
            diff = first_difference(g, f, f"{path}[{i}]")
            if diff:
                return diff
        if len(golden) != len(fresh):
            return f"{path}: {len(fresh)} items, golden has {len(golden)}"
        return None
    if type(golden) is type(fresh) and golden == fresh:
        return None
    return f"{path}: golden {json.dumps(golden)}, fresh {json.dumps(fresh)}"


def main(argv):
    update = argv[1:2] == ["--update"]
    if len(argv) != 3 + update:
        sys.exit(__doc__)
    golden_path, fresh_path = argv[1 + update:]
    with open(golden_path) as f:
        golden = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    if update:
        with open(golden_path, "w") as f:
            f.write(json.dumps(refresh(golden, fresh), indent=2) + "\n")
        print(f"wrote {golden_path} from {fresh_path}")
        return
    diff = first_difference(strip(golden), strip(fresh))
    if diff:
        sys.exit(f"{fresh_path} drifted from {golden_path} at {diff}")
    print(f"OK: {fresh_path} matches {golden_path}")


if __name__ == "__main__":
    main(sys.argv)
