#!/usr/bin/env python3
"""Checks a fresh bench report's deterministic fields against its golden.

Usage: check_golden.py GOLDEN FRESH FIELD [FIELD ...]

GOLDEN and FRESH are BENCH_*.json reports with a "trials" list. Every
trial must agree on each named FIELD exactly; wall-clock fields are not
compared. Exits 1 naming the first trial and field that differ.
"""

import json
import sys


def main(argv):
    if len(argv) < 4:
        sys.exit(__doc__)
    golden_path, fresh_path, fields = argv[1], argv[2], argv[3:]
    with open(golden_path) as f:
        golden = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    gt, ft = golden["trials"], fresh["trials"]
    if len(gt) != len(ft):
        sys.exit(f"trial count {len(ft)} != golden {len(gt)}")
    for i, (g, t) in enumerate(zip(gt, ft)):
        for field in fields:
            if t.get(field) != g.get(field):
                sys.exit(f"trial {i} ({g.get('variant', '?')}, seed "
                         f"{g.get('seed', '?')}): {field} drifted from "
                         f"{golden_path}")
    print(f"OK: {len(gt)} trials match {golden_path} on {', '.join(fields)}")


if __name__ == "__main__":
    main(sys.argv)
