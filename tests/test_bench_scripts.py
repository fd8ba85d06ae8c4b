#!/usr/bin/env python3
"""Unit tests of bench/check_golden.py and of bench/perf_gate.py's
compare step. Standard library only:

    python3 tests/test_bench_scripts.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import perf_gate  # noqa: E402

GOLDEN = {
    "bench": "demo",
    "threads": 4,
    "trials": [
        {"seed": 1, "events": 120, "wall_seconds": 0.5,
         "metrics": {"attempted": 10, "succeeded": 7}},
        {"seed": 2, "events": 130, "wall_seconds": 0.6,
         "metrics": {"attempted": 10, "succeeded": 8}},
    ],
    "rss_mb": {"run": 12.5},
}


class CheckGoldenTest(unittest.TestCase):
    def check(self, fresh):
        """Runs check_golden.py on GOLDEN and `fresh`; returns (exit
        code, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("golden.json", GOLDEN), ("fresh.json", fresh)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "check_golden.py")] +
                paths, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
        return proc.returncode, proc.stderr

    def fresh(self):
        return json.loads(json.dumps(GOLDEN))

    def test_identical_passes(self):
        self.assertEqual(self.check(self.fresh())[0], 0)

    def test_only_volatile_keys_differ_passes(self):
        fresh = self.fresh()
        fresh["threads"] = 2
        fresh["trials"][1]["wall_seconds"] = 9.0
        fresh["rss_mb"] = {"run": 99.0, "build": 3.0}
        del fresh["trials"][0]["wall_seconds"]
        self.assertEqual(self.check(fresh)[0], 0)

    def test_changed_deterministic_value_fails_naming_the_path(self):
        fresh = self.fresh()
        fresh["trials"][1]["metrics"]["succeeded"] = 9
        code, err = self.check(fresh)
        self.assertEqual(code, 1)
        self.assertIn("$.trials[1].metrics.succeeded", err)

    def test_type_change_fails(self):
        fresh = self.fresh()
        fresh["trials"][0]["events"] = 120.0
        self.assertEqual(self.check(fresh)[0], 1)

    def test_key_missing_from_fresh_fails(self):
        fresh = self.fresh()
        del fresh["trials"][0]["events"]
        code, err = self.check(fresh)
        self.assertEqual(code, 1)
        self.assertIn("$.trials[0].events", err)

    def test_extra_non_volatile_key_fails(self):
        fresh = self.fresh()
        fresh["trials"][0]["metrics"]["partial"] = 0
        code, err = self.check(fresh)
        self.assertEqual(code, 1)
        self.assertIn("$.trials[0].metrics.partial", err)

    def test_missing_trial_fails(self):
        fresh = self.fresh()
        fresh["trials"].pop()
        self.assertEqual(self.check(fresh)[0], 1)

    def test_update_drops_volatile_keys_the_golden_lacks(self):
        fresh = self.fresh()
        fresh["trials"][0]["events"] = 121
        fresh["rss_mb"] = {"run": 13.0}
        golden = {k: v for k, v in GOLDEN.items() if k != "threads"}
        golden["trials"] = [{k: v for k, v in t.items()
                             if k != "wall_seconds"} for t in GOLDEN["trials"]]
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "golden.json"),
                     os.path.join(tmp, "fresh.json")]
            for path, doc in zip(paths, (golden, fresh)):
                with open(path, "w") as f:
                    json.dump(doc, f)
            subprocess.run([sys.executable,
                            os.path.join(BENCH, "check_golden.py"),
                            "--update"] + paths, check=True,
                           stdout=subprocess.DEVNULL)
            with open(paths[0]) as f:
                updated = json.load(f)
        self.assertNotIn("threads", updated)
        self.assertNotIn("wall_seconds", updated["trials"][0])
        self.assertEqual(updated["trials"][0]["events"], 121)
        self.assertEqual(updated["rss_mb"], {"run": 13.0})


SPEC = {"end_to_end": [
    {"name": "payments_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]}


def result(payments_per_s=100.0, setup_s=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": {"payments_per_s": {"value": payments_per_s},
                        "setup_s": {"value": setup_s}}}


class PerfGateCompareTest(unittest.TestCase):
    base = [result(90.0), result(100.0), result(110.0)]

    def test_within_bounds_passes(self):
        head = [result(80.0, 1.2), result(76.0, 1.24), result(120.0, 0.5)]
        self.assertEqual(perf_gate.compare(SPEC, self.base, head), [])

    def test_better_higher_beyond_bound_fails(self):
        head = [result(70.0), result(74.0), result(200.0)]
        problems = perf_gate.compare(SPEC, self.base, head)
        self.assertEqual(len(problems), 1)
        self.assertIn("payments_per_s", problems[0])

    def test_better_lower_beyond_bound_fails(self):
        head = [result(setup_s=1.3)] * 3
        problems = perf_gate.compare(SPEC, self.base, head)
        self.assertEqual(len(problems), 1)
        self.assertIn("setup_s", problems[0])

    def test_incorrect_run_fails(self):
        head = [result(), result(correct=False), result()]
        self.assertEqual(len(perf_gate.compare(SPEC, self.base, head)), 1)

    def test_failed_payments_fail(self):
        base = self.base + [result(failed=3)]
        self.assertEqual(len(perf_gate.compare(SPEC, base, self.base)), 1)


if __name__ == "__main__":
    unittest.main()
