#!/usr/bin/env python3
"""Golden tests for tools/lint/spider_lint.py.

Each bad_*.cpp snippet must make its rule fire (nonzero exit, expected
rule names in the output); each good_*.cpp must lint clean. Also checks
the allowlist marker suppresses, that a rule-mismatched marker does not,
and that the real tree (src/ bench/ examples/) is clean — the same
invocation CI runs.

Run directly or via ctest (registered as `lint_golden`):
    python3 tools/lint/tests/run_tests.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "..", "spider_lint.py")
REPO = os.path.abspath(os.path.join(HERE, "..", "..", ".."))

failures: list[str] = []


def run_lint(*args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


def check(name: str, cond: bool, detail: str = "") -> None:
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {name}" + (f" -- {detail}" if detail and not cond else ""))
    if not cond:
        failures.append(name)


def expect_fires(snippet: str, rules: list[str]) -> None:
    path = os.path.join(HERE, snippet)
    code, out = run_lint(path)
    check(f"{snippet}: exits nonzero", code == 1, out)
    for rule in rules:
        check(f"{snippet}: fires [{rule}]", f"[{rule}]" in out, out)


def expect_clean(snippet: str) -> None:
    path = os.path.join(HERE, snippet)
    code, out = run_lint(path)
    check(f"{snippet}: exits zero", code == 0, out)


def main() -> int:
    expect_fires("bad_unordered_iter.cpp", ["unordered-container", "unordered-iter"])
    expect_fires("bad_rand.cpp", ["nondet-random"])
    expect_fires("bad_wall_clock.cpp", ["wall-clock"])
    expect_fires("bad_float.cpp", ["float-accum"])
    expect_fires("bad_ptr_key.cpp", ["ptr-key-order"])
    expect_fires("bad_fault_sampling.cpp", ["fault-sampling"])
    expect_fires("bad_hot_alloc.cpp", ["hot-loop-alloc"])
    expect_fires("bad_mutable_global.cpp", ["mutable-global"])
    expect_fires("bad_rng_seed.cpp", ["rng-seed"])
    expect_fires("bad_runner_capture.cpp", ["runner-capture"])
    expect_clean("good_allowlist.cpp")
    expect_clean("good_clean.cpp")
    expect_clean("good_hot_alloc_unmarked.cpp")
    expect_clean("good_mutable_global.cpp")
    expect_clean("good_rng_seed.cpp")
    expect_clean("good_runner_capture.cpp")

    # Per-line counts: bad_rand has four firing lines, bad_wall_clock three.
    code, out = run_lint(os.path.join(HERE, "bad_rand.cpp"))
    check("bad_rand.cpp: 4 findings", out.count("[nondet-random]") == 4, out)
    code, out = run_lint(os.path.join(HERE, "bad_wall_clock.cpp"))
    check("bad_wall_clock.cpp: 3 findings", out.count("[wall-clock]") == 3, out)
    check("bad_wall_clock.cpp: steady_clock line clean", ":10:" not in out, out)

    # hot-loop-alloc: exactly the two per-call constructions fire; the
    # argless declaration, the function signature, and the allow()ed
    # construction stay clean.
    code, out = run_lint(os.path.join(HERE, "bad_hot_alloc.cpp"))
    check("bad_hot_alloc.cpp: 2 findings", out.count("[hot-loop-alloc]") == 2, out)

    # Multi-pass rules: exact per-line counts on the golden pairs. The
    # bad files also pin which kinds of line fire (namespace scope,
    # static, thread_local, function-local static for mutable-global;
    # slot writes staying clean for runner-capture).
    code, out = run_lint(os.path.join(HERE, "bad_mutable_global.cpp"))
    check("bad_mutable_global.cpp: 5 findings", out.count("[mutable-global]") == 5, out)
    code, out = run_lint(os.path.join(HERE, "bad_rng_seed.cpp"))
    check("bad_rng_seed.cpp: 3 findings", out.count("[rng-seed]") == 3, out)
    code, out = run_lint(os.path.join(HERE, "bad_runner_capture.cpp"))
    check("bad_runner_capture.cpp: 3 findings", out.count("[runner-capture]") == 3, out)
    check("bad_runner_capture.cpp: slot write clean", ":22:" not in out, out)

    # The multi-pass rules appear in the catalogue.
    code, out = run_lint("--list-rules")
    for rule in ("mutable-global", "rng-seed", "runner-capture"):
        check(f"--list-rules mentions {rule}", f"{rule}:" in out, out)

    # --json: machine-readable report with per-rule counts.
    with tempfile.TemporaryDirectory() as td:
        report = os.path.join(td, "findings.json")
        code, out = run_lint(os.path.join(HERE, "bad_runner_capture.cpp"), "--json", report)
        try:
            with open(report, encoding="utf-8") as fh:
                doc = json.load(fh)
            ok = (
                doc["finding_count"] == 3
                and doc["findings_by_rule"] == {"runner-capture": 3}
                and len(doc["findings"]) == 3
                and all(f["suggestion"] for f in doc["findings"])
            )
        except (OSError, KeyError, ValueError) as e:
            ok, doc = False, str(e)
        check("--json report structure", ok, str(doc))

    # --fix-suggestions: each finding gets a concrete fix line.
    code, out = run_lint(os.path.join(HERE, "bad_runner_capture.cpp"), "--fix-suggestions")
    check("--fix-suggestions prints fixes",
          out.count("fix:") == 3 and "out[i] = ..." in out, out)

    # --audit-suppressions: lists markers with rationales (same line, or
    # the comment lines directly above), flags bare ones, and always
    # exits 0 even though markers exist.
    with tempfile.TemporaryDirectory() as td:
        audited = os.path.join(td, "audited.cpp")
        with open(audited, "w", encoding="utf-8") as fh:
            fh.write(
                "#include <cstdlib>\n"
                "int f() {\n"
                "  int a = rand();  // spider-lint: allow(nondet-random) documented why\n"
                "  int b = rand();  // spider-lint: allow(nondet-random)\n"
                "  // Reason on the line above.\n"
                "  // spider-lint: allow(nondet-random)\n"
                "  int c = rand();\n"
                "  return a + b + c;\n"
                "}\n"
            )
        code, out = run_lint("--audit-suppressions", audited)
        check(
            "--audit-suppressions inventory",
            code == 0
            and "documented why" in out
            and ":6: allow(nondet-random) -- Reason on the line above." in out
            and out.count("NO RATIONALE") == 1
            and "3 suppression(s), 1 without a rationale" in out,
            out,
        )
    # Every marker in the tree carries its reason.
    code, out = run_lint("--audit-suppressions",
                         *(os.path.join(REPO, d) for d in ("src", "bench", "examples")))
    check("tree suppressions all have a rationale",
          "6 suppression(s), 0 without a rationale" in out, out)

    # Self-lint: the linter and this harness must at least be valid
    # Python (CI runs them under whatever python3 the image ships).
    proc = subprocess.run(
        [sys.executable, "-m", "py_compile", LINT, os.path.abspath(__file__)],
        capture_output=True,
        text=True,
        check=False,
    )
    check("tools/lint self-compiles", proc.returncode == 0, proc.stderr)

    # The seeded generator is the sanctioned home for fault randomness:
    # the same engine+fault-type combination must NOT fire under
    # src/faults/ itself.
    code, out = run_lint(os.path.join(REPO, "src", "faults", "fault_profile.cpp"))
    check("src/faults/ exempt from fault-sampling", code == 0, out)

    # A marker for the wrong rule must NOT suppress the finding.
    with tempfile.TemporaryDirectory() as td:
        wrong = os.path.join(td, "wrong_marker.cpp")
        with open(wrong, "w", encoding="utf-8") as fh:
            fh.write(
                "#include <cstdlib>\n"
                "int f() {\n"
                "  return rand();  // spider-lint: allow(wall-clock)\n"
                "}\n"
            )
        code, out = run_lint(wrong)
        check("wrong-rule marker does not suppress", code == 1 and "[nondet-random]" in out, out)

        # Marker on the preceding comment line suppresses.
        above = os.path.join(td, "marker_above.cpp")
        with open(above, "w", encoding="utf-8") as fh:
            fh.write(
                "#include <cstdlib>\n"
                "int f() {\n"
                "  // spider-lint: allow(nondet-random) fixture\n"
                "  return rand();\n"
                "}\n"
            )
        code, out = run_lint(above)
        check("marker on line above suppresses", code == 0, out)

    # The real tree must be clean -- the exact invocation CI uses.
    code, out = run_lint(
        os.path.join(REPO, "src"),
        os.path.join(REPO, "bench"),
        os.path.join(REPO, "examples"),
    )
    check("repo src/ bench/ examples/ clean", code == 0, out)

    if failures:
        print(f"\n{len(failures)} golden test(s) failed", file=sys.stderr)
        return 1
    print("\nall lint golden tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
