#!/usr/bin/env python3
"""spider_lint: determinism & shared-state static checks for Spider C++.

The simulator's published numbers rest on a contract the compiler cannot
see: same-seed runs are bit-for-bit deterministic, no code path depends
on iteration order, wall-clock time, or platform randomness, and no
shared mutable state exists outside one exp::Runner call's work
cursor. This linter enforces the mechanical half of that contract over
`src/`, `bench/`, and `examples/` (see tools/lint/lint_rules.md for the
rule catalogue and DESIGN.md §7/§11 for the policy).

Two layers run on every invocation:

  * line-local rules (unordered-container, nondet-random, wall-clock,
    float-accum, ptr-key-order, hot-loop-alloc, fault-sampling), regex
    over one line at a time;
  * multi-pass rules (mutable-global, rng-seed, runner-capture) that
    first map each file's brace scopes and Runner-typed variables and
    then check the file against that map.

Zero dependencies beyond the Python 3 standard library; regex-driven on
purpose -- it runs in well under a second over the whole tree and never
needs a compile database.

Usage:
    tools/lint/spider_lint.py src bench examples
    tools/lint/spider_lint.py --all
    tools/lint/spider_lint.py --all --json findings.json
    tools/lint/spider_lint.py --all --fix-suggestions
    tools/lint/spider_lint.py --audit-suppressions src bench examples
    tools/lint/spider_lint.py --list-rules
    tools/lint/spider_lint.py file.cpp another.hpp

Exit status: 0 when clean, 1 when any finding fired, 2 on usage errors.
--audit-suppressions always exits 0: it is an inventory, not a gate.

Suppression: append `// spider-lint: allow(<rule>)` to the offending
line, or put it alone on the line directly above. Every suppression
should carry a human-readable justification after it or in the comment
lines directly above; --audit-suppressions lists them all and calls out
bare markers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterator, NamedTuple

CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")

# Roots --all expands to, relative to the repository root (two levels up
# from this file). tools/lint/tests/ is deliberately absent: fixtures
# exist to fire.
DEFAULT_ROOTS = ("src", "bench", "examples")

ALLOW_RE = re.compile(r"//\s*spider-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
# `for (... : expr)` -- captures the range expression for identifier lookup.
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;]*?:\s*([^)]+)\)")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Variable or member names declared with an unordered container type on
# the same line: `std::unordered_map<K, V> name;` / `... name_;`
UNORDERED_VAR_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*[;{=(]"
)
# Fault-injection vocabulary (src/faults/ public types).
FAULT_TYPE_RE = re.compile(r"\bFault(?:Plan|Profile|Event|Injector|Kind)\b")
# Opt-in marker for the hot-loop allocation rule: files whose functions
# sit on the per-query path of the simulators declare themselves with
# `// spider-lint: hot-path-file` and are then checked for per-call
# container construction.
HOT_PATH_MARKER_RE = re.compile(r"//\s*spider-lint:\s*hot-path-file\b")
# A named container variable constructed with arguments:
# `std::vector<char> seen(n, 0);`. Qualified definitions
# (`std::vector<Path> PathFinder::yen(...)`) never match (the `::`
# breaks the name-then-paren adjacency); unqualified function
# signatures are excluded below by their parameter-list shape.
HOT_ALLOC_RE = re.compile(
    r"\b(?:std::)?(?:vector|deque|list|set|map|multiset|multimap"
    r"|unordered_set|unordered_map|priority_queue|string)\s*"
    r"<[^;(){}]*>\s+[A-Za-z_]\w*\s*\(([^)]*)"
)
# Construction of a std RNG engine or distribution.
STD_RNG_RE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w+|knuth_b"
    r"|(?:uniform_(?:int|real)|exponential|poisson|normal|lognormal"
    r"|bernoulli|geometric|binomial|discrete)_distribution)\b"
)
# A std RNG *engine* (not distribution) constructed into a named
# variable. Group 1 = engine type, 2 = variable, 3 = open delimiter.
RNG_ENGINE_CTOR_RE = re.compile(
    r"\bstd::(mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w+|knuth_b)\s+([A-Za-z_]\w*)\s*([;({])"
)
# Seed expressions that tie an engine to the config/seed-derivation
# chain. Anything else is an ad-hoc stream.
SEED_FLOW_RE = re.compile(r"derive_seed|seed|Seed|SEED|salt")

# -- multi-pass regexes ------------------------------------------------

# Variables declared in the linted file with type exp::Runner / Runner,
# by value or reference. Group 1 is the variable name.
RUNNER_VAR_RE = re.compile(
    r"\b(?:exp::)?Runner\s*&?\s+([A-Za-z_]\w*)\s*[;({=,)]"
)
# A parallel fan-out call: `<receiver>.map(` / `<receiver>.for_each(`.
RUNNER_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(map|for_each)\s*\(")
# Static / thread_local storage.
STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?(static|thread_local)\b")
CONST_QUAL_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")
# One parameter declaration: type tokens then a name (defaults already
# stripped), or an unnamed `T&` / `T*`. A constructor-argument
# expression (`7`, `seed ^ 3`, `g, src`) never has this shape.
PARAM_DECL_RE = re.compile(
    r"^(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<.*>)?[\s&*\]>]+&?\s*[A-Za-z_]\w*$"
    r"|^(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<.*>)?\s*[&*]+$"
    r"|^void$"
)


def split_top_level_commas(s: str) -> list[str]:
    """Splits on commas outside (), <>, [] nesting."""
    out: list[str] = []
    depth = 0
    cur: list[str] = []
    for c in s:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    out.append("".join(cur))
    return out


def looks_like_params(args: str) -> bool:
    """True when a parenthesized list reads as parameter declarations
    rather than constructor-argument expressions."""
    args = args.strip()
    if args == "":
        return True
    for piece in split_top_level_commas(args):
        piece = re.sub(r"=.*$", "", piece.strip()).strip()  # drop defaults
        if not PARAM_DECL_RE.match(piece):
            return False
    return True

# Known-safe shared state. Every entry is (path suffix, identifier,
# why). Keep this list short: the determinism contract (DESIGN.md §11)
# wants zero mutable globals, and every allowlist entry is a debt.
MUTABLE_GLOBAL_ALLOWLIST: list[tuple[str, str, str]] = []


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str
    suggestion: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule(NamedTuple):
    name: str
    summary: str


RULES = [
    Rule(
        "unordered-container",
        "std::unordered_{map,set} in deterministic code; allowlist only "
        "pure-lookup uses (no iteration), or switch to a sorted/dense "
        "container",
    ),
    Rule(
        "unordered-iter",
        "range-for over a std::unordered_{map,set} variable: iteration "
        "order is implementation-defined and breaks same-seed determinism",
    ),
    Rule(
        "nondet-random",
        "std::random_device / rand() / srand() / random_shuffle: "
        "nondeterministic or global-state randomness; seed a local "
        "std::mt19937_64 from config instead",
    ),
    Rule(
        "wall-clock",
        "time()/system_clock/gettimeofday/localtime in simulation code; "
        "simulation time comes from the EventQueue, wall time only from "
        "std::chrono::steady_clock in runner/bench timing fields",
    ),
    Rule(
        "float-accum",
        "`float` declaration: metrics and balances accumulate in double "
        "or integer milli-units; float narrows silently",
    ),
    Rule(
        "ptr-key-order",
        "ordered container keyed by a pointer: pointer order depends on "
        "the allocator and varies run to run",
    ),
    Rule(
        "hot-loop-alloc",
        "container constructed per call in a `// spider-lint: "
        "hot-path-file`: hoist it into reusable scratch (graph::"
        "PathFinder style) so hot query loops do not allocate",
    ),
    Rule(
        "fault-sampling",
        "ad-hoc RNG next to fault types outside src/faults/: fault "
        "schedules must come from faults::generate_plan (per-kind salted "
        "streams), never from a local engine",
    ),
    Rule(
        "mutable-global",
        "mutable namespace-scope/static/thread_local state: shared "
        "mutable state races across exp::Runner worker threads and "
        "couples trials; pass state through configs/locals or "
        "allowlist with a justification",
    ),
    Rule(
        "rng-seed",
        "RNG engine whose seed does not flow from derive_seed or a "
        "config seed: default-constructed or literal-seeded engines "
        "break the one-seed-per-trial discipline",
    ),
    Rule(
        "runner-capture",
        "lambda passed to exp::Runner::map/for_each mutates a "
        "by-reference capture without indexing by the chunk parameter: "
        "chunks race on it and byte-identity across thread counts dies",
    ),
]

RULE_NAMES = {r.name for r in RULES}

SUGGESTIONS = {
    "mutable-global": "move the state into a config/struct passed by "
    "value, or add `// spider-lint: allow(mutable-global) <why safe>`",
    "rng-seed": "seed from the trial chain: "
    "`std::mt19937_64 rng(exp::derive_seed(base_seed, index));` or a "
    "config seed, or add `// spider-lint: allow(rng-seed) <why safe>`",
    "runner-capture": "write only through your own slot "
    "(`out[i] = ...`), or make the capture const; if the write is "
    "provably chunk-private add "
    "`// spider-lint: allow(runner-capture) <why safe>`",
}


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal *contents* so rule
    regexes never fire on prose. Crude (no multi-line /* */ tracking
    across lines with code), but block comments in this codebase never
    share a line with code."""
    out: list[str] = []
    i = 0
    n = len(line)
    in_str: str | None = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a line comment
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def allowed_rules(raw_line: str) -> set[str]:
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def is_allowed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    """True if line `lineno` (0-based) carries or inherits an
    allow(<rule>) suppression (same line or the line above)."""
    if rule in allowed_rules(raw_lines[lineno]):
        return True
    if lineno > 0:
        above = raw_lines[lineno - 1].strip()
        if above.startswith("//") and rule in allowed_rules(above):
            return True
    return False


# -- scope map ---------------------------------------------------------

# Brace-scope kinds. "namespace" covers both the file's top level and
# named/anonymous namespaces -- both are namespace scope in C++.
# "class" covers class/struct/union/enum bodies; "function" covers
# function bodies, lambdas, and control-flow blocks inside them;
# "init" covers brace initializers.
KIND_NAMESPACE = "namespace"
KIND_CLASS = "class"
KIND_FUNCTION = "function"
KIND_INIT = "init"

CLASS_HEAD_RE = re.compile(r"\b(?:class|struct|union|enum)\b[^;=()]*$")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b")


def classify_head(head: str, parent: str) -> str:
    """Classifies the brace that `head` (text since the last ; { })
    opens."""
    stripped = head.strip()
    if NAMESPACE_HEAD_RE.search(stripped) and "(" not in stripped:
        return KIND_NAMESPACE
    if CLASS_HEAD_RE.search(stripped):
        return KIND_CLASS
    if parent in (KIND_FUNCTION,):
        return KIND_FUNCTION  # control flow / nested block / lambda
    if "=" in stripped and not stripped.rstrip().endswith(")"):
        return KIND_INIT  # brace initializer `T x = {...}`
    if ")" in stripped:
        return KIND_FUNCTION  # `ret name(args) {`, `if (...) {`
    if stripped == "" and parent == KIND_INIT:
        return KIND_INIT
    # `T x{...}` direct-init, `extern "C" {`, unknown -- treat brace
    # initializers (no parens, parent not function) as init at class /
    # namespace scope, which is the conservative choice for statics.
    if parent in (KIND_NAMESPACE, KIND_CLASS) and stripped and "[" not in stripped:
        return KIND_INIT
    return parent


class ScopeMap:
    """Per-line scope kind, from a single forward pass."""

    def __init__(self, code_lines: list[str]):
        self.kind_at: list[str] = []  # scope kind at the START of each line
        stack: list[str] = []
        head = ""
        for code in code_lines:
            self.kind_at.append(stack[-1] if stack else KIND_NAMESPACE)
            for ch in code:
                if ch == "{":
                    stack.append(classify_head(head, stack[-1] if stack else KIND_NAMESPACE))
                    head = ""
                elif ch == "}":
                    if stack:
                        stack.pop()
                    head = ""
                elif ch == ";":
                    head = ""
                else:
                    head += ch
            head += " "


# -- per-line linter (layer 1) ----------------------------------------


class FileLinter:
    def __init__(self, path: str, text: str):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code_lines = [strip_comments_and_strings(l) for l in self.raw_lines]
        self.findings: list[Finding] = []
        # Names of variables/members declared with unordered container
        # types anywhere in this file (single pass, pre-collected so a
        # member declared below its use is still caught).
        self.unordered_vars: set[str] = set()
        for code in self.code_lines:
            for m in UNORDERED_VAR_RE.finditer(code):
                self.unordered_vars.add(m.group(1))
        # Fault sampling is a whole-file condition: the file talks about
        # fault types AND rolls its own RNG. Inside src/faults/ the
        # seeded generator is exactly where that randomness belongs.
        norm = path.replace(os.sep, "/")
        self.in_faults_dir = "/faults/" in norm or norm.startswith("faults/")
        self.mentions_fault_types = any(
            FAULT_TYPE_RE.search(code) for code in self.code_lines
        )
        # Hot-path files opt into the per-call allocation rule via a
        # marker comment (searched raw: the marker IS a comment).
        self.hot_path_file = any(
            HOT_PATH_MARKER_RE.search(raw) for raw in self.raw_lines
        )

    def report(self, lineno: int, rule: str, message: str) -> None:
        if not is_allowed(self.raw_lines, lineno, rule):
            self.findings.append(
                Finding(self.path, lineno + 1, rule, message,
                        SUGGESTIONS.get(rule, ""))
            )

    def lint(self) -> list[Finding]:
        for i, code in enumerate(self.code_lines):
            self.check_unordered(i, code)
            self.check_random(i, code)
            self.check_wall_clock(i, code)
            self.check_float(i, code)
            self.check_ptr_key(i, code)
            self.check_hot_alloc(i, code)
            self.check_fault_sampling(i, code)
        return self.findings

    def check_unordered(self, i: int, code: str) -> None:
        if UNORDERED_DECL_RE.search(code):
            self.report(
                i,
                "unordered-container",
                "std::unordered_* container in deterministic code; "
                "allowlist pure-lookup uses or use a sorted/dense container",
            )
        for m in RANGE_FOR_RE.finditer(code):
            range_expr = m.group(1)
            idents = set(IDENT_RE.findall(range_expr))
            hit = idents & self.unordered_vars
            if hit:
                self.report(
                    i,
                    "unordered-iter",
                    f"iteration over unordered container "
                    f"'{sorted(hit)[0]}': order is implementation-defined",
                )
        # .begin() on a known-unordered variable also counts as iteration
        # (std::sort(m.begin(), ...), accumulate, etc.). A bare .end() is
        # fine: `it != m.end()` is the lookup idiom, not a walk.
        for var in self.unordered_vars:
            if re.search(rf"\b{re.escape(var)}\s*\.\s*(?:begin|cbegin)\s*\(", code):
                self.report(
                    i,
                    "unordered-iter",
                    f"iterator walk over unordered container '{var}': "
                    "order is implementation-defined",
                )
                break

    def check_random(self, i: int, code: str) -> None:
        if re.search(r"\bstd::random_device\b", code):
            self.report(i, "nondet-random", "std::random_device is nondeterministic by design")
        if re.search(r"(?<![\w:.])s?rand\s*\(", code):
            self.report(
                i, "nondet-random", "rand()/srand() use hidden global state; use a seeded std::mt19937_64"
            )
        if re.search(r"\bstd::random_shuffle\b", code):
            self.report(
                i, "nondet-random", "std::random_shuffle draws from an unspecified source; use std::shuffle with a seeded engine"
            )

    def check_wall_clock(self, i: int, code: str) -> None:
        if re.search(r"\bstd::chrono::(?:system_clock|high_resolution_clock)\b", code):
            self.report(
                i,
                "wall-clock",
                "system_clock/high_resolution_clock read; use the "
                "EventQueue for sim time, steady_clock for wall timing",
            )
        if re.search(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&\w+)?\s*\)", code):
            self.report(i, "wall-clock", "time() reads the wall clock")
        for fn in ("gettimeofday", "clock_gettime", "localtime", "gmtime"):
            if re.search(rf"(?<![\w:.]){fn}\s*\(", code):
                self.report(i, "wall-clock", f"{fn}() reads the wall clock")
                break

    def check_float(self, i: int, code: str) -> None:
        # Declarations/parameters/casts of `float`. Identifiers like
        # `floating` or member accesses never match (word boundary).
        if re.search(r"(?<![\w.])float\b", code):
            self.report(
                i,
                "float-accum",
                "`float` in simulation code: accumulate in double or "
                "integer milli-units (Amount)",
            )

    def check_hot_alloc(self, i: int, code: str) -> None:
        # Only in files that opted in with the hot-path-file marker: a
        # container variable constructed with arguments allocates on
        # every call of the enclosing function. Parameter lists of
        # container-returning functions (`std::vector<Path> f(const
        # Graph& g, ...)`) are excluded by their `const`/`&` tokens --
        # hot-path ctor args are sizes and fill values, not references.
        if not self.hot_path_file:
            return
        m = HOT_ALLOC_RE.search(code)
        if not m:
            return
        args = m.group(1)
        if re.search(r"\bconst\b|&", args):
            return
        self.report(
            i,
            "hot-loop-alloc",
            "container constructed per call in a hot-path file; hoist "
            "into reusable scratch or allowlist with a justification",
        )

    def check_fault_sampling(self, i: int, code: str) -> None:
        # A file that names fault types AND constructs a std RNG engine
        # or distribution is sampling fault schedules ad hoc. All fault
        # randomness lives in faults::generate_plan, whose per-kind
        # salted streams keep schedules reproducible and independent.
        if self.in_faults_dir or not self.mentions_fault_types:
            return
        if STD_RNG_RE.search(code):
            self.report(
                i,
                "fault-sampling",
                "std RNG constructed in a file that uses fault types; "
                "derive fault schedules from faults::generate_plan, not "
                "a local engine",
            )

    def check_ptr_key(self, i: int, code: str) -> None:
        # std::map/std::set keyed by a raw pointer type: `std::map<T*, ...`
        # or `std::set<T*>`; const/qualified pointees included.
        if re.search(r"\bstd::(?:map|set|multimap|multiset)\s*<[^,>]*\*\s*[,>]", code):
            self.report(
                i,
                "ptr-key-order",
                "ordered container keyed by pointer: address order is not "
                "deterministic across runs",
            )


# -- multi-pass analyzer (layer 2) ------------------------------------


def joined_paren_expr(code_lines: list[str], lineno: int, start_col: int,
                      open_ch: str, max_lines: int = 6) -> str:
    """Returns the text inside the paren/brace opening at
    (lineno, start_col), joined across up to max_lines lines. Used for
    constructor argument lists that wrap."""
    close_ch = ")" if open_ch == "(" else "}"
    depth = 0
    out: list[str] = []
    for li in range(lineno, min(lineno + max_lines, len(code_lines))):
        text = code_lines[li]
        start = start_col if li == lineno else 0
        for ci in range(start, len(text)):
            c = text[ci]
            if c == open_ch:
                depth += 1
                if depth == 1:
                    continue
            elif c == close_ch:
                depth -= 1
                if depth == 0:
                    return "".join(out)
            if depth >= 1:
                out.append(c)
        out.append(" ")
    return "".join(out)


def find_matching_brace(code_lines: list[str], lineno: int,
                        col: int) -> tuple[int, int]:
    """Given the position of a `{`, returns (line, col) of its `}`;
    falls back to end-of-file."""
    depth = 0
    for li in range(lineno, len(code_lines)):
        text = code_lines[li]
        start = col if li == lineno else 0
        for ci in range(start, len(text)):
            if text[ci] == "{":
                depth += 1
            elif text[ci] == "}":
                depth -= 1
                if depth == 0:
                    return li, ci
    return len(code_lines) - 1, 0


# Local declarations inside a lambda body (approximate: a type-looking
# token sequence followed by a name and a terminator).
LOCAL_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^;=]*>)?[&*\s]+"
    r"([A-Za-z_]\w*)\s*[;{=(]"
)
STRUCTURED_BINDING_RE = re.compile(r"\bauto\s*&?&?\s*\[([^\]]+)\]")
FOR_INIT_RE = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[\w:<>]+\s*&?&?\s+(\w+)\s*[=:]")
# A mutation whose base object is `name`: assignment, compound
# assignment, increment/decrement, or a mutating method call -- possibly
# through a subscript and/or a dotted member chain (`x.field = v` and
# `x[i].field = v` both mutate `x`). Group "sub" holds the first
# subscript when the write goes through one (the sanctioned slot-write
# shape). The lookbehinds keep the match anchored at the base: a name
# preceded by `.` or `->` is a member, not the object being resolved.
LAMBDA_WRITE_RE = re.compile(
    r"(?:\+\+|--)\s*(?P<pre>[A-Za-z_]\w*)\b"
    r"|(?<!\.)(?<!>)\b(?P<name>[A-Za-z_]\w*)\s*(?:\[(?P<sub>[^\]]*)\])?"
    r"(?P<chain>(?:\s*(?:\.|->)\s*[A-Za-z_]\w*\s*(?:\[[^\]]*\])?)*)\s*"
    r"(?:(?:\+\+|--)|(?:[+\-*/|&^]|<<|>>)?=(?!=)"
    r"|(?:\.|->)\s*(?:push_back|emplace_back|emplace|insert|erase|clear"
    r"|resize|assign|merge|store)\s*\()"
)
COMPARE_GUARD_RE = re.compile(r"[<>!=]=$|[<>]$")
# Names a write match must never resolve to: keywords and builtin type
# names that the regex can pick up in declarations (`const auto [a, b]
# = ...` would otherwise "mutate" `auto`).
WRITE_NAME_KEYWORDS = frozenset(
    "auto const constexpr return if while for else switch case do new "
    "delete sizeof static this int double bool char float long short "
    "unsigned signed void true false".split()
)


class MultiPassAnalyzer:
    """Scope-aware passes over one file: mutable-global, rng-seed,
    runner-capture."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code_lines = [strip_comments_and_strings(l) for l in self.raw_lines]
        self.scope = ScopeMap(self.code_lines)
        # Every runner is declared or received in the file that fans out
        # over it; `runner` / `runner_` are the house names.
        self.runner_vars = {"runner", "runner_"}
        for code in self.code_lines:
            self.runner_vars.update(RUNNER_VAR_RE.findall(code))
        self.findings: list[Finding] = []
        norm = path.replace(os.sep, "/")
        self.basename = os.path.basename(norm)

    def report(self, lineno: int, rule: str, message: str,
               suggestion: str = "") -> None:
        if not is_allowed(self.raw_lines, lineno, rule):
            self.findings.append(
                Finding(self.path, lineno + 1, rule, message,
                        suggestion or SUGGESTIONS.get(rule, ""))
            )

    def lint(self) -> list[Finding]:
        self.pass_mutable_global()
        self.pass_rng_seed()
        self.pass_runner_capture()
        return self.findings

    # -- rule: mutable-global -----------------------------------------

    def allowlisted_global(self, name: str) -> bool:
        norm = self.path.replace(os.sep, "/")
        return any(norm.endswith(suffix) and name == ident
                   for suffix, ident, _why in MUTABLE_GLOBAL_ALLOWLIST)

    def pass_mutable_global(self) -> None:
        for i, code in enumerate(self.code_lines):
            kind = self.scope.kind_at[i]
            m = STATIC_DECL_RE.match(code)
            if m and kind != KIND_INIT:
                self.check_static_decl(i, code, m.group(1))
            elif kind == KIND_NAMESPACE:
                self.check_namespace_decl(i, code)

    def check_static_decl(self, i: int, code: str, keyword: str) -> None:
        stmt = code.strip()
        if stmt.startswith("static_assert"):
            return
        if CONST_QUAL_RE.search(stmt):
            return  # static const / constexpr / constinit: immutable
        # `static T f(args);` / `static T f(args) {` is a function if
        # the argument list is parameter-shaped; a variable constructed
        # with arguments has expression-shaped arguments.
        paren = stmt.find("(")
        if paren != -1:
            col = code.find("(", code.find(keyword))
            args = joined_paren_expr(self.code_lines, i, col, "(")
            if looks_like_params(args):
                return  # function declaration/definition
        name_m = re.search(r"([A-Za-z_]\w*)\s*(?:[;={(]|$)", stmt[len(keyword):].lstrip())
        name = name_m.group(1) if name_m else "?"
        if self.allowlisted_global(name):
            return
        self.report(
            i,
            "mutable-global",
            f"{keyword} mutable state '{name}': shared across threads "
            "and trials; the determinism contract forbids it outside "
            "the allowlist",
        )

    def check_namespace_decl(self, i: int, code: str) -> None:
        stmt = code.strip()
        if not stmt or stmt.endswith(":"):
            return
        # A continuation line of a wrapped function signature closes
        # parens it never opened (`double delta = 1.0);`) or ends on a
        # parameter comma (`double delta = 1.0,`).
        if stmt.count(")") > stmt.count("(") or stmt.endswith(","):
            return
        # Only definitions that terminate (or assign) on this line; a
        # bare type name continuing a wrapped signature never matches.
        decl = re.match(
            r"^(?:inline\s+)?[A-Za-z_][\w:]*(?:\s*<[^;=()]*>)?[&*\s]+"
            r"([A-Za-z_]\w*)\s*(=[^=]|;|\{)",
            stmt,
        )
        if not decl:
            return
        if CONST_QUAL_RE.search(stmt):
            return
        head = stmt.split("=")[0]
        if re.match(
            r"^(?:using|typedef|class|struct|union|enum|namespace|template"
            r"|extern|friend|concept|return|case|goto|public|private"
            r"|protected)\b",
            stmt,
        ):
            return
        if "(" in head:
            return  # function declaration / definition
        name = decl.group(1)
        if self.allowlisted_global(name):
            return
        self.report(
            i,
            "mutable-global",
            f"namespace-scope mutable variable '{name}': global state "
            "breaks trial isolation and the determinism contract",
        )

    # -- rule: rng-seed -----------------------------------------------

    def pass_rng_seed(self) -> None:
        for i, code in enumerate(self.code_lines):
            for m in RNG_ENGINE_CTOR_RE.finditer(code):
                kind = self.scope.kind_at[i]
                if kind == KIND_CLASS and m.group(3) == ";":
                    # Member declaration: the constructor that seeds it
                    # is checked where it runs.
                    continue
                if m.group(3) == ";":
                    self.report(
                        i,
                        "rng-seed",
                        f"default-constructed std::{m.group(1)} "
                        f"'{m.group(2)}': fixed default seed, identical "
                        "across all trials; seed from derive_seed or a "
                        "config",
                    )
                    continue
                col = code.find(m.group(3), m.start())
                args = joined_paren_expr(self.code_lines, i, col, m.group(3))
                if m.group(3) == "(" and looks_like_params(args):
                    # `std::mt19937 make_engine(int run);` declares a
                    # function returning an engine, not an engine.
                    continue
                if not SEED_FLOW_RE.search(args):
                    self.report(
                        i,
                        "rng-seed",
                        f"std::{m.group(1)} '{m.group(2)}' seeded with "
                        f"'{args.strip()[:40]}': the seed does not flow "
                        "from derive_seed or a config seed",
                    )

    # -- rule: runner-capture -----------------------------------------

    def pass_runner_capture(self) -> None:
        for i, code in enumerate(self.code_lines):
            for m in RUNNER_CALL_RE.finditer(code):
                receiver = m.group(1)
                if receiver not in self.runner_vars:
                    continue
                self.check_runner_lambda(i, m.end())

    def check_runner_lambda(self, lineno: int, col: int) -> None:
        # Find the lambda introducer `[` within the call's argument list
        # (same or next few lines).
        for li in range(lineno, min(lineno + 3, len(self.code_lines))):
            text = self.code_lines[li]
            start = col if li == lineno else 0
            b = text.find("[", start)
            if b == -1:
                continue
            self.analyze_lambda(li, b)
            return

    def analyze_lambda(self, lineno: int, col: int) -> None:
        text = self.code_lines[lineno]
        close = text.find("]", col)
        if close == -1:
            return
        captures = text[col + 1:close]
        by_ref_all = captures.strip() == "&"
        ref_captures = set(re.findall(r"&\s*([A-Za-z_]\w*)", captures))
        value_captures = set(
            re.findall(r"(?<![&\w])([A-Za-z_]\w*)", captures)) - ref_captures
        # Parameter list.
        params: set[str] = set()
        pstart = text.find("(", close)
        if pstart != -1:
            plist = joined_paren_expr(self.code_lines, lineno, pstart, "(")
            for piece in plist.split(","):
                pm = re.search(r"([A-Za-z_]\w*)\s*$", piece.strip())
                if pm:
                    params.add(pm.group(1))
        # Body.
        bstart_line, bstart_col = lineno, text.find("{", close)
        if bstart_col == -1:
            if lineno + 1 < len(self.code_lines):
                bstart_line = lineno + 1
                bstart_col = self.code_lines[bstart_line].find("{")
            if bstart_col == -1:
                return
        bend_line, _ = find_matching_brace(self.code_lines, bstart_line,
                                           bstart_col)
        body = self.code_lines[bstart_line:bend_line + 1]
        locals_: set[str] = set(params)
        for line in body:
            dm = LOCAL_DECL_RE.match(line)
            if dm:
                locals_.add(dm.group(1))
            for sb in STRUCTURED_BINDING_RE.finditer(line):
                for nm in sb.group(1).split(","):
                    locals_.add(nm.strip().lstrip("&").strip())
            for fm in FOR_INIT_RE.finditer(line):
                locals_.add(fm.group(1))
        for off, line in enumerate(body):
            li = bstart_line + off
            for w in LAMBDA_WRITE_RE.finditer(line):
                name = w.group("pre") or w.group("name")
                if name is None or name in WRITE_NAME_KEYWORDS:
                    continue
                if name in locals_ or name in value_captures:
                    continue
                if not (by_ref_all or name in ref_captures):
                    continue
                sub = w.group("sub")
                if sub is not None and (set(IDENT_RE.findall(sub)) & params):
                    continue  # the sanctioned slot write out[i] = ...
                before = line[:w.start()].rstrip()
                if COMPARE_GUARD_RE.search(before):
                    continue
                self.report(
                    li,
                    "runner-capture",
                    f"lambda passed to Runner::map/for_each mutates "
                    f"by-reference capture '{name}' without indexing by "
                    "its chunk parameter: chunks race on it",
                )


# -- suppression audit -------------------------------------------------


def comment_above(lines: list[str], i: int) -> str:
    """The prose of the `//` comment lines directly above line i (a
    marker line ends the block), joined into one line."""
    block: list[str] = []
    j = i - 1
    while j >= 0:
        above = lines[j].strip()
        if not above.startswith("//") or ALLOW_RE.search(above):
            break
        block.insert(0, above.lstrip("/").strip())
        j -= 1
    return " ".join(t for t in block if t)


def audit_suppressions(paths: list[str]) -> int:
    """Lists every `spider-lint: allow(...)` marker with its rationale:
    prose after the rule list, before the marker in its comment, or in
    the comment lines directly above. A marker with none of these is
    flagged as NO RATIONALE. Always exits 0."""
    rows: list[tuple[str, int, str, str]] = []
    for path in iter_cpp_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            continue
        for i, raw in enumerate(lines):
            m = ALLOW_RE.search(raw)
            if not m:
                continue
            rules = m.group(1)
            rationale = raw[m.end():].strip()
            if not rationale:
                # Marker-above style: rationale may precede the marker
                # on the same comment line, or the marker suppresses the
                # line below with the why inline before it.
                head = raw[:m.start()].strip().lstrip("/").strip()
                # Drop any code before the comment; prose only.
                if "//" in raw[:m.start()]:
                    rationale = head.split("//")[-1].strip()
            if not rationale:
                rationale = comment_above(lines, i)
            rows.append((path, i + 1, rules, rationale))
    bare = 0
    for path, line, rules, rationale in rows:
        tag = rationale if rationale else "NO RATIONALE"
        if not rationale:
            bare += 1
        print(f"{path}:{line}: allow({rules}) -- {tag}")
    print(
        f"spider_lint: {len(rows)} suppression(s), {bare} without a "
        "rationale",
        file=sys.stderr,
    )
    return 0


# -- driver ------------------------------------------------------------


def iter_cpp_files(paths: list[str]) -> Iterator[str]:
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs.sort()
                # Never descend into build trees.
                dirs[:] = [d for d in dirs if d not in ("build", ".git")]
                for f in sorted(files):
                    if f.endswith(CPP_EXTENSIONS):
                        yield os.path.join(root, f)
        else:
            print(f"spider_lint: no such file or directory: {p}", file=sys.stderr)
            sys.exit(2)


def repo_root() -> str:
    return os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )


def write_json_report(path: str, findings: list[Finding],
                      file_count: int) -> None:
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "tool": "spider_lint",
        "files_scanned": file_count,
        "finding_count": len(findings),
        "findings_by_rule": dict(sorted(by_rule.items())),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "rule": f.rule,
                "message": f.message,
                "suggestion": f.suggestion,
            }
            for f in findings
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="spider_lint", description="Spider determinism & shared-state lint (see tools/lint/lint_rules.md)"
    )
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--all", action="store_true",
                    help="lint the standard tree (src bench examples) with "
                    "every pass")
    ap.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    ap.add_argument("--json", metavar="FILE",
                    help="also write a machine-readable findings report")
    ap.add_argument("--fix-suggestions", action="store_true",
                    help="print the fix or suppression to add for each "
                    "finding")
    ap.add_argument("--audit-suppressions", action="store_true",
                    help="list every `spider-lint: allow` marker with its "
                    "rationale and exit 0")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(f"{r.name}: {r.summary}")
        return 0
    paths = list(args.paths)
    if args.all:
        root = repo_root()
        paths = [os.path.join(root, d) for d in DEFAULT_ROOTS] + paths
    if not paths:
        ap.print_usage(sys.stderr)
        return 2

    if args.audit_suppressions:
        return audit_suppressions(paths)

    findings: list[Finding] = []
    file_count = 0
    for path in iter_cpp_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"spider_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        file_count += 1
        findings.extend(FileLinter(path, text).lint())
        findings.extend(MultiPassAnalyzer(path, text).lint())
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    for f in findings:
        print(f)
        if args.fix_suggestions and f.suggestion:
            print(f"    fix: {f.suggestion}")
    if args.json:
        write_json_report(args.json, findings, file_count)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"spider_lint: {file_count} file(s), {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
