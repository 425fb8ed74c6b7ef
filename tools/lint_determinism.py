#!/usr/bin/env python3
"""Determinism / thread-safety lint for the GEAttack tree.

The whole system rests on one invariant: sparse and threaded attack paths
produce bit-identical edge picks to the serial reference, including through
second-order hypergradients.  Runtime suites (driver_test,
sparse_attack_test) verify the invariant; this checker
stops the cheapest ways of breaking it from entering the tree at all:

  banned-rng            std::rand / srand / std::random_device / raw
                        std::mt19937 outside the sanctioned Rng wrapper
                        (src/tensor/random.h).  All randomness must flow
                        through seeded Rng objects — attack workers through
                        the SplitMix64 TargetSeed(base_seed, target_index)
                        streams (src/attack/driver.h) — or picks stop being
                        a pure function of (seed, target index).
  unordered-iteration   Range-for / iterator loops over std::unordered_map
                        or std::unordered_set in src/attack, src/nn,
                        src/graph.  Hash-order iteration is
                        implementation-defined; anything result-affecting
                        must iterate a sorted container or sort first.
  fp-omp-reduction      OpenMP `reduction(...)` clauses.  OpenMP reductions
                        accumulate in nondeterministic order; every kernel
                        here instead accumulates per-element in ascending-e
                        order (see SpmmAccumulate in src/tensor/csr.cc).
  fast-math             -ffast-math / -funsafe-math-optimizations / -Ofast /
                        fast-math pragmas anywhere in sources or build
                        files.  These license FP reassociation, which breaks
                        bit-identity silently.
  unguarded-mutable     `mutable` data members in src/ classes without a
                        std::once_flag member in the same class.  Shared
                        caches (AttackScratch, CsrPattern::Transpose) are
                        lazily filled by concurrent attack workers and must
                        be call_once-guarded (thread-safety audit, PR 4).

False positives are suppressed with an audit note on the offending line or
the two lines above it:

    // lint-ok: unordered-iteration (max-size/min-id selection is
    // order-independent)

The note must name the check id; bare `lint-ok` does not suppress.

Usage:
  tools/lint_determinism.py --root .              # lint the tree (CI gate)
  tools/lint_determinism.py --root . --self-test  # verify the checker against
                                                  # tests/lint_test fixtures
"""

import argparse
import os
import re
import sys

# Directories scanned for source findings, relative to the repo root.
SOURCE_DIRS = ("src", "bench", "examples", "tests")
SOURCE_EXTS = (".cc", ".cpp", ".h", ".hpp")
# Build files scanned for fast-math flags.
BUILD_FILES = ("CMakeLists.txt",)
BUILD_GLOB_DIRS = (".github",)

# The sanctioned home of the raw engine: Rng wraps a seeded mt19937_64 and
# every caller takes an explicit Rng (or a TargetSeed-derived one).
BANNED_RNG_ALLOWED = ("src/tensor/random.h",)

# Hash-order iteration is only *result-affecting* where outputs are
# produced; these are the subsystems the bit-identity gates cover.
UNORDERED_SCOPE = ("src/attack", "src/nn", "src/graph")

KNOWN_CHECKS = ("banned-rng", "unordered-iteration", "fp-omp-reduction",
                "fast-math", "unguarded-mutable")

SUPPRESS_RE = re.compile(r"lint-ok:\s*([\w-]+)")

BANNED_RNG_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b")
OMP_REDUCTION_RE = re.compile(r"#\s*pragma\s+omp\b.*\breduction\s*\(")
FAST_MATH_RE = re.compile(
    r"-ffast-math|-funsafe-math-optimizations|-Ofast\b"
    r"|optimize\s*\(\s*\"[^\"]*fast-math|fp:fast")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)")
MUTABLE_MEMBER_RE = re.compile(r"^\s*mutable\s+(?!std::once_flag)\S")
ONCE_FLAG_RE = re.compile(r"\bstd::once_flag\b")


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line breaks
    so reported line numbers stay exact.  Suppression notes are collected
    separately before stripping."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if ch == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if ch in "\"'":
                state = ch
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif state == "line":
            if ch == "\n":
                state = None
                out.append(ch)
            else:
                out.append(" ")
        elif state == "block":
            if ch == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        else:  # inside a string/char literal: kept verbatim (escapes
            # blanked) so e.g. optimize("fast-math") stays visible
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == state:
                state = None
            out.append(ch)
        i += 1
    return "".join(out)


def collect_suppressions(raw_lines):
    """Maps line number -> set of check ids suppressed there.  A note
    suppresses its own line and the two lines below it, so it can sit just
    above the flagged statement."""
    suppressed = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in SUPPRESS_RE.finditer(line):
            for covered in (idx, idx + 1, idx + 2):
                suppressed.setdefault(covered, set()).add(m.group(1))
    return suppressed


def is_suppressed(suppressed, line, check):
    return check in suppressed.get(line, set())


def check_source_file(relpath, text, unordered_in_scope):
    raw_lines = text.splitlines()
    suppressed = collect_suppressions(raw_lines)
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()
    findings = []

    def add(line_no, check, message):
        if not is_suppressed(suppressed, line_no, check):
            findings.append(Finding(relpath, line_no, check, message))

    rng_allowed = any(relpath.endswith(a) for a in BANNED_RNG_ALLOWED)
    unordered_names = set()

    for idx, line in enumerate(code_lines, start=1):
        if not rng_allowed:
            m = BANNED_RNG_RE.search(line)
            if m:
                add(idx, "banned-rng",
                    f"'{m.group(0)}' outside src/tensor/random.h; use a "
                    "seeded Rng (TargetSeed stream in attack workers)")
        if OMP_REDUCTION_RE.search(line):
            add(idx, "fp-omp-reduction",
                "OpenMP reduction accumulates in nondeterministic order; "
                "accumulate in ascending-e order instead (SpmmAccumulate)")
        if FAST_MATH_RE.search(line):
            add(idx, "fast-math",
                "fast-math licenses FP reassociation and breaks the "
                "bit-identity invariant")
        if unordered_in_scope:
            for m in UNORDERED_DECL_RE.finditer(line):
                unordered_names.add(m.group(1))

    if unordered_in_scope and unordered_names:
        name_alt = "|".join(sorted(unordered_names))
        iter_re = re.compile(
            r"for\s*\([^;)]*:\s*&?\s*(?:\w+(?:\.|->))*"
            r"\b(" + name_alt + r")\b\s*\)"
            r"|\b(" + name_alt + r")\b\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")
        for idx, line in enumerate(code_lines, start=1):
            m = iter_re.search(line)
            if m:
                name = m.group(1) or m.group(2)
                add(idx, "unordered-iteration",
                    f"iteration over unordered container '{name}' is "
                    "hash-order (implementation-defined); iterate a sorted "
                    "container or document order-independence")

    findings.extend(check_mutable_members(relpath, code_lines, suppressed))
    return findings


def check_mutable_members(relpath, code_lines, suppressed):
    """Flags `mutable` members in classes that have no std::once_flag member.

    Class extents are tracked with a brace-depth scan: crude but sufficient
    for this codebase's style (one class per brace level, no macros that
    open braces)."""
    if not relpath.startswith("src"):
        return []
    findings = []
    # Stack of [has_once_flag, [(line, text), ...] mutable members] per
    # open class/struct body.
    stack = []
    depth = 0
    class_pending = False
    for idx, line in enumerate(code_lines, start=1):
        if re.search(r"\b(class|struct)\s+\w+", line) and ";" not in line:
            class_pending = True
        for ch in line:
            if ch == "{":
                depth += 1
                if class_pending:
                    stack.append({"depth": depth, "once": False,
                                  "mutables": []})
                    class_pending = False
            elif ch == "}":
                if stack and stack[-1]["depth"] == depth:
                    scope = stack.pop()
                    if not scope["once"]:
                        for mline in scope["mutables"]:
                            if not is_suppressed(suppressed, mline,
                                                 "unguarded-mutable"):
                                findings.append(Finding(
                                    relpath, mline, "unguarded-mutable",
                                    "mutable member in a class without a "
                                    "std::once_flag guard; shared caches "
                                    "must be call_once-filled (see "
                                    "AttackScratch)"))
                depth -= 1
        if stack:
            if ONCE_FLAG_RE.search(line):
                stack[-1]["once"] = True
            elif MUTABLE_MEMBER_RE.search(line):
                stack[-1]["mutables"].append(idx)
    return findings


def check_build_file(relpath, text):
    findings = []
    for idx, line in enumerate(text.splitlines(), start=1):
        code = line.split("#", 1)[0]
        if FAST_MATH_RE.search(code):
            findings.append(Finding(
                relpath, idx, "fast-math",
                "fast-math flag in build configuration"))
    return findings


def lint_tree(root):
    findings = []
    for d in SOURCE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, files in sorted(os.walk(base)):
            for f in sorted(files):
                if not f.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, f)
                rel = os.path.relpath(path, root)
                if rel.startswith(os.path.join("tests", "lint_test")):
                    continue  # known-bad fixtures live here
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                in_scope = any(
                    rel.startswith(s + os.sep) or os.path.dirname(rel) == s
                    for s in UNORDERED_SCOPE)
                findings.extend(check_source_file(rel, text, in_scope))
    for f in BUILD_FILES:
        path = os.path.join(root, f)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                findings.extend(check_build_file(f, fh.read()))
    for d in BUILD_GLOB_DIRS:
        for dirpath, _, files in sorted(os.walk(os.path.join(root, d))):
            for f in sorted(files):
                if f.endswith((".yml", ".yaml", ".cmake")):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        findings.extend(check_build_file(
                            os.path.relpath(path, root), fh.read()))
    return findings


def self_test(root):
    """Every tests/lint_test/bad_<check>*.cc fixture must produce at least
    one finding of exactly the check named in its filename; every
    good_*.cc fixture must produce none.  The real tree must be clean."""
    fixture_dir = os.path.join(root, "tests", "lint_test")
    fixtures = sorted(os.listdir(fixture_dir))
    failures = []
    for f in fixtures:
        if not f.endswith(SOURCE_EXTS):
            continue
        path = os.path.join(fixture_dir, f)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rel = os.path.join("src", "attack", f)  # fixtures lint as in-scope
        found = check_source_file(rel, text, unordered_in_scope=True)
        checks = {x.check for x in found}
        if f.startswith("bad_"):
            stem = f[len("bad_"):].rsplit(".", 1)[0].replace("_", "-")
            expected = next(
                (c for c in KNOWN_CHECKS if stem.startswith(c)), None)
            if expected is None:
                failures.append(f"{f}: filename names no known check id")
                continue
            if expected not in checks:
                failures.append(
                    f"{f}: expected a '{expected}' finding, got {checks or 'none'}")
        elif f.startswith("good_"):
            if checks:
                failures.append(f"{f}: expected no findings, got {checks}")
    tree = lint_tree(root)
    if tree:
        failures.append(f"real tree not clean: {len(tree)} finding(s)")
        failures.extend(f"  {x}" for x in tree)
    for msg in failures:
        print(f"lint_determinism self-test FAILED: {msg}", file=sys.stderr)
    if not failures:
        bad = sum(1 for f in fixtures if f.startswith("bad_"))
        good = sum(1 for f in fixtures if f.startswith("good_"))
        print(f"lint_determinism self-test OK "
              f"({bad} bad fixtures flagged, {good} good fixtures clean, "
              f"tree clean)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker against tests/lint_test fixtures")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)
    findings = lint_tree(root)
    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print(f"\nlint_determinism: {len(findings)} finding(s). "
              "Fix, or suppress with an audit note: "
              "// lint-ok: <check-id> (<why this is order-independent/safe>)",
              file=sys.stderr)
        return 1
    print("lint_determinism: tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
