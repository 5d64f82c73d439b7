#!/usr/bin/env python3
"""ct_lint: repo-local discipline checks that the compiler cannot express.

Rules (each line reported as ``path:line: [rule] message``):

  raw-mutex   Raw standard-library locking primitives (std::mutex,
              std::lock_guard, std::condition_variable, ...) are forbidden
              outside src/common/thread_annotations.h.  Everything else
              must use the annotated ct::Mutex / ct::MutexLock wrappers so
              Clang's thread-safety analysis sees every acquisition.

  no-system   system(3) forks a shell; error reporting is an exit code at
              best and the command string is a quoting/injection hazard.
              Use std::filesystem or the Status-returning file helpers.

  no-assert   Bare assert() vanishes under NDEBUG, so release builds skip
              the check entirely.  Use CT_CHECK / CT_DCHECK (logged, and
              CT_CHECK stays on in release) or return a Status.

  no-naked-new  A new-expression assigned to a raw pointer (or returned)
              leaks on every early exit.  Use std::make_unique /
              std::make_shared, or annotate intentional leaks (static
              singletons) with an allow comment.

  fault-pair  fsync()/rename() commit points must be covered by fault
              injection: a CT_FAULT(...) / MaybeFail(...) within the
              preceding 10 lines, so crash tests can fail the commit.

  atomic-shared-ptr  std::atomic<std::shared_ptr<T>> is forbidden.
              libstdc++ (GCC 12) implements it with an internal spinlock
              whose load path unlocks with relaxed ordering, so
              ThreadSanitizer reports every load racing a store as a data
              race, and the TSan CI leg fails.  Guard a plain shared_ptr
              with a ct::Mutex held only to copy or swap the pointer.

Escape hatch: ``// ct-lint: allow(<rule>)`` on the same line or the
immediately preceding line suppresses that rule for that line.  Allows are
for documented exceptions (leaky singletons, the one primitive fsync
wrapper), not for routine use.

Usage:
  ct_lint.py [--root DIR] [paths...]    # default: src bench examples tests
  ct_lint.py --self-test                # run the linter's own unit tests
"""

import argparse
import os
import re
import sys

RULES = ("raw-mutex", "no-system", "no-assert", "no-naked-new", "fault-pair",
         "atomic-shared-ptr")

DEFAULT_DIRS = ("src", "bench", "examples", "tests", "tools")
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# The one file allowed to hold raw primitives: it defines the annotated
# wrappers everything else must use.
RAW_MUTEX_HOME = "src/common/thread_annotations.h"

ALLOW_RE = re.compile(r"//\s*ct-lint:\s*allow\(([a-z-]+)\)")

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_(?:mutex|timed_mutex)\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
)
SYSTEM_RE = re.compile(r"(?:\bstd::|::|\b)system\s*\(")
ASSERT_RE = re.compile(r"\bassert\s*\(")
NAKED_NEW_RE = re.compile(r"(?:=\s*new\b|\breturn\s+new\b)")
COMMIT_POINT_RE = re.compile(r"(?:\bfsync\s*\(|\brename\s*\()")
FAULT_COVER_RE = re.compile(r"CT_FAULT\s*\(|MaybeFail\s*\(|FaultInjector")
ATOMIC_SHARED_PTR_RE = re.compile(r"std::atomic\s*<\s*(?:std::)?shared_ptr\b")
FAULT_WINDOW = 10  # lines of context in which fault coverage must appear


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers match the source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def collect_allows(text):
    """Maps rule -> set of line numbers (1-based) the allow covers: the
    comment's own line and the next line."""
    allows = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in ALLOW_RE.finditer(line):
            rule = match.group(1)
            allows.setdefault(rule, set()).update((lineno, lineno + 1))
    return allows


def lint_text(text, relpath):
    """Returns a list of (lineno, rule, message) findings for one file."""
    allows = collect_allows(text)
    stripped = strip_comments_and_strings(text)
    lines = stripped.splitlines()
    findings = []

    def report(lineno, rule, message):
        if lineno in allows.get(rule, ()):
            return
        findings.append((lineno, rule, message))

    unix_path = relpath.replace(os.sep, "/")
    for lineno, line in enumerate(lines, start=1):
        if RAW_MUTEX_RE.search(line) and unix_path != RAW_MUTEX_HOME:
            report(lineno, "raw-mutex",
                   "raw std:: locking primitive; use the annotated "
                   "wrappers from common/thread_annotations.h")
        if SYSTEM_RE.search(line):
            report(lineno, "no-system",
                   "system() call; use std::filesystem or the "
                   "Status-returning file helpers")
        match = ASSERT_RE.search(line)
        if match and not line[:match.start()].endswith("static_"):
            report(lineno, "no-assert",
                   "bare assert() vanishes under NDEBUG; use CT_CHECK / "
                   "CT_DCHECK or return a Status")
        if NAKED_NEW_RE.search(line):
            report(lineno, "no-naked-new",
                   "naked new-expression; use std::make_unique or "
                   "annotate the intentional leak")
        if COMMIT_POINT_RE.search(line):
            window = lines[max(0, lineno - 1 - FAULT_WINDOW):lineno]
            if not any(FAULT_COVER_RE.search(w) for w in window):
                report(lineno, "fault-pair",
                       "fsync/rename commit point without a CT_FAULT "
                       "injection point within %d lines" % FAULT_WINDOW)
        if ATOMIC_SHARED_PTR_RE.search(line):
            report(lineno, "atomic-shared-ptr",
                   "std::atomic<std::shared_ptr> races under TSan on "
                   "libstdc++; guard a plain shared_ptr with a ct::Mutex")
    return findings


def iter_files(root, paths):
    for path in paths:
        full = os.path.join(root, path)
        if os.path.isfile(full):
            yield path
            continue
        for dirpath, _, filenames in os.walk(full):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def run_lint(root, paths):
    total = 0
    for relpath in sorted(set(iter_files(root, paths))):
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        for lineno, rule, message in lint_text(text, relpath):
            print("%s:%d: [%s] %s" % (relpath, lineno, rule, message))
            total += 1
    if total:
        print("ct_lint: %d finding(s)" % total, file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Self-test: table-driven checks of every rule, the allow escape, comment
# and string stripping, and the thread_annotations.h exemption.

SELF_TESTS = [
    # (name, source, relpath, expected list of (lineno, rule))
    ("raw mutex flagged",
     "std::mutex mu;\n", "src/x.h", [(1, "raw-mutex")]),
    ("lock_guard flagged",
     "std::lock_guard<std::mutex> l(mu);\n", "src/x.cc",
     [(1, "raw-mutex")]),
    ("condition_variable flagged",
     "std::condition_variable cv;\n", "src/x.cc", [(1, "raw-mutex")]),
    ("annotations header exempt from raw-mutex",
     "std::mutex mu_;\n", "src/common/thread_annotations.h", []),
    ("ct wrappers clean",
     "ct::Mutex mu_;\nct::MutexLock lock(mu_);\n", "src/x.cc", []),
    ("system() flagged",
     'int r = system("rm -rf x");\n', "examples/x.cpp",
     [(1, "no-system")]),
    ("std::system flagged",
     'std::system("ls");\n', "src/x.cc", [(1, "no-system")]),
    ("subsystem identifier not flagged",
     "int subsystem(int);\nsubsystem(3);\n", "src/x.cc", []),
    ("bare assert flagged",
     "assert(x > 0);\n", "src/x.cc", [(1, "no-assert")]),
    ("static_assert not flagged",
     "static_assert(sizeof(int) == 4);\n", "src/x.cc", []),
    ("CT_DCHECK not flagged",
     "CT_DCHECK(x > 0);\n", "src/x.cc", []),
    ("naked new assignment flagged",
     "Foo* f = new Foo();\n", "src/x.cc", [(1, "no-naked-new")]),
    ("return new flagged",
     "return new Foo();\n", "src/x.cc", [(1, "no-naked-new")]),
    ("make_unique clean",
     "auto f = std::make_unique<Foo>();\n", "src/x.cc", []),
    ("wrapped new clean",
     "return std::unique_ptr<S>(new MemoryRecordStream(x));\n",
     "src/x.cc", []),
    ("fsync without fault point flagged",
     "if (::fsync(fd) != 0) return Err();\n", "src/x.cc",
     [(1, "fault-pair")]),
    ("rename without fault point flagged",
     "std::rename(a, b);\n", "src/x.cc", [(1, "fault-pair")]),
    ("fsync near CT_FAULT clean",
     'CT_FAULT("x.sync");\nif (::fsync(fd) != 0) return Err();\n',
     "src/x.cc", []),
    ("rename near MaybeFail clean",
     'st = inj.MaybeFail("x.rename");\n'
     "if (std::rename(a, b) != 0) return Err();\n", "src/x.cc", []),
    ("fault cover outside window ignored",
     'CT_FAULT("x");\n' + "\n" * 12 + "::fsync(fd);\n", "src/x.cc",
     [(14, "fault-pair")]),
    ("same-line allow suppresses",
     "Foo* f = new Foo();  // ct-lint: allow(no-naked-new)\n",
     "src/x.cc", []),
    ("preceding-line allow suppresses",
     "// ct-lint: allow(raw-mutex)\nstd::mutex mu;\n", "src/x.cc", []),
    ("allow is rule-specific",
     "std::mutex mu;  // ct-lint: allow(no-system)\n", "src/x.cc",
     [(1, "raw-mutex")]),
    ("pattern inside line comment ignored",
     "// the old code used std::mutex and system() here\n", "src/x.cc",
     []),
    ("pattern inside block comment ignored",
     "/* std::mutex\n   assert(x) */\nint x;\n", "src/x.cc", []),
    ("pattern inside string literal ignored",
     'const char* s = "std::mutex via system(x)";\n', "src/x.cc", []),
    ("line numbers survive stripping",
     "/* comment\n spanning\n lines */\nstd::mutex mu;\n", "src/x.cc",
     [(4, "raw-mutex")]),
    ("atomic shared_ptr flagged",
     "std::atomic<std::shared_ptr<State>> published_;\n", "src/x.h",
     [(1, "atomic-shared-ptr")]),
    ("atomic shared_ptr allow suppresses",
     "// ct-lint: allow(atomic-shared-ptr)\n"
     "std::atomic<std::shared_ptr<State>> p;\n", "src/x.h", []),
    ("atomic shared_ptr in comment or string ignored",
     "// not std::atomic<std::shared_ptr<T>>: TSan\n"
     'const char* s = "std::atomic<std::shared_ptr<T>>";\n', "src/x.h", []),
    ("atomic of a plain value clean",
     "std::atomic<bool> retired{false};\n", "src/x.h", []),
    ("multiple rules on one file",
     'std::mutex mu;\nint r = system("x");\nassert(r);\n', "src/x.cc",
     [(1, "raw-mutex"), (2, "no-system"), (3, "no-assert")]),
]


def self_test():
    failures = 0
    for name, source, relpath, expected in SELF_TESTS:
        got = [(lineno, rule) for lineno, rule, _ in
               lint_text(source, relpath)]
        if got != expected:
            print("FAIL %s: expected %r, got %r" % (name, expected, got))
            failures += 1
        else:
            print("ok   %s" % name)
    if failures:
        print("ct_lint self-test: %d failure(s)" % failures,
              file=sys.stderr)
        return 1
    print("ct_lint self-test: %d checks passed" % len(SELF_TESTS))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own unit tests")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to the root "
                             "(default: %s)" % " ".join(DEFAULT_DIRS))
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or list(DEFAULT_DIRS)
    return run_lint(root, paths)


if __name__ == "__main__":
    sys.exit(main())
