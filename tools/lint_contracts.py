#!/usr/bin/env python3
"""Repo concurrency-contract linter.

Mechanically enforceable halves of the concurrency contracts that Clang
Thread Safety Analysis cannot see (run alongside -Wthread-safety, not
instead of it):

  1. raw-primitive  -- no raw std::mutex / std::lock_guard /
     std::unique_lock / std::scoped_lock / std::condition_variable outside
     src/sync/. Everything locks through nttpim::sync so the annotated
     wrappers are the single locking vocabulary (a raw primitive would be
     invisible to the analysis).
  2. atomic-order   -- every atomic member-function op (.load/.store/
     .exchange/.fetch_*/.compare_exchange_*) names an explicit
     std::memory_order, and no atomic declared in the file is touched
     through its implicit-seq_cst operator sugar (prefix or postfix ++
     and --, +=, -=, &=, |=, ^=, or plain assignment). A bare `name`
     counts inside the block that declares the atomic; `.name`/`->name`
     counts only when the atomic is a struct or class member.
     Implicit-conversion reads (`if (flag)`) are not detected. Orderings
     are part of the contract; defaults hide them.
  3. no-test-sleep  -- no sleep_for / sleep_until in tests/. A sleeping
     test is a race with a timeout; the repo's test idioms (start_paused/
     resume staging, explicit times passed to the former and admission, drain())
     exist so tests never wait on wall time.

Exit status: 0 clean, 1 findings, 2 usage error. Findings print as
path:line: [rule] message.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINT_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# The one place raw primitives are allowed: the annotated wrappers.
RAW_PRIMITIVE_ALLOWED = ("src/sync/",)

RAW_PRIMITIVES = re.compile(
    r"std\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable"
    r"|condition_variable_any)\b"
)

# .clear()/.wait() are omitted: shared with vector/CondVar spellings, and
# the repo uses neither atomic_flag nor atomic wait.
ATOMIC_METHODS = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|compare_exchange_weak|compare_exchange_strong"
    r"|test_and_set)\s*\("
)

ATOMIC_DECL = re.compile(
    r"std\s*::\s*(?:atomic\s*<[^;{}()]*>|atomic_flag|atomic_bool"
    r"|atomic_int|atomic_uint|atomic_size_t|atomic_uint64_t)\s+(\w+)"
)

# A struct/class/union body's head: class key, name tokens (attribute
# macros with arguments allowed) and an optional base clause.
CLASS_HEAD = re.compile(
    r"\b(?:struct|class|union)\b(?:\s+\w+(?:\s*\([^()]*\))?)*\s*(?::[^{};]*)?$"
)

# Operator sugar: ++x / --x (group 2 the name, group 1 an object chain
# such as `s.`, `p->` or `v[i].`), or x++ / x-- / x op= y (group 4 the
# name, group 3 a leading `.` or `->`), x optionally subscripted.
ATOMIC_SUGAR = re.compile(
    r"(?:\+\+|--)\s*((?:\w+\s*(?:\[[^\]]*\]\s*)*(?:\.|->)\s*)*)(\w+)\b"
    r"|(\.|->)?\s*(?<!\w)(\w+)(?:\s*\[[^\]]*\])?\s*(?:\+\+|--|[+\-&|^]?=(?!=))"
)

SLEEP = re.compile(r"\b(?:std\s*::\s*this_thread\s*::\s*)?sleep_(for|until)\s*\(")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines so
    reported line numbers stay true."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def call_argument_text(code: str, open_paren: int) -> str:
    """The text between a call's parentheses, depth-matched."""
    depth = 0
    for j in range(open_paren, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1 : j]
    return code[open_paren + 1 :]


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


def check_raw_primitives(rel: str, code: str, findings: list[str]) -> None:
    if any(rel.startswith(prefix) for prefix in RAW_PRIMITIVE_ALLOWED):
        return
    for m in RAW_PRIMITIVES.finditer(code):
        findings.append(
            f"{rel}:{line_of(code, m.start())}: [raw-primitive] std::{m.group(1)} "
            f"outside src/sync/ — lock through nttpim::sync so the TSA "
            f"annotations see it"
        )


def check_atomic_order(rel: str, code: str, findings: list[str]) -> None:
    # Member-function ops must spell their ordering.
    for m in ATOMIC_METHODS.finditer(code):
        method = m.group(1)
        args = call_argument_text(code, m.end() - 1)
        if "memory_order" in args:
            continue
        findings.append(
            f"{rel}:{line_of(code, m.start())}: [atomic-order] .{method}() without "
            f"an explicit std::memory_order"
        )
    # Operator sugar on atomics declared in this file is implicit seq_cst.
    # Each declaration's scope: its innermost enclosing {...} block, and
    # whether that block is a class body (a member atomic).
    blocks: list[tuple[int, int]] = []
    opens: list[int] = []
    for i, c in enumerate(code):
        if c == "{":
            opens.append(i)
        elif c == "}" and opens:
            blocks.append((opens.pop(), i))
    scopes: dict[str, list[tuple[int, int, int, bool]]] = {}
    for m in ATOMIC_DECL.finditer(code):
        pos = m.start(1)
        start, end = max(
            (b for b in blocks if b[0] < pos < b[1]), default=(-1, len(code))
        )
        head = code[max(code.rfind(c, 0, start) for c in ";{}") + 1 : start]
        member = start >= 0 and CLASS_HEAD.search(head) is not None
        scopes.setdefault(m.group(1), []).append((pos, start, end, member))
    for m in ATOMIC_SUGAR.finditer(code):
        group = 2 if m.group(2) else 4
        name, pos = m.group(group), m.start(group)
        through_object = bool(m.group(1) or m.group(3))
        for decl, start, end, member in scopes.get(name, ()):
            in_scope = member if through_object else start < pos < end
            if pos != decl and in_scope:
                findings.append(
                    f"{rel}:{line_of(code, pos)}: [atomic-order] operator op on "
                    f"atomic '{name}' (implicit seq_cst) — use "
                    f".load/.store/.fetch_* with an explicit ordering"
                )
                break


def check_test_sleep(rel: str, code: str, findings: list[str]) -> None:
    if not rel.startswith("tests/"):
        return
    for m in SLEEP.finditer(code):
        findings.append(
            f"{rel}:{line_of(code, m.start())}: [no-test-sleep] sleep_{m.group(1)} "
            f"in a test — stage determinism with start_paused/resume(), "
            f"explicit times, or drain() instead of wall time"
        )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"lint_contracts: not a directory: {root}", file=sys.stderr)
        return 2
    findings: list[str] = []
    for top in LINT_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            check_raw_primitives(rel, code, findings)
            check_atomic_order(rel, code, findings)
            check_test_sleep(rel, code, findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_contracts: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_contracts: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
