#!/usr/bin/env python3
"""Self-test of tools/lint_contracts.py: each rule on in-memory snippets.

Run with `python3 tools/test_lint_contracts.py`; ctest registers it as
`lint_contracts_selftest`.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint_contracts as lc  # noqa: E402


def finding_lines(check, snippet: str, rel: str = "src/x.cpp") -> list[int]:
    findings: list[str] = []
    check(rel, lc.strip_comments_and_strings(snippet), findings)
    return sorted(int(f.split(":")[1]) for f in findings)


# (case, snippet, lines the atomic-order rule must report)
ATOMIC_CASES = [
    ("sugar on a local atomic; explicit orders, comparisons, the "
     "declaration, comments and strings pass",
     """void f() {
  std::atomic<int> hits{0};
  std::atomic<int> misses = 0;
  ++hits;
  hits++;
  hits--;
  --hits;
  hits += 2;
  hits |= 1;
  hits = 3;
  hits.fetch_add(1, std::memory_order_relaxed);
  bool le = misses.load(std::memory_order_relaxed) <= 2 && hits == 1;
  misses.load();  // ++misses;
  log("misses++");
}""", [4, 5, 6, 7, 8, 9, 10, 13]),
    ("a plain variable or field sharing a local atomic's name",
     """void a() {
  std::atomic<std::uint64_t> mismatches{0};
}
void b(Summary& s) {
  std::size_t mismatches = 0;
  ++mismatches;
  mismatches++;
  s.mismatches += 1;
  ++s.mismatches;
}""", []),
    ("a member atomic through an object, and bare inside its class",
     """struct Stats {
  void reset() { hits = 0; }
  std::atomic<int> hits{0};
};
void f(Stats& s, Stats* p, std::vector<Stats>& v) {
  int hits = 0;
  hits++;
  ++s.hits;
  p->hits += 2;
  s.hits++;
  --v[0].hits;
}""", [2, 8, 9, 10, 11]),
    ("a namespace-scope atomic and a vector of atomics",
     """std::atomic<int> g_next{1};
int next() { return g_next++; }
void f(std::size_t i) {
  std::vector<std::atomic<int>> delivered(4);
  delivered[i]++;
  ++delivered[i + 1];
}""", [2, 5, 6]),
]


class LintContracts(unittest.TestCase):
    def test_atomic_order(self):
        for case, snippet, lines in ATOMIC_CASES:
            with self.subTest(case):
                self.assertEqual(
                    finding_lines(lc.check_atomic_order, snippet), lines
                )

    def test_raw_primitives_outside_sync_only(self):
        snippet = "std::mutex mu;\n"
        self.assertEqual(finding_lines(lc.check_raw_primitives, snippet), [1])
        self.assertEqual(
            finding_lines(lc.check_raw_primitives, snippet, "src/sync/m.h"), []
        )

    def test_sleeps_in_tests_only(self):
        snippet = "void f() { std::this_thread::sleep_for(1ms); }\n"
        self.assertEqual(
            finding_lines(lc.check_test_sleep, snippet, "tests/t.cpp"), [1]
        )
        self.assertEqual(finding_lines(lc.check_test_sleep, snippet), [])


if __name__ == "__main__":
    unittest.main()
