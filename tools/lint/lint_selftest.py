#!/usr/bin/env python3
"""Unit tests for polysse-lint itself, driven by the fixture trees under
testdata/: every check must catch its known-bad file, the clean tree must
produce zero findings (including one deliberately suppressed violation),
and the declared-cycle tree must be rejected.

Run directly (`python3 tools/lint/lint_selftest.py`) or via ctest
(`ctest -L lint`). Stdlib-only.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import polysse_lint  # noqa: E402

BAD_TREE = os.path.join(HERE, "testdata", "bad_tree")
CLEAN_TREE = os.path.join(HERE, "testdata", "clean_tree")
CYCLE_TREE = os.path.join(HERE, "testdata", "cycle_tree")


def findings_for(root, checks=polysse_lint.CHECKS):
    return polysse_lint.run_checks(root, checks)


class BadTreeTest(unittest.TestCase):
    """Each known-bad fixture file is caught by exactly the right check."""

    @classmethod
    def setUpClass(cls):
        cls.findings = findings_for(BAD_TREE)

    def by_check(self, check):
        return [f for f in self.findings if f.check == check]

    def test_every_check_fires(self):
        for check in polysse_lint.CHECKS:
            with self.subTest(check=check):
                self.assertTrue(self.by_check(check),
                                f"{check} found nothing in bad_tree")

    def test_protocol_completeness_catches_unwired_kind(self):
        messages = [f.message for f in self.by_check("protocol-completeness")]
        self.assertEqual(len(messages), 6)  # 5 sites + the range gate
        for needle in ("GhostRequest::Serialize", "GhostRequest::Deserialize",
                       "case MessageKind::kGhost", "never put on the wire",
                       "no corruption drill", "highest-valued"):
            self.assertTrue(any(needle in m for m in messages),
                            f"no finding mentions {needle!r}")
        # All anchored at the enum declaration, where the fix starts.
        self.assertTrue(all(
            f.path == os.path.join("src", "core", "endpoint.h")
            for f in self.by_check("protocol-completeness")))

    def test_alloc_bomb_catches_unguarded_resize(self):
        found = self.by_check("alloc-bomb")
        self.assertEqual([f.path for f in found],
                         [os.path.join("src", "core", "protocol.cc")])
        self.assertIn("wire-decoded `n`", found[0].message)

    def test_layer_dag_catches_undeclared_include(self):
        found = self.by_check("layer-dag")
        self.assertEqual([f.path for f in found],
                         [os.path.join("src", "poly", "bad_include.cc")])
        self.assertIn('"net/', found[0].message)

    def test_lock_discipline_catches_every_direct_call(self):
        found = self.by_check("lock-discipline")
        self.assertEqual(len(found), 4)  # lock, unlock, try_lock, unlock
        self.assertTrue(all(
            f.path == os.path.join("src", "shard", "locks.cc")
            for f in found))

    def test_atomic_ordering_catches_all_bare_access_forms(self):
        found = self.by_check("atomic-ordering")
        self.assertEqual(len(found), 5)  # load, fetch_add, store, ++, +=
        messages = " ".join(f.message for f in found)
        self.assertIn("load", messages)
        self.assertIn("fetch_add", messages)
        self.assertIn("store", messages)
        self.assertIn("++/--", messages)
        self.assertIn("compound assignment", messages)

    def test_ring_fork_catches_unmarked_forks(self):
        rel = os.path.join("src", "core", "query_session.h")
        found = [f for f in self.by_check("ring-fork") if f.path == rel]
        # The `if constexpr` line and the line naming the ring; the ring
        # named in a comment and in a string literal is not a fork.
        self.assertEqual([f.line for f in found], [15, 16])
        self.assertIn("if constexpr", found[0].message)
        self.assertIn("FpCyclotomicRing", found[1].message)
        self.assertIn("the walk", found[0].message)

    def test_ring_fork_covers_the_server(self):
        # The registry is held to the same rule: its ring branch and its
        # unmarked alias are findings, the ring in its comment is not.
        rel = os.path.join("src", "core", "store_registry.h")
        found = [f for f in self.by_check("ring-fork") if f.path == rel]
        self.assertEqual([f.line for f in found], [15, 20])
        self.assertIn("if constexpr", found[0].message)
        self.assertIn("ZQuotientRing", found[1].message)
        self.assertTrue(all("the server" in f.message for f in found))
        # Only the two files written once over their ring are checked.
        self.assertEqual(
            sorted({f.path for f in self.by_check("ring-fork")}),
            [os.path.join("src", "core", "query_session.h"), rel])

    def test_findings_have_positive_line_numbers(self):
        self.assertTrue(all(f.line >= 1 for f in self.findings))


class CleanTreeTest(unittest.TestCase):
    def test_clean_tree_has_zero_findings(self):
        findings = findings_for(CLEAN_TREE)
        self.assertEqual([str(f) for f in findings], [])

    def test_suppression_comment_is_load_bearing(self):
        # The clean tree contains one direct unlock() under an allow()
        # comment. Dropping the suppression must surface exactly that site —
        # proving the clean result above comes from the comment, not from
        # the check missing the call.
        locks = os.path.join(CLEAN_TREE, "src", "shard", "locks.cc")
        with open(locks, encoding="utf-8") as f:
            self.assertIn("polysse-lint: allow(lock-discipline)", f.read())
        sf = polysse_lint.SourceFile(CLEAN_TREE,
                                     os.path.join("src", "shard", "locks.cc"))
        suppressed_lines = [
            i for i, _ in enumerate(sf.lines, start=1)
            if sf.suppressed(i, "lock-discipline")]
        self.assertTrue(suppressed_lines)
        # The same comment does not silence unrelated checks.
        self.assertFalse(any(
            sf.suppressed(i, "alloc-bomb") for i in suppressed_lines))


    def test_ring_fork_markers_are_load_bearing(self):
        # Both forks of the clean walk and both aliases of the clean
        # registry are marked; without the markers the check would report
        # exactly those lines.
        for name in ("query_session.h", "store_registry.h"):
            with self.subTest(file=name):
                rel = os.path.join("src", "core", name)
                sf = polysse_lint.SourceFile(CLEAN_TREE, rel)
                forks = [i for i, line in sf.code_lines()
                         if polysse_lint.RING_FORK_RE.search(line)]
                self.assertEqual(len(forks), 2)
                self.assertTrue(
                    all(sf.suppressed(i, "ring-fork") for i in forks))


class CycleTreeTest(unittest.TestCase):
    def test_declared_cycle_is_rejected(self):
        findings = findings_for(CYCLE_TREE, checks=("layer-dag",))
        self.assertEqual(len(findings), 1)
        self.assertIn("cycle", findings[0].message)
        self.assertIn("alpha", findings[0].message)
        self.assertIn("beta", findings[0].message)


class DriverTest(unittest.TestCase):
    def test_exit_codes(self):
        self.assertEqual(polysse_lint.main(["--root", CLEAN_TREE]), 0)
        self.assertEqual(polysse_lint.main(["--root", BAD_TREE]), 1)
        self.assertEqual(
            polysse_lint.main(["--root", BAD_TREE, "--checks", "nope"]), 2)
        self.assertEqual(polysse_lint.main(["--root", "/nonexistent"]), 2)
        self.assertEqual(polysse_lint.main(["--list-checks"]), 0)

    def test_check_subset_runs_only_that_check(self):
        findings = findings_for(BAD_TREE, checks=("lock-discipline",))
        self.assertTrue(findings)
        self.assertTrue(all(f.check == "lock-discipline" for f in findings))


if __name__ == "__main__":
    unittest.main(verbosity=2)
