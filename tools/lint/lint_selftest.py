#!/usr/bin/env python3
"""Self-tests for oblivious_lint.py against the committed fixtures,
and for knob_inventory.py against small scratch trees.

Run directly (python3 tools/lint/lint_selftest.py) or through ctest
(registered as lint_selftest next to snapshot_py). The fixtures are
copied into a scratch tree under src/oram/ so the path-scoped rules
(unordered_map ban, clock ban) apply exactly as they do to the real
ORAM core.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import knob_inventory  # noqa: E402
import oblivious_lint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


def lint_fixture(name, subdir="src/oram"):
    """Copy fixture @p name into <tmp>/<subdir>/ and lint it there
    with the text engine. Returns the list of diagnostics."""
    with tempfile.TemporaryDirectory() as tmp:
        dest_dir = os.path.join(tmp, subdir)
        os.makedirs(dest_dir)
        dest = os.path.join(dest_dir, name)
        shutil.copy(os.path.join(FIXTURES, name), dest)
        rel = os.path.relpath(dest, tmp)
        report = oblivious_lint.lint_file_text(dest, rel)
        return report.diagnostics, report.suppressed


class BadFixture(unittest.TestCase):
    """True-positive direction: every rule catches >= 1 violation."""

    @classmethod
    def setUpClass(cls):
        cls.diags, cls.suppressed = lint_fixture("bad.cc")
        cls.by_rule = {}
        for d in cls.diags:
            cls.by_rule.setdefault(d.rule, []).append(d)

    def test_secret_branch_caught(self):
        hits = self.by_rule.get("secret-branch", [])
        self.assertGreaterEqual(len(hits), 2)  # if + for-loop bound
        messages = " ".join(d.message for d in hits)
        self.assertIn("'a'", messages)   # leakyCompare's condition
        self.assertIn("'id'", messages)  # leakyLoop's bound

    def test_hot_alloc_caught(self):
        hits = self.by_rule.get("hot-alloc", [])
        self.assertGreaterEqual(len(hits), 2)  # push_back + new
        messages = " ".join(d.message for d in hits)
        self.assertIn("push_back", messages)
        self.assertIn("`new`", messages)

    def test_banned_api_caught(self):
        hits = self.by_rule.get("banned-api", [])
        messages = " ".join(d.message for d in hits)
        self.assertIn("std::rand", messages)
        self.assertIn("wall-clock", messages)
        self.assertIn("unordered_map", messages)

    def test_diagnostics_carry_location(self):
        for d in self.diags:
            self.assertTrue(d.path.endswith("bad.cc"))
            self.assertGreater(d.line, 0)
            # Every intended violation line is marked in the fixture.
            self.assertIn(str(d.line), str(d))

    def test_nothing_suppressed_in_bad(self):
        self.assertEqual(self.suppressed, 0)


class GoodFixture(unittest.TestCase):
    """False-positive direction: allowlisted sentinel comparisons,
    suppressed growth, and unannotated code yield no diagnostics."""

    @classmethod
    def setUpClass(cls):
        cls.diags, cls.suppressed = lint_fixture("good.cc")

    def test_clean(self):
        self.assertEqual(
            [], [str(d) for d in self.diags],
            "good.cc must lint clean")

    def test_suppression_counted(self):
        # reservedAppend's growth allow + materializeChunk's
        # demand-materialization allow.
        self.assertEqual(self.suppressed, 2)


class ClockScope(unittest.TestCase):
    """The clock ban is path-scoped: src/obs/ may read steady_clock."""

    def test_obs_exempt(self):
        diags, _ = lint_fixture("bad.cc", subdir="src/obs")
        clock = [d for d in diags if "wall-clock" in d.message]
        self.assertEqual(clock, [])
        # unordered_map ban is also scoped to hot-path dirs.
        um = [d for d in diags if "unordered_map" in d.message]
        self.assertEqual(um, [])
        # But std::rand stays banned everywhere.
        rand = [d for d in diags if "std::rand" in d.message]
        self.assertEqual(len(rand), 1)


class HotPathScope(unittest.TestCase):
    """The unordered_map ban covers every hot-path dir, the memory
    hierarchy included."""

    def test_mem_is_hot(self):
        for subdir in ("src/oram", "src/core", "src/mem"):
            diags, _ = lint_fixture("bad.cc", subdir=subdir)
            um = [d for d in diags if "unordered_map" in d.message]
            self.assertEqual(len(um), 1, subdir)


def lint_stub_text(filename, text):
    """Lint @p text as src/oram/<filename> with the text engine."""
    with tempfile.TemporaryDirectory() as tmp:
        dest_dir = os.path.join(tmp, "src", "oram")
        os.makedirs(dest_dir)
        dest = os.path.join(dest_dir, filename)
        with open(dest, "w") as f:
            f.write(text)
        rel = os.path.relpath(dest, tmp)
        return oblivious_lint.lint_file_text(dest, rel).diagnostics


class StageAnnotations(unittest.TestCase):
    """stage-annotation rule: the access stages of path_oram.cc must
    keep both macros on their definitions."""

    FILE = "path_oram.cc"
    STUB = """\
PRORAM_OBLIVIOUS PRORAM_HOT void
PathOram::readPath(Leaf leaf)
{
}
%s
PathOram::writePath(Leaf leaf)
{
}
"""

    def lint_stub(self, write_head):
        return lint_stub_text(self.FILE, self.STUB % write_head)

    def test_fully_annotated_is_clean(self):
        diags = self.lint_stub("PRORAM_OBLIVIOUS PRORAM_HOT void")
        self.assertEqual([], [str(d) for d in diags])

    def test_dropped_macro_caught(self):
        diags = self.lint_stub("void")
        rules = [d.rule for d in diags]
        self.assertEqual(rules.count("stage-annotation"), 2)
        messages = " ".join(d.message for d in diags)
        self.assertIn("writePath", messages)
        self.assertIn("PRORAM_OBLIVIOUS", messages)
        self.assertIn("PRORAM_HOT", messages)

    def test_renamed_stage_caught(self):
        renamed = self.STUB.replace("writePath", "pushPath")
        diags = lint_stub_text(
            self.FILE, renamed % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        messages = " ".join(d.message for d in diags)
        self.assertIn("not found", messages)
        self.assertIn("writePath", messages)

    def test_other_files_unaffected(self):
        # The rule is keyed to the engine files; the same content
        # under a different name must not fire.
        diags = lint_stub_text("other.cc", "void f() {}\n")
        self.assertEqual([], [str(d) for d in diags])


class RingStageAnnotations(unittest.TestCase):
    """stage-annotation covers ring_oram.cc's stage set too: both
    engines carry the same two path stages."""

    FILE = "ring_oram.cc"
    STUB = StageAnnotations.STUB.replace("PathOram", "RingOram")

    def test_fully_annotated_is_clean(self):
        diags = lint_stub_text(
            self.FILE, self.STUB % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        self.assertEqual([], [str(d) for d in diags])

    def test_dropped_macro_caught(self):
        diags = lint_stub_text(self.FILE, self.STUB % "void")
        rules = [d.rule for d in diags]
        self.assertEqual(rules.count("stage-annotation"), 2)
        messages = " ".join(d.message for d in diags)
        self.assertIn("RingOram::writePath", messages)

    def test_missing_stage_caught(self):
        stub = self.STUB.replace("RingOram::readPath", "RingOram::other")
        diags = lint_stub_text(
            self.FILE, stub % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        messages = " ".join(d.message for d in diags)
        self.assertIn("not found", messages)
        self.assertIn("readPath", messages)


class SharedEvictionAnnotations(unittest.TestCase):
    """stage-annotation covers the greedy eviction both engines share
    (OramScheme::evictOnto in scheme.cc)."""

    FILE = "scheme.cc"
    STUB = """\
%s
OramScheme::evictOnto(Leaf leaf)
{
}
"""

    def test_fully_annotated_is_clean(self):
        diags = lint_stub_text(
            self.FILE, self.STUB % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        self.assertEqual([], [str(d) for d in diags])

    def test_dropped_macro_caught(self):
        diags = lint_stub_text(self.FILE, self.STUB % "PRORAM_HOT void")
        messages = " ".join(d.message for d in diags)
        self.assertIn("OramScheme::evictOnto", messages)
        self.assertIn("PRORAM_OBLIVIOUS", messages)

    def test_renamed_stage_caught(self):
        renamed = self.STUB.replace("evictOnto", "evictAll")
        diags = lint_stub_text(
            self.FILE, renamed % "PRORAM_OBLIVIOUS PRORAM_HOT void")
        messages = " ".join(d.message for d in diags)
        self.assertIn("not found", messages)
        self.assertIn("evictOnto", messages)


class SchemeIncludeBan(unittest.TestCase):
    """Concrete scheme headers (path_oram.hh / ring_oram.hh) may only
    be included from src/oram/; the controller and policy layers must
    program against oram/scheme.hh."""

    def test_fires_outside_engine_layer(self):
        diags, _ = lint_fixture("bad.cc", subdir="src/core")
        hits = [d for d in diags if "scheme header" in d.message]
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].rule, "banned-api")
        self.assertIn("path_oram.hh", hits[0].message)
        self.assertIn("oram/scheme.hh", hits[0].message)

    def test_fires_anywhere_outside_src_oram(self):
        diags, _ = lint_fixture("bad.cc", subdir="src/sim")
        hits = [d for d in diags if "scheme header" in d.message]
        self.assertEqual(len(hits), 1)

    def test_allowed_inside_engine_layer(self):
        # BadFixture lints bad.cc under src/oram/: the include there
        # is legal, so the only banned-api hits are rand/clock/map.
        diags, _ = lint_fixture("bad.cc")
        hits = [d for d in diags if "scheme header" in d.message]
        self.assertEqual(hits, [])

    def test_good_fixture_include_is_engine_layer(self):
        # good.cc carries a ring_oram.hh include and still lints
        # clean because fixtures land in src/oram/.
        diags, _ = lint_fixture("good.cc")
        self.assertEqual([], [str(d) for d in diags])


class ShippedTree(unittest.TestCase):
    """The shipped src/ tree lints clean (the CI hard gate)."""

    def test_src_clean(self):
        root = os.path.dirname(os.path.dirname(HERE))
        rc = oblivious_lint.main(["--root", root, "--engine", "text",
                                  "--quiet", "src"])
        self.assertEqual(rc, 0)


class KnobInventory(unittest.TestCase):
    """knob_inventory.py: the PRORAM_* knobs src/ reads and the ones
    EXPERIMENTS.md documents must be the same set."""

    SRC = ('const char *a = std::getenv("PRORAM_A");\n'
           'auto b = envKnob("PRORAM_B", 1, 1, 8);\n'
           'fatal("PRORAM_A: a message, not a knob");\n')
    TESTS = ('const char *t = std::getenv("PRORAM_T");\n'
             '::setenv("PRORAM_SCRATCH", "1", 1);\n')
    DOC = ("* **`PRORAM_A`** - read by src\n"
           "* **`PRORAM_B`** - read by src through envKnob\n"
           "* **`PRORAM_T`** - read by a test\n"
           "`PRORAM_NATIVE` is a CMake option, not a knob entry.\n")

    def check_tree(self, src=SRC, tests=TESTS, doc=DOC):
        with tempfile.TemporaryDirectory() as tmp:
            for rel, text in (("src/x/a.cc", src), ("tests/t.cc", tests),
                              ("EXPERIMENTS.md", doc)):
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(text)
            return knob_inventory.check(tmp)

    def test_consistent_tree_is_clean(self):
        self.assertEqual([], self.check_tree())

    def test_undocumented_knob_caught(self):
        doc = self.DOC.replace("* **`PRORAM_B`**", "* `PRORAM_B`")
        problems = self.check_tree(doc=doc)
        self.assertEqual(len(problems), 1)
        self.assertIn("PRORAM_B", problems[0])
        self.assertIn("src/x/a.cc:2", problems[0])

    def test_stale_entry_caught(self):
        problems = self.check_tree(
            doc=self.DOC + "* **`PRORAM_GONE`** - deleted knob\n")
        self.assertEqual(len(problems), 1)
        self.assertIn("PRORAM_GONE", problems[0])
        self.assertIn("EXPERIMENTS.md", problems[0])

    def test_test_side_setenv_is_not_a_read(self):
        # A test that only sets a knob does not keep its entry alive.
        tests = self.TESTS.replace('std::getenv("PRORAM_T")', '0')
        problems = self.check_tree(tests=tests)
        self.assertEqual(len(problems), 1)
        self.assertIn("PRORAM_T", problems[0])

    def test_shipped_tree_consistent(self):
        root = os.path.dirname(os.path.dirname(HERE))
        self.assertEqual([], knob_inventory.check(root))


if __name__ == "__main__":
    unittest.main()
