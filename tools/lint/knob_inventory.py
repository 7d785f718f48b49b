#!/usr/bin/env python3
"""Knob inventory: the PRORAM_* environment knobs the simulator reads
and the ones EXPERIMENTS.md documents must be the same set, so a
deleted knob cannot linger in the docs and a new one cannot ship
undocumented.

What counts where:
  - read by the library: a whole string literal "PRORAM_NAME" in a
    C++ file under src/ - the argument of getenv/envKnob, or a name
    handed to them (oram/config.cc passes the Ring knobs that way);
  - read by the test suite: std::getenv("PRORAM_NAME") under tests/
    (test-only switches such as PRORAM_CAPTURE_GOLDENS);
  - documented: a bold code span **`PRORAM_NAME`** in EXPERIMENTS.md.
    CMake options (PRORAM_NATIVE, PRORAM_TRACING) appear there only
    in plain code spans and are not environment knobs.

It fails (exit 1) when a library knob is missing from EXPERIMENTS.md
or when EXPERIMENTS.md documents a knob that neither the library nor
the tests read. Usage:

    python3 tools/lint/knob_inventory.py [--root DIR]
"""

import argparse
import os
import re
import sys

LITERAL = re.compile(r'"(PRORAM_[A-Z0-9_]+)"')
TEST_GETENV = re.compile(r'getenv\(\s*"(PRORAM_[A-Z0-9_]+)"\s*\)')
DOCUMENTED = re.compile(r"\*\*`(PRORAM_[A-Z0-9_]+)`\*\*")
CXX_SUFFIXES = (".cc", ".hh", ".h", ".cpp", ".hpp")


def scan(root, subdir, pattern):
    """{knob: first 'path:line'} for @p pattern over C++ files under
    <root>/<subdir>."""
    found = {}
    top = os.path.join(root, subdir)
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(CXX_SUFFIXES):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for knob in pattern.findall(line):
                        rel = os.path.relpath(path, root)
                        found.setdefault(knob, f"{rel}:{lineno}")
    return found


def documented_knobs(path):
    with open(path, encoding="utf-8") as f:
        return set(DOCUMENTED.findall(f.read()))


def check(root):
    """List of problems (empty when the inventory is consistent)."""
    library = scan(root, "src", LITERAL)
    tests = scan(root, "tests", TEST_GETENV)
    doc_path = os.path.join(root, "EXPERIMENTS.md")
    documented = documented_knobs(doc_path)
    problems = []
    for knob in sorted(set(library) - documented):
        problems.append(
            f"{library[knob]}: {knob} is read but EXPERIMENTS.md does "
            f"not document it (add a **`{knob}`** entry)")
    for knob in sorted(documented - set(library) - set(tests)):
        problems.append(
            f"EXPERIMENTS.md: documents {knob}, which nothing under "
            f"src/ or tests/ reads (remove the entry)")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        help="source tree root (default: this checkout)")
    args = parser.parse_args(argv)
    problems = check(args.root)
    for p in problems:
        print(p)
    if problems:
        print(f"knob inventory: {len(problems)} problem(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
