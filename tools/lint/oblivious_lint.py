#!/usr/bin/env python3
"""Obliviousness lint for the PrORAM ORAM core.

Enforces three project rules over C++ sources (see DESIGN.md,
"Static analysis"):

  secret-branch  In functions annotated PRORAM_OBLIVIOUS
                 (src/oram/, src/core/): no branch, loop bound,
                 switch, or ternary whose condition data-depends on a
                 secret-typed value (Leaf, BlockId). Comparisons
                 against the kInvalidBlock / kInvalidLeaf sentinels
                 are allowlisted -- Path ORAM performs that dummy-slot
                 check on every slot of every fetched bucket, so it
                 reveals nothing about the access. The Leaf -> TreeIdx
                 conversion (BinaryTree::nodeOnPath) is a declassify
                 boundary: the path itself is public by construction.

  banned-api     Anywhere in src/: std::rand (non-deterministic
                 seeding, breaks replay); std::chrono::system_clock /
                 steady_clock outside src/obs/ (wall-clock time in
                 simulation logic breaks determinism; the tracer is
                 the one sanctioned consumer); std::unordered_map in
                 hot-path files (src/oram/, src/core/, src/mem/) --
                 the seed's unordered_map stash and DRAM prefetch
                 buffer were replaced by flat arrays precisely because
                 node-based hashing wrecks the per-reference budget. Also: including a
                 concrete scheme header (path_oram.hh / ring_oram.hh)
                 outside src/oram/ -- everything above the engine
                 layer must program against oram/scheme.hh so a new
                 protocol never leaks into the controller or policy
                 code (DESIGN.md §14).

  hot-alloc      In functions annotated PRORAM_HOT: no `new`
                 expressions and no std::vector growth calls
                 (push_back / emplace_back / resize / reserve).
                 (`insert`/`assign` are deliberately not matched: the
                 stash and PLB expose non-allocating members of those
                 names, and the fallback engine cannot resolve the
                 receiver's type.)

  stage-annotation  The path stages of one ORAM access - readPath /
                 writePath in src/oram/path_oram.cc and
                 src/oram/ring_oram.cc, and the shared greedy eviction
                 OramScheme::evictOnto in src/oram/scheme.cc - must
                 keep both PRORAM_OBLIVIOUS and PRORAM_HOT on their
                 definitions. The other rules only fire inside
                 annotated bodies, so dropping a macro would silently
                 un-check the hottest, most security-critical loops
                 (DESIGN.md §14); renaming a stage without updating
                 this list is also flagged.

Suppression: `// PRORAM_LINT_ALLOW(<rule>): reason` on the same line
or the line directly above the diagnostic site.

Engines
-------
The checker prefers libclang (`clang.cindex`): annotated functions
are found via their `annotate` attributes and conditions are walked
as ASTs, so macro-generated control flow and multi-line conditions
are handled precisely. Where libclang is unavailable (the default
simulation container carries only gcc) a pure-text engine runs the
same rules over a lexed token stream; it is deliberately conservative
and agrees with the clang engine on the shipped tree and on the
fixture suite (tools/lint/fixtures/, exercised by lint_selftest.py).

An equivalent clang-query formulation of the secret-branch rule, for
interactive use where clang tooling is installed:

    clang-query -p build src/oram/*.cc \
      -c 'match ifStmt(hasCondition(hasDescendant(declRefExpr(to(
            varDecl(hasType(asString("proram::Leaf"))))))),
          hasAncestor(functionDecl(hasAttr(attr::Annotate))))'

Exit status: 0 when no unsuppressed diagnostics, 1 otherwise, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

SECRET_TYPES = ("Leaf", "BlockId")
SENTINELS = ("kInvalidBlock", "kInvalidLeaf")
GROWTH_CALLS = ("push_back", "emplace_back", "resize", "reserve")

# Directories (relative to the source root) whose files carry the
# unordered_map ban: the ORAM core and the memory hierarchy every
# reference goes through.
HOT_PATH_DIRS = ("src/oram", "src/core", "src/mem")
# Stage functions that must stay fully annotated (stage-annotation
# rule): file -> (class, required function names).
STAGE_ANNOTATED = {
    "src/oram/scheme.cc": ("OramScheme", ("evictOnto",)),
    "src/oram/path_oram.cc": ("PathOram", ("readPath", "writePath")),
    "src/oram/ring_oram.cc": ("RingOram", ("readPath", "writePath")),
}
# The one directory allowed to read wall-clock time.
CLOCK_ALLOWED_DIRS = ("src/obs",)
# Concrete scheme headers only the engine layer may include; everyone
# else programs against oram/scheme.hh.
SCHEME_HEADERS = ("path_oram.hh", "ring_oram.hh")
SCHEME_ALLOWED_DIRS = ("src/oram",)
SCHEME_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*[\"<][^\">]*\b(?P<hdr>%s)[\">]"
    % "|".join(h.replace(".", r"\.") for h in SCHEME_HEADERS))

ALLOW_RE = re.compile(r"//\s*PRORAM_LINT_ALLOW\((?P<rule>[a-z-]+)\)")


@dataclass
class Diagnostic:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class FileReport:
    path: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes never fire inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(
                "".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def is_suppressed(raw_lines: list[str], line: int, rule: str) -> bool:
    """PRORAM_LINT_ALLOW(rule) on the diagnostic line or either of the
    two lines above (annotations often push the site one line down)."""
    for probe in (line, line - 1, line - 2):
        if 1 <= probe <= len(raw_lines):
            m = ALLOW_RE.search(raw_lines[probe - 1])
            if m and m.group("rule") == rule:
                return True
    return False


def in_dirs(relpath: str, dirs: tuple[str, ...]) -> bool:
    rel = relpath.replace(os.sep, "/")
    return any(rel.startswith(d + "/") or rel == d for d in dirs)


# --------------------------------------------------------------------
# Text engine
# --------------------------------------------------------------------

FUNC_ANNOTATION_RE = re.compile(
    r"\b(?P<annos>(?:PRORAM_(?:OBLIVIOUS|HOT)\s+)+)")


def find_annotated_bodies(clean: str):
    """Yield (annotations, body_start, body_end) for each function
    definition carrying PRORAM_OBLIVIOUS / PRORAM_HOT. The body is the
    first balanced brace block after the annotation tokens."""
    for m in FUNC_ANNOTATION_RE.finditer(clean):
        annos = set(m.group("annos").split())
        # Find the opening brace of the definition: the first '{' that
        # follows the parameter list's closing ')'. Walk forward
        # matching parens first.
        i = m.end()
        depth = 0
        open_brace = -1
        seen_paren = False
        while i < len(clean):
            c = clean[i]
            if c == "(":
                depth += 1
                seen_paren = True
            elif c == ")":
                depth -= 1
            elif c == "{" and depth == 0 and seen_paren:
                open_brace = i
                break
            elif c == ";" and depth == 0:
                break  # declaration only, no body here
            i += 1
        if open_brace < 0:
            continue
        depth = 0
        j = open_brace
        while j < len(clean):
            if clean[j] == "{":
                depth += 1
            elif clean[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield annos, open_brace, j + 1


def secret_identifiers(body: str) -> set[str]:
    """Names of secret-typed values visible in the body: declarations
    (including for-range and parameters are upstream of the body, so
    also scan the signature line via caller) of Leaf/BlockId objects,
    plus pointer/reference forms."""
    names = set()
    decl_re = re.compile(
        r"\b(?:const\s+)?(?:%s)\s*(?:[*&]\s*)?(?:const\s*)?"
        r"(?P<name>[A-Za-z_]\w*)" % "|".join(SECRET_TYPES))
    for m in decl_re.finditer(body):
        name = m.group("name")
        if name not in ("const",):
            names.add(name)
    return names


CONDITION_RES = (
    re.compile(r"\bif\s*\("),
    re.compile(r"\bwhile\s*\("),
    re.compile(r"\bfor\s*\("),
    re.compile(r"\bswitch\s*\("),
)


def extract_parenthesized(text: str, open_paren: int) -> tuple[str, int]:
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i], i
    return text[open_paren + 1:], len(text)


SENTINEL_CMP_RE = re.compile(
    r"[A-Za-z_]\w*(?:\.\w+\(\)|\[[^\]]*\])?\s*[!=]=\s*(?:%s)\b|"
    r"\b(?:%s)\s*[!=]=\s*[A-Za-z_]\w*(?:\.\w+\(\)|\[[^\]]*\])?"
    % ("|".join(SENTINELS), "|".join(SENTINELS)))


def condition_taints(cond: str, secrets: set[str]) -> str | None:
    """Return the tainting identifier if @p cond references a secret
    name outside an allowlisted sentinel comparison, else None."""
    # Remove allowlisted sentinel comparisons before tainting.
    scrubbed = SENTINEL_CMP_RE.sub(" ", cond)
    for ident in re.finditer(r"[A-Za-z_]\w*", scrubbed):
        if ident.group(0) in secrets:
            return ident.group(0)
    return None


def check_oblivious_text(report: FileReport, clean: str,
                         raw_lines: list[str], sig_window: int = 400):
    for annos, body_start, body_end in find_annotated_bodies(clean):
        body = clean[body_start:body_end]
        # Parameters live between the annotation and the body: scan a
        # window before the brace for secret-typed declarations too.
        sig = clean[max(0, body_start - sig_window):body_start]
        secrets = secret_identifiers(body) | secret_identifiers(sig)

        if "PRORAM_OBLIVIOUS" in annos and secrets:
            for cre in CONDITION_RES:
                for m in cre.finditer(body):
                    cond, _ = extract_parenthesized(body, m.end() - 1)
                    if cre.pattern.startswith(r"\bfor"):
                        # Only the middle (condition) clause of a
                        # classic for; range-for has no ';'.
                        parts = cond.split(";")
                        cond = parts[1] if len(parts) == 3 else ""
                    ident = condition_taints(cond, secrets)
                    if ident:
                        line = line_of(clean, body_start + m.start())
                        emit(report, raw_lines, line, "secret-branch",
                             f"condition depends on secret-typed "
                             f"'{ident}' inside PRORAM_OBLIVIOUS "
                             f"function")
            # Ternaries: flag `secret <op> ... ?` patterns where the
            # '?' condition references a secret outside sentinel
            # comparisons. Conservative: scan each line with a '?'
            # that is not part of a sentinel comparison.
            for tm in re.finditer(r"[^?\n]*\?[^?:\n]*:", body):
                cond = tm.group(0).split("?")[0]
                ident = condition_taints(cond, secrets)
                if ident:
                    line = line_of(clean, body_start + tm.start())
                    emit(report, raw_lines, line, "secret-branch",
                         f"ternary condition depends on secret-typed "
                         f"'{ident}' inside PRORAM_OBLIVIOUS function")

        if "PRORAM_HOT" in annos:
            for m in re.finditer(r"\bnew\b(?!\s*\()", body):
                line = line_of(clean, body_start + m.start())
                emit(report, raw_lines, line, "hot-alloc",
                     "`new` inside PRORAM_HOT function")
            for call in GROWTH_CALLS:
                for m in re.finditer(r"[.\->]\s*%s\s*\(" % call, body):
                    line = line_of(clean, body_start + m.start())
                    emit(report, raw_lines, line, "hot-alloc",
                         f"container growth call `{call}` inside "
                         f"PRORAM_HOT function")


def check_banned_api_text(report: FileReport, relpath: str, clean: str,
                          raw_lines: list[str]):
    for m in re.finditer(r"\bstd\s*::\s*rand\b|\bsrand\s*\(", clean):
        emit(report, raw_lines, line_of(clean, m.start()), "banned-api",
             "std::rand/srand is banned (breaks seeded replay); use "
             "util::Rng")
    if not in_dirs(relpath, CLOCK_ALLOWED_DIRS):
        for m in re.finditer(r"\b(?:system_clock|steady_clock)\b",
                             clean):
            emit(report, raw_lines, line_of(clean, m.start()),
                 "banned-api",
                 "wall-clock reads are banned outside src/obs/ "
                 "(simulation time must come from Cycles)")
    if in_dirs(relpath, HOT_PATH_DIRS):
        for m in re.finditer(r"\bstd\s*::\s*unordered_map\b", clean):
            emit(report, raw_lines, line_of(clean, m.start()),
                 "banned-api",
                 "std::unordered_map is banned in hot-path files; use "
                 "util::FlatIndex or a dense array")
    # Include paths are string literals, blanked in `clean`: the
    # scheme-header ban scans the raw lines.
    if not in_dirs(relpath, SCHEME_ALLOWED_DIRS):
        for idx, text in enumerate(raw_lines):
            m = SCHEME_INCLUDE_RE.match(text)
            if m:
                emit(report, raw_lines, idx + 1, "banned-api",
                     f"concrete scheme header {m.group('hdr')} is "
                     "banned outside src/oram/; include "
                     "oram/scheme.hh and use the OramScheme interface")


def check_stage_annotations(report: FileReport, relpath: str,
                            clean: str, raw_lines: list[str]):
    entry = STAGE_ANNOTATED.get(relpath.replace(os.sep, "/"))
    if entry is None:
        return
    cls, funcs = entry
    lines = clean.splitlines()
    for func in funcs:
        pattern = re.compile(
            r"^\s*%s::%s\s*\(" % (re.escape(cls), re.escape(func)))
        def_line = None  # 1-based
        for idx, text in enumerate(lines):
            if pattern.match(text):
                def_line = idx + 1
                break
        if def_line is None:
            emit(report, raw_lines, 1, "stage-annotation",
                 f"stage function {cls}::{func} not found; update "
                 "STAGE_ANNOTATED if it was renamed")
            continue
        # Repo style puts annotations + return type on the line(s)
        # directly above the qualified name.
        head = " ".join(lines[max(0, def_line - 3):def_line])
        for macro in ("PRORAM_OBLIVIOUS", "PRORAM_HOT"):
            if macro not in head:
                emit(report, raw_lines, def_line, "stage-annotation",
                     f"{cls}::{func} must be annotated {macro} "
                     "(access stage; see DESIGN.md §14)")


def emit(report: FileReport, raw_lines: list[str], line: int, rule: str,
         message: str):
    if is_suppressed(raw_lines, line, rule):
        report.suppressed += 1
        return
    report.diagnostics.append(
        Diagnostic(report.path, line, rule, message))


def lint_file_text(path: str, relpath: str) -> FileReport:
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    clean = strip_comments_and_strings(raw)
    report = FileReport(relpath)
    check_banned_api_text(report, relpath, clean, raw_lines)
    # Annotations are opt-in, so the annotation-scoped rules can run
    # over every file; only annotated definitions produce work.
    check_oblivious_text(report, clean, raw_lines)
    check_stage_annotations(report, relpath, clean, raw_lines)
    return report


# --------------------------------------------------------------------
# libclang engine
# --------------------------------------------------------------------

def have_libclang() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def lint_file_clang(path: str, relpath: str,
                    extra_args: list[str]) -> FileReport:
    """AST engine: identical rules, resolved through clang. Annotated
    functions are found by their `annotate` attributes (the macros
    expand to them under clang); taint is any DeclRefExpr of a
    Leaf/BlockId-typed declaration inside a condition, minus sentinel
    comparisons."""
    from clang import cindex

    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()
    report = FileReport(relpath)

    index = cindex.Index.create()
    args = ["-std=c++20", "-xc++"] + extra_args
    tu = index.parse(path, args=args)

    ck = cindex.CursorKind

    def type_name(t) -> str:
        name = t.get_canonical().spelling
        return name.rsplit("::", 1)[-1].split("<")[0]

    def is_secret_type(t) -> bool:
        spelled = t.get_canonical().spelling
        return any(f"tags::{s}" in spelled for s in SECRET_TYPES)

    def annotations_of(cursor):
        return {c.spelling for c in cursor.get_children()
                if c.kind == ck.ANNOTATE_ATTR}

    def sentinel_comparison(node) -> bool:
        if node.kind != ck.BINARY_OPERATOR:
            return False
        toks = [t.spelling for t in node.get_tokens()]
        return any(s in toks for s in SENTINELS) and (
            "==" in toks or "!=" in toks)

    def taints(node) -> str | None:
        if sentinel_comparison(node):
            return None
        if node.kind == ck.DECL_REF_EXPR and node.referenced and \
                is_secret_type(node.referenced.type):
            return node.spelling
        for child in node.get_children():
            t = taints(child)
            if t:
                return t
        return None

    def condition_of(node):
        kinds = {ck.IF_STMT: 0, ck.WHILE_STMT: 0, ck.SWITCH_STMT: 0,
                 ck.CONDITIONAL_OPERATOR: 0}
        children = list(node.get_children())
        if node.kind == ck.FOR_STMT:
            # clang's FOR_STMT children: init, cond, inc, body (any
            # of the first three may be missing) - take the child
            # before the body that is an expression.
            return children[-3] if len(children) >= 3 else None
        if node.kind in kinds and children:
            return children[0]
        return None

    def walk_body(node, annos):
        cond = condition_of(node)
        if cond is not None and "PRORAM_OBLIVIOUS" in annos:
            ident = taints(cond)
            if ident:
                emit(report, raw_lines, node.location.line,
                     "secret-branch",
                     f"condition depends on secret-typed '{ident}' "
                     f"inside PRORAM_OBLIVIOUS function")
        if "PRORAM_HOT" in annos:
            if node.kind == ck.CXX_NEW_EXPR:
                emit(report, raw_lines, node.location.line,
                     "hot-alloc", "`new` inside PRORAM_HOT function")
            if node.kind == ck.CALL_EXPR and \
                    node.spelling in GROWTH_CALLS:
                emit(report, raw_lines, node.location.line,
                     "hot-alloc",
                     f"container growth call `{node.spelling}` "
                     f"inside PRORAM_HOT function")
        for child in node.get_children():
            walk_body(child, annos)

    def visit(node):
        if node.location.file and \
                os.path.samefile(str(node.location.file), path):
            if node.kind in (ck.FUNCTION_DECL, ck.CXX_METHOD) and \
                    node.is_definition():
                annos = {a.replace("proram_oblivious",
                                   "PRORAM_OBLIVIOUS")
                          .replace("proram_hot", "PRORAM_HOT")
                         for a in annotations_of(node)}
                if annos:
                    walk_body(node, annos)
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)

    # Banned APIs run on tokens even in the clang engine: they must
    # fire in headers and in code clang fails to fully resolve.
    with open(path, encoding="utf-8", errors="replace") as f:
        clean = strip_comments_and_strings(f.read())
    check_banned_api_text(report, relpath, clean, raw_lines)
    # Stage-annotation is textual in both engines: the macros sit on
    # the definition regardless of how the AST resolves them.
    check_stage_annotations(report, relpath, clean, raw_lines)
    return report


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def gather_sources(roots: list[str], base: str) -> list[tuple[str, str]]:
    out = []
    for root in roots:
        rooted = root if os.path.isabs(root) else os.path.join(base,
                                                               root)
        if os.path.isfile(rooted):
            out.append((rooted, os.path.relpath(rooted, base)))
            continue
        for dirpath, _dirs, files in os.walk(rooted):
            for name in sorted(files):
                if name.endswith((".cc", ".cpp", ".hh", ".hpp")):
                    full = os.path.join(dirpath, name)
                    out.append((full, os.path.relpath(full, base)))
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src/)")
    ap.add_argument("--root", default=None,
                    help="source root for relative-path rules "
                         "(default: repo root inferred from this "
                         "script's location)")
    ap.add_argument("--engine", choices=("auto", "clang", "text"),
                    default="auto")
    ap.add_argument("--include", action="append", default=[],
                    help="extra -I dir for the clang engine")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    base = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    roots = args.paths or ["src"]

    engine = args.engine
    if engine == "auto":
        engine = "clang" if have_libclang() else "text"
    if engine == "clang" and not have_libclang():
        print("oblivious_lint: --engine=clang but clang.cindex is not "
              "importable", file=sys.stderr)
        return 2

    include_args = [f"-I{d}" for d in
                    ([os.path.join(base, "src")] + args.include)]

    sources = gather_sources(roots, base)
    if not sources:
        print("oblivious_lint: no sources found", file=sys.stderr)
        return 2

    total, suppressed = 0, 0
    for full, rel in sources:
        if engine == "clang":
            report = lint_file_clang(full, rel, include_args)
        else:
            report = lint_file_text(full, rel)
        suppressed += report.suppressed
        for diag in report.diagnostics:
            print(diag)
            total += 1

    if not args.quiet:
        print(f"oblivious_lint[{engine}]: {len(sources)} files, "
              f"{total} diagnostic(s), {suppressed} suppressed",
              file=sys.stderr)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
