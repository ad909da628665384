#!/usr/bin/env python3
"""mra_lint — determinism and architecture invariant linter for src/.

Every result this repository produces rests on byte-identical replay: traces,
sweeps, and explorer runs must be bit-equal across reruns and --threads
counts. The end-to-end `cmp` checks in CI catch nondeterminism that the smoke
configs happen to exercise; this linter bans the *sources* of nondeterminism
at the source-code level, before they can leak into an output path:

  wall-clock           simulated time only — no steady_clock/system_clock/
                       time()/gettimeofday outside the allowlisted wall-clock
                       boundary (obs/heartbeat.*, metrics/memory.*, and the
                       fabric transport src/fabric/transport*, whose
                       lease timeouts and poll intervals are inherently
                       wall-clock; see DESIGN.md §15)
  unordered-container  std::unordered_* iteration order depends on the hash
                       seed and libstdc++ version; use std::map / FlatMap
  raw-random           all randomness flows from seeded splitmix64/xoshiro
                       substreams in sim/random.*; std::mt19937 and
                       std::random_device are banned everywhere else
  pointer-key          containers/comparators/hashers keyed on pointer values
                       make output depend on the allocator's address layout
  message-pool-bypass  net::Message storage must go through the class
                       operator new (thread-local pool); ::new and
                       make_shared<...Msg> bypass it
  sim-std-function     the simulator hot path uses sim::Callback (move-only,
                       small-buffer); std::function in src/sim/ is a
                       per-event heap allocation waiting to happen
  message-rtti         receivers dispatch on the kind label with
                       net::message_cast; a dynamic_cast to a *Msg type
                       is a hierarchy walk per delivery (net/message.* is
                       allowlisted for message_cast's Debug assert)
  bad-nolint           a suppression that names no rule, an unknown rule, or
                       carries no reason is itself a violation

Suppressions: `// MRA_NOLINT(rule-name): reason` on the violating line, or on
its own line to cover the next line. The rule name must exist in the registry
and the reason must be non-empty — suppressions are grep-able design
decisions, not mute buttons (scripts/check_doc_refs.sh cross-checks the rule
names repo-wide).

Driven by compile_commands.json (pass -p BUILD_DIR): translation units under
--src-root are linted with their real compile arguments when the libclang
Python bindings are available (exact lexing of comments, strings, raw
strings); without libclang the built-in C++ lexer frontend is used — same
rule semantics, so fixture tests and CI agree regardless of environment.
Headers under --src-root are always linted as bare files.

Exit codes: 0 clean, 1 violations found, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import bisect
import glob as globmod
import json
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    name: str
    summary: str
    # Lint only files whose src-root-relative path starts with one of these
    # prefixes (empty tuple = everywhere under src-root).
    only_under: tuple = ()
    # Skip files whose src-root-relative path starts with one of these.
    allowlist: tuple = ()


RULES = [
    Rule(
        name="wall-clock",
        summary="wall-clock source outside the allowlisted boundary "
        "(simulated time only; see DESIGN.md §14)",
        # fabric/transport*: lease staleness and poll intervals are real
        # elapsed time by design — the boundary stops there; the fabric's
        # coordinator/worker/merge layers above stay wall-clock-free
        # (DESIGN.md §15).
        allowlist=("obs/heartbeat.", "metrics/memory.", "fabric/transport"),
    ),
    Rule(
        name="unordered-container",
        summary="std::unordered_* container (iteration order is "
        "hash-seed-dependent; use std::map or core::FlatMap)",
    ),
    Rule(
        name="raw-random",
        summary="randomness source outside sim/random.* (must consume "
        "seeded splitmix64/xoshiro substreams)",
        allowlist=("sim/random.",),
    ),
    Rule(
        name="pointer-key",
        summary="pointer-keyed ordering or hashing (output becomes "
        "address-layout-dependent)",
    ),
    Rule(
        name="message-pool-bypass",
        summary="net::Message allocation bypassing the class operator new "
        "pool (::new or make_shared/allocate_shared of a message type)",
        allowlist=("net/message_pool.",),
    ),
    Rule(
        name="sim-std-function",
        summary="std::function in src/sim/ (hot paths must use "
        "sim::Callback)",
        only_under=("sim/",),
    ),
    Rule(
        name="message-rtti",
        summary="dynamic_cast to a message type (dispatch on the kind "
        "label with net::message_cast; see DESIGN.md §9)",
        allowlist=("net/message.",),
    ),
    Rule(
        name="bad-nolint",
        summary="malformed MRA_NOLINT suppression (missing rule list, "
        "unknown rule name, or empty reason)",
    ),
]

RULES_BY_NAME = {r.name: r for r in RULES}


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str
    snippet: str = ""


@dataclass
class Suppression:
    path: str
    line: int  # line the suppression covers
    comment_line: int  # line the comment itself sits on
    rules: tuple
    reason: str
    used: bool = False


@dataclass
class SourceModel:
    """A file reduced to what the rules need: per-line code text with all
    comment and string/char-literal contents blanked out (lengths and line
    structure preserved), plus the comments themselves for NOLINT parsing."""

    path: str
    rel: str  # posix path relative to src-root ("" prefix match = in scope)
    code_lines: list = field(default_factory=list)
    comments: list = field(default_factory=list)  # (1-based line, text)


# ---------------------------------------------------------------------------
# Fallback frontend: a small C++ lexer
# ---------------------------------------------------------------------------

_RAW_STRING_OPEN = re.compile(r'R"([^ ()\\\t\v\f\n]{0,16})\(')


def _lex_sanitize(text):
    """Blank out comment bodies, string and char literal contents from C++
    source, preserving line breaks and column positions. Returns
    (code_lines, comments) where comments is [(1-based line, text)]."""
    out = []
    comments = []
    i, n = 0, len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    comment_start_line = 0
    comment_buf = []

    def emit(ch):
        out.append(ch)

    def blank(ch):
        out.append("\n" if ch == "\n" else " ")

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                comment_buf = []
                blank(ch)
                blank(nxt)
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                comment_buf = []
                blank(ch)
                blank(nxt)
                i += 2
                continue
            m = _RAW_STRING_OPEN.match(text, i) if ch == "R" else None
            if m:
                state = "raw"
                raw_delim = ")" + m.group(1) + '"'
                for c in m.group(0):
                    blank(c)
                i = m.end()
                continue
            if ch == '"':
                state = "string"
                emit(ch)
                i += 1
                continue
            if ch == "'" and not (out and (out[-1].isdigit())):
                # Skip digit separators in numeric literals (1'000'000).
                state = "char"
                emit(ch)
                i += 1
                continue
            if ch == "\n":
                line += 1
            emit(ch)
            i += 1
        elif state == "line_comment":
            if ch == "\\" and nxt == "\n":
                # Backslash-continued line comment spans the next line too.
                comment_buf.append(" ")
                blank(ch)
                emit("\n")
                line += 1
                i += 2
                continue
            if ch == "\n":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                emit(ch)
                line += 1
                i += 1
                continue
            comment_buf.append(ch)
            blank(ch)
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                blank(ch)
                blank(nxt)
                i += 2
                continue
            if ch == "\n":
                comment_buf.append("\n")
                emit("\n")
                line += 1
            else:
                comment_buf.append(ch)
                blank(ch)
            i += 1
        elif state == "string":
            if ch == "\\" and nxt:
                blank(ch)
                blank(nxt)
                if nxt == "\n":
                    line += 1
                i += 2
                continue
            if ch == '"':
                emit(ch)
                state = "code"
            elif ch == "\n":  # unterminated; recover
                emit(ch)
                line += 1
                state = "code"
            else:
                blank(ch)
            i += 1
        elif state == "char":
            if ch == "\\" and nxt:
                blank(ch)
                blank(nxt)
                i += 2
                continue
            if ch == "'":
                emit(ch)
                state = "code"
            elif ch == "\n":  # unterminated; recover
                emit(ch)
                line += 1
                state = "code"
            else:
                blank(ch)
            i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                for c in raw_delim:
                    blank(c)
                i += len(raw_delim)
                state = "code"
                continue
            if ch == "\n":
                emit("\n")
                line += 1
            else:
                blank(ch)
            i += 1
    if state in ("line_comment", "block_comment"):
        comments.append((comment_start_line, "".join(comment_buf)))
    return "".join(out).split("\n"), comments


def lex_frontend(path, rel, _args):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    code_lines, comments = _lex_sanitize(text)
    return SourceModel(path=path, rel=rel, code_lines=code_lines,
                       comments=comments)


# ---------------------------------------------------------------------------
# libclang frontend (preferred when the bindings + shared library exist)
# ---------------------------------------------------------------------------


def _load_libclang():
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError:
        return None
    if not cindex.Config.loaded:
        for pattern in (
            "/usr/lib/llvm-*/lib/libclang.so*",
            "/usr/lib/llvm-*/lib/libclang-*.so*",
            "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
            "/usr/lib/libclang.so*",
        ):
            hits = sorted(globmod.glob(pattern), reverse=True)
            if hits:
                cindex.Config.set_library_file(hits[0])
                break
    try:
        cindex.Index.create()
    except Exception:  # library not loadable — fall back
        return None
    return cindex


def make_clang_frontend(cindex):
    index = cindex.Index.create()
    tk = cindex.TokenKind

    def clang_frontend(path, rel, args):
        # Drop the compiler name and -o/-c output plumbing from the
        # compile_commands entry; keep -I/-D/-std flags that affect lexing.
        lex_args = []
        skip_next = False
        for a in args[1:] if args else []:
            if skip_next:
                skip_next = False
                continue
            if a in ("-o", "-c"):
                skip_next = a == "-o"
                continue
            if a == path or a.endswith(os.path.basename(path)):
                continue
            lex_args.append(a)
        tu = index.parse(path, args=lex_args)
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().split("\n")
        canvas = [" " * len(l) for l in raw_lines]
        comments = []
        this_file = tu.get_file(path)
        extent = tu.get_extent(path, ((1, 1), (len(raw_lines),
                                               len(raw_lines[-1]) + 1)))
        for tok in tu.get_tokens(extent=extent):
            loc = tok.location
            if loc.file is None or loc.file.name != this_file.name:
                continue
            if tok.kind == tk.COMMENT:
                comments.append((loc.line, tok.spelling))
                continue
            if tok.kind == tk.LITERAL and (
                '"' in tok.spelling or tok.spelling.startswith("'")
            ):
                # Keep the quotes so regexes never cross into literal text;
                # contents stay blank like the lexer frontend.
                spelling = tok.spelling[0] + " " * max(
                    0, len(tok.spelling) - 2) + tok.spelling[-1]
                if "\n" in tok.spelling:
                    continue  # multi-line raw string: leave blanked
            else:
                spelling = tok.spelling
                if "\n" in spelling:
                    continue
            ln, col = loc.line - 1, loc.column - 1
            if ln >= len(canvas):
                continue
            row = canvas[ln]
            if len(row) < col + len(spelling):
                row = row.ljust(col + len(spelling))
            canvas[ln] = row[:col] + spelling + row[col + len(spelling):]
        return SourceModel(path=path, rel=rel, code_lines=canvas,
                           comments=comments)

    return clang_frontend


# ---------------------------------------------------------------------------
# Pattern tables (matched against sanitized code text only)
# ---------------------------------------------------------------------------

_WALL_CLOCK_PATTERNS = [
    (re.compile(r"\b(steady_clock|system_clock|high_resolution_clock)\b"),
     "std::chrono::{} is wall-clock"),
    (re.compile(r"\b(gettimeofday|clock_gettime|timespec_get|localtime"
                r"|gmtime|mktime|ftime)\s*\("),
     "{}() reads the wall clock"),
    (re.compile(r"\bstd\s*::\s*time\s*\("), "std::time() reads the wall clock"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(nullptr|NULL|0|&)"),
     "time() reads the wall clock"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
     "clock() reads the process clock"),
]

_UNORDERED_PATTERN = re.compile(
    r"\bunordered_(map|set|multimap|multiset)\b")

_RAW_RANDOM_PATTERNS = [
    (re.compile(r"\b(random_device|mt19937_64|mt19937|minstd_rand0"
                r"|minstd_rand|default_random_engine|ranlux24|ranlux48"
                r"|knuth_b)\b"),
     "std::{} is an unseeded/nonportable randomness source"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand() seeds the libc PRNG"),
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"), "rand() is unseeded libc "
     "randomness"),
    (re.compile(r"\b(drand48|lrand48|mrand48|rand_r)\b"),
     "{}() is libc randomness"),
]

_MESSAGE_POOL_BYPASS_PATTERNS = [
    (re.compile(r"::\s*new\s+(net\s*::\s*)?\w*(Message|Msg)\b"),
     "::new bypasses net::Message's pooled operator new"),
    (re.compile(r"\b(make_shared|allocate_shared)\s*<[^>;]*\w*"
                r"(Message|Msg)\b"),
     "{} allocates through the allocator, bypassing the message pool"),
]

_STD_FUNCTION_PATTERN = re.compile(r"\bstd\s*::\s*function\b")

_DYNAMIC_CAST = re.compile(r"\bdynamic_cast\s*<")
# Every net::Message subclass is named *Msg; the target type may be
# qualified, const, a pointer or a reference, or a template instance.
_MESSAGE_TYPE = re.compile(r"\b(\w*Msg)\b")

# Ordered/hashed templates whose first template argument being a pointer
# makes behavior depend on the address layout.
_PTR_KEY_TEMPLATE = re.compile(
    r"\b(?:std\s*::\s*)?(map|set|multimap|multiset|less|greater|hash)\s*<"
    r"|\bFlatMap\s*<")


def _first_template_arg(text, open_idx):
    """text[open_idx] == '<'; return the first top-level template argument
    (or None if the brackets never close / look like comparison)."""
    depth, i, n = 1, open_idx + 1, len(text)
    start = i
    while i < n and depth > 0:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" or c == ";" or c == "{":
            return None  # comparison expression, not a template
        elif c == "," and depth == 1:
            return text[start:i]
        i += 1
    if depth == 0:
        return text[start:i - 1]
    return None


# ---------------------------------------------------------------------------
# NOLINT parsing
# ---------------------------------------------------------------------------

# Only the parenthesized form is treated as a suppression attempt; a bare
# "MRA_NOLINT" in comment prose is not parsed.
_NOLINT_ANY = re.compile(r"MRA_NOLINT\s*\(")
_NOLINT_FULL = re.compile(r"MRA_NOLINT\s*\(([^)]*)\)\s*(?::\s*(.*))?")


def parse_suppressions(model):
    """Extract suppressions from a file's comments. A suppression covers its
    own line when the line also holds code, else the next line. Malformed
    suppressions are returned as bad-nolint violations."""
    suppressions = []
    violations = []
    for line_no, text in model.comments:
        for m in _NOLINT_ANY.finditer(text):
            full = _NOLINT_FULL.match(text, m.start())
            if not full:  # unterminated "MRA_NOLINT(" — still malformed
                violations.append(Violation(
                    model.path, line_no, "bad-nolint",
                    "unterminated MRA_NOLINT( — write "
                    "MRA_NOLINT(rule-name): reason"))
                continue
            rule_list = [r.strip() for r in full.group(1).split(",")
                         if r.strip()]
            reason = (full.group(2) or "").strip()
            if not rule_list:
                violations.append(Violation(
                    model.path, line_no, "bad-nolint",
                    "MRA_NOLINT() names no rules"))
                continue
            unknown = [r for r in rule_list if r not in RULES_BY_NAME]
            if unknown:
                violations.append(Violation(
                    model.path, line_no, "bad-nolint",
                    "MRA_NOLINT names unknown rule(s): "
                    + ", ".join(unknown) + " (see --list-rules)"))
                continue
            if not reason:
                violations.append(Violation(
                    model.path, line_no, "bad-nolint",
                    "MRA_NOLINT(" + ", ".join(rule_list) + ") has no reason "
                    "— suppressions must say why"))
                continue
            code = model.code_lines[line_no - 1] if (
                line_no - 1 < len(model.code_lines)) else ""
            covers = line_no if code.strip() else line_no + 1
            suppressions.append(Suppression(
                model.path, covers, line_no, tuple(rule_list), reason))
    return suppressions, violations


# ---------------------------------------------------------------------------
# Rule engine
# ---------------------------------------------------------------------------


def _in_scope(rule, rel):
    if rule.only_under and not any(rel.startswith(p)
                                   for p in rule.only_under):
        return False
    if any(rel.startswith(p) for p in rule.allowlist):
        return False
    return True


def _line_rule(model, rule_name, patterns, violations):
    for idx, line in enumerate(model.code_lines):
        # Preprocessor lines are not flagged: #include <unordered_map> with
        # no use of the container is inert, and flagging it would double-
        # report every real use site.
        if line.lstrip().startswith("#"):
            continue
        for pat, msg in patterns:
            for m in pat.finditer(line):
                what = m.group(1) if m.groups() and m.group(1) else m.group(0)
                violations.append(Violation(
                    model.path, idx + 1, rule_name,
                    msg.format(what.strip()), snippet=line.strip()))


def check_file(model):
    """Run every in-scope rule over one SourceModel. Returns
    (violations, suppressions) after applying suppressions."""
    raw = []

    if _in_scope(RULES_BY_NAME["wall-clock"], model.rel):
        _line_rule(model, "wall-clock", _WALL_CLOCK_PATTERNS, raw)
    if _in_scope(RULES_BY_NAME["unordered-container"], model.rel):
        _line_rule(model, "unordered-container",
                   [(_UNORDERED_PATTERN,
                     "std::{} iteration order is hash-seed-dependent")], raw)
    if _in_scope(RULES_BY_NAME["raw-random"], model.rel):
        _line_rule(model, "raw-random", _RAW_RANDOM_PATTERNS, raw)
    if _in_scope(RULES_BY_NAME["message-pool-bypass"], model.rel):
        _line_rule(model, "message-pool-bypass",
                   _MESSAGE_POOL_BYPASS_PATTERNS, raw)
    if _in_scope(RULES_BY_NAME["sim-std-function"], model.rel):
        _line_rule(model, "sim-std-function",
                   [(_STD_FUNCTION_PATTERN,
                     "std::function in src/sim/ — use sim::Callback")], raw)

    # Whole-text scans: template argument lists span lines.
    text = "\n".join(model.code_lines)
    line_starts = [0]
    for line in model.code_lines:
        line_starts.append(line_starts[-1] + len(line) + 1)

    if _in_scope(RULES_BY_NAME["message-rtti"], model.rel):
        for m in _DYNAMIC_CAST.finditer(text):
            arg = _first_template_arg(text, m.end() - 1)
            target = _MESSAGE_TYPE.search(arg) if arg else None
            if target is None:
                continue
            line_no = bisect.bisect_right(line_starts, m.start())
            raw.append(Violation(
                model.path, line_no, "message-rtti",
                f"dynamic_cast to {target.group(1)} walks the class "
                "hierarchy per delivery — dispatch with "
                "net::message_cast on the kind label",
                snippet=model.code_lines[line_no - 1].strip()))

    if _in_scope(RULES_BY_NAME["pointer-key"], model.rel):
        for m in _PTR_KEY_TEMPLATE.finditer(text):
            open_idx = text.index("<", m.start())
            arg = _first_template_arg(text, open_idx)
            if arg is None:
                continue
            arg = arg.strip()
            if arg.endswith("*") and not arg.endswith("**"):
                line_no = bisect.bisect_right(line_starts, m.start())
                tmpl = m.group(0).rstrip("<").strip() or "FlatMap"
                raw.append(Violation(
                    model.path, line_no, "pointer-key",
                    f"{tmpl}<{arg}> orders/hashes on a pointer value — "
                    "output becomes address-layout-dependent",
                    snippet=model.code_lines[line_no - 1].strip()))

    suppressions, bad = parse_suppressions(model)
    kept = []
    for v in raw:
        hit = None
        for s in suppressions:
            if s.line == v.line and v.rule in s.rules:
                hit = s
                break
        if hit:
            hit.used = True
        else:
            kept.append(v)
    kept.extend(bad)
    kept.sort(key=lambda v: (v.line, v.rule))
    return kept, suppressions


# ---------------------------------------------------------------------------
# File discovery
# ---------------------------------------------------------------------------


def discover_files(compile_commands, src_root):
    """TUs from compile_commands.json that live under src_root, plus every
    header under src_root. Returns [(path, clang_args_or_None)]."""
    files = {}
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as f:
            for entry in json.load(f):
                path = os.path.normpath(
                    os.path.join(entry["directory"], entry["file"]))
                if not path.startswith(os.path.abspath(src_root) + os.sep):
                    continue
                if "arguments" in entry:
                    args = entry["arguments"]
                else:
                    args = entry.get("command", "").split()
                files[path] = args
    for pattern in ("**/*.hpp", "**/*.h", "**/*.cpp"):
        for path in globmod.glob(os.path.join(src_root, pattern),
                                 recursive=True):
            files.setdefault(os.path.abspath(path), None)
    return sorted(files.items())


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(
        prog="mra_lint.py",
        description="determinism & architecture invariant linter "
        "(rules: " + ", ".join(sorted(RULES_BY_NAME)) + ")")
    ap.add_argument("files", nargs="*",
                    help="explicit files to lint (default: discover from "
                    "compile_commands.json + headers under --src-root)")
    ap.add_argument("-p", "--build-dir", default=os.path.join(repo_root,
                                                              "build"),
                    help="build dir containing compile_commands.json")
    ap.add_argument("--src-root", default=os.path.join(repo_root, "src"),
                    help="root directory the path-scoped rules are relative "
                    "to (default: <repo>/src)")
    ap.add_argument("--json", dest="json_out",
                    help="write a machine-readable report to this path")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule registry (name per line) and exit")
    ap.add_argument("--frontend", choices=["auto", "libclang", "lexer"],
                    default="auto",
                    help="force a frontend (default: libclang when "
                    "available, else the built-in lexer)")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress per-violation output (summary only)")
    opts = ap.parse_args(argv)

    if opts.list_rules:
        for rule in RULES:
            print(rule.name)
        return 0

    src_root = os.path.abspath(opts.src_root)
    if not os.path.isdir(src_root):
        print(f"mra_lint: src root not found: {src_root}", file=sys.stderr)
        return 2

    cindex = None
    if opts.frontend in ("auto", "libclang"):
        cindex = _load_libclang()
        if cindex is None and opts.frontend == "libclang":
            print("mra_lint: libclang frontend requested but the clang "
                  "Python bindings / libclang.so are unavailable",
                  file=sys.stderr)
            return 2
    frontend = make_clang_frontend(cindex) if cindex else lex_frontend
    frontend_name = "libclang" if cindex else "lexer"

    compile_commands = os.path.join(opts.build_dir, "compile_commands.json")
    if opts.files:
        targets = [(os.path.abspath(f), None) for f in opts.files]
    else:
        targets = discover_files(compile_commands, src_root)
        if not targets:
            print(f"mra_lint: no files found under {src_root} "
                  f"(compile_commands: {compile_commands})", file=sys.stderr)
            return 2

    all_violations = []
    all_suppressions = []
    scanned = 0
    for path, args in targets:
        if not os.path.isfile(path):
            print(f"mra_lint: no such file: {path}", file=sys.stderr)
            return 2
        rel = os.path.relpath(path, src_root).replace(os.sep, "/")
        if rel.startswith(".."):
            rel = os.path.basename(path)  # out-of-tree file: no path scoping
        try:
            model = frontend(path, rel, args)
        except Exception as e:  # clang parse hiccup: degrade, don't die
            if frontend is not lex_frontend:
                model = lex_frontend(path, rel, None)
            else:
                print(f"mra_lint: failed to read {path}: {e}",
                      file=sys.stderr)
                return 2
        scanned += 1
        violations, suppressions = check_file(model)
        all_violations.extend(violations)
        all_suppressions.extend(suppressions)

    rel_to_repo = lambda p: os.path.relpath(p, repo_root)  # noqa: E731
    if not opts.quiet:
        for v in all_violations:
            loc = f"{rel_to_repo(v.path)}:{v.line}"
            print(f"{loc}: error: [{v.rule}] {v.message}")
            if v.snippet:
                print(f"    {v.snippet}")
        for s in all_suppressions:
            if not s.used:
                print(f"{rel_to_repo(s.path)}:{s.comment_line}: warning: "
                      f"unused MRA_NOLINT({', '.join(s.rules)}) — nothing "
                      "to suppress on that line")

    if opts.json_out:
        report = {
            "tool": "mra_lint",
            "version": 1,
            "frontend": frontend_name,
            "src_root": src_root,
            "files_scanned": scanned,
            "rules": [{"name": r.name, "summary": r.summary,
                       "only_under": list(r.only_under),
                       "allowlist": list(r.allowlist)} for r in RULES],
            "violations": [{"file": rel_to_repo(v.path), "line": v.line,
                            "rule": v.rule, "message": v.message,
                            "snippet": v.snippet} for v in all_violations],
            "suppressions": [{"file": rel_to_repo(s.path),
                              "line": s.comment_line,
                              "covers_line": s.line,
                              "rules": list(s.rules), "reason": s.reason,
                              "used": s.used} for s in all_suppressions],
        }
        with open(opts.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=False)
            f.write("\n")

    n = len(all_violations)
    status = "FAILED" if n else "OK"
    print(f"mra_lint {status}: {scanned} file(s) scanned "
          f"[{frontend_name} frontend], {n} violation(s), "
          f"{len(all_suppressions)} suppression(s)")
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main())
