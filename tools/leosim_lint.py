#!/usr/bin/env python3
"""Project-specific lints for leosim that clang-tidy cannot express.

The linter is a small rule engine: every rule is a named `Rule` with a
checker over a `LintContext` (a file tree plus caches), and every hit is
a `Finding` with a stable fingerprint. That structure buys three things:

  * SARIF 2.1.0 output (`--sarif FILE`) so CI can surface findings as
    inline annotations (validated by tools/check_sarif.py);
  * a committed suppression baseline (tools/lint_baseline.json) so a new
    rule can land with its pre-existing debt recorded and ratcheted down
    instead of blocking the tree (`--write-baseline` refreshes it);
  * a fixture self-test (tools/test_lint.py over tests/lint_fixtures/)
    that runs each rule against a must-trigger / must-not-trigger pair,
    so rules cannot silently rot.

Rules (each maps to a repo invariant documented in DESIGN.md):

  nondeterminism   No rand()/srand()/time(nullptr) in src/ or bench/.
                   Studies must be reproducible run-to-run; use a
                   seeded std::mt19937[_64] and pass epochs explicitly.
  geo-float       No `float` in src/geo. Geodesy is double-only; a
                   single-precision intermediate silently costs ~1 m of
                   position accuracy at Earth scale.
  pragma-once     Every header carries `#pragma once`.
  using-namespace No `using namespace` at namespace scope in headers.
  self-contained  Every header compiles standalone (g++ -fsyntax-only),
                   i.e. includes everything it uses.
  iostream-in-library
                   No <iostream>/std::cout/std::cerr in src/. Library
                   diagnostics go through obs::Log (gated, structured,
                   redirectable); the one allowed writer is the default
                   sink in src/obs/log.cpp. bench/ and examples/ print
                   tables by design and are exempt.
  study-summary   Every src/core/*_study.cpp calls EmitStudySummary:
                   manifests, tests, and obs_report run comparisons all
                   key on the shared summary line.
  snapshot-workspace
                   No allocating BuildSnapshot(t) in study drivers
                   (src/core/*_study.cpp, routing.cpp). Inner loops must
                   use the workspace overload BuildSnapshot(t, &ws) so
                   sweeps reuse graph/index storage instead of
                   reallocating per slot.
  tier-dispatch   No routing-tier mechanics in study drivers
                   (src/core/*_study.cpp): ConnectedComponentsInto,
                   ShortestPathAStar, kTreeBatchThreshold, tree.Build
                   and tree_cache.Route belong to RouteSourceGroups
                   (src/core/routing_tiers.hpp), the one dispatch every
                   pair-routing study calls, so per-study copies of the
                   policy cannot grow back and drift apart.
  layering        The module DAG under src/ (LAYER_DEPS below) is
                   enforced on the #include graph: e.g. geo/obs include
                   nothing above them, graph never includes core, core
                   may include everything. The two "base" headers
                   (core/thread_annotations.hpp, core/mutex.hpp) are
                   includable from every layer and may themselves
                   include only each other plus std.
  raw-mutex       No std::mutex/lock_guard/unique_lock/... in src/.
                   Locking goes through leosim::Mutex + MutexLock
                   (core/mutex.hpp) so clang's thread-safety analysis
                   sees every lock site; the wrapper itself is the one
                   allowed user of <mutex>.
  tsa-suppression No LEOSIM_NO_THREAD_SAFETY_ANALYSIS in src/ outside
                   the annotation/wrapper headers: the -Werror gate is
                   only meaningful if src/ carries zero suppressions.
  schema-header   Every versioned artifact schema string ("leosim.*/N")
                   in src/ lives in src/obs/schemas.hpp and nowhere
                   else. Writers reference the named constant, so a
                   schema bump is one diff line and the Python tooling
                   (obs_report.py, trace_check.py) has a single place
                   to stay in sync with.
  json-number     No "%.17g" format string in src/ outside
                   src/obs/json_number.hpp. Exporters write doubles
                   through obs::AppendJsonNumber (shortest round-trip
                   std::to_chars, null for NaN/Inf), so every JSON
                   artifact formats numbers one way, at to_chars speed,
                   and never emits bare nan/inf.
  hot-alloc       Functions taking a *Workspace parameter, every
                   method of a *Stepper class (steppers advance a
                   workspace held as a member, so their whole surface
                   is the steady-state hot path), and every *Batch
                   kernel entry point (PropagateBatch and friends are
                   the innermost per-snapshot loops) are the
                   zero-steady-state-alloc paths; inside them `new`
                   expressions are forbidden and push_back/emplace_back
                   on a container requires a reserve/resize/clear of
                   that container in the same function (capacity reuse),
                   otherwise the workspace contract is silently broken.
  batch-hoist     No per-element sin/cos/sqrt with a loop-invariant
                   argument inside a *Batch kernel's for-loops: the
                   hoisted form (const local above the loop) always
                   exists, and an invariant transcendental in the
                   per-element loop defeats the vectorization the batch
                   kernels exist for. Loop-variant arguments (cos(u)
                   with u computed per satellite) are never flagged.

File discovery walks `git ls-files` plus untracked-but-not-ignored files
(tests/lint_fixtures/ excluded — those files violate rules on purpose),
so freshly added sources are linted before their first commit.

Exit status 0 when the tree is clean (baseline-suppressed findings do
not count), 1 otherwise. Run via tools/lint.sh or directly:
python3 tools/leosim_lint.py [--no-compile] [--sarif FILE].
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"

# Deliberately-broken fixture files for tools/test_lint.py; never linted
# as part of the real tree.
EXCLUDED_PREFIXES = ("tests/lint_fixtures/",)

# ---------------------------------------------------------------------------
# Engine


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str  # repo-relative, forward slashes
    line: int
    rule: str
    message: str

    @property
    def fingerprint(self) -> str:
        # Line numbers are excluded on purpose: unrelated edits above a
        # baselined finding must not churn the baseline.
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.message}".encode()
        ).hexdigest()
        return digest[:24]

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class Rule:
    id: str
    description: str
    check: Callable[["LintContext"], list[Finding]]
    needs_compiler: bool = False


class LintContext:
    """A file tree plus text caches the rules run over.

    The real run roots at the repository (git-based discovery); the
    fixture self-test roots at a tests/lint_fixtures/<rule>/<case> tree
    (filesystem walk), so every rule must resolve files through this
    context rather than globbing on its own.
    """

    SOURCE_SUFFIXES = (".cpp", ".hpp")

    def __init__(self, root: Path, use_git: bool = True):
        self.root = root
        self._use_git = use_git
        self._files: list[str] | None = None
        self._text: dict[str, str] = {}
        self._stripped: dict[str, str] = {}
        self._uncommented: dict[str, str] = {}

    def files(self, prefix: str = "", suffixes: Iterable[str] | None = None,
              pattern: str | None = None) -> list[str]:
        if self._files is None:
            self._files = self._discover()
        suffixes = tuple(suffixes) if suffixes is not None else self.SOURCE_SUFFIXES
        out = [
            f for f in self._files
            if f.startswith(prefix) and f.endswith(suffixes)
        ]
        if pattern is not None:
            rx = re.compile(pattern)
            out = [f for f in out if rx.fullmatch(f)]
        return out

    def text(self, rel: str) -> str:
        if rel not in self._text:
            self._text[rel] = (self.root / rel).read_text()
        return self._text[rel]

    def stripped(self, rel: str) -> str:
        if rel not in self._stripped:
            self._stripped[rel] = strip_comments_and_strings(self.text(rel))
        return self._stripped[rel]

    def uncommented(self, rel: str) -> str:
        """Comments blanked, string literals kept — for rules that need
        to read `#include "..."` targets (stripped() erases them)."""
        if rel not in self._uncommented:
            self._uncommented[rel] = strip_comments_and_strings(
                self.text(rel), keep_strings=True)
        return self._uncommented[rel]

    def _discover(self) -> list[str]:
        if self._use_git:
            # --others catches sources that exist on disk but have not
            # been `git add`ed yet; without it a new directory silently
            # escapes every rule until its first commit.
            out = subprocess.run(
                ["git", "ls-files", "--cached", "--others",
                 "--exclude-standard"],
                cwd=self.root, capture_output=True, text=True, check=True,
            ).stdout
            names = [line for line in out.splitlines() if line]
        else:
            names = [
                p.relative_to(self.root).as_posix()
                for p in sorted(self.root.rglob("*")) if p.is_file()
            ]
        return [
            n for n in names
            if not n.startswith(EXCLUDED_PREFIXES) and (self.root / n).is_file()
        ]


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments — and, unless keep_strings, string/char
    literals too — preserving line structure so reported line numbers
    stay accurate."""
    result: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    result.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            start = i
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    if not keep_strings:
                        result.append("\n")
                i += 1
            i += 1
            if keep_strings:
                result.append(text[start:i])
        else:
            result.append(c)
            i += 1
    return "".join(result)


# ---------------------------------------------------------------------------
# Grep-style rules

NONDETERMINISM_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand)\s*\(|\b(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)
FLOAT_RE = re.compile(r"\bfloat\b")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$")
IOSTREAM_RE = re.compile(
    r"#\s*include\s*<iostream>|\bstd::(?:cout|cerr|clog)\b"
)
# The default log sink writes to stderr via cstdio and is the one place
# allowed to own a process-wide output stream.
IOSTREAM_ALLOWLIST = {"src/obs/log.cpp"}


def check_nondeterminism(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/") + ctx.files("bench/"):
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            if NONDETERMINISM_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "nondeterminism",
                    "rand()/srand()/time(nullptr) forbidden in studies; "
                    "use a seeded std::mt19937"))
    return findings


def check_geo_float(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/geo/"):
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            if FLOAT_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "geo-float",
                    "`float` forbidden in src/geo (geodesy is double-only)"))
    return findings


def check_iostream(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        if rel in IOSTREAM_ALLOWLIST:
            continue
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            if IOSTREAM_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "iostream-in-library",
                    "use obs::Log (or a custom obs::SetLogSink) instead of "
                    "iostream in src/"))
    return findings


def _header_files(ctx: LintContext) -> list[str]:
    headers = []
    for prefix in ("src/", "bench/", "tests/", "examples/"):
        headers.extend(ctx.files(prefix, suffixes=(".hpp",)))
    return headers


def check_pragma_once(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in _header_files(ctx):
        raw = ctx.text(rel)
        if not any(PRAGMA_ONCE_RE.match(line) for line in raw.splitlines()):
            findings.append(Finding(
                rel, 1, "pragma-once", "header missing `#pragma once`"))
    return findings


def check_using_namespace(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in _header_files(ctx):
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            if USING_NAMESPACE_RE.match(line):
                findings.append(Finding(
                    rel, lineno, "using-namespace",
                    "`using namespace` forbidden at namespace scope in "
                    "headers"))
    return findings


def check_study_summary(ctx: LintContext) -> list[Finding]:
    # Every study driver must report its run through the shared summary
    # path: EmitStudySummary is what the manifests, tests, and obs_report
    # comparisons key on, so a silent study is a lint error.
    findings = []
    for rel in ctx.files("src/core/", pattern=r"src/core/\w+_study\.cpp"):
        if not re.search(r"\bEmitStudySummary\s*\(", ctx.stripped(rel)):
            findings.append(Finding(
                rel, 1, "study-summary",
                "study driver never calls EmitStudySummary; every "
                "src/core/*_study.cpp must report a StudySummary"))
    return findings


def check_snapshot_workspace(ctx: LintContext) -> list[Finding]:
    # Study inner loops must not call the allocating BuildSnapshot(t):
    # the workspace overload BuildSnapshot(t, &ws) reuses graph/index
    # storage across slots. A call is allocating when its argument list
    # has no top-level comma (args may span lines, so walk balanced
    # parens instead of matching a single line).
    findings = []
    targets = ctx.files("src/core/", pattern=r"src/core/\w+_study\.cpp")
    targets += ctx.files("src/core/routing.cpp")
    for rel in targets:
        code = ctx.stripped(rel)
        for match in re.finditer(r"\bBuildSnapshot\s*\(", code):
            depth = 1
            top_level_commas = 0
            i = match.end()
            while i < len(code) and depth > 0:
                c = code[i]
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    depth -= 1
                elif c == "," and depth == 1:
                    top_level_commas += 1
                i += 1
            if top_level_commas == 0:
                lineno = code.count("\n", 0, match.start()) + 1
                findings.append(Finding(
                    rel, lineno, "snapshot-workspace",
                    "allocating BuildSnapshot(t) in a study driver; use the "
                    "workspace overload BuildSnapshot(t, &ws)"))
    return findings


# ---------------------------------------------------------------------------
# tier-dispatch: the component precheck, tree batching and A* tiers live
# only in RouteSourceGroups (src/core/routing_tiers.hpp).

TIER_DISPATCH_RE = re.compile(
    r"\b(?:ConnectedComponentsInto|ShortestPathAStar|kTreeBatchThreshold)\b"
    r"|\btree\s*(?:\.|->)\s*Build\s*\(|\btree_cache\s*(?:\.|->)\s*Route\s*\("
)


def check_tier_dispatch(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/core/", pattern=r"src/core/\w+_study\.cpp"):
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            m = TIER_DISPATCH_RE.search(line)
            if m:
                findings.append(Finding(
                    rel, lineno, "tier-dispatch",
                    f"routing-tier mechanics (`{m.group(0).rstrip('(').strip()}`) "
                    "in a study driver; route pairs through RouteSourceGroups "
                    "(src/core/routing_tiers.hpp)"))
    return findings


# ---------------------------------------------------------------------------
# Layering: the include graph across src/ must respect the declared DAG.

# module -> modules it may #include from (its own module is always
# allowed). geo and obs sit at the bottom (std-only); core is the
# composition root and may include everything. A new src/ directory must
# be declared here before it can be included from anywhere — the rule
# flags unknown modules on both sides of an edge.
LAYER_DEPS: dict[str, set[str]] = {
    "geo": set(),
    "platform": set(),  # OS shims (perf_event_open); no leosim deps at all
    # std-only plus the platform shims: keeps observability embeddable
    # anywhere without letting OS-specific code leak above obs.
    "obs": {"platform"},
    "flow": set(),
    "data": {"geo"},
    "orbit": {"geo"},
    "itur": {"geo", "data"},
    "link": {"geo"},
    "ground": {"geo", "data"},
    "air": {"geo", "data"},
    "graph": {"obs"},  # notably: never core
    "core": {"air", "data", "flow", "geo", "graph", "ground", "itur", "link",
             "obs", "orbit"},
}

# The "base" layer: includable from every module (even the std-only
# ones), and allowed to include only std plus each other. This is where
# the thread-safety annotation macros and the annotated Mutex live — the
# obs layer needs them without gaining a real core dependency.
BASE_HEADERS = {"core/thread_annotations.hpp", "core/mutex.hpp"}

QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def check_layering(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        parts = rel.split("/")
        if len(parts) < 3:
            continue  # a file directly under src/ has no module
        module = parts[1]
        in_src = rel[len("src/"):]
        is_base = in_src in BASE_HEADERS
        if module not in LAYER_DEPS:
            findings.append(Finding(
                rel, 1, "layering",
                f"module 'src/{module}/' is not declared in the layer DAG; "
                "add it to LAYER_DEPS in tools/leosim_lint.py (and "
                "DESIGN.md §9) before including it anywhere"))
            continue
        allowed = LAYER_DEPS[module]
        for lineno, line in enumerate(ctx.uncommented(rel).splitlines(), start=1):
            m = QUOTED_INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if is_base:
                if target not in BASE_HEADERS:
                    findings.append(Finding(
                        rel, lineno, "layering",
                        f'base header includes "{target}"; base headers may '
                        "include only std headers and each other"))
                continue
            if target in BASE_HEADERS:
                continue  # the base layer is includable from anywhere
            target_module = target.split("/")[0]
            if target_module == module:
                continue
            if target_module not in LAYER_DEPS:
                findings.append(Finding(
                    rel, lineno, "layering",
                    f'include "{target}" targets undeclared module '
                    f"'{target_module}'; declare it in LAYER_DEPS first"))
            elif target_module not in allowed:
                allowed_text = (
                    ", ".join(sorted(allowed)) if allowed else "nothing"
                )
                findings.append(Finding(
                    rel, lineno, "layering",
                    f'layer violation: "{module}" may include {allowed_text} '
                    f'(and itself), but includes "{target}"'))
    return findings


# ---------------------------------------------------------------------------
# raw-mutex / tsa-suppression: lock discipline is annotation-checked, so
# every lock in src/ must go through the annotated wrapper.

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|#\s*include\s*<mutex>|#\s*include\s*<shared_mutex>"
    r"|#\s*include\s*<condition_variable>"
)
# The wrapper is the one legitimate user of <mutex>.
RAW_MUTEX_ALLOWLIST = {"core/mutex.hpp"}

TSA_SUPPRESSION_RE = re.compile(r"\bLEOSIM_NO_THREAD_SAFETY_ANALYSIS\b")
TSA_SUPPRESSION_ALLOWLIST = BASE_HEADERS


def check_raw_mutex(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        if rel[len("src/"):] in RAW_MUTEX_ALLOWLIST:
            continue
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            if RAW_MUTEX_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "raw-mutex",
                    "raw std locking primitive in src/; use the annotated "
                    "leosim::Mutex / MutexLock (core/mutex.hpp) so "
                    "-Wthread-safety sees the lock site"))
    return findings


def check_tsa_suppression(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        if rel[len("src/"):] in TSA_SUPPRESSION_ALLOWLIST:
            continue
        for lineno, line in enumerate(ctx.stripped(rel).splitlines(), start=1):
            if TSA_SUPPRESSION_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "tsa-suppression",
                    "LEOSIM_NO_THREAD_SAFETY_ANALYSIS forbidden in src/: fix "
                    "the lock discipline instead of suppressing the analysis"))
    return findings


# ---------------------------------------------------------------------------
# schema-header: versioned artifact schema strings are minted in exactly
# one place.

# Matches a quoted schema name like "leosim.netstate/1" — a dotted
# artifact name plus a version. The quotes may be escaped (`\"...\"`)
# because writers typically mint schemas inside a larger JSON literal.
# Runs over uncommented() (strings kept), so commentary about a schema
# does not trigger it but minting one does.
SCHEMA_STRING_RE = re.compile(r'\\?"(leosim\.[A-Za-z0-9_.]+/\d+)\\?"')
SCHEMA_HEADER = "src/obs/schemas.hpp"


def check_schema_header(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        if rel == SCHEMA_HEADER:
            continue
        for lineno, line in enumerate(ctx.uncommented(rel).splitlines(), start=1):
            m = SCHEMA_STRING_RE.search(line)
            if m:
                findings.append(Finding(
                    rel, lineno, "schema-header",
                    f"schema string \"{m.group(1)}\" minted outside "
                    f"{SCHEMA_HEADER}; declare it there and reference the "
                    "named constant so every schema lives in one header"))
    return findings


# ---------------------------------------------------------------------------
# json-number: one JSON number formatter. Runs over uncommented() (strings
# kept), so prose about the old format does not trigger it but a format
# string does.

JSON_NUMBER_FORMAT_RE = re.compile(r"%\.17g")
JSON_NUMBER_HEADER = "src/obs/json_number.hpp"


def check_json_number(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        if rel == JSON_NUMBER_HEADER:
            continue
        for lineno, line in enumerate(ctx.uncommented(rel).splitlines(), start=1):
            if JSON_NUMBER_FORMAT_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "json-number",
                    "\"%.17g\" number formatting in src/; write JSON numbers "
                    f"through obs::AppendJsonNumber ({JSON_NUMBER_HEADER}), "
                    "the shortest round-trip formatter that maps NaN/Inf "
                    "to null"))
    return findings


# ---------------------------------------------------------------------------
# hot-alloc: workspace-taking functions — every method of a *Stepper
# class, which advances a workspace held as a member rather than a
# parameter, and every *Batch kernel entry point (batch kernels are the
# innermost per-snapshot loops; DESIGN.md §7) — are the
# zero-steady-state-alloc hot paths; allocation inside them defeats the
# contract.

FUNC_BODY_OPEN_RE = re.compile(r"\)\s*(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>,\s*&]+?\s*)?\{")
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                    "alignof", "decltype"}
NEW_EXPR_RE = re.compile(r"\bnew\b")
PUSH_BACK_RE = re.compile(
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(?:push_back|emplace_back)\s*\("
)


def _function_bodies(code: str):
    """Yields (name, params, body_start_index, body_text) for every
    function definition found by brace/paren matching over stripped
    text. `name` keeps its qualifiers (`Constellation::PropagateBatch`);
    `params` is the raw parameter-list text."""
    pos = 0
    while True:
        m = FUNC_BODY_OPEN_RE.search(code, pos)
        if m is None:
            return
        pos = m.end()
        close = m.start()  # index of ')'
        # Walk back to the matching '('.
        depth, j = 1, close - 1
        while j >= 0 and depth > 0:
            if code[j] == ")":
                depth += 1
            elif code[j] == "(":
                depth -= 1
            j -= 1
        if depth != 0:
            continue
        open_paren = j + 1
        params = code[open_paren + 1:close]
        # Skip control-flow parens (`if (...) {`) and calls: a function
        # definition's '(' is preceded by an identifier that is not a
        # keyword, or by a qualified name.
        k = open_paren - 1
        while k >= 0 and code[k].isspace():
            k -= 1
        name_end = k + 1
        while k >= 0 and (code[k].isalnum() or code[k] in "_:~"):
            k -= 1
        name = code[k + 1:name_end]
        if not name or name.split("::")[-1] in CONTROL_KEYWORDS:
            continue
        # Walk forward to the matching '}' of the body.
        depth, i = 1, m.end()
        while i < len(code) and depth > 0:
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
            i += 1
        yield name, params, m.end(), code[m.end():i - 1]
        pos = m.end()


def _is_batch_entry_point(name: str) -> bool:
    # PropagateBatch, EciToEcefBatch, ElevationTestBatch, and the *Into
    # spellings (VelocitiesEcefBatchInto) are all batch kernels.
    return "Batch" in name.split("::")[-1]


def _workspace_function_bodies(code: str):
    """Yields (body_start_index, body_text) for every hot-path function:
    parameter list mentions a *Workspace type, qualified name belongs to
    a *Stepper class (SnapshotStepper::Step and friends), or the name is
    a *Batch kernel entry point."""
    for name, params, body_start, body in _function_bodies(code):
        stepper_method = any(
            part.endswith("Stepper") for part in name.split("::")[:-1])
        if ("Workspace" not in params and not stepper_method
                and not _is_batch_entry_point(name)):
            continue
        yield body_start, body


def check_hot_alloc(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        code = ctx.stripped(rel)
        for body_start, body in _workspace_function_bodies(code):
            start_line = code.count("\n", 0, body_start) + 1
            for nm in NEW_EXPR_RE.finditer(body):
                lineno = start_line + body.count("\n", 0, nm.start())
                findings.append(Finding(
                    rel, lineno, "hot-alloc",
                    "`new` inside a workspace-taking function; workspace hot "
                    "paths must reuse preallocated storage"))
            for pm in PUSH_BACK_RE.finditer(body):
                receiver = re.escape(pm.group(1))
                # Capacity management on the same receiver anywhere in the
                # function (reserve/resize up front, or clear() reusing
                # capacity across calls) satisfies the contract.
                if re.search(
                    rf"{receiver}\s*(?:\.|->)\s*(?:reserve|resize|clear|assign)\s*\(",
                    body,
                ):
                    continue
                # A receiver bound by reference (`auto& heap = ws.heap_;`)
                # aliases workspace-owned storage whose capacity the
                # workspace manages (e.g. in Begin()/Reset()); the alias
                # itself is not an allocation site.
                if re.search(rf"&\s*{receiver}\s*=", body):
                    continue
                lineno = start_line + body.count("\n", 0, pm.start())
                findings.append(Finding(
                    rel, lineno, "hot-alloc",
                    f"push_back on `{pm.group(1)}` in a workspace-taking "
                    "function without reserve/resize/clear of the same "
                    "container; growth in the hot path defeats workspace "
                    "reuse"))
    return findings


# ---------------------------------------------------------------------------
# batch-hoist: per-element sin/cos/sqrt with a loop-invariant argument
# inside a *Batch kernel loop. The batch kernels exist to keep the
# per-satellite loop lean enough to vectorize; a transcendental whose
# argument never changes across iterations belongs above the loop (the
# hoisted form always exists: bind the result to a const local first).
# Loop-VARIANT arguments (cos(u) with u computed per element) are the
# whole point of the kernels and are never flagged.

BATCH_MATH_CALL_RE = re.compile(r"\b(?:std::)?(sin|cos|sqrt)\s*\(")
FOR_OPEN_RE = re.compile(r"\bfor\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# Identifiers written inside the loop: assignment / compound-assignment
# targets (declarations with initializers included — `const double u =`
# puts `u` right before the `=`) and ++/-- operands.
MUTATED_IDENT_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:[-+*/%&|^]?=(?!=)|\+\+|--)|(?:\+\+|--)\s*([A-Za-z_]\w*)"
)


def _for_loops(body: str):
    """Yields (header_text, body_start_index, body_text) for every
    brace-bodied for-loop in `body`, nested loops included (each is
    analyzed in its own right)."""
    pos = 0
    while True:
        m = FOR_OPEN_RE.search(body, pos)
        if m is None:
            return
        depth, i = 1, m.end()
        while i < len(body) and depth > 0:
            if body[i] == "(":
                depth += 1
            elif body[i] == ")":
                depth -= 1
            i += 1
        pos = m.end()  # keep scanning inside the loop too (nesting)
        if depth != 0:
            return
        header = body[m.end():i - 1]
        j = i
        while j < len(body) and body[j].isspace():
            j += 1
        if j >= len(body) or body[j] != "{":
            continue  # single-statement loop: too rare here to model
        depth, k = 1, j + 1
        while k < len(body) and depth > 0:
            if body[k] == "{":
                depth += 1
            elif body[k] == "}":
                depth -= 1
            k += 1
        yield header, j + 1, body[j + 1:k - 1]


def _loop_variant_idents(header: str, loop_body: str) -> set[str]:
    variant: set[str] = set()
    for text in (header, loop_body):
        for m in MUTATED_IDENT_RE.finditer(text):
            variant.add(m.group(1) or m.group(2))
    # Range-for: `for (const ShellBasis& b : shells)` declares `b` —
    # the last identifier before a top-level ':' (never part of '::').
    depth = 0
    for idx, c in enumerate(header):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif (c == ":" and depth == 0
              and header[idx - 1:idx] != ":" and header[idx + 1:idx + 2] != ":"):
            decl_idents = IDENT_RE.findall(header[:idx])
            if decl_idents:
                variant.add(decl_idents[-1])
            break
    return variant


def check_batch_hoist(ctx: LintContext) -> list[Finding]:
    findings = []
    for rel in ctx.files("src/"):
        code = ctx.stripped(rel)
        for name, _params, body_start, body in _function_bodies(code):
            if not _is_batch_entry_point(name):
                continue
            for header, loop_start, loop_body in _for_loops(body):
                variant = _loop_variant_idents(header, loop_body)
                for cm in BATCH_MATH_CALL_RE.finditer(loop_body):
                    depth, i = 1, cm.end()
                    while i < len(loop_body) and depth > 0:
                        if loop_body[i] == "(":
                            depth += 1
                        elif loop_body[i] == ")":
                            depth -= 1
                        i += 1
                    arg = loop_body[cm.end():i - 1]
                    if set(IDENT_RE.findall(arg)) & variant:
                        continue  # argument varies per element: fine
                    offset = body_start + loop_start + cm.start()
                    lineno = code.count("\n", 0, offset) + 1
                    findings.append(Finding(
                        rel, lineno, "batch-hoist",
                        f"loop-invariant std::{cm.group(1)}() inside a *Batch "
                        "kernel loop; hoist it above the per-element loop "
                        "(bind the value to a const local outside the for)"))
    return findings


# ---------------------------------------------------------------------------
# self-contained (needs a compiler)


def _check_self_contained_one(ctx: LintContext, rel: str,
                              compiler: str) -> Finding | None:
    if rel.startswith("src/"):
        include_name = rel[len("src/"):]
    else:
        include_name = Path(rel).name
    proc = subprocess.run(
        [compiler, "-std=c++20", "-fsyntax-only",
         "-I", str(ctx.root / "src"), "-I", str(ctx.root / "bench"),
         "-x", "c++", "-"],
        input=f'#include "{include_name}"\n',
        capture_output=True, text=True, cwd=ctx.root,
    )
    if proc.returncode != 0:
        first_err = next(
            (l for l in proc.stderr.splitlines() if "error:" in l),
            proc.stderr.strip(),
        )
        return Finding(
            rel, 1, "self-contained",
            f"header does not compile standalone: {first_err}")
    return None


def check_self_contained(ctx: LintContext) -> list[Finding]:
    compiler = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if compiler is None:
        print("[leosim_lint] no C++ compiler found -- skipping self-contained check")
        return []
    headers = _header_files(ctx)
    findings = []
    with concurrent.futures.ThreadPoolExecutor() as pool:
        for result in pool.map(
            lambda rel: _check_self_contained_one(ctx, rel, compiler), headers
        ):
            if result is not None:
                findings.append(result)
    return findings


# ---------------------------------------------------------------------------
# Rule registry

RULES: list[Rule] = [
    Rule("nondeterminism",
         "rand()/srand()/time(nullptr) forbidden in src/ and bench/",
         check_nondeterminism),
    Rule("geo-float", "`float` forbidden in src/geo (double-only geodesy)",
         check_geo_float),
    Rule("pragma-once", "every header carries #pragma once",
         check_pragma_once),
    Rule("using-namespace",
         "no `using namespace` at namespace scope in headers",
         check_using_namespace),
    Rule("iostream-in-library",
         "library diagnostics go through obs::Log, not iostream",
         check_iostream),
    Rule("study-summary",
         "every study driver calls EmitStudySummary", check_study_summary),
    Rule("snapshot-workspace",
         "study drivers use the workspace BuildSnapshot overload",
         check_snapshot_workspace),
    Rule("tier-dispatch",
         "study drivers route pairs through RouteSourceGroups only",
         check_tier_dispatch),
    Rule("layering",
         "the src/ include graph respects the declared layer DAG",
         check_layering),
    Rule("raw-mutex",
         "src/ locks through the annotated leosim::Mutex wrapper",
         check_raw_mutex),
    Rule("tsa-suppression",
         "no thread-safety-analysis suppressions in src/",
         check_tsa_suppression),
    Rule("schema-header",
         "versioned schema strings live only in src/obs/schemas.hpp",
         check_schema_header),
    Rule("json-number",
         "JSON numbers are formatted only by obs::AppendJsonNumber",
         check_json_number),
    Rule("hot-alloc",
         "no allocation in workspace-taking, *Stepper, or *Batch hot-path "
         "functions",
         check_hot_alloc),
    Rule("batch-hoist",
         "no loop-invariant sin/cos/sqrt inside *Batch kernel loops",
         check_batch_hoist),
    Rule("self-contained",
         "every header compiles standalone", check_self_contained,
         needs_compiler=True),
]

RULES_BY_ID = {rule.id: rule for rule in RULES}


def run_rules(ctx: LintContext, rule_ids: Iterable[str] | None = None,
              compile_checks: bool = True) -> list[Finding]:
    findings: list[Finding] = []
    for rule in RULES:
        if rule_ids is not None and rule.id not in rule_ids:
            continue
        if rule.needs_compiler and not compile_checks:
            continue
        findings.extend(rule.check(ctx))
    return findings


# ---------------------------------------------------------------------------
# Baseline + SARIF

BASELINE_SCHEMA = "leosim.lint-baseline/1"


def load_baseline(path: Path) -> set[str]:
    if not path.is_file():
        return set()
    data = json.loads(path.read_text())
    if data.get("schema") != BASELINE_SCHEMA:
        raise SystemExit(
            f"[leosim_lint] {path}: unknown baseline schema "
            f"{data.get('schema')!r} (want {BASELINE_SCHEMA!r})")
    return {entry["fingerprint"] for entry in data.get("suppressions", [])}


def write_baseline(path: Path, findings: list[Finding]) -> None:
    entries = [
        {"fingerprint": f.fingerprint, "rule": f.rule, "path": f.path,
         "message": f.message}
        for f in sorted(findings, key=lambda f: (f.rule, f.path, f.message))
    ]
    # One fingerprint may cover several occurrences; keep one entry each.
    seen: set[str] = set()
    unique = []
    for entry in entries:
        if entry["fingerprint"] not in seen:
            seen.add(entry["fingerprint"])
            unique.append(entry)
    path.write_text(json.dumps(
        {"schema": BASELINE_SCHEMA,
         "comment": "Accepted pre-existing lint findings. Refresh with "
                    "tools/leosim_lint.py --write-baseline; only shrink it.",
         "suppressions": unique},
        indent=2) + "\n")


def to_sarif(findings: list[Finding], suppressed: set[str],
             baseline_path: Path | None) -> dict:
    """SARIF 2.1.0 document over every finding; baseline-suppressed
    results carry an `external` suppression so viewers hide them but the
    ratchet stays visible."""
    rule_index = {rule.id: i for i, rule in enumerate(RULES)}
    results = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        result = {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": f.line},
                },
            }],
            "partialFingerprints": {"leosimLint/v1": f.fingerprint},
        }
        if f.fingerprint in suppressed:
            result["suppressions"] = [{
                "kind": "external",
                "justification": f"baselined in {baseline_path}",
            }]
        results.append(result)
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "leosim_lint",
                "informationUri":
                    "https://github.com/leosim/leosim/blob/main/tools/leosim_lint.py",
                "version": "2.0.0",
                "rules": [
                    {"id": rule.id,
                     "shortDescription": {"text": rule.description}}
                    for rule in RULES
                ],
            }},
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///repo/"}},
            "results": results,
        }],
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Project-specific lints for leosim (SARIF-capable "
                    "rule engine; see module docstring for the rule list).")
    parser.add_argument("--no-compile", action="store_true",
                        help="skip the (slower) header self-containment check")
    parser.add_argument("--root", type=Path, default=None,
                        help="lint this tree instead of the repository "
                             "(filesystem discovery; used by the fixture "
                             "self-test)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--sarif", type=Path, default=None, metavar="FILE",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="suppression baseline (default: "
                             "tools/lint_baseline.json; pass /dev/null to "
                             "ignore)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from the current findings "
                             "and exit 0")
    args = parser.parse_args()

    rule_ids = None
    if args.rules is not None:
        rule_ids = set(args.rules.split(","))
        unknown = rule_ids - set(RULES_BY_ID)
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    ctx = LintContext(args.root or REPO_ROOT, use_git=args.root is None)
    findings = run_rules(ctx, rule_ids, compile_checks=not args.no_compile)

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"[leosim_lint] wrote {len(findings)} finding(s) to "
              f"{args.baseline}")
        return 0

    suppressed = load_baseline(args.baseline)
    active = [f for f in findings if f.fingerprint not in suppressed]
    baselined = [f for f in findings if f.fingerprint in suppressed]

    if args.sarif is not None:
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(
            json.dumps(to_sarif(findings, suppressed, args.baseline),
                       indent=2) + "\n")

    for finding in sorted(active, key=lambda f: f.render()):
        print(finding.render())
    if baselined:
        print(f"[leosim_lint] {len(baselined)} baselined finding(s) "
              "suppressed (tools/lint_baseline.json)")
    if active:
        print(f"[leosim_lint] {len(active)} finding(s)")
        return 1
    print("[leosim_lint] clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
