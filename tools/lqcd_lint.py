#!/usr/bin/env python3
"""Repo-specific lint for the lattice-QCD DD codebase.

Enforces invariants no generic tool knows about (see DESIGN.md
"Concurrency & static-analysis gates"):

  pragma-once          every header under src/ starts with #pragma once.
  include-exists       every #include "lqcd/..." resolves under src/.
  omp-include-guard    #include <omp.h> only inside an
                       `#if defined(LQCD_HAVE_OPENMP)` block.
  naked-alloc          no naked new/delete/malloc/free in src/ — buffers
                       go through base/aligned.h or std containers.
  simd-opaque-call     LQCD_PRAGMA_SIMD loop bodies must stay
                       vectorizable: no opaque function calls.
  ci-label-check       every ctest -L label referenced in ci.yml exists
                       in tests/CMakeLists.txt or bench/CMakeLists.txt.
  ci-label-coverage    the reverse: every label registered in tests/ or
                       bench/ CMakeLists.txt is exercised by at least one
                       `ctest -L` leg in ci.yml, so a new suite (e.g.
                       `abft`) cannot silently dodge the label-restricted
                       sanitizer legs.
  service-header-test  every public header under src/lqcd/service/ is
                       #include'd by at least one test under tests/ —
                       the serving layer's label coverage stays honest
                       only if each of its headers is actually exercised.
  simd-containment     x86 intrinsics (<immintrin.h>, _mm*/_mm256*/
                       _mm512* calls, __m128/__m256/__m512 types) live
                       only under src/lqcd/simd/ — everything else goes
                       through the runtime-dispatch table.
  simd-dispatch-include  code outside src/lqcd/simd/ includes only
                       "lqcd/simd/dispatch.h", never a concrete backend
                       header — backend selection is a runtime decision,
                       not a compile-time include choice.
  simd-ci-leg-check    every LQCD_SIMD_BACKEND value forced by a ci.yml
                       leg names a backend known to dispatch.cpp, and
                       the scalar and avx2 backends each have a forcing
                       leg — so no dispatch backend can silently drop
                       out of CI.
  analyze-ci-job-check ci.yml keeps an `analyze` job that runs the
                       semantic tier (tools/analyze) — the deep
                       callgraph/lock/FP checks cannot be silently
                       dropped from CI.

Serial fault hooks and shared-stats mutation in `omp parallel` regions,
and `throw` in LQCD_PRAGMA_SIMD regions, are tools/analyze's
parallel-reachability pass: it checks the region bodies themselves and
everything they call.

Suppressions: tools/lint_suppressions.txt, one per line,
    <rule>:<path>[:<line>]  # <justification>
The justification is mandatory; an unjustified entry is itself an error.
Exit status: 0 clean, 1 findings, 2 bad invocation/suppression file.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Calls considered transparent to the vectorizer inside LQCD_PRAGMA_SIMD
# bodies: casts, tiny always-inlined lane helpers, and intrinsics-like
# std math that gcc vectorizes.
SIMD_CALL_WHITELIST = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "reinterpret_cast", "const_cast", "decltype",
    "float", "double", "int", "Complex",
    "fmaf", "fma", "fabsf", "fabs", "sqrtf", "sqrt", "min", "max",
}

CTEST_LABEL_RE = re.compile(r"ctest[^\n]*?-L\s+\"?([A-Za-z0-9_|]+)\"?")
CALL_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\(")


class Finding:
    def __init__(self, rule: str, path: Path, line: int, msg: str):
        self.rule = rule
        self.path = path.relative_to(REPO)
        self.line = line
        self.msg = msg

    def key(self) -> tuple:
        return (self.rule, str(self.path), self.line)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving
    line structure so reported line numbers stay correct."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def body_after(lines: list[str], start: int, max_lines: int = 400) -> list[int]:
    """Line indices of the statement following `start` (a pragma line):
    the brace-matched block, or until the first top-level ';'."""
    depth, paren, opened, out = 0, 0, False, []
    i = start + 1
    while i < len(lines) and i <= start + max_lines:
        line = lines[i]
        out.append(i)
        for ch in line:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth <= 0:
                    return out
            elif ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            elif (ch == ";" and not opened and depth == 0 and paren == 0):
                # Statement end outside any parens/braces: a braceless
                # single-statement body (the for-header ';'s sit inside
                # its parens and don't trigger this).
                return out
        i += 1
    return out


def iter_source(globs: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for g in globs:
        files.extend(sorted(SRC.rglob(g)))
    return files


def check_headers(findings: list[Finding]) -> None:
    for path in iter_source(("*.h",)):
        text = path.read_text()
        code = strip_comments(text)
        first = next((ln for ln in code.splitlines() if ln.strip()), "")
        if first.strip() != "#pragma once":
            line = 1 + code.splitlines().index(first) if first else 1
            findings.append(Finding("pragma-once", path, line,
                                    "header must start with #pragma once"))


def check_includes(findings: list[Finding]) -> None:
    inc_re = re.compile(r'#\s*include\s+"(lqcd/[^"]+)"')
    for path in iter_source(("*.h", "*.cpp")):
        for ln, line in enumerate(path.read_text().splitlines(), 1):
            m = inc_re.search(line)
            if m and not (SRC / m.group(1)).exists():
                findings.append(Finding("include-exists", path, ln,
                                        f'#include "{m.group(1)}" not found '
                                        "under src/"))


def check_omp_guard(findings: list[Finding]) -> None:
    for path in iter_source(("*.h", "*.cpp")):
        lines = strip_comments(path.read_text()).splitlines()
        depth_omp = 0
        for ln, line in enumerate(lines, 1):
            s = line.strip()
            if s.startswith("#if") :
                depth_omp += 1 if "LQCD_HAVE_OPENMP" in s or depth_omp else 0
                # Track nesting only once inside an OpenMP guard.
                if "LQCD_HAVE_OPENMP" in s and depth_omp == 0:
                    depth_omp = 1
            elif s.startswith("#endif") and depth_omp:
                depth_omp -= 1
            if "<omp.h>" in s and not depth_omp:
                findings.append(Finding(
                    "omp-include-guard", path, ln,
                    "#include <omp.h> outside #if defined(LQCD_HAVE_OPENMP)"))


def check_naked_alloc(findings: list[Finding]) -> None:
    pat = re.compile(r"(?<![\w.])(new\s+[A-Za-z_]|new\s*\[|delete\s|"
                     r"delete\s*\[|malloc\s*\(|free\s*\(|posix_memalign)")
    for path in iter_source(("*.h", "*.cpp")):
        code = strip_comments(path.read_text())
        for ln, line in enumerate(code.splitlines(), 1):
            if pat.search(line):
                findings.append(Finding(
                    "naked-alloc", path, ln,
                    "raw allocation — use base/aligned.h (AlignedVector) "
                    "or a std container"))


def check_simd_bodies(findings: list[Finding]) -> None:
    for path in iter_source(("*.h", "*.cpp")):
        lines = strip_comments(path.read_text()).splitlines()
        for i, line in enumerate(lines):
            if "LQCD_PRAGMA_SIMD" not in line or "define" in line:
                continue
            for j in body_after(lines, i, max_lines=60):
                body_line = lines[j]
                for m in CALL_RE.finditer(body_line):
                    name = m.group(1)
                    if name not in SIMD_CALL_WHITELIST:
                        findings.append(Finding(
                            "simd-opaque-call", path, j + 1,
                            f"opaque call '{name}()' inside an "
                            "LQCD_PRAGMA_SIMD loop body defeats "
                            "vectorization"))


def check_ci_labels(findings: list[Finding]) -> None:
    ci = REPO / ".github" / "workflows" / "ci.yml"
    if not ci.exists():
        return
    known: set[str] = set()
    label_re = re.compile(
        r'(?:lqcd_add_test\(\S+[ \t]+|LABELS[ \t]+)"?([A-Za-z0-9_;]+)"?\)?')
    for cml in (REPO / "tests" / "CMakeLists.txt",
                REPO / "bench" / "CMakeLists.txt"):
        if cml.exists():
            for m in label_re.finditer(cml.read_text()):
                known.update(m.group(1).split(";"))
    referenced: set[str] = set()
    for ln, line in enumerate(ci.read_text().splitlines(), 1):
        for m in CTEST_LABEL_RE.finditer(line):
            for label in m.group(1).split("|"):
                referenced.add(label)
                if label not in known:
                    findings.append(Finding(
                        "ci-label-check", ci, ln,
                        f"ctest label '{label}' referenced in ci.yml is "
                        "not registered in tests/ or bench/ "
                        "CMakeLists.txt"))
    # Reverse direction: a registered label that no `ctest -L` leg selects
    # means the suite never runs under the label-restricted CI legs.
    for label in sorted(known - referenced):
        findings.append(Finding(
            "ci-label-coverage", ci, 1,
            f"label '{label}' is registered in tests/ or bench/ "
            "CMakeLists.txt but no `ctest -L` leg in ci.yml exercises "
            "it — add it to a label expression (e.g. the sanitizer "
            "legs)"))


def check_service_header_tests(findings: list[Finding]) -> None:
    service_dir = SRC / "lqcd" / "service"
    if not service_dir.is_dir():
        return
    tested: set[str] = set()
    inc_re = re.compile(r'#\s*include\s+"(lqcd/service/[^"]+)"')
    for test in sorted((REPO / "tests").glob("test_*.cpp")):
        for m in inc_re.finditer(test.read_text()):
            tested.add(m.group(1))
    for header in sorted(service_dir.rglob("*.h")):
        rel = header.relative_to(SRC).as_posix()
        if rel not in tested:
            findings.append(Finding(
                "service-header-test", header, 1,
                f'"{rel}" is not #include\'d by any test under tests/ '
                "— a public service header must be exercised by at "
                "least one test carrying the `service` label"))


def iter_simd_scope() -> list[Path]:
    """Files the simd containment rules police: all of src/ plus the
    test and bench trees (kernels must not leak intrinsics anywhere)."""
    files = iter_source(("*.h", "*.cpp"))
    for d in (REPO / "tests", REPO / "bench"):
        if d.is_dir():
            files.extend(sorted(d.rglob("*.h")))
            files.extend(sorted(d.rglob("*.cpp")))
    return files


def check_simd_containment(findings: list[Finding]) -> None:
    simd_dir = SRC / "lqcd" / "simd"
    intrin_re = re.compile(
        r"(#\s*include\s*<(?:immintrin|x86intrin|[exsp]mmintrin|avx\w*)\.h>|"
        r"\b_mm(?:256|512)?_[a-z0-9_]+\s*\(|\b__m(?:128|256|512)[di]?\b)")
    for path in iter_simd_scope():
        if simd_dir in path.parents:
            continue
        code = strip_comments(path.read_text())
        for ln, line in enumerate(code.splitlines(), 1):
            m = intrin_re.search(line)
            if m:
                findings.append(Finding(
                    "simd-containment", path, ln,
                    f"x86 intrinsic '{m.group(1).strip()}' outside "
                    "src/lqcd/simd/ — call through "
                    "lqcd::simd::kernels() instead"))


def check_simd_dispatch_include(findings: list[Finding]) -> None:
    simd_dir = SRC / "lqcd" / "simd"
    inc_re = re.compile(r'#\s*include\s+"(lqcd/simd/[^"]+)"')
    for path in iter_simd_scope():
        if simd_dir in path.parents:
            continue
        for ln, line in enumerate(path.read_text().splitlines(), 1):
            m = inc_re.search(line)
            if m and m.group(1) != "lqcd/simd/dispatch.h":
                findings.append(Finding(
                    "simd-dispatch-include", path, ln,
                    f'#include "{m.group(1)}" outside src/lqcd/simd/ — '
                    "only lqcd/simd/dispatch.h is public; backend "
                    "selection happens at runtime"))


def check_simd_ci_legs(findings: list[Finding]) -> None:
    ci = REPO / ".github" / "workflows" / "ci.yml"
    dispatch = SRC / "lqcd" / "simd" / "dispatch.cpp"
    if not ci.exists() or not dispatch.exists():
        return
    known = set(re.findall(r'if\s*\(name\s*==\s*"([a-z0-9]+)"\)\s*return\s+'
                           r'Backend::', dispatch.read_text()))
    forced: set[str] = set()
    env_re = re.compile(r"LQCD_SIMD_BACKEND\s*[:=]\s*['\"]?([a-z0-9_.{$ }]+)")
    for ln, line in enumerate(ci.read_text().splitlines(), 1):
        m = env_re.search(line)
        if not m:
            continue
        value = m.group(1).strip().strip("'\"")
        if "$" in value:
            continue  # matrix expansion — the matrix axis lists the names
        forced.add(value)
        if value not in known:
            findings.append(Finding(
                "simd-ci-leg-check", ci, ln,
                f"ci.yml forces LQCD_SIMD_BACKEND={value}, which "
                "dispatch.cpp does not recognise (known: "
                f"{', '.join(sorted(known))})"))
    # Matrix axes like `backend: [scalar, avx2]` feed
    # LQCD_SIMD_BACKEND: ${{ matrix.backend }} — collect and validate
    # their values too.
    for ln, line in enumerate(ci.read_text().splitlines(), 1):
        m = re.search(r"backend:\s*\[([a-z0-9_, ]+)\]", line)
        if not m:
            continue
        for value in (v.strip() for v in m.group(1).split(",")):
            forced.add(value)
            if value not in known:
                findings.append(Finding(
                    "simd-ci-leg-check", ci, ln,
                    f"ci.yml simd matrix lists backend '{value}', which "
                    "dispatch.cpp does not recognise (known: "
                    f"{', '.join(sorted(known))})"))
    for backend in ("scalar", "avx2"):
        if backend in known and backend not in forced:
            findings.append(Finding(
                "simd-ci-leg-check", ci, 1,
                f"no ci.yml leg forces LQCD_SIMD_BACKEND={backend} — "
                "every universally-runnable backend needs a pinned CI "
                "leg (avx2 legs may skip-with-notice on old runners)"))


def check_analyze_ci_job(findings: list[Finding]) -> None:
    ci = REPO / ".github" / "workflows" / "ci.yml"
    if not ci.exists():
        return
    text = ci.read_text()
    has_job = re.search(r"^  analyze:\s*$", text, re.M) is not None
    runs_tool = "tools/analyze" in text
    if not (has_job and runs_tool):
        findings.append(Finding(
            "analyze-ci-job-check", ci, 1,
            "ci.yml has no `analyze` job running tools/analyze — the "
            "semantic tier (omp-audit, parallel-reachability, "
            "lock-discipline, fp-determinism, dispatch-completeness) "
            "must stay wired into CI"))


def load_suppressions(path: Path) -> tuple[list[tuple], int]:
    entries: list[tuple] = []
    errors = 0
    if not path.exists():
        return entries, errors
    for ln, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" not in line or not line.split("#", 1)[1].strip():
            try:
                shown = path.relative_to(REPO)
            except ValueError:
                shown = path
            print(f"{shown}:{ln}: suppression without a "
                  "justification", file=sys.stderr)
            errors += 1
            continue
        spec = line.split("#", 1)[0].strip()
        parts = spec.split(":")
        rule = parts[0]
        file_part = parts[1] if len(parts) > 1 else "*"
        line_part = int(parts[2]) if len(parts) > 2 else None
        entries.append((rule, file_part, line_part))
    return entries, errors


def suppressed(f: Finding, entries: list[tuple]) -> bool:
    for rule, file_part, line_part in entries:
        if rule not in ("*", f.rule):
            continue
        if file_part not in ("*", str(f.path)):
            continue
        if line_part is not None and line_part != f.line:
            continue
        return True
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="lint this tree instead of the repo (fixture "
                         "corpora under tests/tools/ use this); must "
                         "contain a src/ directory")
    ap.add_argument("--suppressions", default=None,
                    help="suppression registry (default: "
                         "ROOT/tools/lint_suppressions.txt)")
    args = ap.parse_args()

    global REPO, SRC
    if args.root is not None:
        REPO = Path(args.root).resolve()
        SRC = REPO / "src"
        if not SRC.is_dir():
            print(f"lqcd_lint: {SRC} is not a directory", file=sys.stderr)
            return 2
    sup_path = Path(args.suppressions) if args.suppressions else \
        REPO / "tools" / "lint_suppressions.txt"

    entries, supp_errors = load_suppressions(sup_path)
    if supp_errors:
        return 2

    findings: list[Finding] = []
    check_headers(findings)
    check_includes(findings)
    check_omp_guard(findings)
    check_naked_alloc(findings)
    check_simd_bodies(findings)
    check_ci_labels(findings)
    check_service_header_tests(findings)
    check_simd_containment(findings)
    check_simd_dispatch_include(findings)
    check_simd_ci_legs(findings)
    check_analyze_ci_job(findings)

    shown = [f for f in findings if not suppressed(f, entries)]
    for f in sorted(shown, key=Finding.key):
        print(f)
    n_supp = len(findings) - len(shown)
    print(f"lqcd_lint: {len(shown)} finding(s), {n_supp} suppressed",
          file=sys.stderr)
    return 1 if shown else 0


if __name__ == "__main__":
    sys.exit(main())
