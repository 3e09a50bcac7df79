"""layout: per-file source rules that need no callgraph.

  pragma-once          every header under src/ starts with #pragma once.
  include-exists       every #include "lqcd/..." resolves under src/.
  omp-include-guard    <omp.h> only where LQCD_HAVE_OPENMP is defined:
                       never in the #else of the guard or under
                       !defined(...), so -DLQCD_ENABLE_OPENMP=OFF builds.
  naked-alloc          no naked new/delete/malloc/free in src/ — buffers
                       go through base/aligned.h or std containers.
  simd-opaque-call     LQCD_PRAGMA_SIMD loop bodies must stay
                       vectorizable: no opaque function calls.
  service-header-test  every header under src/lqcd/service/ is
                       #include'd by at least one tests/test_*.cpp.
  simd-containment     x86 intrinsics (<immintrin.h>, _mm*/_mm256*/
                       _mm512* calls, __m128/__m256/__m512 types) live
                       only under src/lqcd/simd/ — everything else goes
                       through the runtime-dispatch table.
  simd-dispatch-include  code outside src/lqcd/simd/ includes only
                       "lqcd/simd/dispatch.h", never a concrete backend
                       header — backend selection is a runtime decision.

The two SIMD rules also scan tests/ and bench/, except the known-bad
fixture corpus under tests/tools/fixtures/.
"""

from __future__ import annotations

import re

from tools.analyze.findings import Finding
from tools.analyze.textmodel import CALL_RE, read_source

# Calls considered transparent to the vectorizer inside LQCD_PRAGMA_SIMD
# bodies: casts, tiny always-inlined lane helpers, and intrinsics-like
# std math that gcc vectorizes.
SIMD_CALL_WHITELIST = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "reinterpret_cast", "const_cast", "decltype",
    "float", "double", "int", "Complex",
    "fmaf", "fma", "fabsf", "fabs", "sqrtf", "sqrt", "min", "max",
}

_COND_RE = re.compile(r"\s*#\s*(if|ifdef|ifndef|elif|else|endif)\b(.*)")
_OMP_TEST_RE = re.compile(
    r"(!\s*)?(?:defined\s*\(?\s*)?\bLQCD_HAVE_OPENMP\b")
_ALLOC_RE = re.compile(r"(?<![\w.])(new\s+[A-Za-z_]|new\s*\[|delete\s|"
                       r"delete\s*\[|malloc\s*\(|free\s*\(|posix_memalign)")
_INTRIN_RE = re.compile(
    r"(#\s*include\s*<(?:immintrin|x86intrin|[exsp]mmintrin|avx\w*)\.h>|"
    r"\b_mm(?:256|512)?_[a-z0-9_]+\s*\(|\b__m(?:128|256|512)[di]?\b)")


def _asserts_openmp(cond: str) -> bool:
    m = _OMP_TEST_RE.search(cond)
    return m is not None and m.group(1) is None


def _check_omp_guard(sf, findings: list[Finding]) -> None:
    # One flag per open #if: does its current branch guarantee
    # LQCD_HAVE_OPENMP?
    open_ifs: list[bool] = []
    for ln, line in enumerate(sf.lines, 1):
        m = _COND_RE.match(line)
        if m:
            kw, cond = m.groups()
            if kw in ("if", "ifdef", "ifndef"):
                open_ifs.append(kw != "ifndef" and _asserts_openmp(cond))
            elif open_ifs and kw == "elif":
                open_ifs[-1] = _asserts_openmp(cond)
            elif open_ifs and kw == "else":
                open_ifs[-1] = False
            elif open_ifs and kw == "endif":
                open_ifs.pop()
        if "<omp.h>" in line and not any(open_ifs):
            findings.append(Finding(
                "omp-include-guard", sf.path, ln,
                "#include <omp.h> outside #if defined(LQCD_HAVE_OPENMP)"))


def _simd_scope(model) -> list:
    """Files the SIMD containment rules police: src/ outside
    src/lqcd/simd/, plus tests/ and bench/ minus the fixture corpus."""
    simd_dir = model.src / "lqcd" / "simd"
    corpus = model.root / "tests" / "tools" / "fixtures"
    files = [sf for p, sf in model.files.items()
             if simd_dir not in p.parents]
    for d in (model.root / "tests", model.root / "bench"):
        for p in sorted(d.rglob("*.h")) + sorted(d.rglob("*.cpp")):
            if corpus not in p.parents:
                files.append(read_source(p))
    return files


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    for path, sf in model.files.items():
        if path.suffix == ".h":
            first = next((ln for ln, line in enumerate(sf.lines, 1)
                          if line.strip()), None)
            if first is None or sf.lines[first - 1].strip() != \
                    "#pragma once":
                findings.append(Finding("pragma-once", path, first or 1,
                                        "header must start with "
                                        "#pragma once"))
        for ln, inc in sf.includes:
            if inc.startswith("lqcd/") and not (model.src / inc).exists():
                findings.append(Finding("include-exists", path, ln,
                                        f'#include "{inc}" not found '
                                        "under src/"))
        _check_omp_guard(sf, findings)
        for ln, line in enumerate(sf.lines, 1):
            if _ALLOC_RE.search(line):
                findings.append(Finding(
                    "naked-alloc", path, ln,
                    "raw allocation — use base/aligned.h (AlignedVector) "
                    "or a std container"))
        for region in sf.simd_regions:
            lo, hi = region.body
            for ln in range(lo, min(hi, len(sf.lines)) + 1):
                for m in CALL_RE.finditer(sf.lines[ln - 1]):
                    if m.group(1) not in SIMD_CALL_WHITELIST:
                        findings.append(Finding(
                            "simd-opaque-call", path, ln,
                            f"opaque call '{m.group(1)}()' inside an "
                            "LQCD_PRAGMA_SIMD loop body defeats "
                            "vectorization"))

    service_dir = model.src / "lqcd" / "service"
    tested = {inc for p in sorted((model.root / "tests").glob("test_*.cpp"))
              for _, inc in read_source(p).includes}
    for header in sorted(service_dir.rglob("*.h")):
        rel = header.relative_to(model.src).as_posix()
        if rel not in tested:
            findings.append(Finding(
                "service-header-test", header, 1,
                f'"{rel}" is not #include\'d by any tests/test_*.cpp'))

    for sf in _simd_scope(model):
        for ln, line in enumerate(sf.lines, 1):
            m = _INTRIN_RE.search(line)
            if m:
                findings.append(Finding(
                    "simd-containment", sf.path, ln,
                    f"x86 intrinsic '{m.group(1).strip()}' outside "
                    "src/lqcd/simd/ — call through "
                    "lqcd::simd::kernels() instead"))
        for ln, inc in sf.includes:
            if inc.startswith("lqcd/simd/") and \
                    inc != "lqcd/simd/dispatch.h":
                findings.append(Finding(
                    "simd-dispatch-include", sf.path, ln,
                    f'#include "{inc}" outside src/lqcd/simd/ — only '
                    "lqcd/simd/dispatch.h is public; backend selection "
                    "happens at runtime"))
    return findings
