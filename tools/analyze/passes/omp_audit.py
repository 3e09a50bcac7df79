"""omp-audit: every OpenMP region that owns a data environment must be
explicit about it.

A `#pragma omp parallel` (including combined parallel-for /
parallel-sections), `task`, or `teams` directive creates a fresh data
environment; without `default(none)` every captured variable silently
becomes shared, which is exactly how the thread-count-invariance
contract (DESIGN "Concurrency & static-analysis gates") gets broken by
an innocent-looking edit. The pass requires `default(none)` on every
such directive — forcing the sharing list to be spelled out — and flags
an explicit `default(shared)` as the same defect stated louder.

Directives that create no data environment (`omp for`, `omp simd`,
`omp critical`, ...) take no default clause and are not audited.
"""

from __future__ import annotations

import re

from tools.analyze.findings import Finding

# Directive kinds that accept a default() clause.
_OWNS_DATA_ENV = re.compile(r"#\s*pragma\s+omp\s.*\b(parallel|task|teams)\b")
_DEFAULT_RE = re.compile(r"\bdefault\s*\(\s*(\w+)\s*\)")


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    for sf in model.files.values():
        for d in sf.directives:
            if not _OWNS_DATA_ENV.search(d.text):
                continue
            if "declare" in d.text:  # e.g. `omp declare simd`
                continue
            m = _DEFAULT_RE.search(d.text)
            if m is None:
                findings.append(Finding(
                    "omp-audit", d.path, d.line,
                    "omp region creates a data environment without "
                    "default(none) — every sharing decision must be an "
                    "explicit shared()/firstprivate()/private() clause"))
            elif m.group(1) != "none":
                findings.append(Finding(
                    "omp-audit", d.path, d.line,
                    f"omp region declares default({m.group(1)}) — only "
                    "default(none) with explicit sharing lists is allowed"))
    return findings
