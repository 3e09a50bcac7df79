"""ci-wiring: .github/workflows/ci.yml runs what the build registers.

  ci-label-check       every ctest -L label referenced in ci.yml exists
                       in tests/CMakeLists.txt or bench/CMakeLists.txt.
  ci-label-coverage    the reverse: every label registered there is
                       exercised by at least one `ctest -L` leg in
                       ci.yml, so a new suite (e.g. `abft`) cannot
                       silently dodge the label-restricted sanitizer legs.
  simd-ci-leg-check    every LQCD_SIMD_BACKEND value a ci.yml leg forces
                       names a backend known to dispatch.cpp, and the
                       scalar and avx2 backends each have a forcing leg.
  analyze-ci-job-check ci.yml keeps an `analyze` job that runs
                       tools/analyze, so the static rules cannot be
                       silently dropped from CI.

A tree without ci.yml has nothing to check.
"""

from __future__ import annotations

import re

from tools.analyze.findings import Finding

_CTEST_LABEL_RE = re.compile(r"ctest[^\n]*?-L\s+\"?([A-Za-z0-9_|]+)\"?")
_CMAKE_LABEL_RE = re.compile(
    r'(?:lqcd_add_test\(\S+[ \t]+|LABELS[ \t]+)"?([A-Za-z0-9_;]+)"?\)?')
_BACKEND_NAME_RE = re.compile(
    r'if\s*\(name\s*==\s*"([a-z0-9]+)"\)\s*return\s+Backend::')
_FORCED_BACKEND_RE = re.compile(
    r"LQCD_SIMD_BACKEND\s*[:=]\s*['\"]?([a-z0-9_.{$ }]+)")
_BACKEND_AXIS_RE = re.compile(r"backend:\s*\[([a-z0-9_, ]+)\]")


def _check_labels(model, ci, ci_lines, findings) -> None:
    known: set[str] = set()
    for cml in (model.root / "tests" / "CMakeLists.txt",
                model.root / "bench" / "CMakeLists.txt"):
        if cml.exists():
            for m in _CMAKE_LABEL_RE.finditer(cml.read_text()):
                known.update(m.group(1).split(";"))
    referenced: set[str] = set()
    for ln, line in enumerate(ci_lines, 1):
        for m in _CTEST_LABEL_RE.finditer(line):
            for label in m.group(1).split("|"):
                referenced.add(label)
                if label not in known:
                    findings.append(Finding(
                        "ci-label-check", ci, ln,
                        f"ctest label '{label}' referenced in ci.yml is "
                        "not registered in tests/ or bench/ "
                        "CMakeLists.txt"))
    for label in sorted(known - referenced):
        findings.append(Finding(
            "ci-label-coverage", ci, 1,
            f"label '{label}' is registered in tests/ or bench/ "
            "CMakeLists.txt but no `ctest -L` leg in ci.yml runs it"))


def _check_simd_legs(model, ci, ci_lines, findings) -> None:
    dispatch = model.src / "lqcd" / "simd" / "dispatch.cpp"
    if not dispatch.exists():
        return
    known = set(_BACKEND_NAME_RE.findall(dispatch.read_text()))
    forced: set[str] = set()

    def check(value: str, ln: int, what: str) -> None:
        forced.add(value)
        if value not in known:
            findings.append(Finding(
                "simd-ci-leg-check", ci, ln,
                f"ci.yml {what} '{value}', which dispatch.cpp does not "
                f"recognise (known: {', '.join(sorted(known))})"))

    for ln, line in enumerate(ci_lines, 1):
        m = _FORCED_BACKEND_RE.search(line)
        if m:
            value = m.group(1).strip().strip("'\"")
            # A matrix expansion: the matrix axis lists the names.
            if "$" not in value:
                check(value, ln, "forces LQCD_SIMD_BACKEND")
        m = _BACKEND_AXIS_RE.search(line)
        if m:
            for value in m.group(1).split(","):
                check(value.strip(), ln, "simd matrix lists backend")
    for backend in ("scalar", "avx2"):
        if backend in known and backend not in forced:
            findings.append(Finding(
                "simd-ci-leg-check", ci, 1,
                f"no ci.yml leg forces LQCD_SIMD_BACKEND={backend}"))


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    ci = model.root / ".github" / "workflows" / "ci.yml"
    if not ci.exists():
        return findings
    text = ci.read_text()
    lines = text.splitlines()
    _check_labels(model, ci, lines, findings)
    _check_simd_legs(model, ci, lines, findings)
    if not (re.search(r"^  analyze:\s*$", text, re.M)
            and "tools/analyze" in text):
        findings.append(Finding(
            "analyze-ci-job-check", ci, 1,
            "ci.yml has no `analyze` job running tools/analyze"))
    return findings
