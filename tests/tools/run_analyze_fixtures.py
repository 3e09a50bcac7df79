#!/usr/bin/env python3
"""Fixture harness for tools/analyze.

Runs the analyzer over the known-bad corpus in tests/tools/fixtures/ —
a miniature tree with src/, tests/, bench/ and .github/workflows/ci.yml
— and asserts that every rule fires EXACTLY where the fixtures say it
must and stays silent everywhere else.

Expectations live in the fixtures themselves as marker comments, so
they survive edits that shift line numbers (`#` instead of `//` in
YAML and CMake files):

    // EXPECT: <rule>        a finding of <rule> anchors on this line
    // EXPECT-TU: <rule>     a file-level finding of <rule> (line 1)

The synthetic compile_commands.json gives every TU -ffp-contract=off
EXCEPT the two fp-determinism fixtures: the TU-level finding is the
missing flag itself.

Also exercises the justified-suppression registry (a justified entry
hides its finding, an unjustified one is exit 2) and the compile-DB
sanity check (a DB naming no TU under the corpus's src/ is exit 2).

Exit 0 on success, 1 with a diff of missing/unexpected findings on
failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CORPUS = REPO / "tests" / "tools" / "fixtures"

# Every rule tools/analyze implements; each must fire on the corpus.
ALL_RULES = {
    "pragma-once", "include-exists", "omp-include-guard", "naked-alloc",
    "simd-opaque-call", "service-header-test", "simd-containment",
    "simd-dispatch-include", "ci-label-check", "ci-label-coverage",
    "simd-ci-leg-check", "analyze-ci-job-check", "omp-audit",
    "parallel-reachability", "lock-discipline", "fp-determinism",
    "dispatch-completeness",
}
NO_CONTRACT_OFF = {"fpdet_bad.cpp", "fpdet_header.cpp"}

_EXPECT_RE = re.compile(r"(?://|#)\s*EXPECT:\s*([\w-]+)")
_EXPECT_TU_RE = re.compile(r"EXPECT-TU:\s*([\w-]+)")

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def ok(msg: str) -> None:
    print(f"  ok: {msg}")


def expected() -> set:
    exp = set()
    for f in sorted(CORPUS.rglob("*")):
        if not f.is_file():
            continue
        rel = f.relative_to(CORPUS).as_posix()
        for ln, line in enumerate(f.read_text().splitlines(), 1):
            m = _EXPECT_RE.search(line)
            if m:
                exp.add((m.group(1), rel, ln))
            m = _EXPECT_TU_RE.search(line)
            if m:
                exp.add((m.group(1), rel, 1))
    return exp


def write_compile_db(path: Path, tus: list[Path]) -> Path:
    entries = []
    for f in tus:
        flag = "" if f.name in NO_CONTRACT_OFF else " -ffp-contract=off"
        entries.append({"directory": str(CORPUS), "file": str(f),
                        "command": f"c++ -std=c++17 -O2 -fopenmp{flag} "
                                   f"-c {f}"})
    path.write_text(json.dumps(entries, indent=2))
    return path


def run_analyzer(db: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "analyze"),
         "--root", str(CORPUS), "--compile-db", str(db), *extra],
        capture_output=True, text=True)


def check_corpus(db: Path) -> None:
    print("== fixture corpus ==")
    proc = run_analyzer(db, "--json", "--no-suppressions")
    if proc.returncode != 1:
        fail(f"analyzer exit {proc.returncode}, expected 1 (findings)\n"
             f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
        return
    doc = json.loads(proc.stdout)
    found = {(f["rule"], f["path"], f["line"]) for f in doc["findings"]}
    exp = expected()

    for miss in sorted(exp - found):
        fail(f"expected finding did not fire: {miss}")
    for extra in sorted(found - exp):
        fail(f"unexpected finding: {extra}")
    if exp == found:
        per_rule = sorted(Counter(rule for rule, _, _ in found).items())
        ok(f"{len(found)} expected finding sites, 0 unexpected, clean "
           f"files silent ({', '.join(f'{r}:{n}' for r, n in per_rule)})")

    silent = ALL_RULES - {rule for rule, _, _ in found}
    for rule in sorted(silent):
        fail(f"rule {rule} produced no finding on the corpus")
    if not silent:
        ok(f"all {len(ALL_RULES)} rules fired")


def check_suppressions(db: Path, tmp: Path) -> None:
    print("== justified-suppression registry ==")
    sup = tmp / "suppressions.txt"
    sup.write_text(
        "omp-audit:src/omp_bad.cpp:7  # fixture: justified entries hide "
        "their finding\n")
    proc = run_analyzer(db, "--json", "--suppressions", str(sup))
    doc = json.loads(proc.stdout)
    found = {(f["rule"], f["path"], f["line"]) for f in doc["findings"]}
    if ("omp-audit", "src/omp_bad.cpp", 7) in found:
        fail("justified suppression did not hide its finding")
    elif doc["suppressed"] != 1:
        fail(f"suppressed count {doc['suppressed']}, expected 1")
    else:
        ok("justified suppression hides exactly its finding")

    sup.write_text("omp-audit:src/omp_bad.cpp:7\n")  # no justification
    proc = run_analyzer(db, "--suppressions", str(sup))
    if proc.returncode != 2:
        fail(f"unjustified suppression: exit {proc.returncode}, expected 2")
    else:
        ok("suppression without a justification is exit 2")


def check_foreign_compile_db(tmp: Path) -> None:
    print("== compile DB sanity ==")
    # The repo's own TUs stand in for another checkout's.
    foreign = sorted((REPO / "src").rglob("*.cpp"))
    for name, tus in (("foreign", foreign), ("empty", [])):
        db = write_compile_db(tmp / f"{name}_db.json", tus)
        proc = run_analyzer(db)
        if proc.returncode != 2 or str(db) not in proc.stderr:
            fail(f"{name} compile DB: exit {proc.returncode}, expected 2 "
                 f"naming the DB\nstderr: {proc.stderr}")
        else:
            ok(f"{name} compile DB (no TU under src/) is exit 2")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lqcd-analyze-fix") as td:
        tmp = Path(td)
        db = write_compile_db(tmp / "compile_commands.json",
                              sorted((CORPUS / "src").rglob("*.cpp")))
        check_corpus(db)
        check_suppressions(db, tmp)
        check_foreign_compile_db(tmp)
    if failures:
        print(f"\n{len(failures)} fixture assertion(s) failed",
              file=sys.stderr)
        return 1
    print("\nall fixture assertions passed")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
    sys.exit(main())
