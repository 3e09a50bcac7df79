"""Driver: build the model, run the passes, apply suppressions, report.

Exit codes:
  0  clean (or every finding suppressed with a justification)
  1  findings
  2  usage error: no ROOT/src, an unreadable compile DB or one with no
     TU under ROOT/src, or a suppression without a justification
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.analyze import findings as F
from tools.analyze import textmodel
from tools.analyze.passes import PASSES


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="tools/analyze",
        description="Static analyzer: layout, CI-wiring, concurrency, "
                    "FP-determinism and dispatch-contract rules over "
                    "ROOT/src and compile_commands.json.")
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="project root (default: cwd); the analysis "
                         "scope is ROOT/src")
    ap.add_argument("--compile-db", type=Path, default=None,
                    help="compile_commands.json "
                         "(default: ROOT/build/compile_commands.json)")
    ap.add_argument("--suppressions", type=Path, default=None,
                    help="justified-suppression registry (default: "
                         "ROOT/tools/lint_suppressions.txt)")
    ap.add_argument("--no-suppressions", action="store_true",
                    help="report findings even when suppressed")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable findings on stdout")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root / 'src'} is not a directory", file=sys.stderr)
        return 2
    compile_db_path = args.compile_db or root / "build" / \
        "compile_commands.json"
    try:
        compile_db = textmodel.load_compile_db(compile_db_path)
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error: compile DB {compile_db_path}: {e} (configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)", file=sys.stderr)
        return 2

    model = textmodel.build_model(root, compile_db)
    if not any(textmodel.tu_path(e) in model.files for e in compile_db):
        print(f"error: no entry of {compile_db_path} names an existing "
              f"file under {model.src} — a compile DB from another "
              "checkout would leave every TU's flags unchecked",
              file=sys.stderr)
        return 2

    all_findings: list[F.Finding] = []
    for p in PASSES.values():
        all_findings.extend(p.run(model))

    F.relativize(all_findings, root)
    all_findings.sort(key=lambda f: (str(f.path), f.line, f.rule, f.msg))

    sup_path = args.suppressions or root / "tools" / "lint_suppressions.txt"
    entries: list[tuple] = []
    sup_errors = 0
    if not args.no_suppressions:
        entries, sup_errors = F.load_suppressions(sup_path)

    active = [f for f in all_findings if not F.suppressed(f, entries)]
    n_suppressed = len(all_findings) - len(active)

    if args.json:
        print(json.dumps({
            "passes": list(PASSES),
            "findings": [f.to_json() for f in active],
            "suppressed": n_suppressed,
        }, indent=2))
    else:
        for f in active:
            print(f)
        if active:
            print(f"\n{len(active)} finding(s) ({n_suppressed} suppressed)",
                  file=sys.stderr)
        else:
            print(f"analyze: clean ({len(model.files)} files, "
                  f"{len(PASSES)} passes, {n_suppressed} suppressed)",
                  file=sys.stderr)

    if sup_errors:
        return 2
    return 1 if active else 0
