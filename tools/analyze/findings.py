"""Findings and the justified-suppression mechanism.

The registry (default tools/lint_suppressions.txt) holds one entry per
line, with the path relative to the analyzed root:

    <rule>:<path>[:<line>]  # <justification — mandatory>

An entry without a justification is itself an error (exit 2).
"""

from __future__ import annotations

import sys
from pathlib import Path


class Finding:
    def __init__(self, rule: str, path: Path, line: int, msg: str):
        self.rule = rule
        self.path = Path(path)
        self.line = line
        self.msg = msg

    def key(self) -> tuple:
        return (self.rule, str(self.path), self.line, self.msg)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": str(self.path), "line": self.line,
                "msg": self.msg}


def relativize(findings: list[Finding], root: Path) -> None:
    """Report paths relative to `root` (the suppression-file convention)."""
    for f in findings:
        try:
            f.path = f.path.resolve().relative_to(root.resolve())
        except ValueError:
            pass  # outside the root (e.g. a generated compile DB entry)


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
            print(f"{path}:{ln}: suppression without a justification",
                  file=sys.stderr)
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
