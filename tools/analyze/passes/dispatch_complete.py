"""dispatch-completeness: no silent null slots in the Kernels table.

The runtime-dispatch contract (simd/dispatch.h) hangs every hot kernel
off a function-pointer field of `struct Kernels`, and every backend TU
(backend_scalar.cpp, backend_avx2.cpp, backend_avx512.cpp) fills the
table with positional aggregate initialization. C++ value-initializes
missing trailing aggregate members — so adding a field to Kernels
without extending every backend initializer compiles cleanly and
produces a nullptr kernel slot that segfaults on first dispatch of one
backend only. This pass parses the struct's field list (in declaration
order, function-pointer fields detected syntactically) and checks every
aggregate initializer of that type, in every backend TU:

  * the initializer must cover ALL fields (missing trailing fields are
    named in the finding);
  * no function-pointer position may be nullptr/NULL/0;
  * every backend TU must initialize at least one table.
"""

from __future__ import annotations

import re
from pathlib import Path

from tools.analyze.findings import Finding
from tools.analyze.textmodel import tu_path

_STRUCT_NAME = "Kernels"
_FP_FIELD_RE = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")
_PLAIN_FIELD_RE = re.compile(r"\b(\w+)\s*(?:=[^=].*)?;\s*$")
_NULLISH = {"nullptr", "NULL", "0", "{}"}


def _struct_fields(cls) -> list[tuple[str, bool]]:
    """Ordered (field name, is_function_pointer) from class statements."""
    fields: list[tuple[str, bool]] = []
    for _, text in cls.statements:
        t = text.strip()
        if re.match(r"^(using|typedef|static|friend|template|public|"
                    r"private|protected|enum|class|struct)\b", t):
            continue
        m = _FP_FIELD_RE.search(t)
        if m:
            fields.append((m.group(1), True))
            continue
        if "(" in t:
            continue  # a method declaration, not a data member
        t = t if t.rstrip().endswith(";") else t + " ;"
        m = _PLAIN_FIELD_RE.search(t)
        if m and m.group(1) not in ("const", "override"):
            fields.append((m.group(1), False))
    return fields


def _split_top_level(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "({[<":
            depth += 1
        elif ch in ")}]>":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _aggregates(lines: list[str]) -> list[tuple[int, list[str]]]:
    """(line, top-level initializer list) of every `Kernels x = {...};`"""
    text = "\n".join(lines)
    out = []
    for m in re.finditer(
            rf"\b{_STRUCT_NAME}\s+\w+\s*(?:=\s*)?\{{", text):
        start = m.end() - 1
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    body = text[start + 1:i]
                    line = text.count("\n", 0, m.start()) + 1
                    out.append((line, _split_top_level(body)))
                    break
    return out


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    tables = [c for c in model.classes if c.name == _STRUCT_NAME]
    if not tables:
        return findings
    # If several definitions exist (should not happen), use the first
    # with function-pointer fields.
    fields: list[tuple[str, bool]] = []
    for cls in tables:
        fields = _struct_fields(cls)
        if any(fp for _, fp in fields):
            break
    if not any(fp for _, fp in fields):
        return findings

    backend_tus = [tu_path(e) for e in model.compile_db
                   if Path(e["file"]).name.startswith("backend_")]
    backend_tus = [p for p in backend_tus if p in model.files]

    initialized_tus: set[Path] = set()
    for path, sf in model.files.items():
        for line, inits in _aggregates(sf.lines):
            initialized_tus.add(path)
            if len(inits) < len(fields):
                missing = [n for n, _ in fields[len(inits):]]
                findings.append(Finding(
                    "dispatch-completeness", path, line,
                    f"{_STRUCT_NAME} aggregate initializer covers "
                    f"{len(inits)} of {len(fields)} fields — "
                    f"{', '.join(missing)} value-initialize to nullptr "
                    "kernel slots (silent segfault on first dispatch)"))
            for i, init in enumerate(inits[:len(fields)]):
                name, is_fp = fields[i]
                if is_fp and init.replace(" ", "") in _NULLISH:
                    findings.append(Finding(
                        "dispatch-completeness", path, line,
                        f"{_STRUCT_NAME} field '{name}' is explicitly "
                        f"null in this table — a backend must implement "
                        "every kernel (fall back to the scalar reference "
                        "instead of a null slot)"))

    for tu in backend_tus:
        if tu not in initialized_tus:
            findings.append(Finding(
                "dispatch-completeness", tu, 1,
                f"backend TU defines no {_STRUCT_NAME} aggregate "
                "initializer — every backend must assign the full "
                "dispatch table (a degraded build may return nullptr "
                "from its *_table(), but the table itself must exist)"))
    return findings
