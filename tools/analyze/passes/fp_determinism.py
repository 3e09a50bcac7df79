"""fp-determinism: the bit-reproducibility contract, checked at the
build-flag AND expression level.

The cross-backend contract (simd/dispatch.h) says the kernels —
su3_mul_nn, the dslash, the face pack, xpay, the fp16 converters —
are BIT-IDENTICAL across scalar/avx2/avx512, which only
holds if (a) every TU that compiles them does so with -ffp-contract=off
and no fast-math family flag, and (b) no kernel on the bit-exact list
uses an explicit FMA (std::fma / _mm*_fmadd_*), since separate
mul/add is what the scalar reference computes. clover_lanes and the MR
kernels are the FMA-allowed set (<= 1e-6 contract).

The pass discovers bit-exact TUs semantically: a TU whose include
closure defines a function on the bit-exact list is a bit-exact TU.
For each such TU it verifies the compile_commands.json flags; and for
every bit-exact kernel it walks the local callgraph (helpers like
dslash_site inherit the caller's contract) flagging explicit FMA. When
a bit-exact TU lacks -ffp-contract=off, FMA-contractible `a*b+c`
expressions inside its bit-exact kernels are reported too — those are
the exact sites the compiler would silently fuse.
"""

from __future__ import annotations

import re
from pathlib import Path

from tools.analyze.findings import Finding
from tools.analyze.textmodel import tu_command, tu_path

BIT_EXACT = {
    "su3_mul_nn", "dslash_lanes", "pack_faces_lanes", "xpay_lanes",
    "float_to_half_n", "half_to_float_n",
}
FMA_ALLOWED = {"clover_lanes", "mr_dots_lanes", "mr_axpy_lanes"}

_FAST_MATH_FLAGS = ("-ffast-math", "-funsafe-math-optimizations", "-Ofast",
                    "-fassociative-math", "-freciprocal-math",
                    "-ffinite-math-only", "-ffp-contract=fast")
_EXPLICIT_FMA_RE = re.compile(
    r"\b(?:std\s*::\s*)?(fmaf?|__builtin_fmaf?)\s*\(|"
    r"\b(_mm\d*_(?:mask_|maskz_)?f?n?m(?:add|sub)(?:_round)?_p[sdh])\s*\(")
_CONTRACTIBLE_RE = re.compile(
    r"[\w\]\)]\s*\*\s*[\w\(\[][^;]*?[+\-]|[+\-][^;]*?[\w\]\)]\s*\*\s*"
    r"[\w\(\[]")


def _include_closure(model, tu: Path) -> set[Path]:
    """Project files reachable from `tu` through quoted includes."""
    closure: set[Path] = set()
    queue = [tu]
    while queue:
        p = queue.pop()
        if p in closure or p not in model.files:
            continue
        closure.add(p)
        for _, inc in model.files[p].includes:
            for cand in (model.src / inc, p.parent / inc):
                cand = cand.resolve()
                if cand in model.files and cand not in closure:
                    queue.append(cand)
    return closure


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    by_name = model.by_name()

    defs_by_file: dict[Path, list] = {}
    for fn in model.functions:
        defs_by_file.setdefault(fn.path, []).append(fn)

    def bit_exact_closure(root_fn) -> list:
        """root_fn plus project helpers it (transitively) calls, never
        descending into the FMA-allowed set."""
        out, seen, queue = [], set(), [root_fn]
        while queue:
            fn = queue.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            out.append(fn)
            for cname, _, _ in fn.calls:
                if cname in FMA_ALLOWED:
                    continue
                for callee in by_name.get(cname, []):
                    if id(callee) not in seen:
                        queue.append(callee)
        return out

    for entry in model.compile_db:
        tu = tu_path(entry)
        if tu not in model.files:
            continue
        closure = _include_closure(model, tu)
        roots = [fn for p in closure for fn in defs_by_file.get(p, [])
                 if fn.name in BIT_EXACT]
        if not roots:
            continue

        cmd = tu_command(entry)
        has_contract_off = "-ffp-contract=off" in cmd
        bad_flags = [f for f in _FAST_MATH_FLAGS if f in cmd]
        if not has_contract_off:
            findings.append(Finding(
                "fp-determinism", tu, 1,
                "bit-exact-contract TU (defines "
                f"{', '.join(sorted({r.name for r in roots}))}) compiles "
                "without -ffp-contract=off — the compiler may fuse a*b+c "
                "into FMA and break cross-backend bit-identity"))
        for f in bad_flags:
            findings.append(Finding(
                "fp-determinism", tu, 1,
                f"bit-exact-contract TU compiles with {f} — fast-math "
                "reassociation breaks the bit-reproducibility contract"))

        seen_fns: set[int] = set()
        for root_fn in roots:
            for fn in bit_exact_closure(root_fn):
                if id(fn) in seen_fns or fn.path not in closure:
                    continue
                seen_fns.add(id(fn))
                lines = model.files[fn.path].lines
                lo, hi = fn.body
                for ln in range(lo, min(hi, len(lines)) + 1):
                    text = lines[ln - 1]
                    m = _EXPLICIT_FMA_RE.search(text)
                    if m:
                        what = m.group(1) or m.group(2)
                        findings.append(Finding(
                            "fp-determinism", fn.path, ln,
                            f"explicit FMA '{what}' in bit-exact kernel "
                            f"path '{fn.qual}' (reached from "
                            f"{root_fn.name}) — bit-exact kernels must "
                            "use separate mul/add"))
                    elif not has_contract_off and \
                            _CONTRACTIBLE_RE.search(text):
                        findings.append(Finding(
                            "fp-determinism", fn.path, ln,
                            f"FMA-contractible a*b+c in '{fn.qual}' while "
                            f"its TU {tu.name} lacks -ffp-contract=off — "
                            "the compiler is free to fuse this"))

    # De-duplicate across TUs sharing headers.
    uniq: dict[tuple, Finding] = {}
    for f in findings:
        uniq.setdefault(f.key(), f)
    return list(uniq.values())
