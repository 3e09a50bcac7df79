#!/usr/bin/env python3
"""Compare a measured BENCH_kernels.json against the checked-in baseline.

Usage:
    bench_compare.py <measured.json> <baseline.json> [--tolerance 0.25]

Both files carry the `lqcd-bench-kernels-v1` schema written by
`bench_kernels --json`. The comparison is ONE-SIDED: a kernel fails only
if its measured rate drops below baseline * (1 - tolerance). Faster
machines never fail, so the baseline can stay conservative while still
catching real regressions (a kernel silently falling back to scalar, a
dispatch bug, a de-vectorized loop).

Backends are matched by name and compared only when present in BOTH
files: CI runners differ in ISA support, so the baseline's avx2 entries
are simply skipped on a runner whose CPUID (or LQCD_SIMD_BACKEND) never
produced an avx2 section. The scalar backend is mandatory — it exists on
every machine, and its absence means the bench itself is broken.

A second, relative check needs no baseline: when the measured file holds
both avx512 and avx2, avx512 must reach at least (1 - tolerance) x the
avx2 rate on the kernels listed in RELATIVE. bench_kernels runs the lane
kernels at 16 lanes, a multiple of both backends' lane widths, so the
wider backend losing there means its lane path runs masked or falls
back. block_solve joined dslash_lanes once the lane dslash became one
whole-domain kernel per backend: its avx512/avx2 ratio then held at
1.04-1.39 in ten --smoke runs (0.94-1.51 before, with 2 of 5 early
runs failing). block_solve_rhs1, the one-RHS block solve on the one-lane
kernels vectorized within the site, joined once its ratio held at
1.16-1.40 in ten of ten --smoke runs.

Exit status: 0 all kernels within tolerance, 1 regression or malformed
input, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "lqcd-bench-kernels-v1"

# (wide backend, narrow backend, kernels the wide one must keep up on).
RELATIVE = (("avx512", "avx2",
             ("dslash_lanes", "block_solve", "block_solve_rhs1")),)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    return doc


def kernel_map(doc: dict, path: str) -> dict[str, dict[str, dict]]:
    """{backend: {kernel_name: kernel_record}}, validated: a malformed
    record raises ValueError naming the file, record, and missing key
    instead of surfacing as a KeyError traceback later."""
    out: dict[str, dict[str, dict]] = {}
    backends = doc.get("backends", [])
    if not isinstance(backends, list):
        raise ValueError(f"{path}: 'backends' must be a list")
    for i, b in enumerate(backends):
        if not isinstance(b, dict) or "backend" not in b:
            raise ValueError(
                f"{path}: backends[{i}] lacks required key 'backend'")
        bname = b["backend"]
        kmap: dict[str, dict] = {}
        for j, k in enumerate(b.get("kernels", [])):
            if not isinstance(k, dict):
                raise ValueError(
                    f"{path}: backend {bname!r} kernels[{j}] is not an "
                    "object")
            for key in ("name", "metric", "value"):
                if key not in k:
                    raise ValueError(
                        f"{path}: backend {bname!r} kernels[{j}] "
                        f"(name={k.get('name')!r}) lacks required key "
                        f"{key!r}")
            if not isinstance(k["value"], (int, float)) or \
                    isinstance(k["value"], bool):
                raise ValueError(
                    f"{path}: backend {bname!r} kernel {k['name']!r}: "
                    f"'value' must be a number, got "
                    f"{type(k['value']).__name__}")
            if k["name"] in kmap:
                raise ValueError(
                    f"{path}: backend {bname!r} lists kernel "
                    f"{k['name']!r} twice")
            kmap[k["name"]] = k
        out[bname] = kmap
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("measured")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop below baseline "
                         "(default 0.25 = fail under 75%% of baseline)")
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("--tolerance must be in [0, 1)", file=sys.stderr)
        return 2

    try:
        measured = kernel_map(load(args.measured), args.measured)
        baseline = kernel_map(load(args.baseline), args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 1

    if "scalar" not in measured:
        print("bench_compare: measured file has no 'scalar' backend — the "
              "portable fallback must exist on every machine", file=sys.stderr)
        return 1

    failures = 0
    compared = 0
    skipped_backends = sorted(set(baseline) - set(measured))
    print(f"{'backend':8s} {'kernel':16s} {'metric':7s} "
          f"{'measured':>9s} {'floor':>9s} {'baseline':>9s}  status")
    for backend in sorted(set(baseline) & set(measured)):
        for name, base in sorted(baseline[backend].items()):
            meas = measured[backend].get(name)
            if meas is None:
                print(f"{backend:8s} {name:16s} {'-':7s} {'-':>9s} {'-':>9s} "
                      f"{base['value']:9.2f}  MISSING")
                failures += 1
                continue
            if meas.get("metric") != base.get("metric"):
                print(f"bench_compare: {backend}/{name}: metric "
                      f"{meas.get('metric')!r} != baseline "
                      f"{base.get('metric')!r}", file=sys.stderr)
                failures += 1
                continue
            floor = base["value"] * (1.0 - args.tolerance)
            ok = meas["value"] >= floor
            compared += 1
            failures += 0 if ok else 1
            print(f"{backend:8s} {name:16s} {base['metric']:7s} "
                  f"{meas['value']:9.2f} {floor:9.2f} {base['value']:9.2f}  "
                  f"{'ok' if ok else 'REGRESSION'}")
        # A measured kernel the baseline has never heard of means the
        # baseline is stale (a kernel was added without re-baselining) —
        # fail loudly instead of silently ignoring it.
        for name in sorted(set(measured[backend]) - set(baseline[backend])):
            print(f"{backend:8s} {name:16s} {'-':7s} "
                  f"{measured[backend][name]['value']:9.2f} {'-':>9s} "
                  f"{'-':>9s}  EXTRA (not in baseline — re-baseline)")
            failures += 1
    for backend in skipped_backends:
        print(f"{backend:8s} (not available on this machine — "
              f"{len(baseline[backend])} baseline kernel(s) skipped)")

    for wide, narrow, names in RELATIVE:
        if wide not in measured or narrow not in measured:
            continue
        for name in names:
            w = measured[wide].get(name)
            n = measured[narrow].get(name)
            if w is None or n is None:
                print(f"{wide:8s} {name:16s} relative to {narrow}: MISSING")
                failures += 1
                continue
            floor = n["value"] * (1.0 - args.tolerance)
            ok = w["value"] >= floor
            compared += 1
            failures += 0 if ok else 1
            print(f"{wide:8s} {name:16s} {w['metric']:7s} "
                  f"{w['value']:9.2f} {floor:9.2f} {n['value']:9.2f}  "
                  f"{'ok' if ok else 'SLOWER'} (relative to {narrow})")

    if compared == 0:
        print("bench_compare: nothing compared — baseline and measured "
              "share no backend", file=sys.stderr)
        return 1
    print(f"bench_compare: {compared} kernel(s) compared, "
          f"{failures} failure(s), tolerance {args.tolerance:.0%}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
