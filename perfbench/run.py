#!/usr/bin/env python3
"""Build and run the propagator benchmark (perfbench/propbench.cpp).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The script builds the library and the
benchmark from the checkout's sources into .bench_build/perfbench (CMake,
Release build), runs one workload with OMP_NUM_THREADS set to the number
of usable CPUs, and relays the benchmark's output; the last line is the
result JSON. On the way it checks that

  * the printed metric names and units are exactly those BENCHMARK.json
    declares (end_to_end with --trace 0, per_layer with --trace 1);
  * the exact solver and Schwarz counters of every input repeat those of
    earlier runs of the same sources with the same seed, thread count and
    SIMD backend (kept under .bench_build/perfbench/counters).

--self-check runs all three workloads on a reduced lattice for a few
seconds, untraced and traced, and checks each one's metric set.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "cmake" / "propbench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(nproc()),
                  "--target", "propbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark is built from (a checkout need not be one)."""
    commit = "no-git"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted(
            p for p in (ROOT / top).rglob("*") if p.is_file())
        for p in paths:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metrics(metrics, expected, what):
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"{what}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, undeclared {extra}, unit mismatch {units})",
             3)


def check_counters(counters, run_info, seed, reduced):
    """Exact counters must repeat across runs of the same sources, seed,
    thread count and SIMD backend."""
    if not counters:
        return
    sources = run_info["commit"].rsplit("src-sha256:", 1)[-1]
    key = (f"{sources}-seed{seed}-{'reduced' if reduced else 'full'}"
           f"-omp{run_info['omp_max_threads']}-{run_info['simd_backend']}")
    path = BUILD / "counters" / f"{key}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    drift = sorted(k for k in counters if k in known and known[k] != counters[k])
    if drift:
        fail(f"counter drift against earlier runs ({path}): {drift}", 3)
    known.update(counters)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def run_bench(args, timeout):
    env = dict(os.environ, OMP_NUM_THREADS=str(nproc()))
    BUILD.mkdir(parents=True, exist_ok=True)
    cmd = [str(EXE), *args, "--out-dir", str(BUILD),
           "--commit", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {timeout} s")
    return done.returncode, done.stdout.splitlines()


def parse_lines(lines):
    """The JSON records among the benchmark's output lines."""
    records = []
    for line in lines:
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                fail(f"malformed JSON line: {line[:200]}")
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["single_rhs", "propagator", "service_churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="all workloads on a reduced lattice, both modes")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    build()
    e2e, per_layer = declared()

    if args.self_check:
        for trace in (0, 1):
            code, lines = run_bench(
                ["--workload", "all", "--reduced", "--seconds", "2",
                 "--seed", str(args.seed), "--trace", str(trace)],
                RUN_TIMEOUT_S)
            print("\n".join(lines))
            if code != 0:
                fail(f"reduced run (trace {trace}) exited {code}", code)
            records = parse_lines(lines)
            runs = [r["run"] for r in records if "run" in r]
            for r in records:
                if "workload" in r:
                    check_metrics(r["metrics"], per_layer if trace else e2e,
                                  f"{r['workload']} (trace {trace})")
            seen = sorted(r["workload"] for r in records if "workload" in r)
            if seen != ["propagator", "service_churn", "single_rhs"]:
                fail(f"reduced run (trace {trace}) covered {seen}")
            counters = [r["counters"] for r in records if "counters" in r]
            check_counters(counters[0], runs[0], args.seed, True)
        print("self-check ok: every workload printed the declared metrics")
        return 0

    code, lines = run_bench(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
        RUN_TIMEOUT_S)
    records = parse_lines(lines)
    if code != 0:
        print("\n".join(lines))
        sys.exit(code)
    result = records[-1] if records else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark did not end with a result line")
    check_metrics(result["metrics"], per_layer if args.trace else e2e,
                  args.workload)
    runs = [r["run"] for r in records if "run" in r]
    counters = [r["counters"] for r in records if "counters" in r]
    check_counters(counters[0], runs[0], args.seed, False)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
