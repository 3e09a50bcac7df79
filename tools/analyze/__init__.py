"""Static analyzer for the lattice-QCD DD codebase.

One tool for every repo-specific static rule. It models every source
under ROOT/src (plus the TUs and flags of a CMake compile_commands.json)
with a self-contained text frontend — tokenizer, scope tree and
callgraph, no compiler needed — and runs seven passes over that model:

  layout                 eight per-file rules: #pragma once, includes,
                         the <omp.h> guard, raw allocation, SIMD bodies
                         and containment, service-header tests.
  ci-wiring              ci.yml against the build: ctest labels, SIMD
                         backend legs, and the analyze job itself.
  omp-audit              every `#pragma omp parallel` region carries
                         default(none) with explicit sharing lists.
  parallel-reachability  interprocedural callgraph walk proving no
                         serial FaultInjector hook, shared-stats
                         mutation, or throw is *reachable* from inside
                         a parallel or LQCD_PRAGMA_SIMD region.
  lock-discipline        lock-acquisition order extraction (inversion
                         detection) and mutex-guarded-member access
                         outside any lock scope, for the service and
                         resilience layers.
  fp-determinism         bit-exact-contract TUs compile with
                         -ffp-contract=off and no fast-math; no explicit
                         FMA reachable from bit-exact kernel bodies.
  dispatch-completeness  every function-pointer field of the Kernels
                         dispatch table is assigned, non-null, in every
                         backend TU.

Each pass's docstring defines its rules. Run as `python3 -m tools.analyze`
or `python3 tools/analyze`.
"""
