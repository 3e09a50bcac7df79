"""Pass registry for tools/analyze."""

from __future__ import annotations

from tools.analyze.passes import (ci_wiring, dispatch_complete,
                                  fp_determinism, layout, lock_discipline,
                                  omp_audit, reachability)

# Name -> pass module exposing run(model). Order is the report order.
PASSES = {
    "layout": layout,
    "ci-wiring": ci_wiring,
    "omp-audit": omp_audit,
    "parallel-reachability": reachability,
    "lock-discipline": lock_discipline,
    "fp-determinism": fp_determinism,
    "dispatch-completeness": dispatch_complete,
}
