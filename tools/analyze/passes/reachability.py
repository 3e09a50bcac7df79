"""parallel-reachability: interprocedural hazard reachability from
parallel regions.

This pass checks each region body and walks the project callgraph from
it: a serial FaultInjector hook, a shared-stats mutation, or a `throw`
(including LQCD_CHECK*, which expands to one) is a finding when it is
written in an `omp parallel` region or *reachable* from one — a helper
function called three frames deep terminates the program (uncaught
exception in a parallel region) or races on the stats shards just as
surely as inline code. For LQCD_PRAGMA_SIMD regions only
throw-reachability is checked (the vectorizer contract; fault hooks
there are already structurally impossible). It is the only check of
these hazards; the layout pass's simd-opaque-call rule checks SIMD
bodies for opaque calls, not for what they reach.

Escape hatch: a function whose definition carries
    // analyze-safe(parallel-reachability): <justification>
(or analyze-safe(*)) is treated as a barrier — the walk does not
descend into it. The justification is mandatory and lives next to the
code it blesses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from tools.analyze.findings import Finding

_SERIAL_HOOK_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:->|\.)\s*"
    r"(maybe_fault|maybe_corrupt|maybe_corrupt_reals|should_fire|"
    r"note_opportunity|record_event)\s*\(")
_SHARED_STATS_RE = re.compile(
    r"(\+\+\s*stats_\s*\.|stats_\s*\.\s*\w+\s*(\+=|=[^=]|\+\+)|"
    r"\+\+\s*comm_stats_\s*\.|comm_stats_\s*\.\s*\w+\s*(\+=|=[^=]|\+\+))")
_THROW_RE = re.compile(r"\bthrow\b")
_CHECK_MACROS = {"LQCD_CHECK", "LQCD_CHECK_MSG"}

# A call name resolving to more than this many distinct project
# definitions is too ambiguous to walk (operator-like common names);
# skipping keeps findings actionable.
_MAX_OVERLOADS = 8


@dataclass
class _Hazard:
    kind: str      # "fault-hook" | "stats-mutation" | "throw"
    line: int
    detail: str


def _span_hazards(lines: list[str], span: tuple[int, int],
                  kinds: frozenset) -> list[_Hazard]:
    out: list[_Hazard] = []
    lo, hi = span
    for ln in range(lo, min(hi, len(lines)) + 1):
        text = lines[ln - 1]
        if "fault-hook" in kinds:
            for m in _SERIAL_HOOK_RE.finditer(text):
                if "scope" in m.group(1).lower():
                    continue  # blessed ParallelFaultScope receiver
                out.append(_Hazard(
                    "fault-hook", ln,
                    f"serial fault hook {m.group(1)}->{m.group(2)}()"))
        if "stats-mutation" in kinds and _SHARED_STATS_RE.search(text):
            out.append(_Hazard("stats-mutation", ln,
                               "shared stats member mutation"))
        if "throw" in kinds:
            if _THROW_RE.search(text):
                out.append(_Hazard("throw", ln, "throw statement"))
            for m in re.finditer(r"\b(LQCD_CHECK(?:_MSG)?)\s*\(", text):
                out.append(_Hazard("throw", ln,
                                   f"{m.group(1)} (throws lqcd::Error)"))
    return out


def _span_calls(lines: list[str], span: tuple[int, int]) -> list[tuple]:
    from tools.analyze.textmodel import CALL_RE, KEYWORDS, call_receiver
    out = []
    lo, hi = span
    for ln in range(lo, min(hi, len(lines)) + 1):
        text = lines[ln - 1]
        for m in CALL_RE.finditer(text):
            if m.group(1) not in KEYWORDS and \
                    m.group(1) not in _CHECK_MACROS:
                out.append((m.group(1), ln,
                            call_receiver(text, m.start(1))))
    return out


def _resolve(name: str, receiver: str, caller_cls: str | None,
             by_name) -> list:
    """Name-based overload resolution with three narrowings that mirror
    C++ lookup:

    * qualified call — `Q::name(...)` targets Q's own member when the
      project defines a class Q; a CamelCase qualifier that names no
      project class is a type (a template parameter such as the vector
      traits `V` of the SIMD chunk bodies, by the project's naming rule),
      so it targets static member functions only, never a same-named
      free function or a method that needs an object; a lower-case
      qualifier is a namespace, so it targets free functions when the
      project defines any of that name;

    * blessed receiver — a call through a receiver whose name contains
      'scope' (e.g. `domain_scope_->maybe_corrupt_reals(...)`) targets
      the ParallelFaultScope-style thread-safe wrapper, never a serial
      same-named method, so when scope-classed definitions exist only
      those are walked;
    * member-first — an unqualified call (no receiver) inside a member
      function of class C resolves to C's own method when C defines the
      name, exactly as unqualified name lookup does; without this,
      `note_opportunity()` inside ParallelFaultScope would also walk
      FaultInjector::note_opportunity. Inside a free function it
      resolves to free functions when the project defines any of that
      name: `norm2(x[i])` in a BLAS loop never calls a vector space's
      norm2 method."""
    defs = by_name.get(name, [])
    free = [d for d in defs if not d.cls]
    if receiver.endswith("::"):
        scope = receiver[:-2]
        own = [d for d in defs if d.cls == scope]
        if own:
            return own
        if scope[:1].isupper():
            return [d for d in defs if d.cls and d.static]
        return free or defs
    if receiver in ("", "this") and not caller_cls:
        return free or defs
    if receiver and "scope" in receiver.lower():
        scoped = [d for d in defs if d.cls and "scope" in d.cls.lower()]
        if scoped:
            return scoped
    elif receiver in ("", "this") and caller_cls:
        own = [d for d in defs if d.cls == caller_cls]
        if own:
            return own
    elif receiver and caller_cls:
        # obj.apply() / ptr->apply() on a named receiver: the target is
        # some OTHER object's API; resolving a common name like `apply`
        # back into the caller's own class invents recursion into the
        # serial orchestration layer. Drop same-class candidates.
        other = [d for d in defs if d.cls != caller_cls]
        if other:
            return other
    return defs


def _enclosing_cls(model, path, line) -> str | None:
    """Class of the member function whose body contains `line` (the
    parallel region's home — unqualified calls in the region body get
    member-first resolution against it)."""
    best = None
    for fn in model.functions_in(path):
        lo, hi = fn.body
        if lo <= line <= hi and (best is None or
                                 lo > best.body[0]):
            best = fn
    return best.cls if best else None


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    by_name = model.by_name()

    def barrier(fn) -> bool:
        ann = fn.annotations
        return "parallel-reachability" in ann or "*" in ann

    # Hazards and callees per function, lazily.
    fn_hazards: dict[int, list[_Hazard]] = {}

    def hazards_of(fn, kinds) -> list[_Hazard]:
        key = id(fn)
        if key not in fn_hazards:
            lines = model.files[fn.path].lines
            fn_hazards[key] = _span_hazards(lines, fn.body,
                                            frozenset(("fault-hook",
                                                       "stats-mutation",
                                                       "throw")))
        return [h for h in fn_hazards[key] if h.kind in kinds]

    def walk(root_path, root_line, span, kinds, region_kind):
        """BFS from a region body through the callgraph; report the
        shortest path to each distinct hazard site."""
        lines = model.files[root_path].lines
        reported: set[tuple] = set()

        def report(hazard, via, in_path):
            site = (hazard.kind, str(in_path), hazard.line)
            if site in reported:
                return
            reported.add(site)
            chain = " -> ".join(via) if via else "(region body)"
            findings.append(Finding(
                "parallel-reachability", root_path, root_line,
                f"{hazard.detail} reachable from {region_kind} region via "
                f"{chain} at {in_path.name}:{hazard.line} — "
                + ("use ParallelFaultScope / per-thread shards"
                   if hazard.kind != "throw" else
                   "an exception escaping a parallel region is "
                   "std::terminate; hoist the check or mark the callee "
                   "analyze-safe with a justification")))

        for h in _span_hazards(lines, span, kinds):
            report(h, [], root_path)

        region_cls = _enclosing_cls(model, root_path, root_line)
        seen: set[int] = set()
        queue: list[tuple] = []
        for name, _, recv in _span_calls(lines, span):
            queue.append((name, recv, region_cls, []))
        while queue:
            name, recv, caller_cls, via = queue.pop(0)
            defs = _resolve(name, recv, caller_cls, by_name)
            if not defs or len(defs) > _MAX_OVERLOADS:
                continue
            for fn in defs:
                if id(fn) in seen:
                    continue
                seen.add(id(fn))
                if barrier(fn):
                    continue
                path_desc = via + [fn.qual]
                for h in hazards_of(fn, kinds):
                    report(h, path_desc, fn.path)
                if len(path_desc) < 12:
                    for cname, _, crecv in fn.calls:
                        queue.append((cname, crecv, fn.cls, path_desc))

    for sf in model.files.values():
        for d in sf.directives:
            if not re.search(r"#\s*pragma\s+omp\s.*\bparallel\b", d.text):
                continue
            walk(d.path, d.line, d.body,
                 frozenset(("fault-hook", "stats-mutation", "throw")),
                 "omp parallel")
        for r in sf.simd_regions:
            walk(r.path, r.line, r.body, frozenset(("throw",)),
                 "LQCD_PRAGMA_SIMD")
    return findings
