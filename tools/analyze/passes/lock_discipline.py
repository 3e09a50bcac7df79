"""lock-discipline: lock-order extraction and guarded-member inference
for the concurrent layers (src/lqcd/service/, src/lqcd/resilience/).

Two checks, both running on a per-function lock simulation that tracks
std::lock_guard / std::unique_lock / std::scoped_lock lifetimes through
brace scopes, explicit .lock()/.unlock() toggles, and cv.wait(lock)
(which returns with the lock re-held):

  lock-order   every acquisition of mutex B while mutex A is held adds
               the edge A -> B to a directed graph over class-qualified
               mutex names; any cycle (the classic AB/BA inversion) is
               reported with the acquisition sites on the cycle.

  guarded-member  a data member written under a held mutex of its class
               anywhere is inferred to be guarded by that mutex; any
               access to it in a member function of the same class with
               no lock held is reported. Constructors/destructors are
               exempt (no concurrent access before/after lifetime), as
               are member functions named `*_locked` (the suffix IS the
               caller-holds-the-lock contract), std::atomic members,
               condition variables, and the mutexes themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from tools.analyze.findings import Finding

_LOCK_DECL_RE = re.compile(
    r"std\s*::\s*(?:lock_guard|unique_lock|scoped_lock)\s*(?:<[^;>]*>)?\s+"
    r"(\w+)\s*[({]\s*([^;)}]+?)\s*[)}]")
_TOGGLE_RE = re.compile(r"\b(\w+)\s*\.\s*(lock|unlock)\s*\(\s*\)")
_WRITE_FMT = (r"(?:\+\+|--)\s*{m}\b|\b{m}\s*(?:\.\s*\w+\s*)?"
              r"(?:=[^=]|\+=|-=|\*=|/=|\+\+|--)|"
              r"\b{m}\s*\.\s*(?:push_back|push_front|pop_back|pop_front|"
              r"emplace\w*|insert|erase|clear|resize|splice|assign|swap)\s*\(")


@dataclass
class _Acq:
    mutex: str       # class-qualified, e.g. "SetupCache::mu_"
    depth: int       # brace depth at acquisition (for scope release)
    var: str         # guard variable name ("" for direct .lock())
    held: bool = True


@dataclass
class _FnLocks:
    """Per-line held-mutex sets plus the acquisition-order edges."""
    held_at: dict[int, set] = field(default_factory=dict)
    edges: list[tuple] = field(default_factory=list)  # (a, b, line)


def _qualify(cls, expr: str) -> str:
    expr = expr.split(",")[0].strip()
    expr = re.sub(r"^\*?\s*this\s*->\s*", "", expr)
    if cls is not None and re.fullmatch(r"\w+", expr) and \
            expr in cls.mutexes:
        return f"{cls.name}::{expr}"
    return expr


def _simulate(fn, cls, lines: list[str]) -> _FnLocks:
    out = _FnLocks()
    active: list[_Acq] = []
    depth = 0
    lo, hi = fn.body
    for ln in range(lo, min(hi, len(lines)) + 1):
        text = lines[ln - 1]
        # Events on this line, in column order.
        events: list[tuple] = []  # (col, kind, payload)
        for m in _LOCK_DECL_RE.finditer(text):
            events.append((m.start(), "acquire", (m.group(1), m.group(2))))
        for m in _TOGGLE_RE.finditer(text):
            events.append((m.start(), m.group(2), m.group(1)))
        # cv.wait(lk) releases inside and re-holds on return: treated as
        # continuously held for ordering purposes.
        for col, ch in enumerate(text):
            if ch == "{":
                events.append((col, "open", None))
            elif ch == "}":
                events.append((col, "close", None))
        events.sort(key=lambda e: e[0])

        # Record the held set as of the start of the line.
        out.held_at[ln] = {a.mutex for a in active if a.held}

        for _, kind, payload in events:
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
                for a in active:
                    if a.held and a.var and a.depth > depth:
                        a.held = False
                # A guard whose scope is still open stays re-lockable
                # (unique_lock::unlock(), a braced block, then lock()).
                active = [a for a in active
                          if a.held or (a.var and a.depth <= depth)]
            elif kind == "acquire":
                var, mexpr = payload
                if "defer_lock" in text or "adopt_lock" in text:
                    held = "adopt_lock" in text
                else:
                    held = True
                mutex = _qualify(cls, mexpr)
                for a in active:
                    if a.held and a.mutex != mutex:
                        out.edges.append((a.mutex, mutex, ln))
                active.append(_Acq(mutex=mutex, depth=depth, var=var,
                                   held=held))
            elif kind == "lock":
                var = payload
                hit = False
                for a in active:
                    if a.var == var:
                        if not a.held:
                            for b in active:
                                if b.held and b.mutex != a.mutex:
                                    out.edges.append((b.mutex, a.mutex, ln))
                        a.held = True
                        hit = True
                if not hit and cls is not None and var in cls.mutexes:
                    mutex = _qualify(cls, var)
                    for a in active:
                        if a.held and a.mutex != mutex:
                            out.edges.append((a.mutex, mutex, ln))
                    active.append(_Acq(mutex=mutex, depth=depth, var=""))
            elif kind == "unlock":
                var = payload
                for a in active:
                    if a.var == var or (a.var == "" and a.mutex.endswith(
                            f"::{var}")):
                        a.held = False
                active = [a for a in active if a.held or a.var]
        # Re-record including same-line acquisitions so accesses after a
        # one-line `std::lock_guard ... lock(mu_);` count as guarded.
        out.held_at[ln] |= {a.mutex for a in active if a.held}
    return out


def run(model) -> list[Finding]:
    findings: list[Finding] = []

    scopes = (model.src / "lqcd" / "service",
              model.src / "lqcd" / "resilience")
    in_scope_files = [p for p in model.files
                      if any(s in p.parents for s in scopes)]

    # Class lookup by (path, name); member functions grouped per class.
    classes = {(c.path, c.name): c for c in model.classes}

    sims: list[tuple] = []  # (fn, cls, locks)
    for path in in_scope_files:
        lines = model.files[path].lines
        for fn in model.functions_in(path):
            cls = classes.get((path, fn.cls)) if fn.cls else None
            if cls is None and fn.cls:
                # Out-of-line method of a class defined in a header of
                # the same model (e.g. SolverService::dispatch in the
                # .cpp): match by name across files.
                for (_, name), c in classes.items():
                    if name == fn.cls:
                        cls = c
                        break
            sims.append((fn, cls, _simulate(fn, cls, lines)))

    _check_lock_order(sims, findings)
    _check_guarded_members(model, sims, findings)
    return findings


def _check_lock_order(sims, findings) -> None:
    edges: dict[tuple, tuple] = {}  # (a, b) -> (path, line, fnqual)
    for fn, _, locks in sims:
        for a, b, ln in locks.edges:
            edges.setdefault((a, b), (fn.path, ln, fn.qual))
    graph: dict[str, set] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)

    # Cycle detection over the acquisition graph.
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    stack: list[str] = []
    cycles: list[list[str]] = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            c = color.get(nxt, WHITE)
            if c == GRAY:
                cycles.append(stack[stack.index(nxt):] + [nxt])
            elif c == WHITE:
                dfs(nxt)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color.get(node, WHITE) == WHITE:
            dfs(node)

    seen_cycles: set[frozenset] = set()
    for cyc in cycles:
        key = frozenset(cyc)
        if key in seen_cycles:
            continue
        seen_cycles.add(key)
        sites = []
        for a, b in zip(cyc, cyc[1:]):
            path, ln, fnqual = edges[(a, b)]
            sites.append(f"{a} -> {b} in {fnqual} ({path.name}:{ln})")
        path, ln, _ = edges[(cyc[0], cyc[1])]
        findings.append(Finding(
            "lock-discipline", path, ln,
            "lock-order inversion: " + "; ".join(sites) +
            " — concurrent callers taking these paths deadlock"))


def _check_guarded_members(model, sims, findings) -> None:
    # 1) Infer guarded members: written under a held mutex of their
    #    class. Guarded set is per (class path, class name, member).
    guarded: dict[tuple, str] = {}  # (clskey, member) -> mutex
    for fn, cls, locks in sims:
        if cls is None or _is_ctor_dtor(fn):
            continue
        lines = model.files[fn.path].lines
        clskey = (cls.path, cls.name)
        candidates = cls.members - cls.mutexes - cls.cvs - cls.atomics
        for member in candidates:
            wre = re.compile(_WRITE_FMT.format(m=re.escape(member)))
            lo, hi = fn.body
            for ln in range(lo, min(hi, len(lines)) + 1):
                if not wre.search(lines[ln - 1]):
                    continue
                held = locks.held_at.get(ln, set())
                own = [h for h in held
                       if h.startswith(f"{cls.name}::")]
                if own:
                    guarded.setdefault((clskey, member), own[0])

    # 2) Any access to a guarded member with no lock held is a finding.
    #    A `*_locked` name documents the caller-holds-the-lock contract
    #    (the private tail of a public locking method) and is exempt.
    for fn, cls, locks in sims:
        if cls is None or _is_ctor_dtor(fn) or fn.name.endswith("_locked"):
            continue
        lines = model.files[fn.path].lines
        clskey = (cls.path, cls.name)
        for (gkey, member), mutex in guarded.items():
            if gkey != clskey:
                continue
            are = re.compile(rf"(?<![\w.>]){re.escape(member)}\b")
            lo, hi = fn.body
            for ln in range(lo, min(hi, len(lines)) + 1):
                if not are.search(lines[ln - 1]):
                    continue
                if locks.held_at.get(ln, set()):
                    continue
                findings.append(Finding(
                    "lock-discipline", fn.path, ln,
                    f"member '{member}' of {cls.name} is written under "
                    f"{mutex} elsewhere but accessed here in "
                    f"{fn.qual} with no lock held"))


def _is_ctor_dtor(fn) -> bool:
    return fn.cls is not None and fn.name in (fn.cls, f"~{fn.cls}")
