"""Self-contained C++ micro-frontend.

Builds the ProjectModel the passes consume — source files with
comment/string-stripped text, quoted includes, class spans with member
inventories, function definitions with body spans and call lists,
OpenMP directives with their region spans — using a tokenizer and a
brace-scope tree, no compiler needed.

This is deliberately an over-approximating parser: template bodies,
both branches of preprocessor conditionals, and lambda bodies are all
scanned. Passes that walk the callgraph resolve calls by base name to
every project definition of that name — conservative in the direction
that surfaces findings.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|::|->|\+\+|--|<<|>>|<=|>=|==|!=|\|\||&&|"
    r"[-+*/%&|^!~<>=?.,;:{}()\[\]#\\@]")

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "new", "delete", "do", "else", "case", "default", "goto", "throw",
    "static_assert", "decltype", "alignas", "operator", "template",
    "typename", "using", "namespace", "class", "struct", "enum", "union",
    "public", "private", "protected", "const", "constexpr", "static",
    "inline", "virtual", "explicit", "friend", "typedef", "noexcept",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
}

# A call, optionally with explicit template arguments (`f<1>(`,
# `g<Mu, true>(`, `h<V<T>>(`: one nesting level).
CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:<(?:[^<>();{}]|<[^<>();{}]*>)*>\s*)?\(")

ANNOTATION_RE = re.compile(
    r"//\s*analyze-safe\(([a-z*-]+)\)\s*:\s*(\S.*)")


@dataclass
class Directive:
    """One `#pragma omp ...` directive (or LQCD_PRAGMA_SIMD use)."""
    path: Path
    line: int            # 1-based, first line of the directive
    text: str            # continuation-joined, whitespace-normalized
    body: tuple[int, int]  # 1-based inclusive span of the region body


@dataclass
class FunctionInfo:
    name: str
    cls: str | None      # enclosing or qualifying class, if any
    path: Path
    line: int
    body: tuple[int, int]
    # (callee base name, line, receiver identifier or "")
    calls: list[tuple[str, int, str]] = field(default_factory=list)
    annotations: dict[str, str] = field(default_factory=dict)
    static: bool = False  # declared `static` (a static member function)

    @property
    def qual(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    name: str
    path: Path
    line: int
    span: tuple[int, int]          # 1-based inclusive, including braces
    statements: list[tuple[int, str]] = field(default_factory=list)
    members: set[str] = field(default_factory=set)
    mutexes: set[str] = field(default_factory=set)
    cvs: set[str] = field(default_factory=set)
    atomics: set[str] = field(default_factory=set)


@dataclass
class SourceFile:
    path: Path
    raw_lines: list[str]
    lines: list[str]               # comment/string-stripped, same count
    directives: list[Directive] = field(default_factory=list)
    simd_regions: list[Directive] = field(default_factory=list)
    # (1-based line, path) of every `#include "path"` outside comments
    includes: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class ProjectModel:
    root: Path
    files: dict[Path, SourceFile] = field(default_factory=dict)
    functions: list[FunctionInfo] = field(default_factory=list)
    classes: list[ClassInfo] = field(default_factory=list)
    compile_db: list[dict] = field(default_factory=list)

    @property
    def src(self) -> Path:
        """The analysis scope: every source under ROOT/src."""
        return self.root / "src"

    def by_name(self) -> dict[str, list[FunctionInfo]]:
        out: dict[str, list[FunctionInfo]] = {}
        for f in self.functions:
            out.setdefault(f.name, []).append(f)
        return out

    def functions_in(self, path: Path) -> list[FunctionInfo]:
        return [f for f in self.functions if f.path == path]


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string/char literals,
    preserving line structure so reported line numbers stay correct."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _line_starts(text: str) -> list[int]:
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def _line_of(starts: list[int], offset: int) -> int:
    return bisect.bisect_right(starts, offset)  # 1-based


class _Tok:
    __slots__ = ("s", "pos", "line")

    def __init__(self, s: str, pos: int, line: int):
        self.s, self.pos, self.line = s, pos, line


def _tokenize(text: str) -> list[_Tok]:
    starts = _line_starts(text)
    return [_Tok(m.group(0), m.start(), _line_of(starts, m.start()))
            for m in TOKEN_RE.finditer(text)]


def _match_braces(toks: list[_Tok]) -> dict[int, int]:
    """Token-index map from every '{' to its matching '}'."""
    pairs: dict[int, int] = {}
    stack: list[int] = []
    for i, t in enumerate(toks):
        if t.s == "{":
            stack.append(i)
        elif t.s == "}" and stack:
            pairs[stack.pop()] = i
    return pairs


def _body_after(lines: list[str], start: int, max_lines: int = 400
                ) -> tuple[int, int]:
    """1-based inclusive line span of the statement following line index
    `start` (0-based, a pragma line): the brace-matched block, or up to
    the first top-level ';' (a braceless loop body)."""
    depth, paren, opened = 0, 0, False
    first = start + 1
    i = first
    while i < len(lines) and i <= start + max_lines:
        for ch in lines[i]:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth <= 0:
                    return (first + 1, i + 1)
            elif ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            elif ch == ";" and not opened and depth == 0 and paren == 0:
                return (first + 1, i + 1)
        i += 1
    return (first + 1, min(i, len(lines)))


_FN_TRAILERS = {"const", "noexcept", "override", "final", "mutable", "&",
                "&&", "throw", "->", "try", "requires"}

_MUTEX_DECL_RE = re.compile(
    r"(?:mutable\s+)?std\s*::\s*(?:recursive_|timed_|shared_)*mutex\s+"
    r"(\w+)\s*(?:;|=|\{)")
_CV_DECL_RE = re.compile(
    r"std\s*::\s*condition_variable(?:_any)?\s+(\w+)\s*(?:;|=|\{)")
_ATOMIC_DECL_RE = re.compile(
    r"std\s*::\s*atomic(?:_\w+|\s*<[^;]*>)?\s+(\w+)\s*(?:;|=|\{)")
_MEMBER_NAME_RE = re.compile(r"\b([A-Za-z]\w*_)\s*(?:;|=[^=]|\{|\[)")


_INCLUDE_RE = re.compile(r'\s*#\s*include\s*"([^"]*)"')


def read_source(path: Path) -> SourceFile:
    """One file's per-line layer: stripped lines, quoted includes and
    directives, without the function/class parse."""
    text = path.read_text()
    raw_lines = text.splitlines()
    lines = strip_comments(text).splitlines()
    while len(lines) < len(raw_lines):
        lines.append("")
    sf = SourceFile(path=path, raw_lines=raw_lines, lines=lines)

    # Stripping blanks the quoted path, so find the directive in the
    # stripped line (not commented out) and read the path from the raw one.
    for ln, line in enumerate(lines, 1):
        if _INCLUDE_RE.match(line):
            m = _INCLUDE_RE.match(raw_lines[ln - 1])
            if m:
                sf.includes.append((ln, m.group(1)))

    _collect_directives(sf)
    return sf


def _parse_file(path: Path) -> tuple[SourceFile, list[FunctionInfo],
                                     list[ClassInfo]]:
    sf = read_source(path)
    toks = _tokenize("\n".join(sf.lines))
    braces = _match_braces(toks)
    classes = _collect_classes(path, toks, braces, sf.lines)
    functions = _collect_functions(path, toks, braces, classes, sf.lines,
                                   sf.raw_lines)
    return sf, functions, classes


def _collect_directives(sf: SourceFile) -> None:
    lines = sf.lines
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if re.match(r"#\s*pragma\s+omp\b", stripped):
            joined = [stripped]
            end = i
            while lines[end].rstrip().endswith("\\") and end + 1 < len(lines):
                end += 1
                joined.append(lines[end].strip())
            text = " ".join(p.rstrip("\\").strip() for p in joined)
            text = re.sub(r"\s+", " ", text)
            sf.directives.append(Directive(
                path=sf.path, line=i + 1, text=text,
                body=_body_after(lines, end)))
            i = end + 1
            continue
        if ("LQCD_PRAGMA_SIMD" in lines[i]
                and "define" not in lines[i]):
            sf.simd_regions.append(Directive(
                path=sf.path, line=i + 1, text="LQCD_PRAGMA_SIMD",
                body=_body_after(lines, i, max_lines=80)))
        i += 1


def _collect_classes(path: Path, toks: list[_Tok], braces: dict[int, int],
                     lines: list[str]) -> list[ClassInfo]:
    classes: list[ClassInfo] = []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.s not in ("class", "struct"):
            continue
        if i > 0 and toks[i - 1].s == "enum":
            continue
        if i + 1 >= n or not re.match(r"[A-Za-z_]", toks[i + 1].s):
            continue
        name = toks[i + 1].s
        # Find the opening '{' of the class body before any ';' (forward
        # declarations) or '(' (e.g. `struct X x(...)` — not a def).
        j = i + 2
        while j < n and toks[j].s not in ("{", ";", "(", ")", "}"):
            j += 1
        if j >= n or toks[j].s != "{" or j not in braces:
            continue
        close = braces[j]
        cls = ClassInfo(name=name, path=path, line=t.line,
                        span=(t.line, toks[close].line))
        _collect_class_statements(cls, toks, braces, j, close)
        classes.append(cls)
    return classes


def _collect_class_statements(cls: ClassInfo, toks: list[_Tok],
                              braces: dict[int, int], open_i: int,
                              close_i: int) -> None:
    """Class-scope declaration statements: everything at depth
    class+1, with nested braced bodies (member functions, nested
    classes, brace initializers) skipped."""
    stmt: list[str] = []
    stmt_line = 0
    i = open_i + 1
    while i < close_i:
        t = toks[i]
        if t.s == "{":
            # A member-function body, nested class, or brace init —
            # skip it wholesale; the statement ends here for bodies.
            i = braces.get(i, close_i) + 1
            if stmt:
                cls.statements.append((stmt_line, " ".join(stmt)))
                stmt = []
            continue
        if t.s == ";":
            if stmt:
                cls.statements.append((stmt_line, " ".join(stmt) + " ;"))
                stmt = []
            i += 1
            continue
        if not stmt:
            stmt_line = t.line
        stmt.append(t.s)
        i += 1

    for _, text in cls.statements:
        # Brace initializers are flushed out of the statement text, so
        # re-terminate before matching declaration patterns.
        text = text if text.rstrip().endswith(";") else text + " ;"
        for regex, bucket in ((_MUTEX_DECL_RE, cls.mutexes),
                              (_CV_DECL_RE, cls.cvs),
                              (_ATOMIC_DECL_RE, cls.atomics)):
            m = regex.search(text)
            if m:
                bucket.add(m.group(1))
        m = _MEMBER_NAME_RE.search(text)
        if m:
            cls.members.add(m.group(1))


def _collect_functions(path: Path, toks: list[_Tok], braces: dict[int, int],
                       classes: list[ClassInfo], lines: list[str],
                       raw_lines: list[str]) -> list[FunctionInfo]:
    functions: list[FunctionInfo] = []
    n = len(toks)
    # Paren matching (token indices).
    paren_pairs: dict[int, int] = {}
    pstack: list[int] = []
    for i, t in enumerate(toks):
        if t.s == "(":
            pstack.append(i)
        elif t.s == ")" and pstack:
            paren_pairs[pstack.pop()] = i

    annotations = _collect_annotations(raw_lines)

    for i, t in enumerate(toks):
        if t.s != "(" or i == 0:
            continue
        name_tok = toks[i - 1]
        if not re.match(r"[A-Za-z_]", name_tok.s) or name_tok.s in KEYWORDS:
            continue
        if i >= 2 and toks[i - 2].s in ("new", "operator", "#", "return",
                                        "case", "throw", "goto", "=", ",",
                                        "(", "[", "&&", "||", "!", "<<",
                                        ">>", "+", "-", "/", "?", ":"):
            continue
        close = paren_pairs.get(i)
        if close is None:
            continue
        body_open = _find_body_open(toks, paren_pairs, braces, close, n)
        if body_open is None:
            continue
        body_close = braces.get(body_open)
        if body_close is None:
            continue
        cls_name = _qualifying_class(toks, i - 1, name_tok.line, classes)
        fn = FunctionInfo(
            name=name_tok.s, cls=cls_name, path=path, line=name_tok.line,
            body=(toks[body_open].line, toks[body_close].line),
            static=_declared_static(toks, i - 1))
        fn.annotations = annotations_for(fn.line, raw_lines, annotations)
        _collect_calls(fn, lines)
        functions.append(fn)
    return functions


def _find_body_open(toks: list[_Tok], paren_pairs: dict[int, int],
                    braces: dict[int, int], close: int, n: int
                    ) -> int | None:
    """From the ')' ending a parameter list, walk the legal trailers
    (const/noexcept/ctor-init-list/trailing-return) to the body '{'.
    Returns None when this is not a function definition."""
    j = close + 1
    budget = 400
    in_init_list = False
    while j < n and budget > 0:
        budget -= 1
        s = toks[j].s
        if s == "{":
            if in_init_list and j > 0 and \
                    re.match(r"[A-Za-z_]", toks[j - 1].s) and \
                    toks[j - 1].s not in KEYWORDS:
                # `member{init}` inside a ctor init list — skip it; the
                # body '{' follows a ')' or '}' instead.
                j = braces.get(j, n) + 1
                continue
            return j
        if s == ";" or s == "=":
            return None  # declaration / deleted / pure virtual
        if s == ":":
            in_init_list = True
            j += 1
            continue
        if in_init_list:
            if s == "(":
                j = paren_pairs.get(j, n) + 1
                continue
            j += 1
            continue
        if s in _FN_TRAILERS or re.match(r"[A-Za-z_]", s) or s in ("::",
                                                                   "<", ">",
                                                                   ",", "*",
                                                                   "&"):
            if s in ("noexcept", "throw", "requires") and j + 1 < n and \
                    toks[j + 1].s == "(":
                j = paren_pairs.get(j + 1, n) + 1
                continue
            j += 1
            continue
        return None
    return None


def _declared_static(toks: list[_Tok], name_i: int) -> bool:
    """True when the declaration naming toks[name_i] carries `static`:
    walk back to the previous statement boundary or access specifier."""
    j = name_i - 1
    while j >= 0 and toks[j].s not in (";", "{", "}"):
        if toks[j].s == ":" and j > 0 and \
                toks[j - 1].s in ("public", "private", "protected"):
            break
        if toks[j].s == "static":
            return True
        j -= 1
    return False


def _qualifying_class(toks: list[_Tok], name_i: int, line: int,
                      classes: list[ClassInfo]) -> str | None:
    # Out-of-line `Cls::name(...)`.
    if name_i >= 2 and toks[name_i - 1].s == "::" and \
            re.match(r"[A-Za-z_]", toks[name_i - 2].s):
        return toks[name_i - 2].s
    # In-class definition: the innermost class span containing the line.
    best: ClassInfo | None = None
    for c in classes:
        if c.span[0] <= line <= c.span[1]:
            if best is None or (c.span[1] - c.span[0]) < \
                    (best.span[1] - best.span[0]):
                best = c
    return best.name if best else None


_RECEIVER_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*$")
_QUALIFIER_RE = re.compile(r"([A-Za-z_]\w*)\s*::\s*$")


def call_receiver(text: str, name_start: int) -> str:
    """Receiver of a member call: the identifier before `.` / `->`,
    '<expr>' for a complex receiver (`blocks[chi]->apply(...)`), the
    innermost qualifier with its `::` for a qualified call (`V::sub(...)`
    gives 'V::'), or '' when the call is genuinely unqualified. The
    distinction matters: only unqualified calls get member-first (this->)
    resolution."""
    m = _QUALIFIER_RE.search(text[:name_start])
    if m:
        return m.group(1) + "::"
    prefix = text[:name_start].rstrip()
    if not prefix.endswith((".", "->")):
        return ""
    m = _RECEIVER_RE.search(text[:name_start])
    return m.group(1) if m else "<expr>"


def _collect_calls(fn: FunctionInfo, lines: list[str]) -> None:
    lo, hi = fn.body
    for ln in range(lo, min(hi, len(lines)) + 1):
        text = lines[ln - 1]
        for m in CALL_RE.finditer(text):
            name = m.group(1)
            if name in KEYWORDS:
                continue
            fn.calls.append((name, ln, call_receiver(text, m.start(1))))


def _collect_annotations(raw_lines: list[str]) -> dict[int, tuple[str, str]]:
    """`// analyze-safe(<pass>): <justification>` markers, by line."""
    out: dict[int, tuple[str, str]] = {}
    for ln, line in enumerate(raw_lines, 1):
        m = ANNOTATION_RE.search(line)
        if m:
            out[ln] = (m.group(1), m.group(2).strip())
    return out


def annotations_for(fn_line: int, raw_lines: list[str],
                    annotations: dict[int, tuple[str, str]]
                    ) -> dict[str, str]:
    """Annotations attached to the definition at `fn_line`: on the line
    itself, or anywhere in the contiguous comment/blank block directly
    above it (a marker inside a multi-line doc comment still binds)."""
    out: dict[str, str] = {}
    if fn_line in annotations:
        p, just = annotations[fn_line]
        out[p] = just
    ln = fn_line - 1
    while ln >= 1 and fn_line - ln <= 12:
        stripped = raw_lines[ln - 1].strip() if ln - 1 < len(raw_lines) \
            else ""
        if not (stripped == "" or stripped.startswith("//") or
                stripped.startswith("*") or stripped.startswith("/*")):
            break
        if ln in annotations:
            p, just = annotations[ln]
            out.setdefault(p, just)
        ln -= 1
    return out


def load_compile_db(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        db = json.load(f)
    if not isinstance(db, list):
        raise ValueError(f"{path}: compile_commands.json must be a list")
    return db


def tu_command(entry: dict) -> str:
    if "command" in entry:
        return entry["command"]
    return " ".join(entry.get("arguments", []))


def tu_path(entry: dict) -> Path:
    p = Path(entry["file"])
    if not p.is_absolute():
        p = Path(entry.get("directory", ".")) / p
    return p.resolve()


def build_model(root: Path, compile_db: list[dict]) -> ProjectModel:
    """Project files = every header and .cpp under root/src plus any
    other TU the compile DB lists there. Tests and benches stay out of
    the model: they deliberately poke serial APIs."""
    model = ProjectModel(root=root.resolve(), compile_db=compile_db)
    paths = [p for p in map(tu_path, compile_db) if model.src in p.parents]
    paths.extend(sorted(model.src.rglob("*.h")))
    paths.extend(sorted(model.src.rglob("*.cpp")))
    for p in paths:
        p = p.resolve()
        if p in model.files or not p.exists():
            continue
        sf, fns, classes = _parse_file(p)
        model.files[p] = sf
        model.functions.extend(fns)
        model.classes.extend(classes)
    return model
