"""Variability-aware source scanning, the one reader of C structure.

For every unit the scanner builds the tree of preprocessor fragments
(#if/#ifdef/#ifndef/#elif/#else/#endif constructs), assigns every source
line to exactly one fragment (the innermost one for ordinary lines, the
enclosing one for the chain directives themselves), and reads in the same
pass the function spans and what the build compiles of each line
(``_UnitCode``). The build parses each body with ``_parse_statements`` and
lexes it with ``_scan_expression``; a fragment's features, computed when
first read, come from the same parse of its lines inside function bodies, so
they are exactly what the build compiles, ``has_else`` included.

The C subset read: ``{`` must end a function header (``name(params) {`` at
brace depth 0, after any return type) and an ``if`` line. Braces count outside
strings and ``//`` comments; char literals, ``/* */``, ``while`` and ``for``
blocks are not read.

Fragment conditions are conjoined down the nesting, and #elif/#else branches
carry the negations of their earlier siblings, so any two branches of one
chain are mutually unsatisfiable and every child implies its parent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

from .binmodel import KeyInstruction, KeyKind
from .conditions import (
    TRUE,
    Condition,
    DefinedAtom,
    conj,
    neg,
    parse_expression,
    to_text,
)
from .errors import MapGapError, SchemaError

__all__ = [
    "StringLit",
    "IntConst",
    "CallSig",
    "BranchShape",
    "Fragment",
    "FunctionSpan",
    "UnitVariability",
    "SourceUnit",
    "SourceTree",
    "scan_unit",
    "scan_tree",
    "ConfigFlag",
    "ConfigMap",
    "resolve_flags",
]


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class CallSig:
    name: str


@dataclass(frozen=True)
class BranchShape:
    """An if-statement: the features inside its condition plus whether an
    else branch exists."""

    condition_features: tuple = ()
    has_else: bool = False


Feature = StringLit | IntConst | CallSig | BranchShape


@dataclass(frozen=True)
class _UnitCode:
    """What the build compiles of a unit. Per line: ``text``, its ``//`` comment
    cut, blank for a directive or outside function bodies, and ``body``, the
    header line of the body holding it, else 0. ``errors``: line -> message."""

    text: list[str]
    body: list[int]
    errors: dict[int, str]


@dataclass
class Fragment:
    """One preprocessor fragment of a unit: its presence condition, the
    lines it owns and their features. ``scan_unit`` builds the tree and hands
    each fragment its unit's ``_UnitCode``; ``features`` is computed on first
    read, since the pipeline reads only the features of conditional
    fragments and of the roots of optional units."""

    id: str
    unit: str
    condition: Condition
    parent: str | None
    span: tuple[int, int]
    lines: list[int] = field(default_factory=list)
    code: _UnitCode | None = field(default=None, repr=False, compare=False)

    @cached_property
    def features(self) -> tuple[Feature, ...]:
        """The features of what the build compiles from the fragment's lines,
        kept once read (``()`` without ``code``); assigning replaces them."""
        return () if self.code is None else _fragment_features(self, self.code)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def condition_text(self) -> str:
        return to_text(self.condition)


@dataclass
class FunctionSpan:
    name: str
    start: int
    end: int


@dataclass
class UnitVariability:
    unit: str
    fragments: list[Fragment]
    functions: dict[str, FunctionSpan]
    code: _UnitCode

    def fragment_map(self) -> dict[str, Fragment]:
        return {f.id: f for f in self.fragments}

    def conditional_fragments(self) -> list[Fragment]:
        return [f for f in self.fragments if not f.is_root]


@dataclass(frozen=True)
class SourceUnit:
    name: str
    text: str


@dataclass(frozen=True)
class SourceTree:
    """The source units of one program. A tree cannot change, so each unit
    is scanned once per tree; to change a unit's text, build a new tree."""

    units: tuple[SourceUnit, ...]
    # unit name -> scan; see ``scan``.
    _scans: dict[str, UnitVariability] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The tree keeps a tuple of its own, never the caller's list.
        object.__setattr__(self, "units", tuple(self.units))
        names = [u.name for u in self.units]
        if len(set(names)) != len(names):
            repeated = next(n for n in names if names.count(n) > 1)
            raise SchemaError(f"source tree lists unit {repeated!r} twice")

    def unit_map(self) -> dict[str, SourceUnit]:
        return {u.name: u for u in self.units}

    def scan(self, unit: SourceUnit) -> UnitVariability:
        """``scan_unit`` of one unit of this tree, run once per name.
        Callers treat it as read-only."""
        if unit.name not in self._scans:
            self._scans[unit.name] = scan_unit(unit.name, unit.text)
        return self._scans[unit.name]

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> SourceTree:
        return cls(units=tuple(SourceUnit(name=k, text=v) for k, v in sorted(mapping.items())))


_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\b\s*(.*?)\s*$")
_CHAIN_DIRECTIVES = {"if", "ifdef", "ifndef", "elif", "else", "endif"}


def _guard_of(directive: str, rest: str, where: str) -> Condition:
    if directive == "if":
        return parse_expression(rest)
    if not rest:
        raise SchemaError(f"{where}: #{directive} needs a macro name")
    atom = DefinedAtom(rest.split()[0])
    return atom if directive == "ifdef" else neg(atom)


@dataclass
class _OpenChain:
    parent: Fragment
    guards: list[Condition]
    current: Fragment
    saw_else: bool = False


def scan_unit(name: str, text: str) -> UnitVariability:
    """The fragment tree, ``_UnitCode`` and function spans of one unit. A header
    (``_FUNC_HEADER_RE``) at brace depth 0 opens a function, and the line where
    the depth is back to 0 closes it; one still open closes past the end."""
    lines = text.splitlines()
    code = _UnitCode(text=[""] * len(lines), body=[0] * len(lines), errors={})
    functions: dict[str, FunctionSpan] = {}
    fname, header, depth = "", 0, 0  # open function, its header line (0: none)
    root = Fragment(
        id=f"{name}#0",
        unit=name,
        condition=TRUE,
        parent=None,
        span=(1, len(lines)),
        code=code,
    )
    fragments: list[Fragment] = [root]
    chains: list[_OpenChain] = []

    def innermost() -> Fragment:
        return chains[-1].current if chains else root

    def new_fragment(parent: Fragment, guard: Condition, start: int) -> Fragment:
        frag = Fragment(
            id=f"{name}#{len(fragments)}",
            unit=name,
            condition=conj([parent.condition, guard]),
            parent=parent.id,
            span=(start, start - 1),
            code=code,
        )
        fragments.append(frag)
        return frag

    for lineno, raw in enumerate(lines, start=1):
        is_directive = raw.lstrip().startswith("#")
        m = _DIRECTIVE_RE.match(raw) if is_directive else None
        directive = m.group(1) if m else None
        if is_directive:
            if directive == "error":
                code.errors[lineno] = m.group(2) or "#error"
            code.body[lineno - 1] = header
        else:
            cut = _strip_comment(raw)
            if not header and depth == 0:
                h = _FUNC_HEADER_RE.search(cut)
                if h and h.group(1) not in _KEYWORDS:
                    fname, header = h.group(1), lineno
            if "{" in cut or "}" in cut:
                depth += _brace_balance(cut)
            if depth <= 0:
                if header:
                    functions[fname] = FunctionSpan(name=fname, start=header, end=lineno)
                depth = header = 0
            elif header and lineno > header:
                code.text[lineno - 1], code.body[lineno - 1] = cut, header

        if directive not in _CHAIN_DIRECTIVES:
            frag = innermost()
            frag.lines.append(lineno)
            frag.span = (frag.span[0], max(frag.span[1], lineno))
            continue

        where = f"{name}:{lineno}"
        if directive in ("if", "ifdef", "ifndef"):
            parent = innermost()
            parent.lines.append(lineno)
            guard = _guard_of(directive, m.group(2), where)
            chains.append(_OpenChain(parent, [guard], new_fragment(parent, guard, lineno + 1)))
            continue
        if not chains:
            raise SchemaError(f"{where}: #{directive} without #if")
        chain = chains[-1]
        chain.parent.lines.append(lineno)
        if directive == "endif":
            chains.pop()
            continue
        if chain.saw_else:
            raise SchemaError(f"{where}: #{directive} after #else")
        local = [neg(g) for g in chain.guards]
        if directive == "elif":
            local.append(_guard_of("if", m.group(2), where))
            chain.guards.append(local[-1])
        else:
            chain.saw_else = True
        chain.current = new_fragment(chain.parent, conj(local), lineno + 1)

    if chains:
        raise SchemaError(f"{name}: unterminated #if (opened near line {chains[-1].current.span[0] - 1})")
    if header:
        functions[fname] = FunctionSpan(name=fname, start=header, end=len(lines) + 1)

    return UnitVariability(unit=name, fragments=fragments, functions=functions, code=code)


def scan_tree(tree: SourceTree) -> dict[str, UnitVariability]:
    return {u.name: tree.scan(u) for u in tree.units}


_KEYWORDS = {"if", "else", "while", "for", "return", "switch", "sizeof"}
_IF_RE = re.compile(r"^\s*if\s*\((.*)\)\s*\{\s*$")
# The closing line of a then arm that opens an ``else if``: the build
# compiles its condition as a nested if.
_ELSE_IF_RE = re.compile(r"^\s*\}\s*else\s+if\s*\((.*)\)\s*\{\s*$")
_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F]+|[\d.]+")
_WORD_RE = re.compile(r"\w+")
_STRING_BODY_RE = re.compile(r'[^"\\]*(?:\\.?[^"\\]*)*')


def _string_end(text: str, i: int) -> int:
    """The index of the first unescaped ``"`` after ``text[i]``, which
    closes the string literal opened there; ``len(text)`` if there is none."""
    return _STRING_BODY_RE.match(text, i + 1).end()


def _strip_comment(line: str) -> str:
    """The line up to its first ``//`` outside a string literal."""
    i = 0
    while (cut := line.find("//", i)) >= 0:
        quote = line.find('"', i, cut)
        if quote < 0:
            return line[:cut]
        i = _string_end(line, quote) + 1
    return line


def _scan_expression(text: str, out: list[KeyInstruction]) -> None:
    """Emit key instructions for one expression, left to right, arguments
    before their call."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            j = _string_end(text, i)
            out.append(KeyInstruction(KeyKind.STRING_REF, operand=text[i + 1 : j]))
            i = j + 1
            continue
        if ch.isdecimal():
            token = _NUMBER_RE.match(text, i).group()
            if "." not in token:
                value = int(token, 16) if token[:2] in ("0x", "0X") else int(token)
                out.append(KeyInstruction(KeyKind.CONST_REF, operand=str(value)))
            i += len(token)
            continue
        if ch.isalpha() or ch == "_":
            j = _WORD_RE.match(text, i).end()
            ident = text[i:j]
            k = j
            while k < n and text[k] in " \t":
                k += 1
            if k < n and text[k] == "(" and ident not in _KEYWORDS:
                depth = 0
                m = k
                while m < n:
                    if text[m] == '"':
                        m = _string_end(text, m)
                    elif text[m] == "(":
                        depth += 1
                    elif text[m] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    m += 1
                _scan_expression(text[k + 1 : m], out)
                out.append(KeyInstruction(KeyKind.CALL, operand=ident))
                i = m + 1
                continue
            i = j
            continue
        i += 1


def _text_features(text: str) -> list[Feature]:
    """The features of the key instructions the build emits for ``text``."""
    keyins: list[KeyInstruction] = []
    _scan_expression(text, keyins)
    return [
        StringLit(ki.operand) if ki.kind is KeyKind.STRING_REF
        else CallSig(ki.operand) if ki.kind is KeyKind.CALL
        else IntConst(int(ki.operand))
        for ki in keyins
    ]


def _brace_balance(text: str) -> int:
    """The count of ``{`` less the count of ``}`` outside string literals."""
    balance = i = 0
    while (quote := text.find('"', i)) >= 0:
        balance += text.count("{", i, quote) - text.count("}", i, quote)
        i = _string_end(text, quote) + 1
    return balance + text.count("{", i) - text.count("}", i)


_FUNC_HEADER_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(([^)]*)\)\s*\{\s*$")


@dataclass
class _IfStmt:
    condition: str
    then_body: list
    else_body: list | None


def _parse_statements(lines: list[str], i: int, stop_at_brace: bool) -> tuple[list, int]:
    """The statements (``_IfStmt`` or a simple statement's text) from line
    ``i`` of a body, up to the first ``}`` line if ``stop_at_brace``."""
    stmts: list = []
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("}") and stop_at_brace:
            return stmts, i
        if m := _IF_RE.match(stripped):
            stmt, i = _parse_if(lines, i + 1, m.group(1))
            stmts.append(stmt)
            continue
        if stripped and not stripped.startswith("}"):
            stmts.append(stripped.rstrip(";"))
        i += 1
    return stmts, i


def _parse_if(lines: list[str], i: int, condition: str) -> tuple[_IfStmt, int]:
    """The if statement of ``condition`` whose then arm starts at line ``i``,
    and the index past its closing brace. A closing ``} else if (c) {``
    makes the else arm one nested ``if (c)``, whose own closing brace ends
    the chain."""
    then_body, i = _parse_statements(lines, i, stop_at_brace=True)
    closing = lines[i].strip() if i < len(lines) else "}"
    if m := _ELSE_IF_RE.match(closing):
        nested, i = _parse_if(lines, i + 1, m.group(1))
        return _IfStmt(condition, then_body, [nested]), i
    else_body = None
    if "else" in closing:
        else_body, i = _parse_statements(lines, i + 1, stop_at_brace=True)
    return _IfStmt(condition, then_body, else_body), i + 1


def _statement_features(stmts: list, out: list[Feature]) -> None:
    """Append the features of ``stmts``: an if's shape, condition, then arms."""
    for stmt in stmts:
        if isinstance(stmt, _IfStmt):
            condition = _text_features(stmt.condition)
            out.append(BranchShape(tuple(condition), stmt.else_body is not None))
            out.extend(condition)
            _statement_features(stmt.then_body, out)
            _statement_features(stmt.else_body or [], out)
        else:
            out.extend(_text_features(stmt))


def _fragment_features(frag: Fragment, code: _UnitCode) -> tuple[Feature, ...]:
    """The features of the fragment's lines in each body, parsed as the build does."""
    feats: list[Feature] = []
    for header, body in groupby(frag.lines, key=lambda ln: code.body[ln - 1]):
        if header:
            stmts, _ = _parse_statements([code.text[ln - 1] for ln in body], 0, stop_at_brace=False)
            _statement_features(stmts, feats)
    return tuple(feats)


@dataclass
class ConfigFlag:
    name: str
    defines: tuple[str, ...] = ()
    units: tuple[str, ...] = ()


@dataclass
class ConfigMap:
    """Mapping from user-facing configuration flags to macros and optional
    compilation units.

    Text format, one flag per line, '#' comments allowed:

        with_cache : define USE_CACHE, define CACHE_STATS
        with_net   : define USE_NET, unit net.c
    """

    flags: list[ConfigFlag] = field(default_factory=list)

    def _lookup(self, flag_names) -> list[ConfigFlag]:
        by_name = {f.name: f for f in self.flags}
        try:
            return [by_name[name] for name in flag_names]
        except KeyError as exc:
            raise MapGapError(f"unknown flag {exc.args[0]!r}") from None

    def macros_for(self, flag_names) -> set[str]:
        return {m for flag in self._lookup(flag_names) for m in flag.defines}

    def units_for(self, flag_names) -> set[str]:
        return {u for flag in self._lookup(flag_names) for u in flag.units}

    @classmethod
    def parse(cls, text: str) -> ConfigMap:
        flags: list[ConfigFlag] = []
        seen: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise SchemaError(f"config map line {lineno}: missing ':'")
            name, _, rhs = line.partition(":")
            name = name.strip()
            if not name:
                raise SchemaError(f"config map line {lineno}: empty flag name")
            if name in seen:
                raise SchemaError(
                    f"config map line {lineno}: flag {name!r} already defined on line {seen[name]}"
                )
            seen[name] = lineno
            defines: list[str] = []
            units: list[str] = []
            for part in rhs.split(","):
                part = part.strip()
                if not part:
                    continue
                kind, _, value = part.partition(" ")
                value = value.strip()
                if kind == "define" and value:
                    defines.append(value)
                elif kind == "unit" and value:
                    units.append(value)
                else:
                    raise SchemaError(
                        f"config map line {lineno}: expected 'define <MACRO>' or 'unit <file>', got {part!r}"
                    )
            flags.append(ConfigFlag(name=name, defines=tuple(defines), units=tuple(units)))
        return cls(flags=flags)

    def to_text(self) -> str:
        """The text format ``parse`` reads, one line per flag."""
        lines = (
            f"{f.name} : " + ", ".join([f"define {m}" for m in f.defines] + [f"unit {u}" for u in f.units])
            for f in self.flags
        )
        return "\n".join(lines) + "\n"


def resolve_flags(
    config_map: ConfigMap, enabled_macros: set[str], present_units: set[str]
) -> list[str]:
    """Pick the flag set that realizes a solver assignment.

    A flag turns on when every macro it defines is enabled and every unit it
    pulls in was found present. The choice is then verified to reproduce the
    macro and unit sets exactly; any leftover macro or unit means the map
    cannot express the assignment and is reported as a gap.
    """
    chosen = [
        f
        for f in config_map.flags
        if (f.defines or f.units)
        and all(m in enabled_macros for m in f.defines)
        and all(u in present_units for u in f.units)
    ]
    got_macros = {m for f in chosen for m in f.defines}
    got_units = {u for f in chosen for u in f.units}
    if got_macros != enabled_macros:
        missing = sorted(enabled_macros - got_macros)
        raise MapGapError(f"no flag combination yields macros {missing}")
    if got_units != present_units:
        missing = sorted(present_units - got_units)
        raise MapGapError(f"no flag combination yields units {missing}")
    return sorted(f.name for f in chosen)
