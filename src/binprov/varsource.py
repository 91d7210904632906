"""Variability-aware source scanning.

For every unit the scanner builds the tree of preprocessor fragments
(#if/#ifdef/#ifndef/#elif/#else/#endif constructs), assigns every source
line to exactly one fragment (the innermost one for ordinary lines, the
enclosing one for the chain directives themselves), and records where
functions are defined. A fragment's features, computed when first read,
are the payloads that ``_scan_expression``, the C lexer the build compiles
with, emits for its lines.

Fragment conditions are conjoined down the nesting, and #elif/#else branches
carry the negations of their earlier siblings, so any two branches of one
chain are mutually unsatisfiable and every child implies its parent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass
class Fragment:
    """One preprocessor fragment of a unit: its presence condition, the
    lines it owns and their lexical features.

    ``scan_unit`` builds the fragment tree, the lines and the function
    spans, and hands each fragment its unit's text lines as ``source``;
    ``features`` is computed from them on first read, since the pipeline
    reads only the features of conditional fragments and of the roots of
    optional units."""

    id: str
    unit: str
    condition: Condition
    parent: str | None
    span: tuple[int, int]
    lines: list[int] = field(default_factory=list)
    source: list[str] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def features(self) -> tuple[Feature, ...]:
        """The lexical features of the fragment's lines, kept once read
        (``()`` without a ``source``); an assigned value replaces them."""
        return () if self.source is None else _fragment_features(self, self.source)

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
    if directive == "ifdef":
        if not rest:
            raise SchemaError(f"{where}: #ifdef needs a macro name")
        return DefinedAtom(rest.split()[0])
    if directive == "ifndef":
        if not rest:
            raise SchemaError(f"{where}: #ifndef needs a macro name")
        return neg(DefinedAtom(rest.split()[0]))
    return parse_expression(rest)


@dataclass
class _OpenChain:
    parent: Fragment
    guards: list[Condition]
    current: Fragment
    saw_else: bool = False


def scan_unit(name: str, text: str) -> UnitVariability:
    """Build the fragment tree and feature index for one source unit."""
    lines = text.splitlines()
    root = Fragment(
        id=f"{name}#0",
        unit=name,
        condition=TRUE,
        parent=None,
        span=(1, len(lines)),
        source=lines,
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
            source=lines,
        )
        fragments.append(frag)
        return frag

    for lineno, raw in enumerate(lines, start=1):
        m = _DIRECTIVE_RE.match(raw)
        directive = m.group(1) if m else None
        if directive not in _CHAIN_DIRECTIVES:
            frag = innermost()
            frag.lines.append(lineno)
            frag.span = (frag.span[0], max(frag.span[1], lineno))
            continue

        where = f"{name}:{lineno}"
        rest = m.group(2)
        if directive in ("if", "ifdef", "ifndef"):
            parent = innermost()
            parent.lines.append(lineno)
            guard = _guard_of(directive, rest, where)
            frag = new_fragment(parent, guard, lineno + 1)
            chains.append(_OpenChain(parent=parent, guards=[guard], current=frag))
        elif directive == "elif":
            if not chains:
                raise SchemaError(f"{where}: #elif without #if")
            chain = chains[-1]
            if chain.saw_else:
                raise SchemaError(f"{where}: #elif after #else")
            chain.parent.lines.append(lineno)
            guard = _guard_of("if", rest, where)
            local = conj([neg(g) for g in chain.guards] + [guard])
            chain.guards.append(guard)
            chain.current = new_fragment(chain.parent, local, lineno + 1)
        elif directive == "else":
            if not chains:
                raise SchemaError(f"{where}: #else without #if")
            chain = chains[-1]
            if chain.saw_else:
                raise SchemaError(f"{where}: duplicate #else")
            chain.parent.lines.append(lineno)
            local = conj([neg(g) for g in chain.guards])
            chain.saw_else = True
            chain.current = new_fragment(chain.parent, local, lineno + 1)
        else:  # endif
            if not chains:
                raise SchemaError(f"{where}: #endif without #if")
            chain = chains.pop()
            chain.parent.lines.append(lineno)

    if chains:
        raise SchemaError(f"{name}: unterminated #if (opened near line {chains[-1].current.span[0] - 1})")

    return UnitVariability(
        unit=name, fragments=fragments, functions=_function_index(lines)
    )


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


def _has_else(lines: list[str], if_index: int) -> bool:
    head = lines[if_index].lstrip()
    if head.startswith("}"):  # ``} else if (c) {`` opens the if of ``c``
        head = head[1:]
    depth = head.count("{") - head.count("}")
    if depth <= 0:
        return False
    for raw in lines[if_index + 1 :]:
        stripped = raw.strip()
        if stripped.startswith("#"):
            return False
        if stripped.startswith("}") and depth == 1:
            return "else" in stripped
        depth += raw.count("{") - raw.count("}")
        if depth <= 0:
            return False
    return False


def _fragment_features(frag: Fragment, lines: list[str]) -> tuple[Feature, ...]:
    """Each line's ``_text_features``, after its ``BranchShape`` when the
    build compiles the line to a comparison (``_IF_RE`` or ``_ELSE_IF_RE``
    matches it)."""
    feats: list[Feature] = []
    for lineno in frag.lines:
        raw = lines[lineno - 1]
        if raw.lstrip().startswith("#"):
            continue
        text = _strip_comment(raw)
        if m := _IF_RE.match(text) or _ELSE_IF_RE.match(text):
            cond = tuple(_text_features(m.group(1)))
            feats.append(BranchShape(cond, _has_else(lines, lineno - 1)))
        feats.extend(_text_features(text))
    return tuple(feats)


_FUNC_HEADER_RE = re.compile(
    r"^\s*(?:static\s+)?(?:int|void|char|long|short|float|double|unsigned)"
    r"[\w\s\*]*?([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*\{\s*$"
)


def _function_index(lines: list[str]) -> dict[str, FunctionSpan]:
    functions: dict[str, FunctionSpan] = {}
    i = 0
    while i < len(lines):
        m = _FUNC_HEADER_RE.match(_strip_comment(lines[i]))
        if not m:
            i += 1
            continue
        name = m.group(1)
        depth = lines[i].count("{") - lines[i].count("}")
        end = i
        j = i + 1
        while j < len(lines) and depth > 0:
            depth += lines[j].count("{") - lines[j].count("}")
            end = j
            j += 1
        functions[name] = FunctionSpan(name=name, start=i + 1, end=end + 1)
        i = end + 1
    return functions


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
