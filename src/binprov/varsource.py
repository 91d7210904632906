"""Variability-aware source scanning, the one reader of C structure.

For every unit the scanner builds the tree of preprocessor fragments
(#if/#ifdef/#ifndef/#elif/#else/#endif constructs), assigns every source
line to exactly one fragment (the innermost one for ordinary lines, the
enclosing one for the chain directives themselves), and reads in the same
pass the function spans and what the build compiles of each line
(``_UnitCode``). ``_read_line`` is the one reader of a line: one
left-to-right pass gives its code, its brace balance and the key
instructions the build emits for it, and the scan keeps those per line
outside directives, so each line is lexed once; of a directive line with a
``/`` it keeps only the code, comments dropped. The build walks each body's lines in one flat
pass (``_statements``), which keeps its open ifs on a list, so any nesting
depth reads, and copies each statement line's key instructions; a
fragment's features, computed when first read, are the same key
instructions of the same walk over its lines inside function bodies, so
they are exactly what the build compiles, ``has_else`` included.

The C subset read: ``{`` must end a function header (``name(params) {`` at
brace depth 0, after any return type) and an ``if`` line. Braces count
outside string literals, char literals and comments. A ``/* */`` comment,
also one over several lines, reads as one space, and a ``#`` line inside it
is no directive. A directive line is read for comments too, so its text
ends at a ``//`` or at a ``/*`` left open, which runs on into the next
lines. A string or char literal left open runs to the end of its line, and
a char literal compiles to nothing. A ``}`` line opens an else arm only when the
code after its ``}`` starts with the word ``else``. ``while``, ``for`` and
``switch`` blocks are not read.

Fragment conditions are conjoined down the nesting, and #elif/#else branches
carry the negations of their earlier siblings, so any two branches of one
chain are mutually unsatisfiable and every child implies its parent.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
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
    """What the build compiles of a unit, per line. ``text`` is the line's
    code (see ``_read_line``) and ``keyins`` the key instructions the build
    emits for it, for a line inside a function body; any other line, a
    directive included, has blank ``text`` and ``()``. ``body`` is the header
    line of the body holding the line, else 0. ``errors``: line -> message.
    ``unit`` names the unit."""

    unit: str
    text: list[str]
    keyins: list[tuple[KeyInstruction, ...]]
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
    code = _UnitCode(
        unit=name, text=[""] * len(lines), keyins=[()] * len(lines), body=[0] * len(lines),
        errors={},
    )
    functions: dict[str, FunctionSpan] = {}
    fname, header, depth = "", 0, 0  # open function, its header line (0: none)
    comment = False  # a block comment is open
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
        is_directive = not comment and raw.lstrip().startswith("#")
        if is_directive and "/" in raw:  # a directive's comments read as on any line
            raw, _, _, comment = _read_line(raw, False)
        m = _DIRECTIVE_RE.match(raw) if is_directive else None
        directive = m.group(1) if m else None
        if is_directive:
            if directive == "error":
                code.errors[lineno] = m.group(2) or "#error"
            code.body[lineno - 1] = header
        else:
            cut, balance, keyins, comment = _read_line(raw, comment)
            if not header and depth == 0:
                h = _FUNC_HEADER_RE.search(cut)
                if h and h.group(1) not in _KEYWORDS:
                    fname, header = h.group(1), lineno
            depth += balance
            if depth <= 0:
                if header:
                    functions[fname] = FunctionSpan(name=fname, start=header, end=lineno)
                depth = header = 0
            elif header and lineno > header:
                code.text[lineno - 1], code.keyins[lineno - 1], code.body[lineno - 1] = cut, keyins, header

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
_IF_RE = re.compile(r"^\s*if\s*\(.*\)\s*\{\s*$")
# A ``}`` line that opens an else arm, and one whose else arm is one ``if``:
# the build compiles its condition as a nested if.
_ELSE_RE = re.compile(r"\}\s*else\b")
_ELSE_IF_RE = re.compile(r"^\s*\}\s*else\s+if\s*\(.*\)\s*\{\s*$")
_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F]+|[\d.]+")
_WORD_RE = re.compile(r"\w+")
_CALL_OPEN_RE = re.compile(r"[ \t]*\(")
# A string or char literal runs to the first unescaped quote of its kind,
# else to the end of the line.
_LITERAL_BODY_RE = {quote: re.compile(rf"[^{quote}\\]*(?:\\.?[^{quote}\\]*)*") for quote in "\"'"}


def _read_line(line: str, comment: bool) -> tuple[str, int, tuple[KeyInstruction, ...], bool]:
    """One left-to-right read of a line, ``comment`` telling whether a block
    comment is open at its start. Returns the line's code up to a ``//``
    comment, each block comment a space; the code's count of ``{`` less
    ``}``; the key instructions the build emits for it; and whether a block
    comment is open at its end. A literal is skipped whole, and only a string
    literal emits. A call opens at ``name(`` and closes at its ``)`` or at
    the end of the line, so its arguments come before it."""
    out: list[KeyInstruction] = []
    parens: list[str | None] = []  # per open paren, the call it closes, if any
    pieces: list[str] = []  # the code before each block comment, and a space
    balance = i = start = 0
    end = len(line)
    if comment:
        close = line.find("*/")
        comment = close < 0
        i = start = end if comment else close + 2
        pieces.append(" ")
    while i < end:
        ch = line[i]
        i += 1
        if ch == " ":  # the commonest character, so it is tested first
            continue
        if ch == '"' or ch == "'":
            j = _LITERAL_BODY_RE[ch].match(line, i).end()
            if ch == '"':
                out.append(KeyInstruction(KeyKind.STRING_REF, line[i:j]))
            i = j + 1
        elif ch == "/" and line.startswith("/", i):
            end = i - 1
        elif ch == "/" and line.startswith("*", i):
            pieces.append(line[start : i - 1] + " ")
            close = line.find("*/", i + 1)
            comment = close < 0
            i = start = end if comment else close + 2
        elif ch == "{":
            balance += 1
        elif ch == "}":
            balance -= 1
        elif ch == "(":
            parens.append(None)
        elif ch == ")":
            if parens and (call := parens.pop()):
                out.append(KeyInstruction(KeyKind.CALL, call))
        elif ch.isdecimal():
            token = _NUMBER_RE.match(line, i - 1).group()
            if "." not in token:
                value = int(token, 16) if token[:2] in ("0x", "0X") else int(token)
                out.append(KeyInstruction(KeyKind.CONST_REF, str(value)))
            i += len(token) - 1
        elif ch.isalpha() or ch == "_":
            j = _WORD_RE.match(line, i - 1).end()
            word = line[i - 1 : j]
            if word not in _KEYWORDS and (m := _CALL_OPEN_RE.match(line, j)):
                parens.append(word)
                j = m.end()
            i = j
    out.extend(KeyInstruction(KeyKind.CALL, call) for call in reversed(parens) if call)
    pieces.append(line[start:end])
    return "".join(pieces), balance, tuple(out), comment


_FUNC_HEADER_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(([^)]*)\)\s*\{\s*$")


def _statements(code: _UnitCode, lines: Iterable[int]) -> Iterator[tuple[str, int]]:
    """The statements of a body, given as line numbers, in one pass with no
    tree: ``("stmt", line)`` for a simple statement, ``("if", line)`` as an if
    opens, ``("else", if_line)`` as its then arm closes into an else arm, and
    ``("end", if_line)`` as it closes. A ``}`` line closes the then arm of the
    innermost open if, into an else arm when the code after the ``}`` starts
    with the word ``else``; ``} else if (c) {`` makes that else arm one if,
    whose end ends the if above it too. Any ``}`` line closes an else arm, a
    ``}`` line outside every if is skipped, and ifs still open at the last
    line close there."""
    # Per open if: its line, whether its end ends the if above, whether its
    # else arm is open.
    open_ifs: list[tuple[int, bool, bool]] = []
    for line in lines:
        stripped = code.text[line - 1].strip()
        if stripped.startswith("}"):
            if not open_ifs:
                continue
            if_line, chained, in_else = open_ifs[-1]
            if not in_else and _ELSE_RE.match(stripped):
                open_ifs[-1] = (if_line, chained, True)
                yield "else", if_line
                if _ELSE_IF_RE.match(stripped):
                    open_ifs.append((line, True, False))
                    yield "if", line
                continue
            chained = True
            while chained:
                if_line, chained, _ = open_ifs.pop()
                yield "end", if_line
        elif _IF_RE.match(stripped):
            open_ifs.append((line, False, False))
            yield "if", line
        elif stripped:
            yield "stmt", line
    while open_ifs:
        yield "end", open_ifs.pop()[0]


def _line_features(code: _UnitCode, line: int) -> tuple[Feature, ...]:
    """The features of the key instructions the build emits for ``line``."""
    return tuple(
        StringLit(ki.operand) if ki.kind is KeyKind.STRING_REF
        else CallSig(ki.operand) if ki.kind is KeyKind.CALL
        else IntConst(int(ki.operand))
        for ki in code.keyins[line - 1]
    )


def _fragment_features(frag: Fragment, code: _UnitCode) -> tuple[Feature, ...]:
    """The features of the fragment's lines in each body, walked as the build
    walks them: per if, its branch shape, its condition, then its arms."""
    feats: list = []
    shapes: dict[int, int] = {}  # open if line -> index of its shape's placeholder
    has_else: set[int] = set()
    for header, body in groupby(frag.lines, key=lambda ln: code.body[ln - 1]):
        if not header:
            continue
        for event, line in _statements(code, body):
            if event == "else":
                has_else.add(line)
            elif event == "end":
                i = shapes.pop(line)
                feats[i] = BranchShape(feats[i], line in has_else)
            else:
                features = _line_features(code, line)
                if event == "if":
                    shapes[line] = len(feats)
                    feats.append(features)  # the placeholder holds the condition
                feats.extend(features)
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
