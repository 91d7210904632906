"""Variability-aware source scanning, the one reader of C structure.

For every unit the scanner builds the tree of preprocessor fragments
(#if/#ifdef/#ifndef/#elif/#else/#endif constructs), assigns every source
line to exactly one fragment (the innermost one for ordinary lines, the
enclosing one for the chain directives themselves), and reads in the same
pass, from the tokens of one regex (``_token_re``), the function spans and
the key instructions of each statement in a body (``_UnitCode``). The build
walks a body's statements in one flat pass (``_statements``) that keeps its
open arms on a list, so any nesting depth reads; a fragment's features,
computed when first read, are what the same walk compiles from its lines:
each key instruction as its ``(KeyKind, operand)`` payload, the key the
matcher counts, and each if as a ``BranchShape`` of its condition's
payloads and ``has_else``.

Fragment conditions are conjoined down the nesting, and #elif/#else branches
carry the negations of their earlier siblings, so any two branches of one
chain are mutually unsatisfiable and every child implies its parent.
"""

from __future__ import annotations

import gc
import re
from collections.abc import Iterator
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
)
from .errors import MapGapError, SchemaError

__all__ = [
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
class BranchShape:
    """An if-statement: the payloads inside its condition plus whether an
    else branch exists."""

    condition_features: tuple[tuple[KeyKind, str], ...] = ()
    has_else: bool = False


# A payload is the ``(kind, operand)`` key of a key instruction the build
# compiles, the key ``matcher.PayloadIndex`` counts.
Feature = tuple[KeyKind, str] | BranchShape


@dataclass(frozen=True)
class _UnitCode:
    """What the build compiles of a unit. ``stmts`` holds per line the body
    statements whose first token is on it, each ``(kind, begin, end,
    spread)``: ``kind`` is ``"stmt"``, ``"{"``, ``"}"``, ``"if"``, ``"else"``
    or ``"loop"``; ``keyins[begin:end]`` and ``where[begin:end]`` are the key
    instructions of its tokens and their lines, ``spread`` whether it runs
    over lines. ``body`` is the header line of the body holding the line,
    else 0. ``errors``: line -> message."""

    stmts: list[tuple[tuple[str, int, int, bool], ...]]
    keyins: list[KeyInstruction]
    where: list[int]
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


@dataclass
class FunctionSpan:
    name: str
    start: int
    end: int


@dataclass
class UnitVariability:
    fragments: list[Fragment]
    functions: dict[str, FunctionSpan]
    code: _UnitCode

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

    def scan(self, unit: SourceUnit) -> UnitVariability:
        """``scan_unit`` of one unit of this tree, run once per name.
        Callers treat it as read-only."""
        if unit.name not in self._scans:
            self._scans[unit.name] = scan_unit(unit.name, unit.text)
        return self._scans[unit.name]

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> SourceTree:
        return cls(units=tuple(SourceUnit(name=k, text=v) for k, v in sorted(mapping.items())))


# A string's quote and text, and a char literal: each ends at its line's end at the latest.
_STRING_OPEN = r'"[^"\\\n]*(?:\\[^\n]?[^"\\\n]*)*'
_CHAR = r"'[^'\\\n]*(?:\\[^\n]?[^'\\\n]*)*'?"


def _token_re(odd: str = "", flags: int = re.ASCII) -> re.Pattern[str]:
    """The lexer of C, a group per token: one of ``{}();=``; a line break or
    block comment, with the directive that starts the next line, backslashes
    continuing it; ``name(``; a string; a hex or decimal number; ``else``;
    ``struct``, ``union`` or ``enum``. It skips blanks, punctuation, other
    words, ``//`` comments, char literals, numbers with a ``.``, and ``odd``:
    word characters neither letters nor digits (``²``) where a word would
    start. ASCII text takes ``re.ASCII``."""
    word = rf"[^\W\d{odd}]\w*"
    skip = rf"[^\w\n\"'/{{}}();=]+|(?!(?:else|struct|union|enum)\b){word}(?![ \t]*\(|\w)|//[^\n]*|{_CHAR}|\d+\.[\d.]*|/(?![/*])"
    skip += f"|[{odd}]" if odd else ""
    directive = rf"\#(?:[^\n\\/\"']|\\\n?|/(?![/*])|/\*(?:[^*\n]|\*(?!/))*\*/|{_STRING_OPEN}\"?|{_CHAR})*"
    return re.compile(  # the commonest tokens first
        rf"(?:{skip})*(?:([{{}}();=])|(\n[^\S\n]*|/\*(?:[^*]|\*(?!/))*(?:\*/)?)((?<=[\n \t]){directive})?"
        rf"|({word})[ \t]*\(|({_STRING_OPEN})\"?|0[xX]([0-9a-fA-F]+)|(\d+)|(else)\b|(struct|union|enum)\b)",
        flags,
    )


_TOKEN_RE = _token_re()
# A directive's comments read as spaces, and a continuing backslash goes with its newline.
_DIRECTIVE_NOISE_RE = re.compile(rf"({_STRING_OPEN}\"?|{_CHAR})|/\*.*?\*/|\\\n")
_DIRECTIVE_RE = re.compile(r"#\s*(\w+)\s*(.*?)\s*$")
_CHAIN_DIRECTIVES = {"if", "ifdef", "ifndef", "elif", "else", "endif"}


def _guard_of(directive: str, rest: str, where: str) -> Condition:
    if directive == "if":
        return parse_expression(rest)
    name = rest.split()[0] if rest else ""
    if not (name.isascii() and name.isidentifier()):  # as ``parse_expression`` reads a name
        raise SchemaError(f"{where}: #{directive} needs a macro name, got {name!r}")
    atom = DefinedAtom(name)
    return atom if directive == "ifdef" else neg(atom)


@dataclass
class _OpenChain:
    parent: Fragment
    guards: list[Condition]
    current: Fragment
    state: tuple  # the reader at the #if (first, parens, depth, fname, header): each later branch reads on from it
    saw_else: bool = False


_KEYWORDS = {"if", "else", "while", "for", "return", "switch", "sizeof"}
_HEADS = {"if": "if", "while": "loop", "for": "loop", "switch": "loop"}
_CALL, _STRING, _CONST = KeyKind.CALL, KeyKind.STRING_REF, KeyKind.CONST_REF


def scan_unit(name: str, text: str) -> UnitVariability:
    """The fragment tree, ``_UnitCode`` and function spans of one unit, in one
    pass over its tokens. A ``{`` at brace depth 0 right after ``name(params)``
    opens a function, spanning its name's line to the ``}`` back at depth 0.
    Each branch of an #if chain reads on from the reader's state at its #if.
    The cyclic collector is off throughout, as ``binmodel`` describes."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _scan_unit(name, text)
    finally:
        if was_on:
            gc.enable()


def _scan_unit(name: str, text: str) -> UnitVariability:
    source = "\n".join(["", *text.splitlines(), ""])
    n = source.count("\n") - 1
    code = _UnitCode(stmts=[()] * n, keyins=[], where=[], body=[0] * n, errors={})
    stmts, keyins, where = code.stmts, code.keyins, code.where
    functions: dict[str, FunctionSpan] = {}
    fragments: list[Fragment] = []
    chains: list[_OpenChain] = []
    done = 0  # the lines up to this one have their fragment

    def new_fragment(parent: Fragment | None, guard: Condition, start: int) -> Fragment:
        frag = Fragment(
            id=f"{name}#{len(fragments)}",
            unit=name,
            condition=conj([parent.condition, guard]) if parent else guard,
            parent=parent.id if parent else None,
            span=(start, start - 1),
            code=code,
        )
        fragments.append(frag)
        return frag

    root = new_fragment(None, TRUE, 1)

    line = depth = 0  # the token's line, and the brace depth
    fname, header = "", 0  # the open function and the line of its name (0: none)
    # The statement read: its first token's line (0: none yet), its head, its
    # first key instruction's index, the call whose ``)`` came last at paren
    # depth 0 (a header's name if ``{`` follows), and per open paren its call.
    first, kind, begin, named = 0, "", 0, None
    parens: list[tuple[str, int] | None] = []

    def end(as_kind: str) -> None:
        """Keep the statement read as ``as_kind`` if it is in a body; its open calls close here."""
        nonlocal first, kind, begin, named
        while parens and header:
            if opened := parens.pop():
                keyins.append(KeyInstruction(_CALL, opened[0]))
                where.append(opened[1])
        if header and first:
            stmts[first - 1] += ((as_kind, begin, len(keyins), line > first),)
            begin = len(keyins)
        first, kind, named = 0, "", None
        parens.clear()

    tokens = _TOKEN_RE
    if not text.isascii():
        odd = "".join(ch for ch in set(text) if ch.isalnum() and not (ch.isalpha() or ch.isdecimal()))
        tokens = _token_re(re.escape(odd), 0)
    for punct, gap, directive, call, string, hexa, decimal, else_, tag in tokens.findall(source):
        if gap:
            line += gap.count("\n")
            if not directive:
                continue
            last = min(line + directive.count("\n"), n)  # the line its last backslash continues to
            directive = _DIRECTIVE_NOISE_RE.sub(lambda m: m[1] or (" " if m[0][0] == "/" else ""), directive)
            m = _DIRECTIVE_RE.match(directive)
            found = m[1] if m else None
            if found == "error":
                code.errors[line] = m[2] or "#error"
            if found in _CHAIN_DIRECTIVES:
                frag = chains[-1].current if chains else root
                if done + 1 < line:
                    frag.lines.extend(range(done + 1, line))
                    frag.span = (frag.span[0], max(frag.span[1], line - 1))
                done = last
                at = f"{name}:{line}"
                if found in ("if", "ifdef", "ifndef"):
                    frag.lines.extend(range(line, last + 1))
                    guard = _guard_of(found, m[2], at)
                    state = (first, parens.copy(), depth, fname, header)
                    chains.append(_OpenChain(frag, [guard], new_fragment(frag, guard, last + 1), state))
                elif not chains:
                    raise SchemaError(f"{at}: #{found} without #if")
                else:
                    chain = chains[-1]
                    chain.parent.lines.extend(range(line, last + 1))
                    if found == "endif":
                        chains.pop()
                    elif chain.saw_else:
                        raise SchemaError(f"{at}: #{found} after #else")
                    else:
                        local = [neg(g) for g in chain.guards]
                        if found == "elif":
                            local.append(_guard_of("if", m[2], at))
                            chain.guards.append(local[-1])
                        else:
                            chain.saw_else = True
                        chain.current = new_fragment(chain.parent, conj(local), last + 1)
                        if first != chain.state[0]:  # a statement begun in the branch ends with it
                            end(kind or "stmt")
                        else:  # one open at the #if reads on with the calls it had open there
                            parens[:] = chain.state[1]
                        depth, fname, header = chain.state[2:]
            line = last
            continue
        if first and not parens and (punct == "}" or call in _HEADS):  # each ends the statement before it
            end("stmt")
        if not first:
            first = line
            if else_:
                end("else")
            kind = _HEADS.get(call, "")
        if punct == ")" and parens:
            opened = parens.pop()
            if opened and header:
                keyins.append(KeyInstruction(_CALL, opened[0]))
                where.append(opened[1])
            named = opened if not (header or parens) else None
            if kind and not parens:  # the paren that closes a head ends it
                end(kind)
        elif call:
            parens.append(None if call in _KEYWORDS else (call, line))
        elif punct == ";" and not parens:
            end("stmt")
        elif header and (string or decimal or hexa):
            value = string[1:] if string else str(int(decimal) if decimal else int(hexa, 16))
            keyins.append(KeyInstruction(_STRING if string else _CONST, value))
            where.append(line)
        elif punct == "(":
            parens.append(None)
        elif punct == "{" and not parens:
            # ``name(params) {`` opens a function, but an upper-case ``NAME(...) {`` is a macro.
            opens = named if not depth and named and not named[0].isupper() else None
            end("{")
            if opens:
                fname, header = opens
            depth += 1
        elif punct == "}" and not parens:
            depth = max(depth - 1, 0)
            if header and not depth:
                functions[fname] = FunctionSpan(name=fname, start=header, end=line)
                code.body[header : line - 1] = [header] * (line - 1 - header)
                header = 0
            end("}")
        elif punct == "=" or tag:  # an initializer's ``= {`` and a tag's body open no function
            named = None
    end(kind or "stmt")

    if chains:
        raise SchemaError(f"{name}: unterminated #if (opened near line {chains[-1].current.span[0] - 1})")
    root.lines.extend(range(done + 1, n + 1))
    root.span = (1, n)
    if header:
        functions[fname] = FunctionSpan(name=fname, start=header, end=n + 1)
        code.body[header:n] = [header] * (n - header)
    return UnitVariability(fragments=fragments, functions=functions, code=code)


def scan_tree(tree: SourceTree) -> dict[str, UnitVariability]:
    return {u.name: tree.scan(u) for u in tree.units}


def _statements(code: _UnitCode, lines: tuple[int, ...]) -> Iterator[tuple[str, list[KeyInstruction]]]:
    """The statements of a body, given as line numbers, whose first token is
    on ``lines``, in one pass with no tree: ``("stmt", keyins)``, ``("if",
    keyins)`` as an if or loop head opens, ``("else", [])`` as its then arm
    ends into an else arm, and ``("end", [])`` as it ends; ``keyins`` is a
    new list of the key instructions of its tokens on ``lines``. A head's
    body is the next statement, a ``{}`` block included; a ``}`` outside
    every block is skipped, and so is an ``else`` no if waits for, with its
    heads up to a ``{``. Whatever is open at the last line closes there."""
    frames: list[str] = []  # per open arm or block, innermost last: "if" (a then arm), "else", "loop" or "{"
    waiting = False  # the innermost if's then arm has ended: an else may follow
    skipping = False  # after an else no if waits for
    active = set(lines)

    def complete() -> Iterator[tuple[str, list]]:
        """End the arms a complete statement is the body of; True at a then arm, which may take an else."""
        while frames and frames[-1] != "{":
            if frames.pop() == "if":
                return True
            yield "end", []
        return False

    for line in lines:
        for kind, begin, end, spread in code.stmts[line - 1]:
            keyins = code.keyins[begin:end]
            if spread:
                keyins = [ki for ki, at in zip(keyins, code.where[begin:end]) if at in active]
            if skipping and kind in ("if", "loop", "{"):  # up to the first ``{``
                skipping = kind != "{"
                continue
            skipping = kind == "else" and not waiting
            if kind == "else" and waiting:
                waiting = False
                frames.append("else")
                yield "else", []
            while waiting:
                yield "end", []
                waiting = yield from complete()
            if kind == "}":
                while frames and frames[-1] != "{":
                    frames.pop()
                    yield "end", []
                if frames:
                    frames.pop()
                    waiting = yield from complete()
            elif kind == "{":
                if keyins:
                    yield "stmt", keyins
                frames.append("{")
            elif kind == "stmt":
                yield "stmt", keyins
                waiting = yield from complete()
            elif kind != "else":
                yield "if", keyins
                frames.append(kind)
    if waiting:
        yield "end", []
    yield from (("end", []) for frame in reversed(frames) if frame != "{")


def _fragment_features(frag: Fragment, code: _UnitCode) -> tuple[Feature, ...]:
    """The features of the fragment's lines in each body, walked as the build
    walks them: per if, its branch shape, its condition, then its arms, each
    key instruction as its ``(kind, operand)`` payload. A
    statement begun on an earlier line of the body and still open where the
    fragment's lines begin gives its key instructions on them first."""
    feats: list = []
    shapes: list[list] = []  # per open if: the index of its shape's placeholder, whether it has an else arm
    for header, body in groupby(frag.lines, key=lambda ln: code.body[ln - 1]):
        if not header:
            continue
        body = tuple(body)
        # The last statement begun on the nearest earlier line holding one is the open one.
        ln = next((i for i in range(body[0] - 1, header, -1) if code.stmts[i - 1]), 0)
        _, begin, end, _ = code.stmts[ln - 1][-1] if ln else ("", 0, 0, False)
        cut = [ki for ki, at in zip(code.keyins[begin:end], code.where[begin:end]) if at in body]
        for event, keyins in [("stmt", cut), *_statements(code, body)]:
            if event == "else":
                shapes[-1][1] = True
            elif event == "end":
                i, has_else = shapes.pop()
                feats[i] = BranchShape(feats[i], has_else)
            else:
                features = tuple((ki.kind, ki.operand) for ki in keyins)
                if event == "if":
                    shapes.append([len(feats), False])
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
            entries: dict[str, list[str]] = {"define": [], "unit": []}
            for part in rhs.split(","):
                part = part.strip()
                if not part:
                    continue
                kind, _, value = part.partition(" ")
                value = value.strip()
                if kind not in entries or not value:
                    raise SchemaError(
                        f"config map line {lineno}: expected 'define <MACRO>' or 'unit <file>', got {part!r}"
                    )
                entries[kind].append(value)
            flags.append(ConfigFlag(name=name, defines=tuple(entries["define"]), units=tuple(entries["unit"])))
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
