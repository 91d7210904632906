"""Variability-aware source scanning.

For every unit the scanner builds the tree of preprocessor fragments
(#if/#ifdef/#ifndef/#elif/#else/#endif constructs), assigns every source
line to exactly one fragment (the innermost one for ordinary lines, the
enclosing one for the chain directives themselves), extracts the lexical
features of each fragment, and records where functions are defined.

Fragment conditions are conjoined down the nesting, and #elif/#else branches
carry the negations of their earlier siblings, so any two branches of one
chain are mutually unsatisfiable and every child implies its parent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .conditions import (
    TRUE,
    Condition,
    DefinedAtom,
    conj,
    evaluate,
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
    "evaluate",
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
    arity: int


@dataclass(frozen=True)
class BranchShape:
    """An if-statement: the features inside its condition plus whether an
    else branch exists."""

    condition_features: tuple = ()
    has_else: bool = False


Feature = StringLit | IntConst | CallSig | BranchShape


@dataclass
class Fragment:
    id: str
    unit: str
    condition: Condition
    guard: Condition | None
    parent: str | None
    span: tuple[int, int]
    lines: list[int] = field(default_factory=list)
    features: tuple[Feature, ...] = ()
    children: list[str] = field(default_factory=list)

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
    fragment_id: str


@dataclass
class UnitVariability:
    unit: str
    fragments: list[Fragment]
    functions: dict[str, FunctionSpan]

    def fragment_map(self) -> dict[str, Fragment]:
        return {f.id: f for f in self.fragments}

    def conditional_fragments(self) -> list[Fragment]:
        return [f for f in self.fragments if not f.is_root]


@dataclass
class SourceUnit:
    name: str
    text: str

    def lines(self) -> list[str]:
        return self.text.splitlines()


@dataclass
class SourceTree:
    units: list[SourceUnit]
    # unit name -> (text scanned, scan); see ``scan``.
    _scans: dict[str, tuple[str, UnitVariability]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def unit_map(self) -> dict[str, SourceUnit]:
        return {u.name: u for u in self.units}

    def scan(self, unit: SourceUnit) -> UnitVariability:
        """``scan_unit`` of one unit, run once per name and text: the scan is
        kept until the unit's text changes. Callers treat it as read-only."""
        memo = self._scans.get(unit.name)
        if memo is None or memo[0] != unit.text:
            memo = (unit.text, scan_unit(unit.name, unit.text))
            self._scans[unit.name] = memo
        return memo[1]

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> SourceTree:
        return cls(units=[SourceUnit(name=k, text=v) for k, v in sorted(mapping.items())])


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
        guard=None,
        parent=None,
        span=(1, len(lines)),
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
            guard=guard,
            parent=parent.id,
            span=(start, start - 1),
        )
        fragments.append(frag)
        parent.children.append(frag.id)
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

    for frag in fragments:
        frag.features = _fragment_features(frag, lines)

    return UnitVariability(unit=name, fragments=fragments, functions=_function_index(name, lines, fragments))


def scan_tree(tree: SourceTree) -> dict[str, UnitVariability]:
    return {u.name: tree.scan(u) for u in tree.units}


_STRING_RE = re.compile(r'"([^"\\]*)"')
_CALL_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_INT_TOKEN_RE = re.compile(r"(?<![\w.])(\d+)(?![\w.])")
_NOT_CALLS = {"if", "else", "while", "for", "return", "switch", "sizeof", "defined"}


def _strip_comment(line: str) -> str:
    return line.split("//", 1)[0]


def _call_arity(text: str, open_paren: int) -> int:
    depth = 0
    commas = 0
    body_start = open_paren + 1
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                inner = text[body_start:i]
                if not inner.strip():
                    return 0
                return commas + 1
        elif ch == "," and depth == 1:
            commas += 1
    inner = text[body_start:]
    if not inner.strip():
        return 0
    return commas + 1


def _scan_text_features(text: str) -> list[Feature]:
    feats: list[Feature] = []
    for m in _STRING_RE.finditer(text):
        feats.append(StringLit(m.group(1)))
    masked = _STRING_RE.sub(lambda m: " " * len(m.group(0)), text)
    for m in _CALL_RE.finditer(masked):
        ident = m.group(1)
        if ident in _NOT_CALLS:
            continue
        feats.append(CallSig(name=ident, arity=_call_arity(masked, m.end() - 1)))
    for m in _INT_TOKEN_RE.finditer(masked):
        feats.append(IntConst(int(m.group(1))))
    return feats


def _extract_if_condition(line: str) -> str | None:
    m = re.search(r"\bif\s*\(", line)
    if not m:
        return None
    start = m.end() - 1
    depth = 0
    for i in range(start, len(line)):
        if line[i] == "(":
            depth += 1
        elif line[i] == ")":
            depth -= 1
            if depth == 0:
                return line[start + 1 : i]
    return line[start + 1 :]


def _has_else(lines: list[str], if_index: int) -> bool:
    depth = lines[if_index].count("{") - lines[if_index].count("}")
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
    feats: list[Feature] = []
    for lineno in frag.lines:
        raw = lines[lineno - 1]
        if raw.lstrip().startswith("#"):
            continue
        text = _strip_comment(raw)
        cond = _extract_if_condition(text)
        if cond is not None:
            feats.append(
                BranchShape(
                    condition_features=tuple(_scan_text_features(cond)),
                    has_else=_has_else(lines, lineno - 1),
                )
            )
            feats.extend(_scan_text_features(cond))
            after = text[text.index(cond) + len(cond) :] if cond in text else ""
            feats.extend(_scan_text_features(after))
        else:
            feats.extend(_scan_text_features(text))
    return tuple(feats)


_FUNC_HEADER_RE = re.compile(
    r"^\s*(?:static\s+)?(?:int|void|char|long|short|float|double|unsigned)"
    r"[\w\s\*]*?([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*\{\s*$"
)


def _function_index(
    unit: str, lines: list[str], fragments: list[Fragment]
) -> dict[str, FunctionSpan]:
    owner: dict[int, str] = {}
    for frag in fragments:
        for lineno in frag.lines:
            owner[lineno] = frag.id

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
        functions[name] = FunctionSpan(
            name=name,
            start=i + 1,
            end=end + 1,
            fragment_id=owner.get(i + 1, fragments[0].id),
        )
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

    def flag_map(self) -> dict[str, ConfigFlag]:
        return {f.name: f for f in self.flags}

    def macros_for(self, flag_names) -> set[str]:
        by_name = self.flag_map()
        out: set[str] = set()
        for name in flag_names:
            if name not in by_name:
                raise MapGapError(f"unknown flag {name!r}")
            out.update(by_name[name].defines)
        return out

    def units_for(self, flag_names) -> set[str]:
        by_name = self.flag_map()
        out: set[str] = set()
        for name in flag_names:
            if name not in by_name:
                raise MapGapError(f"unknown flag {name!r}")
            out.update(by_name[name].units)
        return out

    @classmethod
    def parse(cls, text: str) -> ConfigMap:
        flags: list[ConfigFlag] = []
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
