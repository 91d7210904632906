"""Presence-condition expressions.

A condition is the boolean guard a preprocessor fragment lives under. The
grammar mirrors what #if lines actually contain:

    expr  := or
    or    := and ('||' and)*
    and   := unary ('&&' unary)*
    unary := '!' unary | '(' expr ')' | 'defined' '(' IDENT ')'
             | IDENT | INTEGER | comparison

Comparisons (``FOO > 2``) and bare identifiers are kept as opaque atoms: they
only matter for satisfiability, never for macro decisions. Parentheses and
``!`` may nest at most ``MAX_NESTING`` deep; deeper input raises
``ParseError`` rather than exhausting the Python stack.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import ParseError

l = logging.getLogger(__name__)

# Far beyond any real #if; keeps the recursive-descent parser well inside
# Python's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Condition:
    """Base class for condition AST nodes."""


@dataclass(frozen=True)
class BoolConst(Condition):
    value: bool


@dataclass(frozen=True)
class DefinedAtom(Condition):
    """defined(NAME)"""

    name: str


@dataclass(frozen=True)
class OpaqueAtom(Condition):
    """A comparison or bare identifier kept verbatim, e.g. 'FOO > 2'."""

    text: str


@dataclass(frozen=True)
class Not(Condition):
    operand: Condition


@dataclass(frozen=True)
class And(Condition):
    operands: tuple[Condition, ...]


@dataclass(frozen=True)
class Or(Condition):
    operands: tuple[Condition, ...]


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def _nary(parts, node: type, identity: BoolConst) -> Condition:
    """n-ary ``node`` (``And`` or ``Or``): nested nodes of the same kind are
    flattened, ``identity`` is dropped, and its opposite absorbs the rest."""
    flat: list[Condition] = []
    for p in parts:
        if isinstance(p, BoolConst):
            if p.value != identity.value:
                return p
            continue
        if isinstance(p, node):
            flat.extend(p.operands)
        else:
            flat.append(p)
    if not flat:
        return identity
    if len(flat) == 1:
        return flat[0]
    return node(tuple(flat))


def conj(parts) -> Condition:
    """n-ary AND with flattening and constant elimination."""
    return _nary(parts, And, TRUE)


def disj(parts) -> Condition:
    """n-ary OR with flattening and constant elimination."""
    return _nary(parts, Or, FALSE)


def neg(cond: Condition) -> Condition:
    if isinstance(cond, BoolConst):
        return BoolConst(not cond.value)
    if isinstance(cond, Not):
        return cond.operand
    return Not(cond)


def to_text(cond: Condition) -> str:
    """Deterministic textual form; parses back to an equivalent condition."""
    if isinstance(cond, BoolConst):
        return "1" if cond.value else "0"
    if isinstance(cond, DefinedAtom):
        return f"defined({cond.name})"
    if isinstance(cond, OpaqueAtom):
        return cond.text
    if isinstance(cond, Not):
        inner = to_text(cond.operand)
        if isinstance(cond.operand, (And, Or)):
            return f"!({inner})"
        return f"!{inner}"
    if isinstance(cond, And):
        parts = []
        for op in cond.operands:
            t = to_text(op)
            parts.append(f"({t})" if isinstance(op, Or) else t)
        return " && ".join(parts)
    if isinstance(cond, Or):
        return " || ".join(to_text(op) for op in cond.operands)
    raise TypeError(f"not a condition: {cond!r}")


def atom_key(cond: Condition) -> str:
    """An atom's key: a defined(NAME) atom's NAME, an opaque atom's verbatim
    text."""
    if isinstance(cond, DefinedAtom):
        return cond.name
    if isinstance(cond, OpaqueAtom):
        return cond.text
    raise TypeError(f"not an atom: {cond!r}")


def atom_keys(cond: Condition) -> list[str]:
    """Atom keys in first-appearance order (defined names and opaque texts)."""
    keys: dict[str, None] = {}

    def walk(c: Condition) -> None:
        if isinstance(c, Not):
            walk(c.operand)
        elif isinstance(c, (And, Or)):
            for op in c.operands:
                walk(op)
        elif isinstance(c, (DefinedAtom, OpaqueAtom)):
            keys[atom_key(c)] = None

    walk(cond)
    return list(keys)


def evaluate(cond: Condition, env) -> bool:
    """Evaluate under one environment that maps macro names and opaque
    comparison texts to truth values; unbound atoms count as disabled. A
    macro name never contains the spaces of an opaque text, so the two
    kinds of key cannot collide."""
    if isinstance(cond, BoolConst):
        return cond.value
    if isinstance(cond, DefinedAtom):
        if cond.name not in env:
            l.debug("macro %s unbound, treating as undefined", cond.name)
            return False
        return bool(env[cond.name])
    if isinstance(cond, OpaqueAtom):
        if cond.text not in env:
            l.debug("opaque atom %r unbound, treating as false", cond.text)
            return False
        return bool(env[cond.text])
    if isinstance(cond, Not):
        return not evaluate(cond.operand, env)
    if isinstance(cond, And):
        return all(evaluate(op, env) for op in cond.operands)
    if isinstance(cond, Or):
        return any(evaluate(op, env) for op in cond.operands)
    raise TypeError(f"not a condition: {cond!r}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<and>&&)
  | (?P<or>\|\|)
  | (?P<cmp>==|!=|<=|>=|<|>)
  | (?P<not>!)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'}", tok[2])
        return tok

    def parse(self) -> Condition:
        cond = self.parse_or()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return cond

    def parse_or(self) -> Condition:
        parts = [self.parse_and()]
        while self.peek()[0] == "or":
            self.take()
            parts.append(self.parse_and())
        return disj(parts) if len(parts) > 1 else parts[0]

    def parse_and(self) -> Condition:
        parts = [self.parse_unary()]
        while self.peek()[0] == "and":
            self.take()
            parts.append(self.parse_unary())
        return conj(parts) if len(parts) > 1 else parts[0]

    def parse_unary(self) -> Condition:
        kind, value, col = self.peek()
        if kind in ("not", "lp"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", col)
            self.take()
            if kind == "not":
                inner = neg(self.parse_unary())
            else:
                inner = self.parse_or()
                self.expect("rp")
            self.depth -= 1
            return inner
        if kind == "ident" and value == "defined":
            self.take()
            self.expect("lp")
            name = self.expect("ident")[1]
            self.expect("rp")
            return self._maybe_comparison(DefinedAtom(name), f"defined({name})")
        if kind == "ident":
            # Bare IDENT means defined-and-nonzero; abstract to defined(IDENT)
            # unless a comparison operator follows.
            self.take()
            return self._maybe_comparison(DefinedAtom(value), value)
        if kind == "int":
            self.take()
            return self._maybe_comparison(None, value, is_int=True)
        raise ParseError(f"expected expression, found {value or 'end of input'}", col)

    def _maybe_comparison(self, node, left_text: str, is_int: bool = False) -> Condition:
        # A comparison operator folds the whole thing into one opaque atom.
        if self.peek()[0] == "cmp":
            op = self.take()[1]
            kind, value, col = self.take()
            if kind not in ("ident", "int"):
                raise ParseError(f"expected comparison operand, found {value or 'end of input'}", col)
            return OpaqueAtom(f"{left_text} {op} {value}")
        if node is not None:
            return node
        if is_int:
            return BoolConst(int(left_text) != 0)
        return OpaqueAtom(left_text)


def parse_expression(text: str) -> Condition:
    """Parse a preprocessor condition; raises ParseError with column info."""
    return _Parser(text).parse()
