"""Presence-condition expressions.

A condition is the boolean guard a preprocessor fragment lives under. The
grammar mirrors what #if lines actually contain:

    expr  := or
    or    := and ('||' and)*
    and   := unary ('&&' unary)*
    unary := '!' unary | '(' expr ')' | atom (CMP value)?
    atom  := 'defined' '(' IDENT ')' | 'defined' IDENT | value
    value := IDENT | INTEGER

An INTEGER is a C integer literal, decimal, octal or hex, with an optional
``u``, ``l`` or ``ll`` suffix (``10``, ``0200``, ``0x0200UL``); any other
suffix is an error. Alone it is true when nonzero, and a bare IDENT reads as
``defined(IDENT)``. A comparison (``FOO >= 0x0200``) is one opaque atom,
kept verbatim: it only matters for satisfiability, never for macro
decisions. Not read: arithmetic (``B+1``), character constants and
comments (``varsource`` drops them from a directive, and joins the lines its
backslashes continue, first). Parentheses and ``!`` may nest at most
``MAX_NESTING`` deep; deeper input raises ``ParseError``.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import ParseError

l = logging.getLogger(__name__)

# Far beyond any real #if.
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


# Tokens, longest first: an operator, a number (digits with any letters glued
# on, read as a C integer literal where the parser meets one), an identifier.
_TOKENS = r"&&|\|\||[=!<>]=|[<>!()]|\d[\dA-Za-z_]*|[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"{_TOKENS}|\S")  # \S: a character no token starts with
_LEXABLE_RE = re.compile(rf"(?:\s|{_TOKENS})*")
_INTEGER_RE = re.compile(r"(?:0[xX]([0-9a-fA-F]+)|(\d+))(?:[uU](?:ll|LL|[lL])?|(?:ll|LL|[lL])[uU]?)?")
_CMP = frozenset(("==", "!=", "<=", ">=", "<", ">"))
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _error(text: str, j: int, message: str) -> ParseError:
    """The ParseError at token ``j``, unless some character of ``text`` starts
    no token: that character is the error, as no token of the text is read."""
    end = _LEXABLE_RE.match(text).end()
    if end < len(text):
        return ParseError(f"unexpected character {text[end]!r}", end + 1)
    starts = [m.start() + 1 for m in _TOKEN_RE.finditer(text)]
    return ParseError(message, starts[j] if j < len(starts) else len(text) + 1)


def _nonzero(text: str, toks: list[str], j: int) -> bool:
    """Whether the integer literal ``toks[j]`` is nonzero: whether any digit
    is, in any base. A suffix other than ``u``, ``l`` or ``ll`` is an error."""
    m = _INTEGER_RE.fullmatch(toks[j])
    if m is None:
        raise _error(text, j, f"bad integer literal {toks[j]!r}")
    return any(int(c, 16) for c in m[1] or m[2])


def parse_expression(text: str) -> Condition:
    """Parse a preprocessor condition; raises ParseError with column info.
    One ``findall`` splits the text into tokens and one loop reads them by
    index; each ``(`` saves the state of the group around it on ``frames``."""
    toks = _TOKEN_RE.findall(text)
    toks.append("")  # the end of input
    frames: list[tuple[list[Condition], list[Condition], int]] = []
    ors: list[Condition] = []  # the group's finished '&&' runs
    ands: list[Condition] = []  # the '&&' run being read
    nots = depth = i = 0  # '!'s before the operand; '!'s and '('s still open
    while True:
        tok = toks[i]
        if tok == "!" or tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise _error(text, i, f"nesting deeper than {MAX_NESTING}")
            if tok == "!":
                nots += 1
            else:
                frames.append((ors, ands, nots))
                ors, ands, nots = [], [], 0
            i += 1
            continue
        if tok == "defined":
            name = toks[i + 1]
            if name == "(":
                name = toks[i + 2]
                if name[:1] not in _IDENT_START:
                    raise _error(text, i + 2, f"expected ident, found {name or 'end of input'}")
                if toks[i + 3] != ")":
                    raise _error(text, i + 3, f"expected rp, found {toks[i + 3] or 'end of input'}")
                i += 4
            elif name[:1] in _IDENT_START:
                i += 2
            else:
                raise _error(text, i + 1, f"expected lp, found {name or 'end of input'}")
            cond = DefinedAtom(name)
        elif tok[:1] in _IDENT_START:
            # Bare IDENT means defined-and-nonzero; abstract to defined(IDENT).
            cond = DefinedAtom(tok)
            i += 1
        elif tok[:1].isdecimal():
            cond = BoolConst(_nonzero(text, toks, i))
            i += 1
        else:
            raise _error(text, i, f"expected expression, found {tok or 'end of input'}")
        op = toks[i]
        if op in _CMP:
            # A comparison folds the whole thing into one opaque atom.
            right = toks[i + 1]
            if right[:1].isdecimal():
                _nonzero(text, toks, i + 1)
            elif right[:1] not in _IDENT_START:
                raise _error(text, i + 1, f"expected comparison operand, found {right or 'end of input'}")
            left = f"defined({cond.name})" if tok == "defined" else tok
            cond = OpaqueAtom(f"{left} {op} {right}")
            i += 2
            op = toks[i]
        # An operand is read: apply its '!'s and go on with the '&&' run; a
        # '||', ')' or the end of input closes the run, and ')' the group too.
        while True:
            depth -= nots
            if nots & 1:
                cond = neg(cond)
            ands.append(cond)
            if op == "&&":
                break
            ors.append(ands[0] if len(ands) == 1 else conj(ands))
            if op == "||":
                ands = []
                break
            cond = ors[0] if len(ors) == 1 else disj(ors)
            if not frames:
                if op:
                    raise _error(text, i, f"trailing input {op!r}")
                return cond
            if op != ")":
                raise _error(text, i, f"expected rp, found {op or 'end of input'}")
            depth -= 1
            ors, ands, nots = frames.pop()
            i += 1
            op = toks[i]
        nots = 0
        i += 1
