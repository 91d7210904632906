"""Presence-condition parsing, printing, and evaluation."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov.conditions import (
    MAX_NESTING,
    And,
    BoolConst,
    Condition,
    DefinedAtom,
    Not,
    OpaqueAtom,
    Or,
    atom_keys,
    conj,
    disj,
    evaluate,
    neg,
    parse_expression,
    to_text,
)
from binprov.errors import ParseError


def test_parse_simple_negation():
    cond = parse_expression("!defined(A)")
    assert cond == Not(DefinedAtom("A"))


def test_parse_precedence_and_binds_tighter_than_or():
    cond = parse_expression("defined(A) || defined(B) && defined(C)")
    assert isinstance(cond, Or)
    assert cond.operands[0] == DefinedAtom("A")
    assert isinstance(cond.operands[1], And)


def test_parse_parentheses_override_precedence():
    cond = parse_expression("(defined(A) || defined(B)) && defined(C)")
    assert isinstance(cond, And)
    assert isinstance(cond.operands[0], Or)


def test_bare_identifier_abstracts_to_defined():
    cond = parse_expression("FOO")
    assert cond == DefinedAtom("FOO")


def test_comparison_becomes_opaque_atom():
    cond = parse_expression("FOO > 2")
    assert isinstance(cond, OpaqueAtom)
    assert "FOO" in cond.text and ">" in cond.text


def test_integer_literals_are_bool_constants():
    assert parse_expression("1") == BoolConst(True)
    assert parse_expression("0") == BoolConst(False)


def test_unclosed_paren_reports_column():
    with pytest.raises(ParseError) as err:
        parse_expression("defined(A")
    assert "column" in str(err.value)


def test_garbage_token_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_expression("defined(A) &&& defined(B)")


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "defined(A)" + ")" * 3000, "!" * 3000 + "defined(A)"],
    ids=["parentheses", "negations"],
)
def test_nesting_past_the_bound_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.column == MAX_NESTING + 1


def test_nesting_at_the_bound_parses():
    deep = "(" * MAX_NESTING + "defined(A)" + ")" * MAX_NESTING
    assert parse_expression(deep) == DefinedAtom("A")
    assert parse_expression("!" * MAX_NESTING + "defined(A)") == DefinedAtom("A")
    pairs = MAX_NESTING // 2
    mixed = "!(" * pairs + "defined(A)" + ")" * pairs
    assert parse_expression(mixed) == (Not(DefinedAtom("A")) if pairs % 2 else DefinedAtom("A"))


@pytest.mark.parametrize(
    "text, cond",
    [
        ("defined A", DefinedAtom("A")),
        ("!defined  B && defined\tA", And((Not(DefinedAtom("B")), DefinedAtom("A")))),
        ("defined A > 1", OpaqueAtom("defined(A) > 1")),
    ],
)
def test_defined_without_parentheses(text, cond):
    assert parse_expression(text) == cond


@pytest.mark.parametrize(
    "text, cond",
    [
        ("0x0200", BoolConst(True)),
        ("0X0", BoolConst(False)),
        ("0200", BoolConst(True)),
        ("00", BoolConst(False)),
        ("10UL", BoolConst(True)),
        ("0ull", BoolConst(False)),
        ("1LLU || 7l", BoolConst(True)),
        ("FOO_VERSION >= 0x0200", OpaqueAtom("FOO_VERSION >= 0x0200")),
        ("10UL > FOO && defined(A)", And((OpaqueAtom("10UL > FOO"), DefinedAtom("A")))),
    ],
)
def test_hex_octal_and_suffixed_integer_literals(text, cond):
    assert parse_expression(text) == cond


def test_a_literal_longer_than_int_conversion_allows_still_reads():
    # Python refuses to convert a decimal string of over 4,300 digits.
    digits = "9" * 5000
    assert parse_expression(digits) == BoolConst(True)
    assert parse_expression(f"A > {digits}") == OpaqueAtom(f"A > {digits}")


@pytest.mark.parametrize(
    "text, column",
    [("12abc", 1), ("defined(A) && FOO > 0x", 21), ("1lL", 1), ("(0x1G)", 2), ("A == 10UZ || B", 6)],
)
def test_an_integer_literal_with_another_suffix_is_refused_at_its_column(text, column):
    with pytest.raises(ParseError, match="bad integer literal") as err:
        parse_expression(text)
    assert err.value.column == column


def test_print_parse_fixpoint_on_nested_expression():
    text = "defined(A) && (!defined(B) || defined(C)) && !(defined(D) && defined(E))"
    cond = parse_expression(text)
    printed = to_text(cond)
    assert parse_expression(printed) == cond


def test_evaluate_respects_environment():
    cond = parse_expression("defined(A) && !defined(B)")
    assert evaluate(cond, {"A": True, "B": False})
    assert not evaluate(cond, {"A": True, "B": True})
    assert not evaluate(cond, {"A": False, "B": False})


def test_evaluate_opaque_atoms_use_opaque_env():
    cond = parse_expression("defined(A) && FOO > 2")
    assert evaluate(cond, {"A": True, "FOO > 2": True})
    assert not evaluate(cond, {"A": True, "FOO > 2": False})


def test_neg_is_involutive_on_atoms():
    a = DefinedAtom("A")
    assert neg(neg(a)) == a
    assert neg(BoolConst(True)) == BoolConst(False)


def test_conj_flattens_and_short_circuits():
    a, b = DefinedAtom("A"), DefinedAtom("B")
    assert conj([a, conj([b])]) == And((a, b))
    assert conj([a, BoolConst(False)]) == BoolConst(False)
    assert conj([]) == BoolConst(True)
    assert conj([BoolConst(True), a]) == a


def test_disj_flattens_and_short_circuits():
    a, b = DefinedAtom("A"), DefinedAtom("B")
    assert disj([a, disj([b])]) == Or((a, b))
    assert disj([a, BoolConst(True)]) == BoolConst(True)
    assert disj([]) == BoolConst(False)


def test_atom_keys_and_defined_names():
    cond = parse_expression("defined(A) && (FOO > 2 || !defined(B))")
    keys = atom_keys(cond)
    assert "A" in keys and "B" in keys
    assert any(">" in k for k in keys)


# Random condition ASTs for the fixpoint property.
_names = st.sampled_from(["A", "B", "C", "D", "E"])
_atoms = st.builds(DefinedAtom, _names)


def _conditions(children):
    return st.one_of(
        st.builds(Not, children),
        st.builds(lambda a, b: And((a, b)), children, children),
        st.builds(lambda a, b: Or((a, b)), children, children),
    )


_cond_strategy = st.recursive(_atoms, _conditions, max_leaves=12)


@settings(max_examples=200, derandomize=True)
@given(_cond_strategy)
def test_print_parse_roundtrip_preserves_semantics(cond):
    printed = to_text(cond)
    reparsed = parse_expression(printed)
    names = sorted(atom_keys(cond))  # every atom is a DefinedAtom
    for bits in range(1 << len(names)):
        env = {n: bool(bits >> i & 1) for i, n in enumerate(names)}
        assert evaluate(reparsed, env) == evaluate(cond, env)


# The reference reader: the tokenizer and recursive-descent parser that read
# every #if before the one-findall reader. It refuses `defined NAME` and any
# integer literal but plain digits.
_REF_TOKEN_RE = re.compile(
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
        m = _REF_TOKEN_RE.match(text, pos)
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
            self.take()
            return self._maybe_comparison(DefinedAtom(value), value)
        if kind == "int":
            self.take()
            return self._maybe_comparison(None, value, is_int=True)
        raise ParseError(f"expected expression, found {value or 'end of input'}", col)

    def _maybe_comparison(self, node, left_text: str, is_int: bool = False) -> Condition:
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


def _read_both(text: str):
    """What the reader and the reference make of ``text``: a tree, or a
    ParseError's message and column."""
    out = []
    for read in (parse_expression, lambda t: _Parser(t).parse()):
        try:
            out.append(read(text))
        except ParseError as exc:
            out.append((str(exc), exc.column))
    return out


def _refused_at_a_new_form(text: str, error) -> bool:
    """Whether the reference refused ``text`` at a form only the reader
    reads: `defined NAME`, or a number with letters glued on (`0x1F`,
    `10UL`, or `1A`, which the reader refuses as one token)."""
    message, column = error
    rest = text[column - 1 :]
    ident = re.match(r"[A-Za-z_]", rest)
    glued = re.match(r"\d+[A-Za-z_]", rest) or (ident and column >= 2 and text[column - 2].isdecimal())
    return bool(glued or (ident and message.startswith("expected lp, found ")))


# Tokens, whitespace, stray characters, a Unicode digit and Unicode spaces.
_EXPRESSION_PIECES = [
    "defined", "defined(", "A", "B_2", "_x", "0", "1", "42", "007", "&&", "||", "!", "(", ")",
    "==", "!=", "<=", ">=", "<", ">", " ", " ", "\t", "&", "|", "=", "+", "/", "#", "\u0663", "\u00a0", "\u2003",
]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=20).map("".join))
def test_reader_agrees_with_the_reference_reader(text):
    got, want = _read_both(text)
    if isinstance(want, tuple) and _refused_at_a_new_form(text, want):
        return
    assert got == want


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize(
    "shape",
    [
        lambda n: "(" * n + "defined(A)" + ")" * n,
        lambda n: "!" * n + "A",
        lambda n: "!(" * (n // 2) + "A > 1" + ")" * (n // 2) + "!" * (n % 2) + " || B",
        lambda n: "(" * (n - 1) + "!B && A" + ")" * (n - 1),
        lambda n: "(" * (n - 1) + " && ".join(["!A", "(B)"] * n) + ")" * (n - 1),
    ],
    ids=["parentheses", "negations", "mixed", "negation-innermost", "siblings"],
)
def test_reader_agrees_with_the_reference_at_the_nesting_bound(shape, depth):
    got, want = _read_both(shape(depth))
    assert got == want
    assert isinstance(want, tuple) == (depth > MAX_NESTING)
