"""Presence-condition parsing, printing, and evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov.conditions import (
    MAX_NESTING,
    And,
    BoolConst,
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
