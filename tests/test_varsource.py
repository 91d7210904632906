"""Preprocessor variability scanning and the flag/macro config map."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov import varsource
from binprov.binmodel import KeyInstruction, KeyKind
from binprov.buildoracle import (
    DEFAULT_COMPILER,
    BuildSpec,
    ConfigAssignment,
    SimulatedToolchain,
    build_unoptimized,
    default_spec,
)
from binprov.conditions import BoolConst, DefinedAtom, Not, conj, disj, evaluate, neg, parse_expression, to_text
from binprov.corpusgen import generate_conditional_unit, generate_corpus
from binprov.errors import BinprovError, MapGapError, SchemaError
from binprov.matcher import PayloadIndex, Presence, _payload_key, decide_fragment
from binprov.pipeline import run_generated_case
from binprov.solver import Unsatisfiable, solve
from binprov.varsource import (
    BranchShape,
    CallSig,
    ConfigFlag,
    ConfigMap,
    IntConst,
    SourceTree,
    StringLit,
    resolve_flags,
    scan_tree,
    scan_unit,
)

# Shaped like libxml2's HTML-gated parser helpers.
XMLLINT_SNIPPET = """\
static int
lookup_sequence(const char *cur) {
    int mode;
#ifdef LIBXML_HTML_ENABLED
    mode = html_mode("relaxed");
    note_path(cur, 2);
#else
    mode = strict_mode("strict");
#endif
    return mode;
}
"""


def test_xmllint_snippet_yields_three_fragments():
    scan = scan_unit("parser.c", XMLLINT_SNIPPET)
    assert len(scan.fragments) == 3
    root, on, off = scan.fragments
    assert root.is_root and root.condition == BoolConst(True)
    assert on.condition == DefinedAtom("LIBXML_HTML_ENABLED")
    assert off.condition == Not(DefinedAtom("LIBXML_HTML_ENABLED"))
    assert on.parent == root.id and off.parent == root.id


def test_xmllint_snippet_fragment_contents():
    scan = scan_unit("parser.c", XMLLINT_SNIPPET)
    root, on, off = scan.fragments
    assert StringLit("relaxed") in on.features
    assert CallSig("html_mode") in on.features
    assert CallSig("note_path") in on.features
    assert StringLit("strict") in off.features
    # directive lines stay with the parent
    lines = XMLLINT_SNIPPET.splitlines()
    for ln in root.lines:
        assert ln <= len(lines)
    assert any(lines[ln - 1].startswith("#ifdef") for ln in root.lines)


def test_scan_rejects_malformed_nesting():
    with pytest.raises(SchemaError):
        scan_unit("u.c", "#endif\n")
    with pytest.raises(SchemaError):
        scan_unit("u.c", "#ifdef A\nx;\n")
    with pytest.raises(SchemaError):
        scan_unit("u.c", "#ifdef A\n#else\n#elif defined(B)\n#endif\n")
    with pytest.raises(SchemaError):
        scan_unit("u.c", "#ifdef A\n#else\n#else\n#endif\n")


def test_scan_is_deterministic():
    text = generate_conditional_unit(5, 0)
    a = scan_unit("u.c", text)
    b = scan_unit("u.c", text)
    assert [f.condition_text() for f in a.fragments] == [
        f.condition_text() for f in b.fragments
    ]
    assert [f.lines for f in a.fragments] == [f.lines for f in b.fragments]


def test_features_read_late_match_the_eager_scan_digest():
    # sha256 over repr((fragment id, features)) of every fragment of every
    # unit of corpus seeds 1-3, computed with the scanner that extracted
    # every fragment's features during the scan, then with the features of
    # every function-header line dropped (942 CallSigs): a header compiles
    # to nothing, and features read only lines inside function bodies.
    digest = hashlib.sha256()
    count = 0
    for seed in (1, 2, 3):
        for case in generate_corpus(seed, 21):
            for unit in case.tree.units:
                for frag in scan_unit(unit.name, unit.text).fragments:
                    digest.update(repr((frag.id, frag.features)).encode())
                    count += 1
    assert count == 679
    assert digest.hexdigest() == (
        "65eddab55a28052ea4f18389de9a2c1ae6a0a073d9dc4cfd5ce34f8c87b495dd"
    )


def test_the_scan_structure_of_the_corpus_is_pinned():
    # sha256 over repr((unit, function spans, per fragment its id, condition
    # text, span and lines)) of every unit of corpus seeds 1-3, computed with
    # the line reader that the statement reader replaced: the features digest
    # above covers neither spans nor lines.
    digest = hashlib.sha256()
    count = 0
    for seed in (1, 2, 3):
        for case in generate_corpus(seed, 21):
            for unit in case.tree.units:
                scan = scan_unit(unit.name, unit.text)
                spans = [(span.name, span.start, span.end) for span in scan.functions.values()]
                frags = [(f.id, f.condition_text(), f.span, f.lines) for f in scan.fragments]
                digest.update(repr((unit.name, spans, frags)).encode())
                count += 1
    assert count == 157
    assert digest.hexdigest() == (
        "124a4bd1fe762fbd1f86af5b558692f44579b374264f2d3ba344c4def9324979"
    )


def test_features_compare_and_assign_like_a_field():
    unread = scan_unit("x.c", XMLLINT_SNIPPET)
    read = scan_unit("x.c", XMLLINT_SNIPPET)
    assert all(frag.features is not None for frag in read.fragments)
    assert unread == read
    frag = read.conditional_fragments()[0]
    frag.features = ()
    assert frag.features == ()


def test_building_and_running_a_case_leave_base_roots_unfeatured(case0, monkeypatch):
    computed = []
    fragment_features = varsource._fragment_features

    def counting(frag, lines):
        computed.append(frag.id)
        return fragment_features(frag, lines)

    monkeypatch.setattr(varsource, "_fragment_features", counting)
    tree = SourceTree.from_mapping({u.name: u.text for u in case0.tree.units})
    SimulatedToolchain(tree).build(BuildSpec("gcc", "6", "O2"), case0.seed_config())
    assert computed == []

    case = dataclasses.replace(case0, tree=tree)
    run_generated_case(case)
    base_roots = {scan_tree(tree)[name].fragments[0].id for name in case.base_units}
    assert computed
    assert not base_roots & set(computed)
    assert len(computed) == len(set(computed))  # each kept once computed


def _payloads(program) -> list[tuple[KeyKind, str]]:
    return [
        (ki.kind, ki.operand)
        for fn in program.functions
        for blk in fn.blocks
        for ki in blk.keyins
        if ki.operand is not None
    ]


def _read_both(line: str):
    """The features of ``line`` as the one line of a fragment, and the
    payloads the build compiles it to."""
    tree = SourceTree.from_mapping({"m.c": f"int f(void) {{\n#ifdef A\n  {line}\n#endif\n}}\n"})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    program = build_unoptimized(tree, ConfigAssignment(macros=frozenset({"A"})))
    return list(frag.features), _payloads(program)


@pytest.mark.parametrize(
    "line, features",
    [
        # a comment starts only at a // outside a string literal
        ('lib("http://x"); // h(2)', [StringLit("http://x"), CallSig("lib")]),
        # a string ends at the first unescaped quote
        (r'lib("x\"y", 3);', [StringLit(r'x\"y'), IntConst(3), CallSig("lib")]),
        (r'lib("a\\", 4);', [StringLit(r"a\\"), IntConst(4), CallSig("lib")]),
        # a quoted paren does not close the call
        ('lib(")", 5);', [StringLit(")"), IntConst(5), CallSig("lib")]),
        # a hex literal is its value
        ("lib(0x10);", [IntConst(16), CallSig("lib")]),
    ],
    ids=["comment-outside-string", "escaped-quote", "escaped-backslash", "quoted-paren", "hex"],
)
def test_features_and_build_read_c_literals_alike(line, features):
    got, built = _read_both(line)
    assert got == features
    assert built == [_payload_key(f) for f in features]


def test_only_a_compiled_if_line_carries_a_branch_shape():
    # A braceless ``if`` is an if too: it takes the next statement as its body.
    text = """\
int f(int x) {
#ifdef A
  if (x > 5) f();
  if (x > 6) {
    g(1);
  } else if (x > 5) {
    g(2);
  }
#endif
}
"""
    (frag,) = scan_unit("m.c", text).conditional_fragments()
    shapes = [feat for feat in frag.features if isinstance(feat, BranchShape)]
    assert shapes == [
        BranchShape(condition_features=(IntConst(5),), has_else=False),
        BranchShape(condition_features=(IntConst(6),), has_else=True),
        BranchShape(condition_features=(IntConst(5),), has_else=False),
    ]


def test_else_if_compiles_its_condition():
    # ``} else if (x > 5) {`` is one nested if in the else arm: the build
    # compares ``x > 5``, and its features agree with the build.
    text = "int f(int x) {\n#ifdef A\n  if (x > 6) {\n    g(1);\n  } else if (x > 5) {\n    g(2);\n  }\n#endif\n}\n"
    tree = SourceTree.from_mapping({"m.c": text})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    program = SimulatedToolchain(tree).build(
        BuildSpec("gcc", "5", "O0"), ConfigAssignment(macros=frozenset({"A"}))
    )
    keyins = [ki for blk in program.functions[0].blocks for ki in blk.keyins]
    assert sum(ki.kind is KeyKind.COMPARE for ki in keyins) == 2
    assert (KeyKind.CONST_REF, "5") in [(ki.kind, ki.operand) for ki in keyins]
    payloads = [feat for feat in frag.features if not isinstance(feat, BranchShape)]
    assert [_payload_key(feat) for feat in payloads] == _payloads(program)
    assert [feat for feat in frag.features if isinstance(feat, BranchShape)] == [
        BranchShape(condition_features=(IntConst(6),), has_else=True),
        BranchShape(condition_features=(IntConst(5),), has_else=False),
    ]


def test_active_fragment_payloads_occur_in_the_o0_build():
    checked = 0
    for seed in (1, 2, 3):
        for case in generate_corpus(seed, 21):
            config = case.truth_config()
            program = SimulatedToolchain(case.tree).build(default_spec(DEFAULT_COMPILER, "O0"), config)
            payloads = set(_payloads(program))
            for unit in case.tree.units:
                if unit.name not in config.units:
                    continue
                scan = case.tree.scan(unit)
                for frag in scan.conditional_fragments():
                    if not evaluate(frag.condition, config.macro_env()):
                        continue
                    for feat in frag.features:
                        key = _payload_key(feat)
                        if key is None:
                            continue
                        assert key in payloads, (seed, case.name, frag.id, feat)
                        checked += 1
    assert checked > 400


@pytest.mark.parametrize(
    "header",
    [
        "size_t\nf(int x) {",
        "static inline int f(int x) {",
        "const char *f(int x) {",
        "struct node *f(int x) {",
        "void\nf(int num)\n{",
        "int f(int a,\n      int b) {",
    ],
    ids=[
        "size_t-on-the-line-above", "static-inline-int", "const-char-pointer", "struct-pointer",
        "brace-on-its-own-line", "parameters-over-lines",
    ],
)
def test_any_return_type_compiles_its_body(header):
    tree = SourceTree.from_mapping({"m.c": f'{header}\n  g("s", 3);\n}}\n'})
    program = build_unoptimized(tree, ConfigAssignment())
    assert [fn.id for fn in program.functions] == ["f"]
    assert _payloads(program) == [(KeyKind.STRING_REF, "s"), (KeyKind.CONST_REF, "3"), (KeyKind.CALL, "g")]


def test_xmllint_snippet_compiles_its_body():
    tree = SourceTree.from_mapping({"parser.c": XMLLINT_SNIPPET})
    (on, _off) = scan_tree(tree)["parser.c"].conditional_fragments()
    program = build_unoptimized(tree, ConfigAssignment(macros=frozenset({"LIBXML_HTML_ENABLED"})))
    assert [fn.id for fn in program.functions] == ["lookup_sequence"]
    assert _payloads(program) == [_payload_key(feat) for feat in on.features]
    assert (KeyKind.STRING_REF, "relaxed") in _payloads(program)


@pytest.mark.parametrize("line", ["// }", 'puts("}");'], ids=["comment", "string"])
def test_a_brace_in_a_comment_or_string_does_not_end_the_body(line):
    tree = SourceTree.from_mapping({"m.c": f"int f(void) {{\n  a();\n  {line}\n  b(1);\n}}\nint g(void) {{\n  c();\n}}\n"})
    program = build_unoptimized(tree, ConfigAssignment())
    calls = [operand for kind, operand in _payloads(program) if kind is KeyKind.CALL]
    assert calls == (["a", "puts", "b", "c"] if "puts" in line else ["a", "b", "c"])
    assert {name: (span.start, span.end) for name, span in scan_tree(tree)["m.c"].functions.items()} == {
        "f": (1, 5),
        "g": (6, 8),
    }


@pytest.mark.parametrize(
    "arms, has_else",
    [
        (["    g(1);", "  } // or else", "  h(2);"], False),
        (['    g("{");', "  } else {", "    h(2);", "  }"], True),
        (["    g(1);", "  } n_else = 0;", "  h(2);"], False),
        (["    g(1);", "  }else{", "    h(2);", "  }"], True),
    ],
    ids=["comment-says-else", "then-arm-holds-an-open-brace", "word-holds-else", "else-without-spaces"],
)
def test_has_else_is_the_builds_own_parse(arms, has_else):
    body = "\n".join(["  if (x > 5) {", *arms])
    tree = SourceTree.from_mapping({"m.c": f"int f(int x) {{\n#ifdef A\n{body}\n#endif\n}}\n"})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    (shape,) = [feat for feat in frag.features if isinstance(feat, BranchShape)]
    assert shape.has_else is has_else
    # In the build, the then arm runs on into ``h`` exactly when ``h`` is no
    # else arm. (``n_else = 0`` is a statement of its own between them.)
    program = build_unoptimized(tree, ConfigAssignment(macros=frozenset({"A"})))
    blocks = {blk.id: blk for blk in program.functions[0].blocks}
    calls = {ki.operand: blk for blk in blocks.values() for ki in blk.keyins if ki.kind is KeyKind.CALL}
    reached, todo = set(), list(calls["g"].succs)
    while todo:
        if (bid := todo.pop()) not in reached:
            reached.add(bid)
            todo.extend(blocks[bid].succs)
    assert (calls["h"].id in reached) is not has_else


def _blocks(text: str, macros: frozenset[str] = frozenset()) -> list[tuple[str, list, list[str]]]:
    """The blocks of the one function built from ``text``: per block its id,
    its key instructions as (kind, operand) and its successors."""
    (fn,) = build_unoptimized(SourceTree.from_mapping({"m.c": text}), ConfigAssignment(macros=macros)).functions
    return [(blk.id, [(ki.kind, ki.operand) for ki in blk.keyins], blk.succs) for blk in fn.blocks]


_CMP = (KeyKind.COMPARE, None)


def _str(value: str) -> tuple[KeyKind, str]:
    return (KeyKind.STRING_REF, value)


def _call(name: str) -> tuple[KeyKind, str]:
    return (KeyKind.CALL, name)


def test_an_if_condition_over_two_lines_is_one_head():
    text = 'int f(int x) {\n  if (x > 5 &&\n      x < 9) {\n    g("a");\n  }\n}\n'
    head, *_ = _blocks(text)
    assert head[1] == [(KeyKind.CONST_REF, "5"), (KeyKind.CONST_REF, "9"), _CMP]


@pytest.mark.parametrize(
    "head, consts",
    [("while (x > 5) {", ["5"]), ("for (i = 0; i < 3; i++) {", ["0", "3"]), ("switch (x) {", [])],
    ids=["while", "for", "switch"],
)
def test_a_loop_or_switch_head_compiles_as_an_if_with_no_else_arm(head, consts):
    # The head compares, then branches into the body and past it; there is
    # no back edge, so every edge runs forward.
    text = f'int f(int x) {{\n  {head}\n    g("a");\n  }}\n  h("b");\n}}\n'
    blocks = _blocks(text)
    (_, keyins, succs), (body, body_keyins, body_succs), (after, after_keyins, _) = blocks
    assert keyins == [(KeyKind.CONST_REF, value) for value in consts] + [_CMP]
    assert (body_keyins, after_keyins) == ([_str("a"), _call("g")], [_str("b"), _call("h")])
    assert (succs, body_succs) == ([body, after], [after])
    order = [bid for bid, _, _ in blocks]
    assert all(order.index(succ) > k for k, (_, _, out) in enumerate(blocks) for succ in out)


def test_an_else_on_the_line_after_its_brace_opens_the_else_arm():
    # GNU style: the head branches to both arms, and the then arm runs on
    # past the else arm, not into it.
    text = 'int f(int x) {\n  if (x > 5) {\n    g("a");\n  }\n  else {\n    h("b");\n  }\n  k("c");\n}\n'
    (_, _, succs), (then, _, then_succs), (other, other_keyins, other_succs), (join, join_keyins, _) = _blocks(text)
    assert (other_keyins, join_keyins) == ([_str("b"), _call("h")], [_str("c"), _call("k")])
    assert (succs, then_succs, other_succs) == ([then, other], [join], [join])


@pytest.mark.parametrize(
    "body, arms",
    [
        ('  if (x > 5)\n    g("a");\n  h("b");', 1),
        ('  if (x > 5)\n    g("a");\n  else\n    h("b");\n  k("c");', 2),
        ('  if (x > 5) g("a"); else h("b");\n  k("c");', 2),
    ],
    ids=["braceless-if", "braceless-else", "on-one-line"],
)
def test_a_braceless_if_or_else_takes_the_next_statement_as_its_body(body, arms):
    text = f"int f(int x) {{\n#ifdef A\n{body}\n#endif\n}}\n"
    blocks = _blocks(text, frozenset({"A"}))
    (_, keyins, succs), (then, then_keyins, then_succs) = blocks[:2]
    (after, after_keyins, _) = blocks[-1]
    assert (keyins, then_keyins) == ([(KeyKind.CONST_REF, "5"), _CMP], [_str("a"), _call("g")])
    assert then_succs == [after] and succs[0] == then
    assert succs[1] == (after if arms == 1 else blocks[2][0])
    (frag,) = scan_unit("m.c", text).conditional_fragments()
    assert frag.features[0] == BranchShape((IntConst(5),), arms == 2)


def test_each_statement_is_one_block():
    (_, first, succs), (second, second_keyins, _) = _blocks('int f(void) {\n  g("a"); h("b");\n}\n')
    assert (first, second_keyins, succs) == ([_str("a"), _call("g")], [_str("b"), _call("h")], [second])


def test_a_statement_split_by_an_if_compiles_with_the_line_of_its_first_token():
    # It compiles when that line is active, with the key instructions of its
    # tokens on active lines; one that starts on an inactive line compiles
    # nothing, its tokens on active lines neither.
    text = 'int f(void) {\n  g("a",\n#ifdef A\n    "b",\n#endif\n    "c");\n#ifdef B\n  h("d",\n#endif\n    "e");\n}\n'
    payloads = {}
    for macros in ("", "A", "B"):
        program = build_unoptimized(SourceTree.from_mapping({"m.c": text}), ConfigAssignment(macros=frozenset(macros)))
        payloads[macros] = _payloads(program)
    assert payloads[""] == [_str("a"), _str("c"), _call("g")]
    assert payloads["A"] == [_str("a"), _str("b"), _str("c"), _call("g")]
    assert payloads["B"] == [_str("a"), _str("c"), _call("g"), _str("d"), _str("e"), _call("h")]
    on_a, on_b = scan_unit("m.c", text).conditional_fragments()
    assert (on_a.features, on_b.features) == ((StringLit("b"),), (StringLit("d"), CallSig("h")))


def test_each_branch_of_an_if_chain_reads_on_from_the_state_at_its_if():
    # Two alternative partial heads: the #else branch starts again from the
    # paren and brace depth at the #ifdef, so the paren the first branch
    # leaves open does not swallow the rest of the unit.
    text = (
        "int f(int a, int b, int c) {\n#ifdef A\n  if (a > 1 &&\n#else\n  if (b > 2 &&\n#endif\n"
        '      c) {\n    g("x");\n  }\n  h("y");\n}\nint k(void) {\n  m("z");\n}\n'
    )
    scan = scan_unit("m.c", text)
    assert {name: (span.start, span.end) for name, span in scan.functions.items()} == {"f": (1, 11), "k": (12, 14)}
    for macros, const in ((frozenset({"A"}), 1), (frozenset(), 2)):
        f, k = build_unoptimized(SourceTree.from_mapping({"m.c": text}), ConfigAssignment(macros=macros)).functions
        assert [(ki.kind, ki.operand) for blk in k.blocks for ki in blk.keyins] == [_str("z"), _call("m")]
        blocks = [(blk.id, [(ki.kind, ki.operand) for ki in blk.keyins], blk.succs) for blk in f.blocks]
        (_, keyins, succs), (then, then_keyins, then_succs), (after, after_keyins, _) = blocks
        assert keyins == [(KeyKind.CONST_REF, str(const)), _CMP]
        assert (then_keyins, after_keyins) == ([_str("x"), _call("g")], [_str("y"), _call("h")])
        assert (succs, then_succs) == ([then, after], [after])
    assert [frag.features for frag in scan.conditional_fragments()] == [
        (BranchShape((IntConst(const),), False), IntConst(const)) for const in (1, 2)
    ]


def test_a_call_left_open_in_a_branch_does_not_hold_the_parens_after_it():
    # The #else branch reads on with the calls open at the #ifdef, so the
    # ``h(`` the first branch leaves open does not keep ``;`` and ``}`` from
    # ending anything.
    text = (
        "int f(void) {\n  r = g(1,\n#ifdef A\n        h(2,\n#else\n        k(3,\n#endif\n        4));\n"
        "  m(5);\n}\nint z(void) {\n  n(6);\n}\n"
    )
    scan = scan_unit("m.c", text)
    assert {name: (span.start, span.end) for name, span in scan.functions.items()} == {"f": (1, 10), "z": (11, 13)}
    program = build_unoptimized(SourceTree.from_mapping({"m.c": text}), ConfigAssignment())
    consts = [(KeyKind.CONST_REF, str(value)) for value in (1, 3, 4, 5, 6)]
    assert _payloads(program) == [*consts[:3], _call("k"), _call("g"), consts[3], _call("m"), consts[4], _call("n")]


def test_a_function_closed_in_each_branch_ends_at_the_last_close():
    text = "int f(int a) {\n#ifdef A\n  g(1);\n}\n#else\n  g(2);\n}\n#endif\nint k(void) {\n  m(3);\n}\n"
    scan = scan_unit("m.c", text)
    assert {name: (span.start, span.end) for name, span in scan.functions.items()} == {"f": (1, 7), "k": (9, 11)}
    for macros, const in ((frozenset({"A"}), "1"), (frozenset(), "2")):
        program = build_unoptimized(SourceTree.from_mapping({"m.c": text}), ConfigAssignment(macros=macros))
        assert _payloads(program) == [(KeyKind.CONST_REF, const), _call("g"), (KeyKind.CONST_REF, "3"), _call("m")]


def test_a_head_ends_a_statement_left_without_its_semicolon():
    # ``FOO(x)`` has no ``;``; the if after it is still an if.
    (_, first, succs), (head, keyins, head_succs), (join, _, _), (then, then_keyins, then_succs) = _blocks(
        'int f(int y) {\n  FOO(x)\n  if (y > 5) {\n    g("a");\n  }\n}\n'
    )
    assert (first, keyins, then_keyins) == ([_call("FOO")], [(KeyKind.CONST_REF, "5"), _CMP], [_str("a"), _call("g")])
    assert (succs, head_succs, then_succs) == ([head], [then, join], [join])


@pytest.mark.parametrize(
    "decl",
    [
        "FOO(x)\nstatic int t[] = { 1 };",
        "foo(x)\nstatic int t[] = { 1 };",
        "__attribute__((aligned(8))) static const int t[] = {1};",
        "PNG_FUNCTION(png_voidp, png_malloc, (png_const_structrp png_ptr, png_alloc_size_t size), PNG_ALLOCATED)\n"
        "{\n  return g(1);\n}",
        "foo(x)\nstruct s {\n  int a;\n};",
        "foo(x)\nunion u {\n  int a;\n};",
        "foo(x)\nenum e {\n  A,\n  B\n};",
    ],
    ids=[
        "macro-then-initializer", "call-then-initializer", "attribute-initializer", "macro-header",
        "call-then-struct", "call-then-union", "call-then-enum",
    ],
)
def test_an_initializer_or_a_macro_written_header_opens_no_function(decl):
    # Two units declare the same; neither names a function after the macro.
    tree = SourceTree.from_mapping({"a.c": f'{decl}\nint f(void) {{\n  h("a");\n}}\n', "b.c": f"{decl}\n"})
    assert [list(scan.functions) for scan in scan_tree(tree).values()] == [["f"], []]
    program = build_unoptimized(tree, ConfigAssignment())
    assert ([fn.id for fn in program.functions], _payloads(program)) == (["f"], [_str("a"), _call("h")])


@pytest.mark.parametrize(
    "line", ["/* } */", "c = '}';", r"c = '\'';", "c = '{'; /* { */"],
    ids=["block-comment", "char-literal", "escaped-quote-char", "char-and-comment"],
)
def test_a_brace_in_a_block_comment_or_char_literal_does_not_end_the_body(line):
    tree = SourceTree.from_mapping({"m.c": f"int f(void) {{\n  a();\n  {line}\n  b();\n}}\n"})
    program = build_unoptimized(tree, ConfigAssignment())
    assert _payloads(program) == [(KeyKind.CALL, "a"), (KeyKind.CALL, "b")]
    assert {name: (span.start, span.end) for name, span in scan_tree(tree)["m.c"].functions.items()} == {"f": (1, 5)}


def test_a_block_comment_over_lines_compiles_nothing():
    # Neither the call nor the brace inside the comment is read, and a
    # directive inside it is no directive.
    text = "int f(void) {\n  a();\n  /* x(1)\n  }\n#ifdef A\n  */\n  b(2);\n}\n"
    tree = SourceTree.from_mapping({"m.c": text})
    scan = scan_tree(tree)["m.c"]
    assert len(scan.fragments) == 1
    assert {name: (span.start, span.end) for name, span in scan.functions.items()} == {"f": (1, 8)}
    program = build_unoptimized(tree, ConfigAssignment())
    assert _payloads(program) == [(KeyKind.CALL, "a"), (KeyKind.CONST_REF, "2"), (KeyKind.CALL, "b")]


def test_a_block_comment_on_a_header_or_if_line_reads_as_a_space():
    text = "int f(int x) /* { */ {\n#ifdef A\n  if (x > 5) /* y */ {\n    g(1); /* g(2) */ h(3);\n  }\n#endif\n}\n"
    tree = SourceTree.from_mapping({"m.c": text})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    assert frag.features == (
        BranchShape(condition_features=(IntConst(5),), has_else=False),
        IntConst(5),
        IntConst(1),
        CallSig("g"),
        IntConst(3),
        CallSig("h"),
    )
    program = build_unoptimized(tree, ConfigAssignment(macros=frozenset({"A"})))
    keyins = [(ki.kind, ki.operand) for blk in program.functions[0].blocks for ki in blk.keyins]
    assert keyins == [
        (KeyKind.CONST_REF, "5"),
        (KeyKind.COMPARE, None),
        (KeyKind.CONST_REF, "1"),
        (KeyKind.CALL, "g"),
        (KeyKind.CONST_REF, "3"),
        (KeyKind.CALL, "h"),
    ]


@pytest.mark.parametrize(
    "line, guard",
    [
        ("#if defined(A) /* why */", DefinedAtom("A")),
        ("#if defined(A) // why", DefinedAtom("A")),
        ("#if /* a */ defined(A) /* b */ && !B // c", conj([DefinedAtom("A"), Not(DefinedAtom("B"))])),
        ('#if defined(A) /* "// */ || B', disj([DefinedAtom("A"), DefinedAtom("B")])),
        ("#ifdef A// why", DefinedAtom("A")),
    ],
)
def test_comments_on_a_directive_line_are_no_part_of_its_condition(line, guard):
    scan = scan_unit("u.c", f"{line}\nx;\n#elif defined(C) /* or */\ny;\n#endif // A\n")
    assert [frag.condition for frag in scan.conditional_fragments()] == [
        guard, conj([neg(guard), DefinedAtom("C")])
    ]


def test_a_directive_continued_with_a_backslash_reads_as_one_line():
    # Its continuation line belongs where the directive line belongs.
    text = '#if defined(A) && \\\n    defined(B)\nint f(void) {\n  g("a");\n}\n#endif\n'
    root, frag = scan_unit("u.c", text).fragments
    assert frag.condition == conj([DefinedAtom("A"), DefinedAtom("B")])
    assert (root.lines, frag.lines, frag.span) == ([1, 2, 6], [3, 4, 5], (3, 5))


@pytest.mark.parametrize("line, got", [("#ifdef (A)", "(A)"), ("#ifndef 3x", "3x"), ("#ifdef", "")])
def test_an_ifdef_needs_a_macro_name(line, got):
    # ``#ifdef (A)`` once scanned to ``defined((A))``, a text
    # ``parse_expression`` refuses.
    directive = line[1:].split()[0]
    with pytest.raises(SchemaError, match=re.escape(f"u.c:1: #{directive} needs a macro name, got {got!r}")):
        scan_unit("u.c", f"{line}\n#endif\n")


def test_every_condition_text_of_the_corpus_parses_back():
    count = 0
    for seed in (1, 2, 3):
        for case in generate_corpus(seed, 21):
            for unit in case.tree.units:
                for frag in scan_unit(unit.name, unit.text).fragments:
                    assert parse_expression(frag.condition_text()) == frag.condition
                    count += 1
    assert count == 679


def test_a_block_comment_left_open_on_a_directive_line_runs_on():
    # The #endif and the brace inside the comment are not read.
    text = "#if defined(A) /* why:\n  #endif }\n*/\nint f(void) {\n  g(1);\n}\n#endif\n"
    scan = scan_unit("u.c", text)
    (frag,) = scan.conditional_fragments()
    assert (frag.condition, frag.lines) == (DefinedAtom("A"), [2, 3, 4, 5, 6])
    assert {name: (span.start, span.end) for name, span in scan.functions.items()} == {"f": (4, 6)}


def test_a_string_left_open_runs_to_the_end_of_its_line():
    # An open string keeps a statement's trailing ``;`` and an if head's
    # ``) {``. (Lexing the statement without its ``;``, or the condition up to
    # its last ``)``, gave ``x`` for both.) The if head's paren stays open,
    # so its statement runs on to the end of the unit.
    for line, features in [
        ('  s = "x;', (StringLit("x;"),)),
        ('  if (s == "x) {', (BranchShape((StringLit("x) {"),), False), StringLit("x) {"))),
    ]:
        (frag,) = scan_unit("m.c", f"int f(int s) {{\n#ifdef A\n{line}\n#endif\n}}\n").conditional_fragments()
        assert frag.features == features
    tree = SourceTree.from_mapping({"m.c": 'int f(int s) {\n#ifdef A\n  s = "x;\n#endif\n}\n'})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    assert frag.features == (StringLit("x;"),)
    assert _payloads(build_unoptimized(tree, ConfigAssignment(macros=frozenset({"A"})))) == [(KeyKind.STRING_REF, "x;")]


def test_a_file_scope_global_yields_no_feature_and_no_absence():
    text = "#ifdef M\nint buf[64];\n#endif\nint f(void) {\n  g(\"s\");\n}\n"
    tree = SourceTree.from_mapping({"m.c": text})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    assert frag.features == ()
    crash = SimulatedToolchain(tree).build(BuildSpec("gcc", "6", "O2"), ConfigAssignment(macros=frozenset({"M"})))
    decision = decide_fragment(frag, PayloadIndex.for_program(crash), "binary")
    assert decision.presence is Presence.UNKNOWN


def _if_statement(draw, depth: int, lines: list[str], has_else: list[bool]) -> None:
    """Draw one if or loop statement into ``lines``, recording in
    ``has_else``, in source order, whether each if has an else arm; a loop
    has none. An if is braced or braceless, and the else of a braced one may
    follow its ``}`` on the next line (GNU style)."""
    form = draw(st.sampled_from(["braced", "braceless", "loop"]))
    slot = len(has_else)
    has_else.append(False)
    if form == "loop":
        lines.append(draw(_LOOP_HEADS) + draw(_TRAILING))
        _statements(draw, depth + 1, lines, has_else)
        lines.append("}" + draw(_TRAILING))
        return
    condition = draw(st.sampled_from(["x > 3", "x == 0x1f", 'eq(s, "{")', 'ok("}//")']))
    if form == "braceless":
        # Each arm is the one statement after its head.
        lines.append(f"if ({condition})" + draw(_TRAILING))
        lines.append(draw(_SIMPLE_STATEMENT) + draw(_TRAILING))
        if draw(st.booleans()):
            has_else[slot] = True
            lines.append("else" + draw(_TRAILING))
            lines.append(draw(_SIMPLE_STATEMENT) + draw(_TRAILING))
        return
    lines.append(f"if ({condition}) {{" + draw(_TRAILING))
    _statements(draw, depth + 1, lines, has_else)
    arm = draw(st.sampled_from(["none", "else", "else-if"]))
    gnu = draw(st.booleans())
    if arm == "else-if":
        # ``} else if (c) {`` closes the then arm and opens the nested if,
        # whose own closing line ends the chain.
        has_else[slot] = True
        nested: list[str] = []
        _if_statement(draw, depth + 1, nested, has_else)
        lines.extend(["}", "else " + nested[0]] if gnu else ["} else " + nested[0]])
        lines.extend(nested[1:])
        return
    if arm == "else":
        has_else[slot] = True
        lines.extend(["}", "else {" + draw(_TRAILING)] if gnu else ["} else {" + draw(_TRAILING)])
        _statements(draw, depth + 1, lines, has_else)
    lines.append("}" + draw(_TRAILING))


def _statements(draw, depth: int, lines: list[str], has_else: list[bool]) -> None:
    for _ in range(draw(st.integers(0, 3))):
        if depth < 3 and draw(st.booleans()):
            _if_statement(draw, depth, lines, has_else)
        else:
            lines.append(draw(_SIMPLE) + draw(_TRAILING))


_STRING = st.text(alphabet="ab{}/ ()", max_size=6).map(lambda text: f'"{text}"')
_ARG = st.one_of(st.integers(0, 999).map(str), st.integers(0, 255).map(hex), _STRING)
_SIMPLE_STATEMENT = st.one_of(
    st.builds(lambda f, args: f"{f}({', '.join(args)});", st.sampled_from(["lib", "log_it", "g"]), st.lists(_ARG, max_size=3)),
    st.builds(lambda value: f"acc = acc + {value};", st.integers(0, 999)),
    st.just("acc = acc;"),
)
_SIMPLE = st.one_of(_SIMPLE_STATEMENT, st.just("// } else {"))
_TRAILING = st.sampled_from(["", " // }", " // { else", " // x"])
_LOOP_HEADS = st.sampled_from(["while (x > 1) {", "for (i = 0; i < 3; i++) {", "switch (x) {"])


@st.composite
def _guarded_body(draw):
    lines: list[str] = []
    has_else: list[bool] = []
    _statements(draw, 0, lines, has_else)
    return lines, has_else


@settings(max_examples=80, deadline=None)
@given(_guarded_body())
def test_features_of_random_guarded_bodies_are_what_the_build_compiles(body):
    lines, has_else = body
    text = "int f(int x) {\n#ifdef A\n" + "".join(f"  {line}\n" for line in lines) + "#endif\n}\n"
    tree = SourceTree.from_mapping({"m.c": text})
    (frag,) = scan_tree(tree)["m.c"].conditional_fragments()
    program = SimulatedToolchain(tree).build(BuildSpec("gcc", "5", "O0"), ConfigAssignment(macros=frozenset({"A"})))
    payloads = [_payload_key(feat) for feat in frag.features if not isinstance(feat, BranchShape)]
    assert payloads == _payloads(program)
    assert [feat.has_else for feat in frag.features if isinstance(feat, BranchShape)] == has_else


def test_features_of_600_nested_ifs_or_else_if_arms_have_no_depth_limit():
    # The walk keeps its open ifs on a list, so neither 600 nested ifs nor
    # an else-if chain of 600 arms meets a limit.
    depth = 600
    nested = "if (x) {\n" * depth + "g(1);\n" + "}\n" * depth
    chain = "if (x > 0) {\n" + "".join(f"}} else if (x > {k}) {{\n" for k in range(1, depth)) + "}\n"
    for body, conditions, has_else in (
        (nested, [()] * depth, [False] * depth),
        (chain, [(IntConst(k),) for k in range(depth)], [True] * (depth - 1) + [False]),
    ):
        (root,) = scan_unit("deep.c", "int f(int x) {\n" + body + "}\n").fragments
        shapes = [feat for feat in root.features if isinstance(feat, BranchShape)]
        assert [shape.condition_features for shape in shapes] == conditions
        assert [shape.has_else for shape in shapes] == has_else


# The reference reader: two of the three routines that read a line before
# one pass did, a comment cutter and a recursive expression lexer, each with
# its own copy of the string-literal rule. (The third, a brace counter, has
# no line balance left to check: braces end statements.)
_REF_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F]+|[\d.]+")
_REF_STRING_BODY_RE = re.compile(r'[^"\\]*(?:\\.?[^"\\]*)*')
_REF_WORD_RE = re.compile(r"\w+")
_REF_KEYWORDS = {"if", "else", "while", "for", "return", "switch", "sizeof"}


def _ref_string_end(text: str, i: int) -> int:
    return _REF_STRING_BODY_RE.match(text, i + 1).end()


def _ref_strip_comment(line: str) -> str:
    i = 0
    while (cut := line.find("//", i)) >= 0:
        quote = line.find('"', i, cut)
        if quote < 0:
            return line[:cut]
        i = _ref_string_end(line, quote) + 1
    return line


def _ref_scan_expression(text: str, out: list[KeyInstruction]) -> None:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            j = _ref_string_end(text, i)
            out.append(KeyInstruction(KeyKind.STRING_REF, operand=text[i + 1 : j]))
            i = j + 1
        elif ch.isdecimal():
            token = _REF_NUMBER_RE.match(text, i).group()
            if "." not in token:
                value = int(token, 16) if token[:2] in ("0x", "0X") else int(token)
                out.append(KeyInstruction(KeyKind.CONST_REF, operand=str(value)))
            i += len(token)
        elif ch.isalpha() or ch == "_":
            j = _REF_WORD_RE.match(text, i).end()
            k = j
            while k < n and text[k] in " \t":
                k += 1
            if k < n and text[k] == "(" and text[i:j] not in _REF_KEYWORDS:
                depth, m = 0, k
                while m < n:
                    if text[m] == '"':
                        m = _ref_string_end(text, m)
                    elif text[m] == "(":
                        depth += 1
                    elif text[m] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    m += 1
                _ref_scan_expression(text[k + 1 : m], out)
                out.append(KeyInstruction(KeyKind.CALL, operand=text[i:j]))
                i = m + 1
            else:
                i = j
        else:
            i += 1


_LINE_PIECES = [
    '"', "\\", "//", "/", "*", "(", ")", "{", "}", " ", "\t", ";", ",", "=",
    "if", "else", "sizeof", "f", "lib", "_x", "g (", "0x1F", "0x", "1.5", "42", "007", "é", "²", "٣",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=16).map("".join).filter(lambda line: "/*" not in line))
def test_one_read_of_a_line_equals_the_three_reader_reference(line):
    # Without block comments and char literals, the statements the scan
    # reads from a one-line body hold the reference's key instructions, in
    # its order. The extra braces keep the line inside the body whatever
    # braces it holds; a statement it leaves open runs on over the closing
    # line, which holds nothing but braces.
    cut = _ref_strip_comment(line)
    expected: list[KeyInstruction] = []
    _ref_scan_expression(cut, expected)
    code = scan_unit("m.c", "int f(void) {" + "{" * 16 + f"\n{line}\n" + "}" * 17 + "\n").code
    assert [ki for _kind, begin, end, _spread in code.stmts[1] for ki in code.keyins[begin:end]] == expected


_FUZZ_PIECES = [
    "#ifdef A", "#ifndef B", "#if defined(A) && B > 1", "#if (", "#elif A", "#else", "#endif", "#error stop", "#",
    "#ifdef (A)", "int f(int x) {", "static void g(void) {", "size_t", "h(x) {", "{", "}", "} else {",
    "} else if (x > 1) {", "if (x > 2) {", 'if (f("}")) {', "if (x)", "else", "while (x > 1) {",
    "for (i = 0; i < 3; i++) {", "switch (x) {", "case 1: f();", "do {", "} while (x);", 'lib("a\\"b", 0x1F);',
    "x = '{';", "'", '"', "/* {", "} */", "/*", "*/", "// }", "x = y;", "g(1, h(2", "\\", "",
    "if (a &&", "t[] = {", "PNG_FUNCTION(a, (b), c)",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_FUZZ_PIECES), min_size=1, max_size=3).map(" ".join), max_size=24))
def test_scan_build_and_features_raise_only_binprov_errors(lines):
    text = "\n".join(lines)
    try:
        scan = scan_unit("m.c", text)
    except BinprovError:
        return
    for frag in scan.fragments:
        assert isinstance(frag.features, tuple)
    tree = SourceTree.from_mapping({"m.c": text})
    for macros in (frozenset(), frozenset({"A"})):
        try:
            build_unoptimized(tree, ConfigAssignment(macros=macros))
        except BinprovError:
            pass


def _chain_groups(text: str) -> list[list[int]]:
    """Independent walker: per #if..#endif chain, the body start line of
    each arm. Used as the oracle for arm exclusivity."""
    groups: list[list[int]] = []
    stack: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = re.match(r"\s*#\s*(\w+)", raw)
        d = m.group(1) if m else None
        if d in ("if", "ifdef", "ifndef"):
            stack.append([lineno + 1])
        elif d in ("elif", "else"):
            stack[-1].append(lineno + 1)
        elif d == "endif":
            groups.append(stack.pop())
    return groups


def test_random_conditional_files_partition_exclusivity_implication():
    checked_pairs = 0
    checked_children = 0
    for index in range(200):
        text = generate_conditional_unit(1, index)
        scan = scan_unit("u.c", text)
        n_lines = len(text.splitlines())

        # partition: every line in exactly one fragment
        all_lines = sorted(ln for f in scan.fragments for ln in f.lines)
        assert all_lines == list(range(1, n_lines + 1))

        # chain exclusivity: arms of one chain are pairwise unsatisfiable
        frag_by_start = {f.span[0]: f for f in scan.fragments if not f.is_root}
        for group in _chain_groups(text):
            arms = [frag_by_start[s] for s in group if s in frag_by_start]
            for i in range(len(arms)):
                for j in range(i + 1, len(arms)):
                    out = solve([arms[i].condition, arms[j].condition])
                    assert isinstance(out, Unsatisfiable), (
                        f"arms {arms[i].condition_text()} and "
                        f"{arms[j].condition_text()} are jointly satisfiable"
                    )
                    checked_pairs += 1

        # child implies parent: child condition forbids not-parent
        frag_map = scan.fragment_map()
        for frag in scan.fragments:
            if frag.is_root:
                continue
            parent = frag_map[frag.parent]
            if isinstance(parent.condition, BoolConst):
                continue
            out = solve([frag.condition, neg(parent.condition)])
            assert isinstance(out, Unsatisfiable), (
                f"{frag.condition_text()} does not imply {parent.condition_text()}"
            )
            checked_children += 1
    assert checked_pairs > 50
    assert checked_children > 50


def test_scan_tree_maps_unit_names():
    tree = SourceTree.from_mapping({"a.c": "x;\n", "b.c": "#ifdef F\ny;\n#endif\n"})
    scans = scan_tree(tree)
    assert set(scans) == {"a.c", "b.c"}
    assert len(scans["b.c"].conditional_fragments()) == 1


def test_source_tree_keeps_its_own_units():
    units = [varsource.SourceUnit("m.c", "int f(void) {\n  return 1;\n}\n")]
    tree = SourceTree(units=units)
    units[0] = varsource.SourceUnit("m.c", "int g(void) {\n  return 2;\n}\n")
    assert tree.units == (varsource.SourceUnit("m.c", "int f(void) {\n  return 1;\n}\n"),)
    assert list(scan_tree(tree)["m.c"].functions) == ["f"]


def test_source_tree_rejects_a_repeated_unit_name():
    units = [varsource.SourceUnit("m.c", "int f(void) {\n}\n"),
             varsource.SourceUnit("m.c", "int g(void) {\n}\n")]
    with pytest.raises(SchemaError, match="unit 'm.c' twice"):
        SourceTree(units=units)


CONFIG_MAP_TEXT = """\
# build flags
with_cache : define USE_CACHE, define CACHE_STATS
with_net   : define USE_NET, unit net.c
with_dbg   : unit dbg.c
"""


def test_config_map_parse_and_lookup():
    cmap = ConfigMap.parse(CONFIG_MAP_TEXT)
    assert [f.name for f in cmap.flags] == ["with_cache", "with_net", "with_dbg"]
    assert cmap.macros_for(["with_cache"]) == {"USE_CACHE", "CACHE_STATS"}
    assert cmap.macros_for(["with_net", "with_dbg"]) == {"USE_NET"}
    assert cmap.units_for(["with_net", "with_dbg"]) == {"net.c", "dbg.c"}


def test_config_map_text_round_trips():
    hand = ConfigMap(flags=[
        ConfigFlag("with_net", defines=("USE_NET", "NET_V6"), units=("net.c",)),
        ConfigFlag("bare"),
    ])
    assert hand.to_text() == "with_net : define USE_NET, define NET_V6, unit net.c\nbare : \n"
    maps = [hand] + [case.config_map for seed in (1, 2, 3) for case in generate_corpus(seed, 21)]
    assert any(f.units for m in maps[1:] for f in m.flags)
    for cmap in maps:
        assert ConfigMap.parse(cmap.to_text()) == cmap


def test_config_map_rejects_malformed_lines():
    with pytest.raises(SchemaError):
        ConfigMap.parse("with_cache define USE_CACHE\n")
    with pytest.raises(SchemaError):
        ConfigMap.parse("with_cache : frobnicate USE_CACHE\n")
    with pytest.raises(SchemaError):
        ConfigMap.parse(" : define X\n")


def test_config_map_rejects_a_repeated_flag():
    # A repeated flag would let ``resolve_flags`` name it twice while its
    # configuration defines only the later line's macros.
    with pytest.raises(SchemaError, match="line 3: flag 'a' already defined on line 1"):
        ConfigMap.parse("a : define X\nb : define Z\na : define Y\n")


def test_config_map_unknown_flag_is_a_gap():
    cmap = ConfigMap.parse(CONFIG_MAP_TEXT)
    with pytest.raises(MapGapError):
        cmap.macros_for(["with_gui"])
    with pytest.raises(MapGapError):
        cmap.units_for(["with_gui"])


def test_resolve_flags_exact_union():
    cmap = ConfigMap.parse(CONFIG_MAP_TEXT)
    flags = resolve_flags(cmap, {"USE_CACHE", "CACHE_STATS", "USE_NET"}, {"net.c"})
    assert flags == ["with_cache", "with_net"]
    assert resolve_flags(cmap, set(), set()) == []


def test_resolve_flags_reports_unexplained_macros():
    cmap = ConfigMap.parse(CONFIG_MAP_TEXT)
    with pytest.raises(MapGapError):
        resolve_flags(cmap, {"USE_MYSTERY"}, set())
    # partial macro sets cannot turn a multi-macro flag on
    with pytest.raises(MapGapError):
        resolve_flags(cmap, {"USE_CACHE"}, set())


def test_resolve_flags_reports_unexplained_units():
    cmap = ConfigMap.parse(CONFIG_MAP_TEXT)
    with pytest.raises(MapGapError):
        resolve_flags(cmap, set(), {"mystery.c"})


def test_nested_condition_text_composes_guards():
    text = "#ifdef A\n#ifdef B\nx;\n#endif\n#endif\n"
    scan = scan_unit("u.c", text)
    inner = [f for f in scan.fragments if f.lines == [3]][0]
    assert to_text(inner.condition) == "defined(A) && defined(B)"


def test_scan_unit_pauses_and_restores_the_collector(collector, monkeypatch):
    seen = []
    guard_of = varsource._guard_of
    monkeypatch.setattr(varsource, "_guard_of", lambda *args: seen.append(gc.isenabled()) or guard_of(*args))
    scan_unit("parser.c", XMLLINT_SNIPPET)
    assert seen and not any(seen)
    assert gc.isenabled() is collector
    with pytest.raises(SchemaError):
        scan_unit("u.c", "#endif\n")
    assert gc.isenabled() is collector
    with pytest.raises(AttributeError):
        scan_unit("u.c", None)
    assert gc.isenabled() is collector


# --- ConfigMap.parse on mutated and truncated text ------------------------------

_CONFIG_MAP_PIECES = [
    "with_cache", "with_net", "bare", " : ", ":", "define", "unit", "frobnicate", " ", "\t",
    "USE_CACHE", "net.c", ",", ", ", "#", "\n", "\r", "\x0c", "\u2028", "é", "\\",
]


@st.composite
def _config_map_texts(draw) -> str:
    how = draw(st.sampled_from(["pieces", "truncated", "mutated"]))
    if how == "pieces":
        return "".join(draw(st.lists(st.sampled_from(_CONFIG_MAP_PIECES), max_size=24)))
    if how == "truncated":
        return CONFIG_MAP_TEXT[: draw(st.integers(0, len(CONFIG_MAP_TEXT)))]
    # Keys and values of the map swapped for pieces, one span at a time.
    text = CONFIG_MAP_TEXT
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.sampled_from(_CONFIG_MAP_PIECES)) + text[end:]
    return text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_config_map_texts())
def test_config_map_parse_raises_only_binprov_errors(text):
    try:
        cmap = ConfigMap.parse(text)
    except BinprovError:
        return
    assert ConfigMap.parse(cmap.to_text()) == cmap
