"""Build oracle: option space, unoptimized emission, transform chain, backends."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import subprocess
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov import buildoracle, varsource
from binprov.binmodel import (
    BasicBlock,
    BinaryProgram,
    Function,
    KeyInstruction,
    KeyKind,
    serialize_model,
)
from binprov.buildoracle import (
    COMPILERS,
    DEFAULT_VERSIONS,
    LEVELS,
    PADS_PER_THETA,
    THETA,
    VERSIONS,
    BuildSpec,
    ConfigAssignment,
    ExternalToolchain,
    SimulatedToolchain,
    all_option_specs,
    apply_transforms,
    build_unoptimized,
    default_spec,
    version_theta,
)
from binprov.corpusgen import generate_corpus
from binprov.errors import (
    BinprovError,
    BuildFailureError,
    ConfigError,
    OracleUnavailableError,
    SchemaError,
)
from binprov.pipeline import run_generated_case, similarity_matrix
from binprov.simdiff import index_program, spp_fingerprint
from binprov.varsource import SourceTree, scan_tree

EMPTY_CONFIG = ConfigAssignment()


def _consts(fn):
    return [
        (blk.id, [ki.operand for ki in blk.keyins if ki.kind is KeyKind.CONST_REF])
        for blk in fn.blocks
    ]


def _pad_operands(program):
    return [
        ki.operand
        for fn in program.functions
        for blk in fn.blocks
        for ki in blk.keyins
        if ki.kind is KeyKind.CONST_REF and ki.operand and 7100 <= int(ki.operand) < 7200
    ]


def _fn(program, fid):
    return next(f for f in program.functions if f.id == fid)


# --- option space ----------------------------------------------------------


def test_option_space_is_fifty_unique_specs():
    specs = all_option_specs()
    assert len(specs) == 50
    assert len(set(specs)) == 50
    for spec in specs:
        assert BuildSpec.from_text(spec.text()) == spec


def test_spec_validation_rejects_unknowns():
    with pytest.raises(ConfigError):
        BuildSpec("icc", "19", "O2").validate()
    with pytest.raises(ConfigError):
        BuildSpec("gcc", "3.9", "O2").validate()  # clang version, gcc family
    with pytest.raises(ConfigError):
        BuildSpec("gcc", "6", "O4").validate()
    with pytest.raises(ConfigError):
        BuildSpec.from_text("gcc-6")


_SPEC_PIECES = [*COMPILERS, *{v for vs in VERSIONS.values() for v in vs}, *LEVELS, "-", "--", "", " ", "icc", "O4", "é", "\n"]


@st.composite
def _spec_texts(draw) -> str:
    how = draw(st.sampled_from(["pieces", "truncated", "mutated"]))
    if how == "pieces":
        return "".join(draw(st.lists(st.sampled_from(_SPEC_PIECES), max_size=7)))
    text = draw(st.sampled_from(all_option_specs())).text()
    if how == "truncated":
        return text[: draw(st.integers(0, len(text)))]
    parts = text.split("-")
    parts[draw(st.integers(0, 2))] = draw(st.sampled_from(_SPEC_PIECES))
    return "-".join(parts)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_spec_texts())
def test_spec_from_text_raises_only_binprov_errors(text):
    try:
        spec = BuildSpec.from_text(text)
    except BinprovError:
        return
    assert spec.text() == text


def test_version_theta_ladder():
    for compiler in VERSIONS:
        thetas = [
            version_theta(BuildSpec(compiler, v, "O2")) for v in VERSIONS[compiler]
        ]
        assert thetas == list(THETA)
    for compiler, version in DEFAULT_VERSIONS.items():
        assert version_theta(default_spec(compiler, "O0")) == THETA[1]


# --- unoptimized emission ----------------------------------------------------

GUARDED_SRC = """\
int probe(int x) {
    lib_trace("always");
#ifdef FEAT
    lib_trace("feature-on");
#endif
}
#ifdef FEAT
int extra(int x) {
    x = x + 9;
}
#endif
"""


def _strings(program):
    return {
        ki.operand
        for fn in program.functions
        for blk in fn.blocks
        for ki in blk.keyins
        if ki.kind is KeyKind.STRING_REF
    }


def test_guarded_code_follows_macros():
    tree = SourceTree.from_mapping({"m.c": GUARDED_SRC})
    off = build_unoptimized(tree, EMPTY_CONFIG)
    on = build_unoptimized(tree, ConfigAssignment(macros=frozenset({"FEAT"})))
    assert _strings(off) == {"always"}
    assert _strings(on) == {"always", "feature-on"}
    assert [f.id for f in off.functions] == ["probe"]
    assert [f.id for f in on.functions] == ["extra", "probe"]


def test_error_directive_aborts_build():
    src = "#ifdef BAD\n#error not buildable\n#endif\nint f(void) {\n    g();\n}\n"
    tree = SourceTree.from_mapping({"m.c": src})
    build_unoptimized(tree, EMPTY_CONFIG)  # guard off: fine
    with pytest.raises(BuildFailureError, match=r"m\.c:2: not buildable"):
        build_unoptimized(tree, ConfigAssignment(macros=frozenset({"BAD"})))


def test_unknown_unit_rejected():
    tree = SourceTree.from_mapping({"m.c": "int f(void) {\n    g();\n}\n"})
    with pytest.raises(ConfigError):
        build_unoptimized(tree, ConfigAssignment(units=("ghost.c",)))


def test_unit_listed_twice_rejected():
    with pytest.raises(ConfigError, match="unit 'a.c' listed twice"):
        ConfigAssignment(units=("a.c", "b.c", "a.c"))


def test_function_defined_in_two_units_fails_the_build():
    tree = SourceTree.from_mapping({
        "a.c": "int f(void) {\n    g();\n}\n",
        "b.c": "#ifdef DUP\nint f(void) {\n    h();\n}\n#endif\n",
    })
    backend = SimulatedToolchain(tree)
    spec = BuildSpec("gcc", "6", "O0")
    assert [fn.id for fn in backend.build(spec, EMPTY_CONFIG).functions] == ["f"]
    dup = ConfigAssignment(macros=frozenset({"DUP"}))
    with pytest.raises(BuildFailureError, match="function 'f' defined in both a.c and b.c"):
        build_unoptimized(tree, dup)
    with pytest.raises(BuildFailureError, match="function 'f' defined in both a.c and b.c"):
        backend.build(spec, dup)


def test_source_tree_cannot_be_edited():
    # Every cache of the toolchain and the tree's scans assume the text they
    # were filled from, so a tree refuses edits; new text means a new tree.
    mapping = {"m.c": "int f(void) {\n    g();\n}\n"}
    tree = SourceTree.from_mapping(mapping)
    backend = SimulatedToolchain(tree)
    assert [fn.id for fn in backend.build(BuildSpec("gcc", "6", "O0"), EMPTY_CONFIG).functions] == ["f"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.units[0].text += "int added(void) {\n    return 1;\n}\n"
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.units = ()
    mapping["m.c"] += "int added(void) {\n    return 1;\n}\n"
    edited = SourceTree.from_mapping(mapping)
    rebuilt = SimulatedToolchain(edited).build(BuildSpec("gcc", "6", "O1"), EMPTY_CONFIG)
    assert sorted(fn.id for fn in rebuilt.functions) == ["added", "f"]
    assert list(scan_tree(edited)["m.c"].functions) == ["f", "added"]


FIXTURE_SRC = """\
int widget(int x) {
    setup(11);
    if (x == 1) {
        lib_trace("one");
    } else {
        tally(22);
    }
    finish(33);
}
int straight(void) {
    a_call(44);
    b_call(55);
    c_call(66);
}
int hubby(int x) {
    route_a();
    route_b();
}
int leafy(int x) {
    x = x + 77;
}
"""


@pytest.fixture(scope="module")
def fixture_base():
    tree = SourceTree.from_mapping({"m.c": FIXTURE_SRC})
    return build_unoptimized(tree, EMPTY_CONFIG, name="t")


def test_unoptimized_emits_statement_per_block(fixture_base):
    straight = _fn(fixture_base, "straight")
    assert [blk.id for blk in straight.blocks] == ["b0", "b1", "b2"]
    assert [blk.succs for blk in straight.blocks] == [["b1"], ["b2"], []]
    widget = _fn(fixture_base, "widget")
    # diamond: cond has two successors and a COMPARE, arms rejoin at finish
    cond = widget.blocks[1]
    assert any(ki.kind is KeyKind.COMPARE for ki in cond.keyins)
    assert len(cond.succs) == 2
    # the empty join between the arms and finish(33) was elided
    assert all(blk.keyins or not blk.succs for blk in widget.blocks)
    assert len(widget.blocks) == 5


def test_unoptimized_keeps_terminal_empty_join():
    src = "int f(int x) {\n    if (x == 1) {\n        g();\n    }\n}\n"
    base = build_unoptimized(SourceTree.from_mapping({"m.c": src}), EMPTY_CONFIG)
    fn = base.functions[0]
    tails = [blk for blk in fn.blocks if not blk.succs]
    assert len(tails) == 1 and not tails[0].keyins


def test_unoptimized_corpus_shapes(base0):
    sizes = {fn.id: len(fn.blocks) for fn in base0.functions}
    compare_blocks = {
        fn.id: sum(
            1
            for blk in fn.blocks
            if any(ki.kind is KeyKind.COMPARE for ki in blk.keyins)
        )
        for fn in base0.functions
    }
    workers = [fid for fid in sizes if fid.startswith("fn_")]
    assert len(workers) == 7
    assert all(sizes[fid] == 14 for fid in workers)
    assert all(compare_blocks[fid] == 3 for fid in workers)
    assert sizes["run_entry"] == 14
    assert sizes["hub_a"] == 5 and sizes["hub_b"] == 6
    assert sizes["dup_copy_a"] == sizes["dup_copy_b"] == 2
    assert sizes["leaf_log"] == sizes["leaf_tick"] == 2
    assert not base0.stripped
    assert [f.id for f in base0.functions] == sorted(sizes)


def _elide_one_at_a_time(fn: Function) -> None:
    """The elision the one-sweep ``_elide_empty_blocks`` replaced: remove
    the first pass-through block, reroute, and start over."""
    changed = True
    while changed:
        changed = False
        for blk in list(fn.blocks):
            if blk.keyins or len(blk.succs) != 1 or blk.succs[0] == blk.id:
                continue
            dest = blk.succs[0]
            for other in fn.blocks:
                if other is not blk:
                    other.succs = [dest if s == blk.id else s for s in other.succs]
            if fn.entry == blk.id:
                fn.entry = dest
            fn.blocks.remove(blk)
            changed = True
            break


def _random_body(rng, depth=0) -> list[str]:
    """Nested if/else statements, calls, and statements with no key
    instruction, which emit empty pass-through blocks."""
    lines = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if depth < 3 and roll < 0.4:
            lines.append(f"if (x > {rng.randint(0, 9)}) {{")
            lines += _random_body(rng, depth + 1)
            if rng.random() < 0.5:
                lines.append("} else {")
                lines += _random_body(rng, depth + 1)
            lines.append("}")
        elif roll < 0.7:
            lines.append(f"g({rng.randint(0, 9)});")
        else:
            lines.append("x = y;")
    return lines


def _unelided(body: list[str]) -> Function:
    code = varsource.scan_unit("m.c", "int f(int x) {\n" + "".join(f"{line}\n" for line in body) + "}\n").code
    blocks = buildoracle._emit_blocks(code, tuple(range(2, len(body) + 2)))
    return Function(id="f", entry="b0", blocks=blocks, symbol="f")


def _shape(fn: Function):
    return fn.entry, [(blk.id, blk.keyins, blk.succs) for blk in fn.blocks]


def test_one_sweep_elision_equals_eliding_one_block_at_a_time():
    rng = random.Random(7)
    elided = 0
    for _ in range(400):
        body = _random_body(rng)
        swept, reference = _unelided(body), _unelided(body)
        before = len(swept.blocks)
        buildoracle._elide_empty_blocks(swept)
        _elide_one_at_a_time(reference)
        assert _shape(swept) == _shape(reference), body
        elided += before - len(swept.blocks)
    assert elided > 1000


# The reference statement tree: the recursive parse, emitter and feature
# walk that the one flat walk (``varsource._statements``) replaced, over the
# line reader that came before the statement reader. Its ``}`` line opens an
# else arm when its code holds ``else`` anywhere.
_REF_IF_RE = re.compile(r"^\s*if\s*\(.*\)\s*\{\s*$")
_REF_ELSE_IF_RE = re.compile(r"^\s*\}\s*else\s+if\s*\(.*\)\s*\{\s*$")
_REF_KEYWORDS = {"if", "else", "while", "for", "return", "switch", "sizeof"}
_REF_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F]+|[\d.]+")
_REF_WORD_RE = re.compile(r"\w+")
_REF_CALL_OPEN_RE = re.compile(r"[ \t]*\(")
_REF_LITERAL_BODY_RE = {quote: re.compile(rf"[^{quote}\\]*(?:\\.?[^{quote}\\]*)*") for quote in "\"'"}


def _reference_read_line(line: str) -> tuple[str, list[KeyInstruction]]:
    """The line reader's one left-to-right read of a line with no block
    comment: its code, up to a ``//`` comment, and the key instructions the
    build emitted for it. A call closes at its ``)`` or at the end of the
    line, so its arguments come before it."""
    out: list[KeyInstruction] = []
    parens: list[str | None] = []
    i, end = 0, len(line)
    while i < end:
        ch = line[i]
        i += 1
        if ch in "\"'":
            j = _REF_LITERAL_BODY_RE[ch].match(line, i).end()
            if ch == '"':
                out.append(KeyInstruction(KeyKind.STRING_REF, line[i:j]))
            i = j + 1
        elif ch == "/" and line.startswith("/", i):
            end = i - 1
        elif ch == "(":
            parens.append(None)
        elif ch == ")":
            if parens and (call := parens.pop()):
                out.append(KeyInstruction(KeyKind.CALL, call))
        elif ch.isdecimal():
            token = _REF_NUMBER_RE.match(line, i - 1).group()
            if "." not in token:
                value = int(token, 16) if token[:2] in ("0x", "0X") else int(token)
                out.append(KeyInstruction(KeyKind.CONST_REF, str(value)))
            i += len(token) - 1
        elif ch.isalpha() or ch == "_":
            j = _REF_WORD_RE.match(line, i - 1).end()
            word = line[i - 1 : j]
            if word not in _REF_KEYWORDS and (m := _REF_CALL_OPEN_RE.match(line, j)):
                parens.append(word)
                j = m.end()
            i = j
    out.extend(KeyInstruction(KeyKind.CALL, call) for call in reversed(parens) if call)
    return line[:end], out


def _reference_features(keyins) -> tuple:
    return tuple((ki.kind, ki.operand) for ki in keyins)


@dataclasses.dataclass
class _ReferenceIf:
    line: int
    then_body: list
    else_body: list | None


def _reference_parse_statements(read, lines, i, stop_at_brace):
    stmts = []
    while i < len(lines):
        stripped = read[lines[i] - 1][0].strip()
        if stripped.startswith("}") and stop_at_brace:
            return stmts, i
        if _REF_IF_RE.match(stripped):
            stmt, i = _reference_parse_if(read, lines, i + 1, lines[i])
            stmts.append(stmt)
            continue
        if stripped and not stripped.startswith("}"):
            stmts.append(lines[i])
        i += 1
    return stmts, i


def _reference_parse_if(read, lines, i, line):
    then_body, i = _reference_parse_statements(read, lines, i, stop_at_brace=True)
    closing = read[lines[i] - 1][0].strip() if i < len(lines) else "}"
    if _REF_ELSE_IF_RE.match(closing):
        nested, i = _reference_parse_if(read, lines, i + 1, lines[i])
        return _ReferenceIf(line, then_body, [nested]), i
    else_body = None
    if "else" in closing:
        else_body, i = _reference_parse_statements(read, lines, i + 1, stop_at_brace=True)
    return _ReferenceIf(line, then_body, else_body), i + 1


def _reference_emit_blocks(read, lines) -> list[BasicBlock]:
    blocks: list[BasicBlock] = []

    def new_block() -> BasicBlock:
        blocks.append(BasicBlock(id=f"b{len(blocks)}"))
        return blocks[-1]

    def emit_chain(stmts):
        first, tails = None, []
        for stmt in stmts:
            head = new_block()
            is_if = isinstance(stmt, _ReferenceIf)
            head.keyins.extend(read[(stmt.line if is_if else stmt) - 1][1])
            first = first or head
            for t in tails:
                t.succs.append(head.id)
            tails = [head]
            if is_if:
                head.keyins.append(KeyInstruction(KeyKind.COMPARE))
                join = new_block()
                for arm in (stmt.then_body, stmt.else_body or []):
                    arm_first, arm_tails = emit_chain(arm)
                    head.succs.append((arm_first or join).id)
                    for t in arm_tails:
                        t.succs.append(join.id)
                tails = [join]
        return first, tails

    stmts, _ = _reference_parse_statements(read, lines, 0, stop_at_brace=False)
    if emit_chain(stmts)[0] is None:
        new_block()
    return blocks


def _reference_statement_features(read, stmts, out) -> None:
    for stmt in stmts:
        if isinstance(stmt, _ReferenceIf):
            condition = _reference_features(read[stmt.line - 1][1])
            out.append(varsource.BranchShape(condition, stmt.else_body is not None))
            out.extend(condition)
            _reference_statement_features(read, stmt.then_body, out)
            _reference_statement_features(read, stmt.else_body or [], out)
        else:
            out.extend(_reference_features(read[stmt - 1][1]))


_CONDITIONS = st.sampled_from(["x > 3", "x == 0x1f", 'eq(s, "}")', "g(7)"])
_SIMPLE_STATEMENTS = st.sampled_from(["g(1);", "x = y;", 'lib("s", 2);', "", "// } else {", "acc = 5; // else"])


def _draw_statements(draw, depth: int, lines: list[str]) -> None:
    """Draw statements into ``lines``: ifs nested up to 4 deep, each with up
    to two ``else if`` arms and an optional ``else`` arm; at most about 40
    lines in all."""
    for _ in range(draw(st.integers(0, 3))):
        if len(lines) > 40:
            return
        if depth < 4 and draw(st.booleans()):
            lines.append(f"if ({draw(_CONDITIONS)}) {{")
            _draw_statements(draw, depth + 1, lines)
            for _ in range(draw(st.integers(0, 2))):
                lines.append(f"}} else if ({draw(_CONDITIONS)}) {{")
                _draw_statements(draw, depth + 1, lines)
            if draw(st.booleans()):
                lines.append("} else {")
                _draw_statements(draw, depth + 1, lines)
            lines.append("}")
        else:
            lines.append(draw(_SIMPLE_STATEMENTS))


@st.composite
def _body_and_active_lines(draw):
    """A random body and the line numbers of the lines left active, as a
    configuration may leave any subset of a body active."""
    body: list[str] = []
    _draw_statements(draw, 0, body)
    dropped = draw(st.sets(st.integers(0, len(body) - 1))) if body else set()
    return body, tuple(k + 2 for k in range(len(body)) if k not in dropped)


@settings(max_examples=150, deadline=None)
@given(_body_and_active_lines())
def test_the_flat_walk_emits_and_features_what_the_statement_tree_did(drawn):
    body, active = drawn
    text = "int f(int x) {\n" + "".join(f"{line}\n" for line in body) + "}\n"
    scan = varsource.scan_unit("m.c", text)
    code = scan.code
    read = [_reference_read_line(line) for line in text.splitlines()]
    walked = buildoracle._emit_blocks(code, active)
    assert [(b.id, b.keyins, b.succs) for b in walked] == [
        (b.id, b.keyins, b.succs) for b in _reference_emit_blocks(read, active)
    ]
    expected: list = []
    stmts, _ = _reference_parse_statements(read, active, 0, stop_at_brace=False)
    _reference_statement_features(read, stmts, expected)
    (root,) = scan.fragments
    # The header line is in no body, so the walk reads only the active lines.
    assert varsource._fragment_features(dataclasses.replace(root, lines=[1, *active]), code) == tuple(expected)


# --- transform chain ---------------------------------------------------------


def test_transforms_deterministic_and_pure(fixture_base, base0, specs):
    spec = BuildSpec("clang", "5.0", "O3")
    before = serialize_model(fixture_base)
    once = serialize_model(apply_transforms(fixture_base, spec))
    twice = serialize_model(apply_transforms(fixture_base, spec))
    assert once == twice
    assert serialize_model(fixture_base) == before  # input untouched
    assert apply_transforms(fixture_base, spec).name == "t@clang-5.0-O3"
    # no spec touches its input; base0 holds dup_copy_a/b, so Os retargets calls
    before0 = serialize_model(base0)
    for other in specs:
        apply_transforms(base0, other)
        assert serialize_model(base0) == before0, other.text()


def test_version_pads_scale_with_version(fixture_base, base0):
    # fixture has 2 compare blocks (widget cond + leafy? no: widget only)
    n_sites = sum(
        1
        for fn in fixture_base.functions
        for blk in fn.blocks
        if any(ki.kind is KeyKind.COMPARE for ki in blk.keyins)
    )
    assert n_sites == 1
    assert _pad_operands(apply_transforms(fixture_base, BuildSpec("gcc", "5", "O0"))) == []
    assert _pad_operands(apply_transforms(fixture_base, BuildSpec("gcc", "6", "O0"))) == ["7100"]
    # corpus has 24 compare blocks; theta=10 wants 20 pads and gets them
    padded = _pad_operands(apply_transforms(base0, BuildSpec("gcc", "9", "O0")))
    assert sorted(padded) == [str(7100 + i) for i in range(PADS_PER_THETA * THETA[4])]
    # pad placement is deterministic and lands in compare blocks only
    twice = apply_transforms(base0, BuildSpec("gcc", "9", "O0"))
    for fn in twice.functions:
        for blk in fn.blocks:
            ops = [
                ki.operand
                for ki in blk.keyins
                if ki.kind is KeyKind.CONST_REF and ki.operand and ki.operand.startswith("71")
            ]
            if ops:
                assert any(ki.kind is KeyKind.COMPARE for ki in blk.keyins)


def test_flavor_marks_clang_compare_and_call_blocks(fixture_base):
    gcc = apply_transforms(fixture_base, BuildSpec("gcc", "6", "O0"))
    assert "runtime-guard" not in _strings(gcc)
    clang = apply_transforms(fixture_base, BuildSpec("clang", "4.0", "O0"))
    widget = _fn(clang, "widget")
    for blk in widget.blocks:
        has_cmp = any(ki.kind is KeyKind.COMPARE for ki in blk.keyins)
        has_marker = any(
            ki.kind is KeyKind.STRING_REF and ki.operand == "runtime-guard"
            for ki in blk.keyins
        )
        assert has_marker == has_cmp
    # branch-free functions that call something carry the marker at entry
    for fid in ("straight", "hubby"):
        fn = _fn(clang, fid)
        entry = next(blk for blk in fn.blocks if blk.id == fn.entry)
        assert any(ki.operand == "runtime-guard" for ki in entry.keyins)
    # call-free straight-line functions stay bare
    leafy = _fn(clang, "leafy")
    assert all(
        ki.operand != "runtime-guard" for blk in leafy.blocks for ki in blk.keyins
    )


def test_merge_collapses_single_pred_chains(fixture_base, base0, specs):
    o1 = apply_transforms(fixture_base, BuildSpec("gcc", "5", "O1"))
    assert len(_fn(o1, "straight").blocks) == 1
    # order of key instructions is preserved through the merge
    merged = _fn(o1, "straight").blocks[0]
    assert [ki.operand for ki in merged.keyins if ki.kind is KeyKind.CALL] == [
        "a_call",
        "b_call",
        "c_call",
    ]
    # diamond arms survive (the join has two predecessors)
    assert len(_fn(o1, "widget").blocks) == 4
    # corpus workers: 14 unoptimized blocks condense to 9
    o1c = apply_transforms(base0, BuildSpec("gcc", "5", "O1"))
    assert len(_fn(o1c, "fn_a0").blocks) == 9
    assert len(_fn(base0, "fn_a0").blocks) == 14


def test_fold_strips_consts_from_nonbranch_blocks_only(fixture_base):
    o2 = apply_transforms(fixture_base, BuildSpec("gcc", "5", "O2"))
    # post-merge, straight is one call-laden block; its consts all fold
    assert _consts(_fn(o2, "straight")) == [("b0", [])]
    # calls and strings survive folding
    assert [ki.operand for ki in _fn(o2, "straight").blocks[0].keyins] == [
        "a_call",
        "b_call",
        "c_call",
    ]
    # the comparison immediate is sheltered: setup(11) merged into the
    # compare block keeps 11 and the branch constant 1
    widget = _fn(o2, "widget")
    cond = next(
        blk
        for blk in widget.blocks
        if any(ki.kind is KeyKind.COMPARE for ki in blk.keyins)
    )
    ops = [ki.operand for ki in cond.keyins if ki.kind is KeyKind.CONST_REF]
    assert ops == ["11", "1"]


def test_fold_site_choice_ignores_version_and_level(base0):
    def folded_sites(spec):
        out = apply_transforms(base0, spec)
        sites = set()
        for fn in out.functions:
            for blk in fn.blocks:
                if any(ki.kind is KeyKind.COMPARE for ki in blk.keyins):
                    continue
                if not any(ki.kind is KeyKind.CONST_REF for ki in blk.keyins):
                    sites.add((fn.id, blk.id))
        return sites

    assert folded_sites(BuildSpec("gcc", "5", "O2")) == folded_sites(
        BuildSpec("gcc", "9", "O2")
    )
    assert folded_sites(BuildSpec("gcc", "5", "O2")) == folded_sites(
        BuildSpec("gcc", "5", "O3")
    )


def test_inline_expands_small_callfree_callees():
    src = (
        "int tiny(void) {\n    t = 88;\n}\n"
        "int caller(void) {\n    tiny();\n    lib_trace(\"keep\");\n}\n"
    )
    base = build_unoptimized(SourceTree.from_mapping({"m.c": src}), EMPTY_CONFIG)
    o3 = apply_transforms(base, BuildSpec("gcc", "5", "O3"))
    caller = _fn(o3, "caller")
    kinds = [(ki.kind, ki.operand) for blk in caller.blocks for ki in blk.keyins]
    # the tiny() call was replaced by tiny's body; the library call stays
    assert (KeyKind.CALL, "tiny") not in kinds
    assert (KeyKind.CONST_REF, "88") in kinds or (KeyKind.CALL, "lib_trace") in kinds
    assert (KeyKind.CALL, "lib_trace") in kinds
    # the callee itself is not removed
    assert any(f.id == "tiny" for f in o3.functions)
    # no inlining below O3
    o2 = apply_transforms(base, BuildSpec("gcc", "5", "O2"))
    kinds2 = [(ki.kind, ki.operand) for blk in _fn(o2, "caller").blocks for ki in blk.keyins]
    assert (KeyKind.CALL, "tiny") in kinds2


def test_inline_skips_callees_with_calls():
    src = (
        "int relay(void) {\n    lib_trace(\"inner\");\n}\n"
        "int caller(void) {\n    relay();\n}\n"
    )
    base = build_unoptimized(SourceTree.from_mapping({"m.c": src}), EMPTY_CONFIG)
    o3 = apply_transforms(base, BuildSpec("gcc", "5", "O3"))
    kinds = [
        (ki.kind, ki.operand) for blk in _fn(o3, "caller").blocks for ki in blk.keyins
    ]
    assert (KeyKind.CALL, "relay") in kinds


def test_dedup_merges_identical_bodies(base0):
    os_build = apply_transforms(base0, BuildSpec("gcc", "6", "Os"))
    ids = {fn.id for fn in os_build.functions}
    assert "dup_copy_a" in ids and "dup_copy_b" not in ids
    calls = {
        ki.operand
        for fn in os_build.functions
        for blk in fn.blocks
        for ki in blk.keyins
        if ki.kind is KeyKind.CALL and ki.operand and "dup_copy" in ki.operand
    }
    assert calls == {"dup_copy_a"}
    # dedup only happens at Os
    o2 = apply_transforms(base0, BuildSpec("gcc", "6", "O2"))
    assert {"dup_copy_a", "dup_copy_b"} <= {fn.id for fn in o2.functions}


def _chain_base():
    """Entry b5 runs the chain b5 -> b3 -> b1 -> b2 into a diamond. In block-id
    order b1 absorbs b2, then b3 absorbs b1, then b5 absorbs b3, so b5 must
    end with all four blocks' instructions and b2's successors."""

    def ki(kind, operand=None):
        return KeyInstruction(kind, operand=operand)

    blocks = [
        BasicBlock("b1", [ki(KeyKind.STRING_REF, "one")], ["b2"]),
        BasicBlock("b2", [ki(KeyKind.COMPARE), ki(KeyKind.CONST_REF, "2")], ["b4", "b6"]),
        BasicBlock("b3", [ki(KeyKind.CONST_REF, "3")], ["b1"]),
        BasicBlock("b4", [ki(KeyKind.CALL, "left"), ki(KeyKind.CONST_REF, "4")], ["b6"]),
        BasicBlock("b5", [ki(KeyKind.CALL, "start")], ["b3"]),
        BasicBlock("b6", [ki(KeyKind.CONST_REF, "6")], []),
    ]
    return BinaryProgram("chain", functions=[Function("f", "b5", blocks, symbol="f")])


def _layout(program):
    return [
        (blk.id, [(ki.kind.value, ki.operand) for ki in blk.keyins], blk.succs)
        for blk in program.functions[0].blocks
    ]


def test_merge_carries_an_absorbed_absorber_whole():
    # Expected outputs computed with the per-pass transform chain the plan
    # replaced. The pad and the clang marker land in b2 and travel with it.
    head = [("call", "start"), ("const", "3"), ("str", "one"), ("cmp", None), ("const", "2")]
    clang = head + [("const", "7100"), ("str", "runtime-guard")]
    o1 = apply_transforms(_chain_base(), BuildSpec("clang", "4.0", "O1"))
    assert _layout(o1) == [
        ("b4", [("call", "left"), ("const", "4")], ["b6"]),
        ("b5", clang, ["b4", "b6"]),
        ("b6", [("const", "6")], []),
    ]
    o2 = apply_transforms(_chain_base(), BuildSpec("clang", "4.0", "O2"))
    assert _layout(o2) == [
        ("b4", [("call", "left"), ("const", "4")], ["b6"]),
        ("b5", clang, ["b4", "b6"]),
        ("b6", [], []),
    ]
    gcc = apply_transforms(_chain_base(), BuildSpec("gcc", "5", "O2"))
    assert _layout(gcc) == [
        ("b4", [("call", "left")], ["b6"]),
        ("b5", head, ["b4", "b6"]),
        ("b6", [("const", "6")], []),
    ]


def test_apply_transforms_equals_the_planned_toolchain_build(base0, backend0, seed_config0, specs):
    for spec in specs:
        assert serialize_model(apply_transforms(base0, spec)) == serialize_model(
            backend0.build(spec, seed_config0)
        ), spec.text()


# --- backends ----------------------------------------------------------------


def test_simulated_toolchain_caches_builds(case0):
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    cfg = ConfigAssignment(macros=frozenset(), units=tuple(sorted(case0.base_units)))
    spec = BuildSpec("gcc", "6", "O2")
    first = backend.build(spec, cfg)
    assert backend.build_count == 1
    assert backend.build(spec, cfg) is first
    assert backend.build_count == 1
    backend.build(BuildSpec("gcc", "6", "O3"), cfg)
    backend.build(spec, ConfigAssignment(macros=frozenset({"X"}), units=cfg.units))
    assert backend.build_count == 3
    with pytest.raises(ConfigError):
        backend.build(BuildSpec("tcc", "1", "O2"), cfg)


def test_simulated_builds_match_golden_digest(corpus21, specs):
    # sha256 over every serialized build: 21 cases x 2 configurations x 50
    # specs, computed with the deep-copying builder the cached one replaced.
    digest = hashlib.sha256()
    for case in corpus21:
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        for cfg in (case.seed_config(), EMPTY_CONFIG):
            for spec in specs:
                digest.update(serialize_model(backend.build(spec, cfg)).encode())
    assert digest.hexdigest() == (
        "6ef4ee7990eaa09b38865d68d1b86d673a71e5404b8fd25a30fcb1abdb42a763"
    )


def test_simulated_toolchain_builds_each_base_once(case0, specs, monkeypatch):
    calls = []

    def counting(tree, config, *args, **kwargs):
        calls.append(config.key())
        return build_unoptimized(tree, config, *args, **kwargs)

    monkeypatch.setattr(buildoracle, "build_unoptimized", counting)
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    configs = (case0.seed_config(), EMPTY_CONFIG)
    for cfg in configs:
        for spec in specs:
            backend.build(spec, cfg)
    assert calls == [cfg.key() for cfg in configs]
    assert backend.build_count == 2 * len(specs)


def test_simulated_toolchain_plans_each_base_once(case0, specs, monkeypatch):
    # Every fresh build of one configuration, at either compiler, replays
    # the same list of its functions' parts.
    replayed = []  # (base, compiler, parts) of every fresh build

    def recording(program, spec, parts=None):
        replayed.append((program, spec.compiler, parts))
        return apply_transforms(program, spec, parts)

    monkeypatch.setattr(buildoracle, "apply_transforms", recording)
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    configs = (case0.seed_config(), EMPTY_CONFIG)
    for cfg in configs:
        for spec in specs:
            backend.build(spec, cfg)
    bases = {id(base): base for base, _, _ in replayed}
    assert len(bases) == len(configs)
    for base in bases.values():
        served = [(c, parts) for b, c, parts in replayed if b is base]
        assert len(served) == len(specs) and {c for c, _ in served} == set(COMPILERS)
        assert all(parts is served[0][1] for _, parts in served)
        assert served[0][1] == [buildoracle._plan_function(fn) for fn in base.functions]
    assert len(replayed) == backend.build_count == len(configs) * len(specs)


def test_simulated_toolchain_emits_and_plans_each_body_once(case0, specs, monkeypatch):
    # The hidden configuration's macros change a few function bodies of the
    # seed configuration; the second base emits and plans only those, and
    # shares every other function with the first.
    configs = (case0.seed_config(), case0.truth_config())
    bases = [build_unoptimized(case0.tree, cfg) for cfg in configs]
    first = {fn.id: buildoracle._body_key(fn) for fn in bases[0].functions}
    changed = [fn.id for fn in bases[1].functions if first.get(fn.id) != buildoracle._body_key(fn)]
    assert 0 < len(changed) < len(bases[1].functions)
    emitted, walked = [], []
    emit_function, merge_chains = buildoracle._emit_function, buildoracle._merge_chains

    def emitting(*args):
        fn = emit_function(*args)
        emitted.append(fn)
        return fn

    def walking(fn, compares):
        walked.append(fn)
        return merge_chains(fn, compares)

    monkeypatch.setattr(buildoracle, "_emit_function", emitting)
    monkeypatch.setattr(buildoracle, "_merge_chains", walking)
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    for cfg in configs:
        for spec in specs:
            backend.build(spec, cfg)
    assert sorted(fn.id for fn in emitted) == sorted([*first, *changed])
    assert sorted(map(id, walked)) == sorted(map(id, emitted))
    assert backend.build_count == len(configs) * len(specs)


def test_body_memo_changes_no_build():
    # Every build a case's run leaves in its toolchain equals the memo-free
    # build of its (spec, configuration). Building the configurations again
    # in reverse order on a fresh toolchain gives the same bytes too, so no
    # build depends on which configuration filled the memo first.
    for seed in (1, 2, 3):
        for case in generate_corpus(seed, 21):
            built = {}

            class Recording(SimulatedToolchain):
                def build(self, spec, config):
                    program = super().build(spec, config)
                    if (spec, config.key()) not in built:
                        built[spec, config.key()] = (spec, config, serialize_model(program))
                    return program

            run_generated_case(case, backend=Recording(case.tree, base_name=case.name))
            reverse = SimulatedToolchain(case.tree, base_name=case.name)
            for spec, config, text in reversed(built.values()):
                alone = apply_transforms(build_unoptimized(case.tree, config, name=case.name), spec)
                assert serialize_model(alone) == text, (case.name, spec.text(), config)
                again = serialize_model(reverse.build(spec, config))
                assert again == text, (case.name, spec.text(), config)


def test_scan_tree_reuses_the_scans_of_builds(case0, monkeypatch):
    scanned = []
    scan_unit = varsource.scan_unit

    def counting(name, text):
        scanned.append(name)
        return scan_unit(name, text)

    monkeypatch.setattr(varsource, "scan_unit", counting)
    tree = SourceTree.from_mapping({u.name: u.text for u in case0.tree.units})
    backend = SimulatedToolchain(tree)
    for spec in (BuildSpec("gcc", "6", "O0"), BuildSpec("clang", "4.0", "O2")):
        backend.build(spec, case0.seed_config())
        backend.build(spec, EMPTY_CONFIG)
    first = scan_tree(tree)
    assert sorted(scanned) == sorted(u.name for u in tree.units)
    assert scan_tree(tree) == first
    assert len(scanned) == len(tree.units)


def test_index_is_the_index_of_the_build_and_computed_once(case0):
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    specs = (BuildSpec("gcc", "6", "O0"), BuildSpec("clang", "4.0", "O2"), BuildSpec("gcc", "9", "Os"))
    for config in (EMPTY_CONFIG, case0.seed_config()):
        for spec in specs:
            index = backend.index(spec, config)
            expected = index_program(backend.build(spec, config))
            for f in dataclasses.fields(index):
                assert getattr(index, f.name) == getattr(expected, f.name), (spec.text(), f.name)
            count = backend.build_count
            assert backend.index(spec, config) is index
            assert backend.build_count == count


@pytest.mark.parametrize("level", ["O1", "Os"])
def test_build_and_index_count_one_build_per_key(case0, level):
    spec = BuildSpec("clang", "7.0", level)
    for first, second in (("index", "build"), ("build", "index")):
        backend = SimulatedToolchain(case0.tree, base_name=case0.name)
        getattr(backend, first)(spec, EMPTY_CONFIG)
        getattr(backend, second)(spec, EMPTY_CONFIG)
        assert backend.build_count == 1, (first, second)
        index = backend.index(spec, EMPTY_CONFIG)
        assert backend.index(spec, EMPTY_CONFIG) is index
        assert backend.build_count == 1


def test_a_failing_index_is_neither_cached_nor_counted(case0):
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    for level in ("O1", "Os"):
        for _ in range(2):
            with pytest.raises(ConfigError, match="unknown compiler"):
                backend.index(BuildSpec("tcc", "1", level), EMPTY_CONFIG)
    assert backend.build_count == 0
    assert not backend._cache and not backend._indexes and not backend._bases
    tree = SourceTree.from_mapping(
        {"m.c": "#ifdef BAD\n#error not buildable\n#endif\nint f(void) {\n    g();\n}\n"}
    )
    backend = SimulatedToolchain(tree)
    bad = ConfigAssignment(macros=frozenset({"BAD"}))
    for _ in range(2):
        with pytest.raises(BuildFailureError, match="not buildable"):
            backend.index(BuildSpec("gcc", "6", "O1"), bad)
    assert backend.build_count == 0
    assert not backend._cache and not backend._indexes and not backend._bases


def test_index_from_the_parts_equals_the_index_of_the_build(corpus21, specs):
    # Every configuration run_case indexes on corpus seed 1, at every spec:
    # a fresh toolchain's index, which at O0 to O2 is computed from the
    # functions' parts, equals the index of the materialized build.
    checked = 0
    for case in corpus21:
        configs = {}

        class Recording(SimulatedToolchain):
            def index(self, spec, config):
                configs.setdefault(config.key(), config)
                return super().index(spec, config)

        run_generated_case(case, backend=Recording(case.tree, base_name=case.name))
        for config in configs.values():
            backend = SimulatedToolchain(case.tree, base_name=case.name)
            base = build_unoptimized(case.tree, config, name=case.name)
            for spec in specs:
                index = backend.index(spec, config)
                expected = index_program(apply_transforms(base, spec))
                for f in dataclasses.fields(index):
                    assert getattr(index, f.name) == getattr(expected, f.name), (
                        case.name, config, spec.text(), f.name,
                    )
                checked += 1
    assert checked > len(corpus21) * len(specs)  # 41 configurations at this writing


def _indexes_or_failure(backend, config, specs):
    try:
        return [backend.index(spec, config) for spec in specs]
    except BuildFailureError as exc:
        return str(exc)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_index_after_another_configuration_equals_the_index_in_a_fresh_toolchain(corpus21, specs, data):
    # The bases of one toolchain share the parts of their common functions,
    # and with them the parts' index pieces. A configuration's indexes,
    # computed after another's in one toolchain, equal those of a fresh one.
    case = data.draw(st.sampled_from(corpus21), label="case")
    flags = [flag.name for flag in case.config_map.flags]

    def config() -> ConfigAssignment:
        chosen = data.draw(st.lists(st.booleans(), min_size=len(flags), max_size=len(flags)))
        picked = [flag for flag, on in zip(flags, chosen) if on]
        return ConfigAssignment.for_flags(case.config_map, picked, case.base_units)

    first, second = config(), config()
    shared = SimulatedToolchain(case.tree, base_name=case.name)
    _indexes_or_failure(shared, first, specs)
    assert _indexes_or_failure(shared, second, specs) == _indexes_or_failure(
        SimulatedToolchain(case.tree, base_name=case.name), second, specs
    ), (case.name, first, second)


def test_the_grid_replays_nothing_and_fingerprints_each_piece_once(case0, seed_config0, specs, monkeypatch):
    # Every index of the grid joins pieces its parts computed once per
    # compiler and layout kind (O0, merged, merged and folded); none
    # replays a function.
    calls = Counter()
    replay, fingerprints = buildoracle._replay, buildoracle._fingerprints

    def replaying(*args):
        calls["replay"] += 1
        return replay(*args)

    def fingerprinting(part, spec):
        kind = spec.level if spec.level in ("O0", "O1") else "folded"
        calls[id(part), spec.compiler, kind] += 1
        return fingerprints(part, spec)

    monkeypatch.setattr(buildoracle, "_replay", replaying)
    monkeypatch.setattr(buildoracle, "_fingerprints", fingerprinting)
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    similarity_matrix(backend, seed_config0, specs)
    parts = backend._base(seed_config0).parts
    assert calls["replay"] == 0
    del calls["replay"]
    assert set(calls.values()) == {1} and len(calls) == len(COMPILERS) * 3 * len(parts) == 84


def _nested_ifs(depth: int) -> str:
    return "int f(int x) {\n" + "if (x) {\n" * depth + "g(1);\n" + "}\n" * depth + "}\n"


def _else_if_chain(arms: int) -> str:
    return "int f(int x) {\nif (x > 0) {\n" + "".join(f"}} else if (x > {k}) {{\n" for k in range(1, arms)) + "}\n}\n"


@pytest.mark.parametrize("text", [_nested_ifs(600), _else_if_chain(600)], ids=["nested", "else-if-chain"])
def test_600_nested_ifs_or_else_if_arms_build_with_no_depth_limit(text):
    deep = SourceTree.from_mapping({"deep.c": text})
    base = build_unoptimized(deep, EMPTY_CONFIG)
    (fn,) = base.functions
    assert sum(ki.kind is KeyKind.COMPARE for blk in fn.blocks for ki in blk.keyins) == 600
    spec = BuildSpec("gcc", "6", "O3")
    assert SimulatedToolchain(deep).index(spec, EMPTY_CONFIG) == index_program(apply_transforms(base, spec))


# Every hand-made unit below also holds a leaf that ``main`` calls and a
# duplicate that it calls, so each one checks both the inline and the
# dedup step of the index from the parts.
_SCAFFOLD = """\
int dup_a(int x) {
  lib_a("s");
}
int dup_b(int x) {
  lib_a("s");
}
int tiny(int x) {
  x = 5;
}
int main(int x) {
  tiny(1);
  dup_b(2);
}
"""

_LEAFY = "int leafy(int x) {\n  if (x > 7) {\n    x = 8;\n  }\n}\n"


def _unit_program(text: str) -> BinaryProgram:
    return build_unoptimized(SourceTree.from_mapping({"m.c": _SCAFFOLD + text}), EMPTY_CONFIG)


def _check_index_from_the_parts(program: BinaryProgram) -> dict[str, BinaryProgram]:
    """Assert that at every spec the index from the parts of ``program``
    equals the index of its build; return the builds by spec text."""
    base = buildoracle._Base(program, [buildoracle._plan_function(fn) for fn in program.functions])
    builds = {}
    for spec in all_option_specs():
        build = builds[spec.text()] = apply_transforms(program, spec)
        expected = index_program(build)
        index = buildoracle._index_parts(base, spec)
        for f in dataclasses.fields(index):
            assert getattr(index, f.name) == getattr(expected, f.name), (spec.text(), f.name)
    return builds


def _keyins(program: BinaryProgram, fid: str) -> list[tuple[KeyKind, str | None]]:
    fn = next(fn for fn in program.functions if fn.id == fid)
    return [(ki.kind, ki.operand) for blk in fn.blocks for ki in blk.keyins]


def _called(program: BinaryProgram, fid: str) -> list[str | None]:
    return [operand for kind, operand in _keyins(program, fid) if kind is KeyKind.CALL]


def test_dedup_from_the_parts_tells_a_source_7100_from_a_pad():
    # At gcc-6-Os pad_me carries pad 7100 after its comparison, and src_7100
    # compiles the constant 7100 before its own: the same instructions in
    # another order, so dedup keeps both. At gcc-5 neither twin carries a
    # pad and dedup drops twin; at gcc-6 each carries its own, and both stay.
    builds = _check_index_from_the_parts(
        _unit_program(
            "".join(
                f"int {name}(int x) {{\n  if (x > {cond}) {{\n    lib_b(\"t\");\n  }}\n}}\n"
                for name, cond in (("pad_me", "1"), ("src_7100", "1 + 7100"), ("twin", "1"))
            )
        )
    )
    o6 = builds["gcc-6-Os"]
    padded, unpadded = _keyins(o6, "pad_me"), _keyins(o6, "src_7100")
    assert padded != unpadded and sorted(map(repr, padded)) == sorted(map(repr, unpadded))
    assert (KeyKind.CONST_REF, "7100") in padded and (KeyKind.CONST_REF, "7101") in _keyins(o6, "twin")
    assert "twin" not in {fn.id for fn in builds["gcc-5-Os"].functions}


def test_inline_from_the_parts_keeps_a_call_without_a_target():
    # nameless merges to one block and makes a call whose operand is empty:
    # it makes a call, so it is no leaf, and caller's call to it stays.
    program = _unit_program("int nameless(int x) {\n  x = 3;\n  hook();\n}\nint caller(int x) {\n  nameless(4);\n}\n")
    nameless = next(fn for fn in program.functions if fn.id == "nameless")
    for blk in nameless.blocks:
        blk.keyins = [KeyInstruction(KeyKind.CALL, "") if ki.kind is KeyKind.CALL else ki for ki in blk.keyins]
    builds = _check_index_from_the_parts(program)
    o3 = builds["gcc-7-O3"]
    assert len(next(fn for fn in o3.functions if fn.id == "nameless").blocks) == 1
    assert _called(o3, "nameless") == [""] and _called(o3, "caller") == ["nameless"]


def test_inline_from_the_parts_inlines_one_leaf_twice_in_one_block():
    builds = _check_index_from_the_parts(_unit_program(_LEAFY + "int twice(int x) {\n  leafy(1);\n  x = x;\n  leafy(2);\n}\n"))
    for spec in ("gcc-9-O3", "clang-7.0-O3"):
        twice = next(fn for fn in builds[spec].functions if fn.id == "twice")
        assert len(twice.blocks) == 1 and _called(builds[spec], "twice") == []
        assert [kind for kind, _ in _keyins(builds[spec], "twice")].count(KeyKind.COMPARE) == 2


def test_dedup_from_the_parts_retargets_calls_to_removed_duplicates():
    builds = _check_index_from_the_parts(
        _unit_program(
            'int dup_c(int x) {\n  lib_a("s");\n}\n'
            "int caller(int x) {\n  dup_c(1);\n  dup_a(2);\n  if (x > 3) {\n    dup_b(4);\n  }\n}\n"
        )
    )
    for spec in ("gcc-5-Os", "clang-6.0-Os"):
        assert {"dup_b", "dup_c"}.isdisjoint(fn.id for fn in builds[spec].functions)
        assert _called(builds[spec], "caller") == ["dup_a"] * 3


def test_inline_from_the_parts_keeps_library_calls_among_leaf_calls():
    builds = _check_index_from_the_parts(
        _unit_program(
            _LEAFY + 'int mixed(int x) {\n  tiny(1);\n  puts("a");\n  if (x > 2) {\n'
            "    leafy(3);\n    exit(4);\n  }\n}\n"
        )
    )
    assert _called(builds["gcc-8-O3"], "mixed") == ["puts", "exit"]
    assert _called(builds["gcc-8-O2"], "mixed") == ["tiny", "puts", "leafy", "exit"]


_UNIT_CONST = st.sampled_from(["1", "2", "7100", "7101"])


def _unit_statements(draw, names: list[str], depth: int, calls: bool) -> list[str]:
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ("const", "if", "call", "library") if calls else ("const", "if")
        kind = draw(st.sampled_from(kinds if depth < 2 else kinds[:1] + kinds[2:]))
        if kind == "call":
            lines.append(f"{draw(st.sampled_from(names))}({draw(_UNIT_CONST)});")
        elif kind == "library":
            lines.append(f'lib("{draw(st.sampled_from("ab"))}");')
        elif kind == "const":
            lines.append(f"x = {draw(_UNIT_CONST)};")
        else:
            lines.append(f"if (x > {draw(_UNIT_CONST)}) {{")
            lines += _unit_statements(draw, names, depth + 1, calls)
            if draw(st.booleans()):
                lines.append("} else {")
                lines += _unit_statements(draw, names, depth + 1, calls)
            lines.append("}")
    return lines


@st.composite
def _random_unit(draw) -> str:
    """Two to six functions that call each other and the library. A body
    may repeat an earlier one, for dedup, or make no call, which makes
    short ones leaves."""
    names = [f"f{k}" for k in range(draw(st.integers(2, 6)))]
    bodies: list[list[str]] = []
    for _ in names:
        shape = draw(st.sampled_from(("repeat", "call-free", "any") if bodies else ("call-free", "any")))
        if shape == "repeat":
            bodies.append(draw(st.sampled_from(bodies)))
        else:
            bodies.append(_unit_statements(draw, names, 0, calls=shape == "any"))
    return "".join(
        f"int {name}(int x) {{\n" + "".join(f"  {line}\n" for line in body) + "}\n"
        for name, body in zip(names, bodies)
    )


@settings(max_examples=40, deadline=None)
@given(_random_unit())
def test_index_from_the_parts_of_random_units_equals_the_index_of_the_build(text):
    _check_index_from_the_parts(build_unoptimized(SourceTree.from_mapping({"m.c": text}), EMPTY_CONFIG))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_fingerprints_from_the_parts_equal_those_of_the_replay_for_any_pads(data):
    # ``_fingerprints`` and ``_replay`` both read a function's pad numbers.
    # Any pad map over its comparison blocks, not only those a version's pad
    # order gives, yields the same block fingerprints from the part as from
    # the replayed blocks, at every spec.
    text = data.draw(_random_unit())
    for fn in build_unoptimized(SourceTree.from_mapping({"m.c": text}), EMPTY_CONFIG).functions:
        part = buildoracle._plan_function(fn)
        sites = [bi for _rank, bi in part.pad_ranks[COMPILERS[0]]]
        pads = data.draw(st.dictionaries(st.sampled_from(sites), st.integers(0, 19))) if sites else {}
        for spec in all_option_specs():
            replayed = buildoracle._replay(fn, part, spec, pads)
            fingerprints = buildoracle._fingerprints(part, spec)
            assert buildoracle._padded(fingerprints, part, spec, pads) == [
                spp_fingerprint(blk) for blk in replayed.blocks
            ], (fn.id, spec.text(), pads)


def test_external_toolchain_manifest_parsing():
    tc = ExternalToolchain.parse_manifest(
        "# comment\ngcc/7 : ./gcc7.sh --fast\nclang/4.0 : python3 cc.py\n"
    )
    assert tc.manifest[("gcc", "7")] == ["./gcc7.sh", "--fast"]
    assert tc.manifest[("clang", "4.0")] == ["python3", "cc.py"]
    for bad in ("gcc/7 ./gcc7.sh\n", "gcc7 : ./gcc7.sh\n", "gcc/7 :\n"):
        with pytest.raises(SchemaError):
            ExternalToolchain.parse_manifest(bad)


def test_external_toolchain_manifest_rejects_a_repeated_entry():
    with pytest.raises(SchemaError, match="line 3: gcc/7 already listed on line 1"):
        ExternalToolchain.parse_manifest("gcc/7 : ./a.sh\nclang/4.0 : ./c.sh\n gcc / 7 : ./b.sh\n")


@pytest.mark.parametrize("line", ['gcc/7 : ./drv "unclosed', "gcc/7 : ./drv 'unclosed", "gcc/7 : ./drv \\"])
def test_external_toolchain_manifest_rejects_an_unclosed_quote_by_line(line):
    with pytest.raises(SchemaError, match=r"^toolchain manifest line 2: "):
        ExternalToolchain.parse_manifest(f"clang/4.0 : ./c.sh\n{line}\n")


def test_external_toolchain_manifest_reads_a_hash_where_the_shell_does():
    # A '#' starts a comment only at the start of a word of the command.
    for line, command in [
        ('gcc/7 : ./drv "a#b"', ["./drv", "a#b"]),
        ("gcc/7 : ./drv a#b", ["./drv", "a#b"]),
        ("gcc/7 : ./drv a  # note", ["./drv", "a"]),
    ]:
        assert ExternalToolchain.parse_manifest(f"{line}\n").manifest == {("gcc", "7"): command}
    assert ExternalToolchain.parse_manifest("# gcc/7 : ./drv\n").manifest == {}


_MANIFEST_PIECES = ["gcc/7", "clang/4.0", "gcc/", " : ", ":", "/", "'", '"', "\\", " ", "\t", "./drv", "-x", "#", "\n"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_MANIFEST_PIECES), max_size=20).map("".join))
def test_manifest_texts_with_quotes_and_backslashes_raise_only_schema_errors(text):
    try:
        tc = ExternalToolchain.parse_manifest(text)
    except SchemaError:
        return
    assert all(tc.manifest.values())


FAKE_CC = """\
import sys
from pathlib import Path
Path({argv_log!r}).write_text("\\n".join(sys.argv[1:]))
print("FUNC main")
print("BLOCK b0")
print("  cmp eax, 3")
"""


def test_external_toolchain_runs_command_and_caches(tmp_path):
    argv_log = tmp_path / "argv.txt"
    script = tmp_path / "cc.py"
    script.write_text(FAKE_CC.format(argv_log=str(argv_log)))
    tc = ExternalToolchain.parse_manifest(f"gcc/7 : python3 {script}\n")
    cfg = ConfigAssignment(macros=frozenset({"USE_NET", "ALPHA"}), units=("a.c", "b.c"))
    program = tc.build(BuildSpec("gcc", "7", "O2"), cfg)
    assert [fn.id for fn in program.functions] == ["main"]
    assert argv_log.read_text().splitlines() == [
        "-O2",
        "-DALPHA",
        "-DUSE_NET",
        "a.c",
        "b.c",
    ]
    assert tc.build_count == 1
    script.unlink()  # second build must come from the cache
    assert tc.build(BuildSpec("gcc", "7", "O2"), cfg) is program
    assert tc.build_count == 1


def test_external_toolchain_indexes_each_build_once(tmp_path):
    argv_log = tmp_path / "argv.txt"
    script = tmp_path / "cc.py"
    script.write_text(FAKE_CC.format(argv_log=str(argv_log)))
    tc = ExternalToolchain.parse_manifest(f"gcc/7 : python3 {script}\n")
    spec = BuildSpec("gcc", "7", "O2")
    index = tc.index(spec, EMPTY_CONFIG)
    assert index == index_program(tc.build(spec, EMPTY_CONFIG))
    script.unlink()  # a second index must start no process
    assert tc.index(spec, EMPTY_CONFIG) is index


def test_external_toolchain_failure_paths(tmp_path):
    tc = ExternalToolchain.parse_manifest("gcc/7 : true\n")
    with pytest.raises(OracleUnavailableError):
        tc.build(BuildSpec("clang", "4.0", "O2"), EMPTY_CONFIG)
    bad = tmp_path / "bad.py"
    bad.write_text("import sys; sys.stderr.write('boom'); sys.exit(3)\n")
    tc2 = ExternalToolchain.parse_manifest(f"gcc/7 : python3 {bad}\n")
    with pytest.raises(BuildFailureError, match="boom"):
        tc2.build(BuildSpec("gcc", "7", "O2"), EMPTY_CONFIG)


def test_external_toolchain_missing_driver_is_a_build_failure(tmp_path):
    missing = tmp_path / "no-such-driver"
    tc = ExternalToolchain.parse_manifest(f"gcc/7 : {missing} --fast\n")
    with pytest.raises(BuildFailureError, match="no-such-driver --fast"):
        tc.build(BuildSpec("gcc", "7", "O2"), EMPTY_CONFIG)


def test_external_toolchain_hung_driver_times_out(monkeypatch):
    monkeypatch.setattr(buildoracle, "EXTERNAL_TIMEOUT_S", 0.2)
    tc = ExternalToolchain.parse_manifest("gcc/7 : sh -c 'exec sleep 5'\n")
    started = time.monotonic()
    with pytest.raises(BuildFailureError, match="ran past 0.2 s"):
        tc.build(BuildSpec("gcc", "7", "O2"), EMPTY_CONFIG)
    assert time.monotonic() - started < 1.0


def test_external_toolchain_timeout_kills_forked_children(tmp_path, monkeypatch):
    # The driver forks a child that would write a marker after the timeout;
    # killing the driver's whole process group must end that child too.
    monkeypatch.setattr(buildoracle, "EXTERNAL_TIMEOUT_S", 0.2)
    marker = tmp_path / "M"
    tc = ExternalToolchain.parse_manifest(
        f"gcc/7 : sh -c '(sleep 0.5; touch {marker}) & exec sleep 5'\n"
    )
    with pytest.raises(BuildFailureError, match="ran past 0.2 s"):
        tc.build(BuildSpec("gcc", "7", "O2"), EMPTY_CONFIG)
    time.sleep(1.0)
    assert not marker.exists()


def test_interrupted_external_command_kills_its_process_group(tmp_path, monkeypatch):
    marker = tmp_path / "M"

    def interrupted(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        buildoracle.run_external(["sh", "-c", f"(sleep 0.5; touch {marker}) & exec sleep 5"])
    time.sleep(1.0)
    assert not marker.exists()
