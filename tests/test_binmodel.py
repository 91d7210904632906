"""Model ingestion, serialization, export reading, and stripping."""

from __future__ import annotations

import copy
import gc
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov import binmodel
from binprov.binmodel import (
    BasicBlock,
    BinaryProgram,
    Function,
    KeyInstruction,
    KeyKind,
    ingest_disassembly_export,
    ingest_model,
    serialize_model,
    strip_program,
)
from binprov.buildoracle import apply_transforms
from binprov.errors import SchemaError

EXPORT_BRANCHY = """\
# a two-armed function plus a helper
FUNC check do_check
BLOCK b0 -> b1,b2
  mov eax, 5
  cmp eax, 5
BLOCK b1 -> b3
  lea rdi, "hello"
  call puts
BLOCK b2 -> b3
  call abort
BLOCK b3
  ret
FUNC helper
BLOCK h0
  mov rsi, "tail"
  nop
"""

EXPORT_LOOP = """\
FUNC spin
BLOCK top -> top,out
  test ecx, ecx
  sub ecx, 1
BLOCK out
  ret
"""

EXPORT_DROPPED = """\
FUNC noise
BLOCK n0
  nop
  nop
  xchg rax, rax
  endbr64
  call memset
"""


def test_export_branchy_shapes_and_kinds():
    out = ingest_disassembly_export(EXPORT_BRANCHY)
    prog = out.program
    assert [f.id for f in prog.functions] == ["check", "helper"]
    check = prog.function_map()["check"]
    assert check.symbol == "do_check"
    assert check.entry == "b0"
    blocks = {b.id: b for b in check.blocks}
    b0 = blocks["b0"]
    assert [ki.kind for ki in b0.keyins] == [KeyKind.CONST_REF, KeyKind.COMPARE]
    assert b0.succs == ["b1", "b2"]
    b1 = blocks["b1"]
    assert [(ki.kind, ki.operand) for ki in b1.keyins] == [
        (KeyKind.STRING_REF, "hello"),
        (KeyKind.CALL, "puts"),
    ]
    assert out.dropped == {"ret": 1, "nop": 1}


def test_export_loop_self_edge_survives():
    prog = ingest_disassembly_export(EXPORT_LOOP).program
    spin = prog.function_map()["spin"]
    assert {b.id: b for b in spin.blocks}["top"].succs == ["top", "out"]


def test_export_tallies_uninformative_mnemonics():
    out = ingest_disassembly_export(EXPORT_DROPPED)
    assert out.dropped == {"nop": 2, "xchg": 1, "endbr64": 1}
    blk = out.program.functions[0].blocks[0]
    assert [ki.kind for ki in blk.keyins] == [KeyKind.CALL]


@pytest.mark.parametrize(
    "operand, value",
    [("010", "10"), ("-010", "-10"), ("0", "0"), ("-7", "-7"), ("0x10", "16"), ("0X1f", "31")],
)
def test_export_reads_decimals_in_base_ten(operand, value):
    # A leading zero does not make a decimal octal, as in the build's lexer.
    prog = ingest_disassembly_export(f"FUNC f\nBLOCK b0\nmov eax, {operand}\n").program
    (ki,) = prog.functions[0].blocks[0].keyins
    assert (ki.kind, ki.operand) == (KeyKind.CONST_REF, value)


def test_export_reads_ascii_digits_only():
    # An Arabic-Indic or a full-width digit is no integer operand: the line
    # is dropped and tallied like any other line without key information.
    out = ingest_disassembly_export("FUNC f\nBLOCK b0\nmov eax, \u0663\nmov ebx, \uff15\nmov ecx, 7\n")
    assert out.dropped == {"mov": 2}
    (ki,) = out.program.functions[0].blocks[0].keyins
    assert (ki.kind, ki.operand) == (KeyKind.CONST_REF, "7")


@pytest.mark.parametrize("text", [EXPORT_BRANCHY, EXPORT_LOOP, EXPORT_DROPPED])
def test_export_models_roundtrip_byte_exact(text):
    prog = ingest_disassembly_export(text).program
    once = serialize_model(prog)
    assert serialize_model(ingest_model(once)) == once


def test_corpus_models_roundtrip_byte_exact(corpus21):
    for case in corpus21:
        once = serialize_model(case.crash)
        assert serialize_model(ingest_model(once)) == once


def test_transformed_models_roundtrip(base0, specs):
    for spec in specs[::7]:
        prog = apply_transforms(base0, spec)
        once = serialize_model(prog)
        assert serialize_model(ingest_model(once)) == once


def test_ingest_rejects_bad_json():
    with pytest.raises(SchemaError):
        ingest_model("not json at all {")
    with pytest.raises(SchemaError):
        ingest_model(json.dumps([1, 2, 3]))


def test_ingest_rejects_missing_fields():
    with pytest.raises(SchemaError):
        ingest_model(json.dumps({"name": "x", "stripped": True}))
    with pytest.raises(SchemaError):
        ingest_model(
            json.dumps(
                {"name": "x", "stripped": True, "functions": [{"id": "f"}]}
            )
        )


def test_ingest_rejects_dangling_successor():
    doc = {
        "name": "x",
        "stripped": False,
        "functions": [
            {
                "id": "f",
                "entry": "b0",
                "blocks": [{"id": "b0", "keyins": [], "succs": ["missing"]}],
            }
        ],
    }
    with pytest.raises(SchemaError):
        ingest_model(json.dumps(doc))


def test_ingest_rejects_duplicate_ids():
    doc = {
        "name": "x",
        "stripped": False,
        "functions": [
            {
                "id": "f",
                "entry": "b0",
                "blocks": [
                    {"id": "b0", "keyins": [], "succs": []},
                    {"id": "b0", "keyins": [], "succs": []},
                ],
            }
        ],
    }
    with pytest.raises(SchemaError):
        ingest_model(json.dumps(doc))


def test_ingest_rejects_unknown_kind():
    doc = {
        "name": "x",
        "stripped": False,
        "functions": [
            {
                "id": "f",
                "entry": "b0",
                "blocks": [
                    {"id": "b0", "keyins": [{"kind": "jump"}], "succs": []}
                ],
            }
        ],
    }
    with pytest.raises(SchemaError):
        ingest_model(json.dumps(doc))


_WELL_FORMED = {
    "name": "x",
    "stripped": False,
    "functions": [
        {
            "id": "f",
            "entry": "b0",
            "blocks": [
                {"id": "b0", "keyins": [{"kind": "call", "operand": "puts"}], "succs": []}
            ],
        }
    ],
}
_FN = ("functions", 0)
_BLOCK = _FN + ("blocks", 0)
_KEYIN = _BLOCK + ("keyins", 0)


@pytest.mark.parametrize(
    "path, value",
    [
        (("name",), 5),
        (("stripped",), "yes"),
        (("functions",), 5),
        (("functions",), ["f"]),
        (_FN + ("id",), 1),
        (_FN + ("entry",), 0),
        (_FN + ("symbol",), 7),
        (_FN + ("blocks",), {"b0": {}}),
        (_BLOCK, "b0"),
        (_BLOCK + ("id",), 0),
        (_BLOCK + ("succs",), "b1"),
        (_BLOCK + ("succs",), [1]),
        (_BLOCK + ("succs",), [["b0"]]),
        (_BLOCK + ("keyins",), "call"),
        (_KEYIN, "call"),
        (_KEYIN + ("kind",), ["call"]),
        (_KEYIN + ("operand",), ["puts"]),
        (_KEYIN + ("operand",), 42),
    ],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else json.dumps(v),
)
def test_ingest_rejects_wrongly_typed_fields(path, value):
    doc = copy.deepcopy(_WELL_FORMED)
    ingest_model(json.dumps(doc))  # the unmodified document is accepted
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError):
        ingest_model(json.dumps(doc))


def test_readme_model_example_ingests():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(examples) == 1
    program = ingest_model(examples[0])
    assert [len(f.blocks) for f in program.functions] == [3]
    kinds = {ki.kind for f in program.functions for b in f.blocks for ki in b.keyins}
    assert kinds == set(KeyKind)


def _two_fn_program() -> BinaryProgram:
    mk = lambda op: KeyInstruction(KeyKind.CALL, operand=op)
    zebra = Function(
        id="zebra",
        entry="z0",
        blocks=[BasicBlock(id="z0", keyins=[mk("apple"), mk("puts")], succs=[])],
        symbol="zebra",
    )
    apple = Function(
        id="apple",
        entry="a0",
        blocks=[BasicBlock(id="a0", keyins=[], succs=[])],
        symbol="apple",
    )
    return BinaryProgram(name="demo", stripped=False, functions=[zebra, apple])


def test_strip_renames_positionally_and_marks_internal_calls():
    stripped = strip_program(_two_fn_program())
    assert stripped.stripped is True
    ids = [f.id for f in stripped.functions]
    # sorted original ids: apple -> f000, zebra -> f001
    assert sorted(ids) == ["f000", "f001"]
    for fn in stripped.functions:
        assert fn.symbol is None
    f001 = stripped.function_map()["f001"]
    ops = [ki.operand for ki in f001.blocks[0].keyins]
    assert ops == ["?f000", "puts"]


def test_strip_does_not_mutate_the_input():
    prog = _two_fn_program()
    before = serialize_model(prog)
    strip_program(prog)
    assert serialize_model(prog) == before


# Characters that make the JSON encoder escape: NUL and other controls,
# quotes, backslashes, U+2028, lone surrogates, non-ASCII and astral ones.
_NASTY_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "/", "\u2028", "\xe9", "\U0001f600"]),
    st.integers(0xD800, 0xDFFF).map(chr),
)
_NASTY_TEXT = st.text(alphabet=_NASTY_CHARS, max_size=5)


def _keyins(draw) -> list[KeyInstruction]:
    keyins = []
    for kind in draw(st.lists(st.sampled_from(KeyKind), max_size=3)):
        if kind is KeyKind.CALL:
            operand = draw(_NASTY_TEXT.filter(bool))
        else:
            operand = draw(st.none() | _NASTY_TEXT)
        keyins.append(KeyInstruction(kind, operand=operand))
    return keyins


@st.composite
def _valid_programs(draw) -> BinaryProgram:
    functions = []
    for fid in draw(st.lists(_NASTY_TEXT, unique=True, max_size=3)):
        # A valid function has at least its entry block.
        block_ids = draw(st.lists(_NASTY_TEXT, unique=True, min_size=1, max_size=3))
        blocks = [
            BasicBlock(
                id=bid,
                keyins=_keyins(draw),
                succs=draw(st.lists(st.sampled_from(block_ids), max_size=3)),
            )
            for bid in block_ids
        ]
        functions.append(
            Function(
                id=fid,
                entry=draw(st.sampled_from(block_ids)),
                blocks=blocks,
                symbol=draw(st.none() | _NASTY_TEXT),
            )
        )
    return BinaryProgram(name=draw(_NASTY_TEXT), stripped=draw(st.booleans()), functions=functions)


def _reference_doc(program: BinaryProgram) -> dict:
    """The canonical document in its documented key order."""
    functions = []
    for fn in sorted(program.functions, key=lambda f: f.id):
        fdoc: dict = {"id": fn.id}
        if fn.symbol is not None:
            fdoc["symbol"] = fn.symbol
        fdoc["entry"] = fn.entry
        fdoc["blocks"] = []
        for blk in sorted(fn.blocks, key=lambda b: b.id):
            keyins = []
            for ki in blk.keyins:
                kdoc = {"kind": ki.kind.value}
                if ki.operand is not None:
                    kdoc["operand"] = ki.operand
                keyins.append(kdoc)
            fdoc["blocks"].append({"id": blk.id, "keyins": keyins, "succs": sorted(blk.succs)})
        functions.append(fdoc)
    return {"name": program.name, "stripped": program.stripped, "functions": functions}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_valid_programs())
def test_serialize_matches_reference_encoder(program):
    assert serialize_model(program) == json.dumps(_reference_doc(program), indent=2) + "\n"


def test_ingest_pauses_and_restores_the_collector(collector, corpus21, monkeypatch):
    text = serialize_model(corpus21[0].crash)
    seen = []
    hook = binmodel._keyin_hook
    monkeypatch.setattr(binmodel, "_keyin_hook", lambda obj: seen.append(gc.isenabled()) or hook(obj))
    ingest_model(text)
    assert seen and not any(seen)
    assert gc.isenabled() is collector
    with pytest.raises(SchemaError):
        ingest_model('{"name": "x"}')
    assert gc.isenabled() is collector
    with pytest.raises(SchemaError):
        ingest_model("{")
    assert gc.isenabled() is collector


# --- ingest_model against the two-walk reader it replaced -----------------------

_REF_KINDS = {kind.value: kind for kind in KeyKind}


def _ref_wrong(what: str, expected: str, value) -> SchemaError:
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    return SchemaError(f"{what} must be {expected}, got {shown}")


def _reference_validate(program: BinaryProgram) -> None:
    seen_fn: set[str] = set()
    for fn in program.functions:
        if fn.id in seen_fn:
            raise SchemaError(f"duplicate function id {fn.id!r}")
        seen_fn.add(fn.id)
        block_ids: set[str] = set()
        for blk in fn.blocks:
            if blk.id in block_ids:
                raise SchemaError(f"duplicate block id {blk.id!r} in function {fn.id!r}")
            block_ids.add(blk.id)
        if fn.entry not in block_ids:
            raise SchemaError(f"entry block {fn.entry!r} missing in function {fn.id!r}")
        for blk in fn.blocks:
            for succ in blk.succs:
                if succ not in block_ids:
                    raise SchemaError(
                        f"successor {succ!r} of block {blk.id!r} missing in function {fn.id!r}"
                    )
            for ki in blk.keyins:
                if ki.kind is KeyKind.CALL and not ki.operand:
                    raise SchemaError(
                        f"call without operand in block {blk.id!r} of function {fn.id!r}"
                    )


def _reference_ingest(text: str) -> BinaryProgram:
    """The reader ``ingest_model`` replaced: ``json.loads``, a walk that
    type-checks and builds, then ``_reference_validate``'s second walk."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("model file must be a JSON object")
    for key in ("name", "stripped", "functions"):
        if key not in raw:
            raise SchemaError(f"model file missing {key!r}")
    if not isinstance(raw["name"], str):
        raise _ref_wrong("'name'", "a string", raw["name"])
    if not isinstance(raw["stripped"], bool):
        raise _ref_wrong("'stripped'", "a boolean", raw["stripped"])
    if not isinstance(raw["functions"], list):
        raise _ref_wrong("'functions'", "an array", raw["functions"])

    functions = []
    for fraw in raw["functions"]:
        if not isinstance(fraw, dict):
            raise _ref_wrong("a function", "an object", fraw)
        if "id" not in fraw or "entry" not in fraw:
            raise SchemaError("function missing 'id' or 'entry'")
        fid, entry, symbol = fraw["id"], fraw["entry"], fraw.get("symbol")
        if not isinstance(fid, str):
            raise _ref_wrong("a function id", "a string", fid)
        if not isinstance(entry, str):
            raise _ref_wrong(f"the entry of function {fid!r}", "a string", entry)
        if symbol is not None and not isinstance(symbol, str):
            raise _ref_wrong(f"the symbol of function {fid!r}", "a string", symbol)
        blocks_raw = fraw.get("blocks", [])
        if not isinstance(blocks_raw, list):
            raise _ref_wrong(f"the blocks of function {fid!r}", "an array", blocks_raw)
        blocks = []
        for braw in blocks_raw:
            if not isinstance(braw, dict):
                raise _ref_wrong(f"a block of function {fid!r}", "an object", braw)
            if "id" not in braw:
                raise SchemaError("block missing 'id'")
            bid, keyins_raw, succs = braw["id"], braw.get("keyins", []), braw.get("succs", [])
            if not isinstance(bid, str):
                raise _ref_wrong(f"a block id in function {fid!r}", "a string", bid)
            if not isinstance(keyins_raw, list):
                raise _ref_wrong(f"the keyins of block {bid!r}", "an array", keyins_raw)
            if not isinstance(succs, list):
                raise _ref_wrong(f"the succs of block {bid!r}", "an array", succs)
            for succ in succs:
                if not isinstance(succ, str):
                    raise _ref_wrong(f"a successor of block {bid!r}", "a string", succ)
            keyins = []
            for kraw in keyins_raw:
                if not isinstance(kraw, dict):
                    raise _ref_wrong(f"a key instruction of block {bid!r}", "an object", kraw)
                kind_text = kraw.get("kind")
                try:
                    kind = _REF_KINDS[kind_text]
                except (KeyError, TypeError):
                    raise SchemaError(f"unknown key-instruction kind {kind_text!r}") from None
                operand = kraw.get("operand")
                if operand is not None and not isinstance(operand, str):
                    raise _ref_wrong(f"a {kind.value} operand in block {bid!r}", "a string", operand)
                keyins.append(KeyInstruction(kind=kind, operand=operand))
            blocks.append(BasicBlock(id=bid, keyins=keyins, succs=list(succs)))
        functions.append(Function(id=fid, entry=entry, blocks=blocks, symbol=symbol))
    program = BinaryProgram(name=raw["name"], stripped=raw["stripped"], functions=functions)
    _reference_validate(program)
    return program


def _outcome(ingest, text: str):
    """The program and its canonical text, or the SchemaError message."""
    try:
        program = ingest(text)
    except SchemaError as exc:
        return str(exc)
    return program, serialize_model(program)


def test_corpus_models_ingest_as_the_reference_reads_them(corpus21):
    for case in corpus21:
        text = serialize_model(case.crash)
        assert _outcome(ingest_model, text) == _outcome(_reference_ingest, text)


# Values a mutation writes: wrong types, explicit nulls, ids that dangle or
# repeat, empty call operands, and key-instruction objects in every spelling
# (the decoder builds some of them as it reads).
_JUNK = st.sampled_from([
    "zz", "", "b0", "f", "b1", "call", "cmp", "jump", None, 0, -1.5, True, False,
    [], ["b0"], ["zz", 3], {}, {"id": "b0"},
    {"kind": "cmp"}, {"kind": "str", "operand": "s"}, {"kind": "call", "operand": "puts"},
    {"operand": "puts", "kind": "call"}, {"kind": "call"}, {"kind": "call", "operand": ""},
    {"kind": "cmp", "operand": None}, {"kind": "const", "operand": 7}, {"kind": "jump"},
    {"kind": "cmp", "extra": 1}, {"kind": {"kind": "cmp"}}, {"kind": ["call"]},
    [{"kind": "const", "operand": "7"}], {"a": [{"kind": "cmp"}], "b": "x" * 40},
])
_EXTRA_KEYS = st.sampled_from(
    ["kind", "operand", "id", "entry", "symbol", "blocks", "keyins", "succs", "name", "extra"]
)
_SMALL_IDS = st.sampled_from(["f", "g", "b0", "b1", "b2", "é", "\ud800"])


@st.composite
def _small_programs(draw) -> BinaryProgram:
    """Valid programs over a few ids, so that a mutation easily repeats one
    or leaves one dangling."""
    functions = []
    for fid in draw(st.lists(_SMALL_IDS, unique=True, min_size=1, max_size=3)):
        block_ids = draw(st.lists(_SMALL_IDS, unique=True, min_size=1, max_size=3))
        blocks = [
            BasicBlock(
                id=bid,
                keyins=[
                    KeyInstruction(kind, "puts" if kind is KeyKind.CALL else draw(st.none() | _SMALL_IDS))
                    for kind in draw(st.lists(st.sampled_from(KeyKind), max_size=3))
                ],
                succs=draw(st.lists(st.sampled_from(block_ids), max_size=2)),
            )
            for bid in draw(st.permutations(block_ids))
        ]
        functions.append(
            Function(id=fid, entry=draw(st.sampled_from(block_ids)), blocks=blocks,
                     symbol=draw(st.none() | _SMALL_IDS))
        )
    return BinaryProgram(name=draw(_SMALL_IDS), stripped=draw(st.booleans()), functions=functions)


def _model_doc(program: BinaryProgram) -> dict:
    """The model document of a program, in the program's own order."""
    return {
        "name": program.name,
        "stripped": program.stripped,
        "functions": [
            {
                "id": fn.id,
                **({} if fn.symbol is None else {"symbol": fn.symbol}),
                "entry": fn.entry,
                "blocks": [
                    {
                        "id": blk.id,
                        "keyins": [
                            {"kind": ki.kind.value}
                            if ki.operand is None
                            else {"kind": ki.kind.value, "operand": ki.operand}
                            for ki in blk.keyins
                        ],
                        "succs": list(blk.succs),
                    }
                    for blk in fn.blocks
                ],
            }
            for fn in program.functions
        ],
    }


def _places(node, found: list) -> list:
    """Every (container, key) pair below ``node``, in document order."""
    if not isinstance(node, (dict, list)):
        return found
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        found.append((node, key))
        _places(value, found)
    return found


_MUTATIONS = {
    # how: which places it applies to, as a test of (container, value)
    "set": lambda container, value: True,
    "drop": lambda container, value: isinstance(container, dict),
    "add": lambda container, value: isinstance(value, dict),
    "flip": lambda container, value: isinstance(value, dict) and len(value) > 1,
    "copy": lambda container, value: isinstance(container, list),
}


@st.composite
def _mutated_model_texts(draw) -> str:
    doc = _model_doc(draw(_small_programs()))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["set", *_MUTATIONS, "root"]))
        if how == "root":
            doc = copy.deepcopy(draw(_JUNK))
            continue
        places = [(c, k) for c, k in _places(doc, []) if _MUTATIONS[how](c, c[k])]
        if not places:
            continue
        # Latest first: a draw leans to the front of the list, and most
        # places are deep in the document.
        container, key = draw(st.sampled_from(places[::-1]))
        target = container[key]
        if how == "set":
            container[key] = copy.deepcopy(draw(_JUNK))
        elif how == "drop":
            del container[key]
        elif how == "add":
            target[draw(_EXTRA_KEYS)] = copy.deepcopy(draw(_JUNK))
        elif how == "flip":
            # e.g. "operand" written before "kind"
            container[key] = dict(reversed(list(target.items())))
        else:
            container.insert(draw(st.integers(0, len(container))), copy.deepcopy(target))
    return json.dumps(doc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutated_model_texts())
def test_ingest_reads_every_document_as_the_reference_does(text):
    # The same program, in the same function, block and successor order,
    # and the same canonical text; or the same SchemaError message.
    assert _outcome(ingest_model, text) == _outcome(_reference_ingest, text)


_ONE_FAULT = copy.deepcopy(_WELL_FORMED)
_ONE_FAULT["functions"].append(
    {"id": "g", "entry": "c0", "blocks": [{"id": "c0", "keyins": [], "succs": []}]}
)
_G = ("functions", 1)
_G_BLOCK = _G + ("blocks", 0)


@pytest.mark.parametrize(
    "edits, message",
    [
        ([((), {"kind": "cmp"})], "model file missing 'name'"),
        ([((), {"kind": "call", "operand": "x"})], "model file missing 'name'"),
        ([(_FN, {"kind": "cmp"})], "function missing 'id' or 'entry'"),
        ([(_BLOCK, {"kind": "str", "operand": "s"})], "block missing 'id'"),
        ([(("functions",), {"kind": "cmp"})], "'functions' must be an array, got {\"kind\": \"cmp\"}"),
        (
            [(_FN + ("blocks",), {"kind": "cmp"})],
            "the blocks of function 'f' must be an array, got {\"kind\": \"cmp\"}",
        ),
        (
            [(("name",), [{"kind": "const", "operand": "7"}])],
            "'name' must be a string, got [{\"kind\": \"const\", \"operand\": \"7\"}]",
        ),
        (
            [(("name",), {"operand": "puts", "kind": "call"})],
            "'name' must be a string, got {\"operand\": \"puts\", \"kind\": \"call\"}",
        ),
        (
            [(("name",), {"a": [{"kind": "cmp"}], "b": "x" * 40})],
            "'name' must be a string, got {\"a\": [{\"kind\": \"cmp\"}], \"b\": \"xxxxxx...",
        ),
        ([(_KEYIN + ("kind",), {"kind": "cmp"})], "unknown key-instruction kind {'kind': 'cmp'}"),
        (
            [(_KEYIN + ("operand",), {"kind": "cmp"})],
            "a call operand in block 'b0' must be a string, got {\"kind\": \"cmp\"}",
        ),
        ([(_KEYIN, {"operand": "", "kind": "call"})], "call without operand in block 'b0' of function 'f'"),
        ([(_KEYIN, {"kind": "call"})], "call without operand in block 'b0' of function 'f'"),
        # Every type fault comes before any structural one ...
        ([(_G + ("id",), "f"), (_G_BLOCK + ("id",), 3)], "a block id in function 'f' must be a string, got 3"),
        ([(_BLOCK + ("succs",), ["zz"]), (_G + ("symbol",), 7)], "the symbol of function 'g' must be a string, got 7"),
        # ... and structural faults come in the order serialize_model checks them.
        ([(_G_BLOCK + ("succs",), ["zz"]), (_G + ("id",), "f")], "duplicate function id 'f'"),
        (
            [(_BLOCK + ("succs",), ["zz"]), (_KEYIN, {"kind": "call"})],
            "successor 'zz' of block 'b0' missing in function 'f'",
        ),
        ([(_G + ("entry",), "zz"), (_G_BLOCK + ("succs",), ["zz"])], "entry block 'zz' missing in function 'g'"),
    ],
    ids=lambda v: json.dumps(v)[:50] if isinstance(v, list) else None,
)
def test_ingest_raises_the_first_fault_in_the_references_order(edits, message):
    doc = copy.deepcopy(_ONE_FAULT)
    ingest_model(json.dumps(doc))  # the unmodified document is accepted
    for path, value in edits:
        if not path:
            doc = value
            continue
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    text = json.dumps(doc)
    assert _outcome(_reference_ingest, text) == message
    assert _outcome(ingest_model, text) == message


@pytest.mark.parametrize(
    "text",
    [
        '{"name": ' + "1" * 5000 + "}",
        '{"name": "x", "stripped": true, "functions": [' + "[" * 5000 + "]" * 5000 + "]}",
    ],
    ids=["5000-digit-integer", "nested-5000-deep"],
)
def test_ingest_refuses_what_the_decoder_cannot_hold(text):
    with pytest.raises(SchemaError, match="^model file is not valid JSON: "):
        ingest_model(text)


# --- export reader boundaries ----------------------------------------------------


@pytest.mark.parametrize(
    "operand",
    ["9" * 5000, "-" + "9" * 5000, "0x" + "f" * 5000, "0x" + "f" * 3600],
    ids=["5000-digits", "minus-5000-digits", "5000-hex-digits", "3600-hex-digits"],
)
def test_export_refuses_an_integer_past_the_digit_limit(operand):
    text = f"FUNC f\nBLOCK b0\ncmp eax, 1\nmov eax, {operand}\n"
    with pytest.raises(SchemaError, match=r"^line 4: integer operand has too many digits$"):
        ingest_disassembly_export(text)


_EXPORT_BLOCKS = st.sampled_from([
    "BLOCK", "BLOCK b2 x b0", "BLOCK b0", "BLOCK b1 -> b0", "BLOCK b0 -> b0,b1", "BLOCK b1",
    "BLOCK b0 ->",
])
_EXPORT_INSTRUCTIONS = st.sampled_from([
    "mov eax, " + "9" * 5000, "mov eax, 0x" + "f" * 4000, "add " + "1" * 4300, "push -07",
    "cmp eax, 1", "test", "call", "call puts,", 'mov rsi, "s"', 'lea rdi, "', 'lea "a" "b"',
    "mov eax, 0x1f", "mov eax, 0x", "nop", "ret \t", "٣ ٣", "-> b0", "# note", "",
])


@st.composite
def _export_texts(draw) -> str:
    """Exports of a few functions of a few blocks, with stray lines."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        lines.append(draw(st.sampled_from(["FUNC", "FUNC f", "FUNC g sym", "FUNC h"])))
        for _ in range(draw(st.integers(0, 3))):
            lines.append(draw(_EXPORT_BLOCKS))
            lines += draw(st.lists(_EXPORT_INSTRUCTIONS, max_size=4))
    return "\n".join(lines)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_export_texts())
def test_export_reader_fails_only_with_schema_errors(text):
    try:
        program = ingest_disassembly_export(text).program
    except SchemaError:
        return
    once = serialize_model(program)
    assert serialize_model(ingest_model(once)) == once
