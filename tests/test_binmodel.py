"""Model ingestion, serialization, export reading, and stripping."""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

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
    b0 = check.block_map()["b0"]
    assert [ki.kind for ki in b0.keyins] == [KeyKind.CONST_REF, KeyKind.COMPARE]
    assert b0.succs == ["b1", "b2"]
    b1 = check.block_map()["b1"]
    assert [(ki.kind, ki.operand) for ki in b1.keyins] == [
        (KeyKind.STRING_REF, "hello"),
        (KeyKind.CALL, "puts"),
    ]
    assert out.dropped == {"ret": 1, "nop": 1}


def test_export_loop_self_edge_survives():
    prog = ingest_disassembly_export(EXPORT_LOOP).program
    spin = prog.function_map()["spin"]
    assert spin.block_map()["top"].succs == ["top", "out"]


def test_export_tallies_uninformative_mnemonics():
    out = ingest_disassembly_export(EXPORT_DROPPED)
    assert out.dropped == {"nop": 2, "xchg": 1, "endbr64": 1}
    blk = out.program.functions[0].blocks[0]
    assert [ki.kind for ki in blk.keyins] == [KeyKind.CALL]


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
