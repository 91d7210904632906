"""Binary program model: types, serialization, ingestion, stripping.

A program is a set of functions; a function is a set of basic blocks with a
designated entry; a block carries the ordered *key instructions* that survive
into fingerprints (comparisons, calls, string references, constant
references) plus its successor edges.

Two on-disk forms are supported:

* the JSON model file, the canonical interchange format (``ingest_model`` /
  ``serialize_model``), and
* the line-oriented disassembly export produced by external tooling
  (``ingest_disassembly_export``), a one-way import.

``serialize_model`` is canonical: functions and blocks sorted by id,
successor lists sorted, key-instruction order preserved, two-space indent,
trailing newline. Ingesting canonical text and serializing again reproduces
it byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import SchemaError

__all__ = [
    "KeyKind",
    "KeyInstruction",
    "BasicBlock",
    "Function",
    "BinaryProgram",
    "ExportIngest",
    "ingest_model",
    "serialize_model",
    "ingest_disassembly_export",
    "strip_program",
    "call_target",
]


class KeyKind(str, Enum):
    COMPARE = "cmp"
    CALL = "call"
    STRING_REF = "str"
    CONST_REF = "const"


@dataclass
class KeyInstruction:
    kind: KeyKind
    operand: str | None = None


@dataclass
class BasicBlock:
    id: str
    keyins: list[KeyInstruction] = field(default_factory=list)
    succs: list[str] = field(default_factory=list)


@dataclass
class Function:
    id: str
    entry: str
    blocks: list[BasicBlock] = field(default_factory=list)
    symbol: str | None = None

    def block_map(self) -> dict[str, BasicBlock]:
        return {b.id: b for b in self.blocks}


@dataclass
class BinaryProgram:
    name: str
    stripped: bool = False
    functions: list[Function] = field(default_factory=list)

    def function_map(self) -> dict[str, Function]:
        return {f.id: f for f in self.functions}


def _validate(program: BinaryProgram) -> None:
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


_KINDS = {kind.value: kind for kind in KeyKind}


def _wrong(what: str, expected: str, value) -> SchemaError:
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    return SchemaError(f"{what} must be {expected}, got {shown}")


def ingest_model(text: str) -> BinaryProgram:
    """Parse a JSON model file into a validated BinaryProgram.

    Every field is type-checked: a document of the wrong shape raises
    ``SchemaError``, never a ``TypeError`` or ``AttributeError``.
    """
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
        raise _wrong("'name'", "a string", raw["name"])
    if not isinstance(raw["stripped"], bool):
        raise _wrong("'stripped'", "a boolean", raw["stripped"])
    if not isinstance(raw["functions"], list):
        raise _wrong("'functions'", "an array", raw["functions"])

    functions = []
    for fraw in raw["functions"]:
        if not isinstance(fraw, dict):
            raise _wrong("a function", "an object", fraw)
        if "id" not in fraw or "entry" not in fraw:
            raise SchemaError("function missing 'id' or 'entry'")
        fid, entry, symbol = fraw["id"], fraw["entry"], fraw.get("symbol")
        if not isinstance(fid, str):
            raise _wrong("a function id", "a string", fid)
        if not isinstance(entry, str):
            raise _wrong(f"the entry of function {fid!r}", "a string", entry)
        if symbol is not None and not isinstance(symbol, str):
            raise _wrong(f"the symbol of function {fid!r}", "a string", symbol)
        blocks_raw = fraw.get("blocks", [])
        if not isinstance(blocks_raw, list):
            raise _wrong(f"the blocks of function {fid!r}", "an array", blocks_raw)
        blocks = []
        for braw in blocks_raw:
            if not isinstance(braw, dict):
                raise _wrong(f"a block of function {fid!r}", "an object", braw)
            if "id" not in braw:
                raise SchemaError("block missing 'id'")
            bid, keyins_raw, succs = braw["id"], braw.get("keyins", []), braw.get("succs", [])
            if not isinstance(bid, str):
                raise _wrong(f"a block id in function {fid!r}", "a string", bid)
            if not isinstance(keyins_raw, list):
                raise _wrong(f"the keyins of block {bid!r}", "an array", keyins_raw)
            if not isinstance(succs, list):
                raise _wrong(f"the succs of block {bid!r}", "an array", succs)
            for succ in succs:
                if not isinstance(succ, str):
                    raise _wrong(f"a successor of block {bid!r}", "a string", succ)
            keyins = []
            for kraw in keyins_raw:
                if not isinstance(kraw, dict):
                    raise _wrong(f"a key instruction of block {bid!r}", "an object", kraw)
                kind_text = kraw.get("kind")
                try:
                    kind = _KINDS[kind_text]
                except (KeyError, TypeError):
                    raise SchemaError(f"unknown key-instruction kind {kind_text!r}") from None
                operand = kraw.get("operand")
                if operand is not None and not isinstance(operand, str):
                    raise _wrong(f"a {kind.value} operand in block {bid!r}", "a string", operand)
                keyins.append(KeyInstruction(kind=kind, operand=operand))
            blocks.append(BasicBlock(id=bid, keyins=keyins, succs=list(succs)))
        functions.append(Function(id=fid, entry=entry, blocks=blocks, symbol=symbol))
    program = BinaryProgram(name=raw["name"], stripped=raw["stripped"], functions=functions)
    _validate(program)
    return program


def serialize_model(program: BinaryProgram) -> str:
    """Canonical JSON text for a program (stable across ingest round-trips)."""
    _validate(program)
    doc: dict = {"name": program.name, "stripped": program.stripped, "functions": []}
    for fn in sorted(program.functions, key=lambda f: f.id):
        fdoc: dict = {"id": fn.id}
        if fn.symbol is not None:
            fdoc["symbol"] = fn.symbol
        fdoc["entry"] = fn.entry
        fdoc["blocks"] = []
        for blk in sorted(fn.blocks, key=lambda b: b.id):
            bdoc: dict = {"id": blk.id, "keyins": [], "succs": sorted(blk.succs)}
            for ki in blk.keyins:
                kdoc: dict = {"kind": ki.kind.value}
                if ki.operand is not None:
                    kdoc["operand"] = ki.operand
                bdoc["keyins"].append(kdoc)
            fdoc["blocks"].append(bdoc)
        doc["functions"].append(fdoc)
    return json.dumps(doc, indent=2) + "\n"


@dataclass
class ExportIngest:
    """Result of reading a disassembly export: the program plus a tally of
    instruction lines that carried no key information, keyed by mnemonic."""

    program: BinaryProgram
    dropped: dict[str, int]


_QUOTED_RE = re.compile(r'"([^"]*)"')
_INT_RE = re.compile(r"^-?\d+$|^0[xX][0-9a-fA-F]+$")


def _first_integer(tokens: list[str]) -> str | None:
    for tok in tokens:
        tok = tok.rstrip(",")
        if _INT_RE.match(tok):
            return str(int(tok, 0))
    return None


def ingest_disassembly_export(text: str, name: str = "export") -> ExportIngest:
    """Read the line-oriented export format.

    FUNC <id> [<symbol>] opens a function, BLOCK <id> [-> s1,s2] opens a
    block (the first block of a function is its entry), every other
    non-comment line is an instruction. Mnemonic mapping: cmp/test are
    comparisons; call is a call and requires an operand; lea/mov with a
    double-quoted operand is a string reference; any remaining line with an
    integer operand is a constant reference; the rest are dropped and
    tallied.
    """
    functions: list[Function] = []
    dropped: dict[str, int] = {}
    cur_fn: Function | None = None
    cur_blk: BasicBlock | None = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "FUNC":
            if len(tokens) < 2:
                raise SchemaError(f"line {lineno}: FUNC needs an id")
            cur_fn = Function(
                id=tokens[1],
                entry="",
                symbol=tokens[2] if len(tokens) > 2 else None,
            )
            functions.append(cur_fn)
            cur_blk = None
            continue

        if head == "BLOCK":
            if cur_fn is None:
                raise SchemaError(f"line {lineno}: BLOCK outside FUNC")
            if len(tokens) < 2:
                raise SchemaError(f"line {lineno}: BLOCK needs an id")
            succs: list[str] = []
            if len(tokens) > 2:
                if tokens[2] != "->":
                    raise SchemaError(f"line {lineno}: expected '->' after block id")
                succ_text = "".join(tokens[3:])
                succs = [s for s in succ_text.split(",") if s]
            cur_blk = BasicBlock(id=tokens[1], succs=succs)
            if not cur_fn.blocks:
                cur_fn.entry = tokens[1]
            cur_fn.blocks.append(cur_blk)
            continue

        if cur_blk is None:
            raise SchemaError(f"line {lineno}: instruction outside BLOCK")

        mnemonic = head.lower()
        if mnemonic in ("cmp", "test"):
            cur_blk.keyins.append(KeyInstruction(KeyKind.COMPARE))
            continue
        if mnemonic == "call":
            if len(tokens) < 2:
                raise SchemaError(f"line {lineno}: call without operand")
            cur_blk.keyins.append(
                KeyInstruction(KeyKind.CALL, operand=tokens[1].rstrip(","))
            )
            continue
        if mnemonic in ("lea", "mov"):
            quoted = _QUOTED_RE.search(raw_line)
            if quoted:
                cur_blk.keyins.append(
                    KeyInstruction(KeyKind.STRING_REF, operand=quoted.group(1))
                )
                continue
        value = _first_integer(tokens[1:])
        if value is not None:
            cur_blk.keyins.append(KeyInstruction(KeyKind.CONST_REF, operand=value))
            continue
        dropped[mnemonic] = dropped.get(mnemonic, 0) + 1

    program = BinaryProgram(name=name, stripped=True, functions=functions)
    _validate(program)
    return ExportIngest(program=program, dropped=dropped)


def strip_program(program: BinaryProgram, name: str | None = None) -> BinaryProgram:
    """Produce the crash-report view of a program.

    Function ids become positional f000, f001, ... in sorted original-id
    order, symbols are erased, and call operands that referenced a function
    of the program become '?<new-id>' markers. Library callees keep their
    symbols; block structure is untouched.
    """
    order = sorted(fn.id for fn in program.functions)
    rename = {old: f"f{i:03d}" for i, old in enumerate(order)}

    functions = []
    for fn in program.functions:
        blocks = []
        for blk in fn.blocks:
            keyins = []
            for ki in blk.keyins:
                operand = ki.operand
                if ki.kind is KeyKind.CALL and operand in rename:
                    operand = "?" + rename[operand]
                keyins.append(KeyInstruction(kind=ki.kind, operand=operand))
            blocks.append(BasicBlock(id=blk.id, keyins=keyins, succs=list(blk.succs)))
        functions.append(
            Function(id=rename[fn.id], entry=fn.entry, blocks=blocks, symbol=None)
        )
    return BinaryProgram(
        name=name if name is not None else program.name,
        stripped=True,
        functions=functions,
    )


def call_target(operand: str) -> str:
    """The name a call operand targets. ``strip_program`` marks calls to the
    program's own functions as ``?<id>``; the marker is dropped. A target
    that is not a function id of the program is a library symbol."""
    return operand[1:] if operand.startswith("?") else operand
