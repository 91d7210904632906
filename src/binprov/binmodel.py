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
it byte for byte, except where a string holds a lone high surrogate followed
by a lone low surrogate: ``"\\ud800\\udc00"`` reads back as the one
character U+10000, which can sort differently and so reorder the text.

The text is the same bytes ``json.dumps(doc, indent=2)`` writes for the
document in that key order, but it is emitted directly: with ``indent``
set, ``json.dumps`` runs CPython's pure-Python encoder, which is several
times slower. Strings are quoted by the same C function ``json.dumps``
uses.

``ingest_model`` reads a model in one pass. The JSON decoder's object hook
turns each well-formed key-instruction object (``{"kind": k}``, or
``{"kind": k, "operand": s}`` in that key order) into a ``KeyInstruction``
as it reads it. One walk over the functions and blocks then type-checks
every other field, builds the blocks and functions, and notes the first
structural fault: a duplicate function or block id, a missing entry, a
dangling successor or a call without an operand. The first type or shape
fault in document order is raised; a document with none raises its first
structural fault, in the order ``serialize_model``'s check finds them.

The cyclic collector is off while ``ingest_model``, ``varsource.scan_unit``,
``simdiff.diff_programs`` and ``pipeline.run_case`` run. The graphs they
build are acyclic (dataclass trees, dicts, lists, tuples), so reference
counting frees them just as soon, and the collector would otherwise rescan
each growing graph many times over. ``run_case`` is one burst: the unit
scans and diffs it calls find the collector already off and leave it so.

Each of these is a public function with a fixed signature around a private
body (``_ingest_model`` ...), and the pause makes no allocation the
collector tracks at either edge. CPython collects inside an allocation, so
a ``*args`` wrapper or a ``with`` statement, whose tuple or context object
is made before the collector goes off, would collect there; and an object
made after it goes back on would collect over the graph just returned. As
it is, the collector goes off before the body's first tracked allocation
and back on, only if it was on, after its last. Back-to-back calls such as
``ingest_model``, ``ingest_model``, ``diff_programs`` run no collection
between them, and a graph that dies before the caller's next allocation is
never scanned. The public names are the ones callers look up, and the ones
perfbench's tracer rebinds. ``pipeline.similarity_matrix`` is left
unpaused: a pause around it measured no gain on the ``grid`` workload.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

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


@dataclass(slots=True)
class KeyInstruction:
    kind: KeyKind
    operand: str | None = None


@dataclass(slots=True)
class BasicBlock:
    id: str
    keyins: list[KeyInstruction] = field(default_factory=list)
    succs: list[str] = field(default_factory=list)


@dataclass(slots=True)
class Function:
    id: str
    entry: str
    blocks: list[BasicBlock] = field(default_factory=list)
    symbol: str | None = None

    def block_map(self) -> dict[str, BasicBlock]:
        return {b.id: b for b in self.blocks}


@dataclass(slots=True)
class BinaryProgram:
    name: str
    stripped: bool = False
    functions: list[Function] = field(default_factory=list)

    def function_map(self) -> dict[str, Function]:
        return {f.id: f for f in self.functions}


def _function_fault(fn: Function, seen_fn: set[str]) -> str | None:
    """The first structural fault of ``fn``, given the ids of the functions
    before it: a duplicate function or block id, a missing entry, a
    dangling successor, then a call without an operand, block by block."""
    if fn.id in seen_fn:
        return f"duplicate function id {fn.id!r}"
    block_ids: set[str] = set()
    for blk in fn.blocks:
        if blk.id in block_ids:
            return f"duplicate block id {blk.id!r} in function {fn.id!r}"
        block_ids.add(blk.id)
    if fn.entry not in block_ids:
        return f"entry block {fn.entry!r} missing in function {fn.id!r}"
    for blk in fn.blocks:
        for succ in blk.succs:
            if succ not in block_ids:
                return f"successor {succ!r} of block {blk.id!r} missing in function {fn.id!r}"
        for ki in blk.keyins:
            if ki.kind is KeyKind.CALL and not ki.operand:
                return f"call without operand in block {blk.id!r} of function {fn.id!r}"
    return None


def _validate(program: BinaryProgram) -> None:
    seen_fn: set[str] = set()
    for fn in program.functions:
        fault = _function_fault(fn, seen_fn)
        if fault is not None:
            raise SchemaError(fault)
        seen_fn.add(fn.id)


_BY_ID = attrgetter("id")
_KINDS = {kind.value: kind for kind in KeyKind}
_BARE_KINDS = {text: kind for text, kind in _KINDS.items() if kind is not KeyKind.CALL}


def _keyin_hook(obj: dict):
    """Decoder hook: a well-formed key-instruction object becomes a
    ``KeyInstruction`` as the decoder reads it; any other object is
    returned as it is.

    Well-formed is ``{"kind": k}`` or ``{"kind": k, "operand": s}`` in that
    key order, with ``k`` a known kind and ``s`` a string, non-empty for a
    call. The key order is what lets ``_plain`` give back the very object
    that was read."""
    size = len(obj)
    if size == 1:
        text = obj.get("kind")
        if type(text) is str and text in _BARE_KINDS:
            return KeyInstruction(_BARE_KINDS[text])
    elif size == 2:
        first, second = obj
        if first == "kind" and second == "operand":
            text, operand = obj["kind"], obj["operand"]
            if type(text) is str and type(operand) is str and text in _KINDS:
                kind = _KINDS[text]
                if operand or kind is not KeyKind.CALL:
                    return KeyInstruction(kind, operand)
    return obj


def _plain(value):
    """The JSON value a decoded one was read from: each key instruction
    the hook built becomes its object again."""
    if type(value) is KeyInstruction:
        if value.operand is None:
            return {"kind": value.kind.value}
        return {"kind": value.kind.value, "operand": value.operand}
    if type(value) is list:
        return [_plain(item) for item in value]
    if type(value) is dict:
        return {key: _plain(item) for key, item in value.items()}
    return value


def _wrong(what: str, expected: str, value) -> SchemaError:
    shown = json.dumps(_plain(value))
    if len(shown) > 40:
        shown = shown[:37] + "..."
    return SchemaError(f"{what} must be {expected}, got {shown}")


def _as_object(value, what: str) -> dict:
    """A function or block that did not decode to a dict. A key-instruction
    object there gives back its fields, so the missing-key check names it
    as it names any other object; anything else is the wrong type."""
    if type(value) is KeyInstruction:
        return _plain(value)
    raise _wrong(what, "an object", value)


def _block_fields(braw, fid: str) -> tuple:
    """The id, key instructions and successors of a block that is not an
    object holding all three; absent lists read as empty."""
    if type(braw) is not dict:
        braw = _as_object(braw, f"a block of function {fid!r}")
    if "id" not in braw:
        raise SchemaError("block missing 'id'")
    return braw["id"], braw.get("keyins", []), braw.get("succs", [])


def _read_keyins(keyins_raw: list, bid: str) -> list[KeyInstruction]:
    """A block's key instructions when some item was not built as it was
    read: each field is checked in document order."""
    keyins = []
    for kraw in keyins_raw:
        if type(kraw) is KeyInstruction:
            keyins.append(kraw)
            continue
        if not isinstance(kraw, dict):
            raise _wrong(f"a key instruction of block {bid!r}", "an object", kraw)
        kind_text = kraw.get("kind")
        try:
            kind = _KINDS[kind_text]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown key-instruction kind {_plain(kind_text)!r}") from None
        operand = kraw.get("operand")
        if operand is not None and not isinstance(operand, str):
            raise _wrong(f"a {kind.value} operand in block {bid!r}", "a string", operand)
        keyins.append(KeyInstruction(kind=kind, operand=operand))
    return keyins


def ingest_model(text: str) -> BinaryProgram:
    """Parse a JSON model file into a validated BinaryProgram.

    Every field is type-checked: a document of the wrong shape raises
    ``SchemaError``, never a ``TypeError`` or ``AttributeError``. The
    first type or shape fault in document order is raised; only a
    document with none raises its first structural fault, in the order
    ``serialize_model`` checks them. The cyclic collector is off
    throughout (see the module docstring).
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _ingest_model(text)
    finally:
        if was_on:
            gc.enable()


def _ingest_model(text: str) -> BinaryProgram:
    try:
        raw = json.loads(text, object_hook=_keyin_hook)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    if type(raw) is KeyInstruction:
        raw = _plain(raw)
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
    seen_fn: set[str] = set()
    fault = None
    for fraw in raw["functions"]:
        if type(fraw) is not dict:
            fraw = _as_object(fraw, "a function")
        if "id" not in fraw or "entry" not in fraw:
            raise SchemaError("function missing 'id' or 'entry'")
        fid, entry, symbol = fraw["id"], fraw["entry"], fraw.get("symbol")
        if type(fid) is not str:
            raise _wrong("a function id", "a string", fid)
        if type(entry) is not str:
            raise _wrong(f"the entry of function {fid!r}", "a string", entry)
        if symbol is not None and type(symbol) is not str:
            raise _wrong(f"the symbol of function {fid!r}", "a string", symbol)
        blocks_raw = fraw.get("blocks", [])
        if type(blocks_raw) is not list:
            raise _wrong(f"the blocks of function {fid!r}", "an array", blocks_raw)
        blocks = []
        every_succ: list[str] = []
        read_apart = False
        for braw in blocks_raw:
            try:
                bid, keyins, succs = braw["id"], braw["keyins"], braw["succs"]
            except (KeyError, TypeError):
                bid, keyins, succs = _block_fields(braw, fid)
            if type(bid) is not str:
                raise _wrong(f"a block id in function {fid!r}", "a string", bid)
            if type(keyins) is not list:
                raise _wrong(f"the keyins of block {bid!r}", "an array", keyins)
            if type(succs) is not list:
                raise _wrong(f"the succs of block {bid!r}", "an array", succs)
            for succ in succs:
                if type(succ) is not str:
                    raise _wrong(f"a successor of block {bid!r}", "a string", succ)
            for ki in keyins:
                if type(ki) is not KeyInstruction:
                    keyins = _read_keyins(keyins, bid)
                    read_apart = True
                    break
            blocks.append(BasicBlock(bid, keyins, succs))
            every_succ += succs
        fn = Function(fid, entry, blocks, symbol)
        functions.append(fn)
        if fault is None:
            # Structural faults wait for the type walk to finish. A block
            # whose key instructions were read apart may hold a call
            # without an operand; the hook builds none.
            block_ids = set(map(_BY_ID, blocks))
            if (
                read_apart
                or fid in seen_fn
                or len(block_ids) < len(blocks)
                or entry not in block_ids
                or not block_ids.issuperset(every_succ)
            ):
                fault = _function_fault(fn, seen_fn)
            seen_fn.add(fid)
    if fault is not None:
        raise SchemaError(fault)
    return BinaryProgram(name=raw["name"], stripped=raw["stripped"], functions=functions)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already-encoded items, laid out as ``indent=2``
    lays it out when its opening bracket sits at ``indent``."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return f"[{inner}{(',' + inner).join(items)}\n{indent}]"


_KEYIN_OPEN = '{\n              "kind": '
_KEYIN_CLOSE = "\n            }"
_BARE_KEYINS = {kind: _KEYIN_OPEN + _quote(kind.value) + _KEYIN_CLOSE for kind in KeyKind}
_OPERAND_KEYINS = {
    kind: _KEYIN_OPEN + _quote(kind.value) + ',\n              "operand": ' for kind in KeyKind
}


def _block_text(blk: BasicBlock) -> str:
    keyins = [
        _BARE_KEYINS[ki.kind]
        if ki.operand is None
        else _OPERAND_KEYINS[ki.kind] + _quote(ki.operand) + _KEYIN_CLOSE
        for ki in blk.keyins
    ]
    succs = [_quote(s) for s in sorted(blk.succs)]
    return (
        f'{{\n          "id": {_quote(blk.id)},'
        f'\n          "keyins": {_json_list(keyins, " " * 10)},'
        f'\n          "succs": {_json_list(succs, " " * 10)}'
        "\n        }"
    )


def _function_text(fn: Function) -> str:
    symbol = "" if fn.symbol is None else f',\n      "symbol": {_quote(fn.symbol)}'
    blocks = [_block_text(blk) for blk in sorted(fn.blocks, key=_BY_ID)]
    return (
        f'{{\n      "id": {_quote(fn.id)}{symbol},'
        f'\n      "entry": {_quote(fn.entry)},'
        f'\n      "blocks": {_json_list(blocks, " " * 6)}'
        "\n    }"
    )


def serialize_model(program: BinaryProgram) -> str:
    """Canonical JSON text for a program (stable across ingest round-trips).

    Byte for byte ``json.dumps(doc, indent=2) + "\\n"`` of the document
    ``{"name", "stripped", "functions": [{"id", "symbol"?, "entry",
    "blocks": [{"id", "keyins": [{"kind", "operand"?}], "succs"}]}]}``
    with functions and blocks sorted by id and successors sorted; the
    optional keys appear only when set."""
    _validate(program)
    functions = [_function_text(fn) for fn in sorted(program.functions, key=_BY_ID)]
    stripped = "true" if program.stripped else "false"
    return (
        f'{{\n  "name": {_quote(program.name)},'
        f'\n  "stripped": {stripped},'
        f'\n  "functions": {_json_list(functions, "  ")}'
        "\n}\n"
    )


@dataclass
class ExportIngest:
    """Result of reading a disassembly export: the program plus a tally of
    instruction lines that carried no key information, keyed by mnemonic."""

    program: BinaryProgram
    dropped: dict[str, int]


_QUOTED_RE = re.compile(r'"([^"]*)"')
# ASCII digits only: a disassembler writes no other, and ``\d`` would take
# an Arabic-Indic or a full-width digit for one.
_INT_RE = re.compile(r"^-?[0-9]+$|^0[xX][0-9a-fA-F]+$")


def _first_integer(tokens: list[str], lineno: int) -> str | None:
    for tok in tokens:
        tok = tok.rstrip(",")
        if _INT_RE.match(tok):
            try:
                return str(int(tok, 16) if tok[:2] in ("0x", "0X") else int(tok))
            except ValueError:
                # Past the interpreter's limit on the digits of a decimal.
                raise SchemaError(f"line {lineno}: integer operand has too many digits") from None
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
        value = _first_integer(tokens[1:], lineno)
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
