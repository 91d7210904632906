"""Build oracle: turn source plus a configuration into a binary model.

The simulated toolchain builds an unoptimized program directly from source,
along ``varsource``'s one flat statement walk, like the fragment features
(one block per statement, an explicit diamond per if or loop head). A block
copies the key instructions the scan read for its statement, lexing nothing.
It then applies a deterministic transform chain that reproduces how real
compilers leave structural traces of their identity:

* version pads: a version-indexed number of extra constants appended to
  comparison blocks, chosen in a compiler-salted order so the pad sets of
  one compiler's versions are nested and the structural distance between
  two versions grows exactly with their ladder distance,
* dialect flavor: clang adds a fixed string reference to every comparison
  block, so cross-compiler pairs differ in every branch,
* merge (O1 and up): straight-line block chains coalesce, the big cliff
  that isolates O0 from every optimized level,
* fold (O2 and up): constants vanish from a compiler-salted selection of
  non-branch blocks (branch immediates are never folded),
* inline (O3): calls to small leaf functions are replaced by the callee's
  flattened body,
* dedup (Os): Os is the O2 pipeline plus merging of identical functions.

Pads only ever land in comparison blocks. Comparison blocks survive merging
as distinct blocks, so the version signal is preserved at every level, and
since the flavor marker also lives there, the cross-compiler distance always
dominates the largest same-compiler version distance.

Pads and the flavor marker add no comparison and no edge, merge reads only
the control flow, and fold sites depend only on the compiler, so where each
of the first four passes acts is fixed by the base and the compiler. Every
site lies within one function, so each function is planned on its own: its
part (``_FunctionPlan``) holds its sites. A part's layouts and calls do not
depend on the compiler: the part walks the merge chains and the calls once,
and each compiler only salts the pad ranks and the fold choice. Only the
pad order spans functions: a sort by per-site ranks across the parts, done
once per base and compiler. ``apply_transforms`` replays the parts up to a
spec's version and level (``_replay``), then runs inline and dedup.

The transform chain never mutates its input: ``apply_transforms`` gives the
output fresh function and block shells and shares the unchanged key
instructions, which no pass rewrites in place. So bases can share function
objects: ``SimulatedToolchain`` emits and plans each distinct function body
once per tree, assembles each configuration's base and its list of parts
once from those, and each source unit is scanned once per tree
(``SourceTree.scan``). The source tree is immutable, so none of these
caches can go stale.

An external toolchain backend is provided for real compilers; it shells out
per the toolchain manifest and reads the disassembly export the command
prints. Either backend caches its builds and indexes each build once
(``index``): the pipeline reads builds only through their indexes. The
simulated toolchain computes every index from the parts, with no program
built and no function replayed (``_index_parts``). Each part keeps its
index pieces with no pad, keyed by compiler and layout kind (O0, merged,
merged and folded), computed once and shared by every base that has the
part (``_Pieces``): its block fingerprints, their sorted signature, and
for the folded layout its Os body key. A spec only adds its pads: a pad
lands in a comparison block, whose chain never folds, so it multiplies one
``CONST_REF`` prime into its chain's fingerprint and rebuilds its chain's
row of the body key. Inline trades each call to a leaf for the leaf's
fingerprints and drops its edge; dedup groups functions by body key and
renumbers. Both start from a skeleton the base keeps: its index with the
O3 call edges, and with the Os numbers per set of kept functions.
``apply_transforms`` stays the one code that makes a program, and every
index from the parts equals the index of what it makes.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shlex
import signal
import subprocess
from collections import Counter
from dataclasses import dataclass, field

from .binmodel import (
    BasicBlock,
    BinaryProgram,
    Function,
    KeyInstruction,
    KeyKind,
    call_target,
    ingest_disassembly_export,
)
from .conditions import evaluate
from .errors import BuildFailureError, ConfigError, OracleUnavailableError, SchemaError
from .simdiff import KIND_PRIMES, ProgramIndex, index_program
from .varsource import ConfigMap, SourceTree, _statements, _UnitCode
# ``scan_unit`` is not called here (``SourceTree.scan`` is), but stays a module
# attribute: perfbench's tracer rebinds ``buildoracle.scan_unit`` by name.
from .varsource import scan_unit  # noqa: F401

__all__ = [
    "COMPILERS",
    "VERSIONS",
    "LEVELS",
    "THETA",
    "DEFAULT_VERSIONS",
    "DEFAULT_COMPILER",
    "BuildSpec",
    "ConfigAssignment",
    "all_option_specs",
    "default_spec",
    "version_theta",
    "build_unoptimized",
    "apply_transforms",
    "SimulatedToolchain",
    "ExternalToolchain",
    "EXTERNAL_TIMEOUT_S",
    "run_external",
]

COMPILERS = ("gcc", "clang")
VERSIONS: dict[str, tuple[str, ...]] = {
    "gcc": ("5", "6", "7", "8", "9"),
    "clang": ("3.9", "4.0", "5.0", "6.0", "7.0"),
}
LEVELS = ("O0", "O1", "O2", "O3", "Os")

# Structural distance ladder across the five versions of one compiler.
# Spacing is convex: neighbors sit close, the far end sits far, and
# d(v2,v4) > d(v1,v2), d(v3,v4) < d(v1,v3), d(v3,v4) > d(v2,v3), which is
# what lets the version search decide with two probes beyond the default.
THETA = (0, 1, 3, 6, 10)

PADS_PER_THETA = 2
FLAVOR_MARKER = "runtime-guard"
FOLD_RATE = 0.6
INLINE_MAX_BLOCKS = 3

DEFAULT_VERSIONS = {"gcc": "6", "clang": "4.0"}
DEFAULT_COMPILER = "gcc"


@dataclass(frozen=True, order=True)
class BuildSpec:
    """One point of the option space: compiler, version, optimization level."""

    compiler: str
    version: str
    level: str

    def validate(self) -> None:
        if self.compiler not in COMPILERS:
            raise ConfigError(f"unknown compiler {self.compiler!r}")
        if self.version not in VERSIONS[self.compiler]:
            raise ConfigError(f"unknown {self.compiler} version {self.version!r}")
        if self.level not in LEVELS:
            raise ConfigError(f"unknown optimization level {self.level!r}")

    @property
    def version_index(self) -> int:
        return VERSIONS[self.compiler].index(self.version)

    def text(self) -> str:
        return f"{self.compiler}-{self.version}-{self.level}"

    @classmethod
    def from_text(cls, text: str) -> BuildSpec:
        parts = text.split("-")
        if len(parts) != 3:
            raise ConfigError(f"expected <compiler>-<version>-<level>, got {text!r}")
        spec = cls(compiler=parts[0], version=parts[1], level=parts[2])
        spec.validate()
        return spec


def version_theta(spec: BuildSpec) -> int:
    return THETA[spec.version_index]


def all_option_specs() -> list[BuildSpec]:
    """The full option space, 2 compilers x 5 versions x 5 levels."""
    return [
        BuildSpec(compiler=c, version=v, level=lv)
        for c in COMPILERS
        for v in VERSIONS[c]
        for lv in LEVELS
    ]


def default_spec(compiler: str, level: str) -> BuildSpec:
    return BuildSpec(compiler=compiler, version=DEFAULT_VERSIONS[compiler], level=level)


@dataclass(frozen=True)
class ConfigAssignment:
    """Program configuration for one build: defined macros plus the unit
    subset to compile (None means every unit in the tree)."""

    macros: frozenset[str] = frozenset()
    units: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.units is not None and len(set(self.units)) != len(self.units):
            repeated = next(u for u in self.units if self.units.count(u) > 1)
            raise ConfigError(f"unit {repeated!r} listed twice")

    @classmethod
    def for_flags(cls, config_map: ConfigMap, flags, base_units) -> ConfigAssignment:
        """The configuration a flag set of ``config_map`` selects: the macros
        its flags define, and the base units plus the units they pull in."""
        return cls(
            macros=frozenset(config_map.macros_for(flags)),
            units=tuple(sorted(set(base_units) | config_map.units_for(flags))),
        )

    def macro_env(self) -> dict[str, bool]:
        return {m: True for m in self.macros}

    def key(self) -> tuple:
        return (tuple(sorted(self.macros)), self.units if self.units is None else tuple(sorted(self.units)))


# --- unoptimized builder -------------------------------------------------


def build_unoptimized(
    tree: SourceTree,
    config: ConfigAssignment,
    name: str = "prog",
    bodies: dict[tuple, Function] | None = None,
) -> BinaryProgram:
    """Compile the configured source tree to the unoptimized program model.

    A line participates when its owning fragment's condition holds under the
    defined macros; an active #error directive aborts the build, and so does
    a function defined in two selected units, as it would fail to link. The
    unit's scan gives the spans, the compiled text and the ``#error`` lines.

    A function's body depends only on its unit, its name and which lines of
    its span are active. ``bodies`` memoizes the emitted functions of one
    tree under that key, across builds: a function emitted before is
    returned as the same object, shared by every program that has it. No
    pass edits a base function, so the sharing is safe.
    """
    unit_map = {u.name: u for u in tree.units}
    if config.units is None:
        selected = [u.name for u in tree.units]
    else:
        selected = list(config.units)
        for uname in selected:
            if uname not in unit_map:
                raise ConfigError(f"unit {uname!r} not in source tree")
    if bodies is None:
        bodies = {}

    env = config.macro_env()
    functions: list[Function] = []
    defined_in: dict[str, str] = {}
    for uname in selected:
        scan = tree.scan(unit_map[uname])
        active: set[int] = set()
        for frag in scan.fragments:
            if evaluate(frag.condition, env):
                active.update(frag.lines)
        for lineno, message in scan.code.errors.items():
            if lineno in active:
                raise BuildFailureError(f"{uname}:{lineno}: {message}")
        # A function exists in this configuration when its header line is active.
        for fname, span in scan.functions.items():
            if span.start not in active:
                continue
            if fname in defined_in:
                raise BuildFailureError(
                    f"function {fname!r} defined in both {defined_in[fname]} and {uname}"
                )
            defined_in[fname] = uname
            body_lines = tuple(ln for ln in range(span.start + 1, span.end) if ln in active)
            key = (uname, fname, body_lines)
            fn = bodies.get(key)
            if fn is None:
                fn = bodies[key] = _emit_function(fname, scan.code, body_lines)
            functions.append(fn)

    functions.sort(key=lambda f: f.id)
    return BinaryProgram(name=name, stripped=False, functions=functions)


def _emit_function(fname: str, code: _UnitCode, body_lines: tuple[int, ...]) -> Function:
    """The unoptimized function of one body, given as its active lines of
    its unit's code."""
    fn = Function(id=fname, entry="b0", blocks=_emit_blocks(code, body_lines), symbol=fname)
    _elide_empty_blocks(fn)
    return fn


def _emit_blocks(code: _UnitCode, lines: tuple[int, ...]) -> list[BasicBlock]:
    """The blocks of one body before elision, emitted along ``_statements``:
    one block per statement, holding its key instructions as the scan read
    them, and an explicit diamond per if or loop. An if's head compares and
    branches to each arm, a missing or empty arm falling through to the
    if's join, and each arm's loose tails go to the join. The entry is
    ``b0``, an empty block for an empty body."""
    blocks: list[BasicBlock] = []
    open_ifs: list[tuple[BasicBlock, BasicBlock]] = []  # (head, join) per open if
    tails: list[BasicBlock] = []  # the loose tails of the statements so far
    for event, keyins in _statements(code, lines):
        if event in ("else", "end"):
            head, join = open_ifs[-1]
            for t in tails:
                t.succs.append(join.id)
            if event == "else":
                tails = [head]  # the else arm branches from the head
                continue
            open_ifs.pop()
            if len(head.succs) == 1:  # no else arm: the head falls through to the join
                head.succs.append(join.id)
            tails = [join]
            continue
        head = BasicBlock(id=f"b{len(blocks)}", keyins=keyins)
        blocks.append(head)
        for t in tails:
            t.succs.append(head.id)
        tails = [head]
        if event == "if":
            head.keyins.append(KeyInstruction(KeyKind.COMPARE))
            join = BasicBlock(id=f"b{len(blocks)}")
            blocks.append(join)
            open_ifs.append((head, join))
    return blocks or [BasicBlock(id="b0")]


def _elide_empty_blocks(fn: Function) -> None:
    """Remove pass-through blocks with no key instructions, rerouting their
    predecessors. Join points ``_emit_blocks`` materializes as empty blocks do
    not exist in real code layout.

    Emitted bodies have no loops, so no removal makes another block pass
    through: each reference resolves once, past its chain of pass-through
    blocks, and the other blocks keep their order, as when removing one
    block at a time and rerouting after each.
    """
    skip = {
        blk.id: blk.succs[0]
        for blk in fn.blocks
        if not blk.keyins and len(blk.succs) == 1 and blk.succs[0] != blk.id
    }
    if not skip:
        return

    def resolve(bid: str) -> str:
        while bid in skip:
            bid = skip[bid]
        return bid

    fn.blocks = [blk for blk in fn.blocks if blk.id not in skip]
    for blk in fn.blocks:
        blk.succs = [resolve(s) for s in blk.succs]
    fn.entry = resolve(fn.entry)


# --- optimization transform chain ----------------------------------------


def _site_rank(*parts: str) -> str:
    return hashlib.md5("|".join(parts).encode()).hexdigest()


# One output block of a layout: the indices into the base function's block
# list of the base blocks whose key instructions it concatenates, its own
# first, and its successors.
_PlannedBlock = tuple[tuple[int, ...], tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class _FunctionPlan:
    """Where the transform chain acts on one base function, as block
    indices into that function; ``apply_transforms`` replays a program's
    parts for any spec, and ``_index_parts`` computes the index of any build
    from them. The layouts, the calls and the flavor blocks do not depend on
    the compiler; per compiler, a part holds only its pad ranks and its fold
    positions, and, filled on first use, its index pieces.

    * ``unmerged``: the O0 layout, one output block per base block.
    * ``merged``: the layout at O1 and up. A merged block lists every base
      block of its chain, its own first, and takes the chain's successors.
    * ``position``, per base block: the merged position of its chain.
    * ``calls``: the (merged position, target) of each call that names a
      target, which inline reads at O3.
    * ``flavor``: the blocks that carry the clang marker.
    * ``primes`` and ``consts``, per base block: the product of the kind
      primes of its instructions other than ``CONST_REF``, and its count of
      ``CONST_REF``. A block's fingerprint is ``primes * 7 ** consts``.
    * ``leaf``: O3 inlines the function into its callers, since it makes no
      call and merges to at most ``INLINE_MAX_BLOCKS`` blocks.
    * ``pad_ranks``, per compiler: (rank, block index) of every comparison
      block. A base sorts the ranks of all its parts once per compiler
      (``_pad_order``), and a version fills the first ``PADS_PER_THETA *
      theta`` sites of that order.
    * ``folds``, per compiler: the merged positions whose constants fold at
      O2 and up, the compiler's fold choice.
    * ``pieces``, keyed by (compiler, layout kind), filled on first use: the
      part's index pieces with no pad (``_Pieces``). The layout kinds are
      ``O0``, ``merged`` (O1) and ``folded`` (O2, O3 and Os), so a part has
      at most six.
    """

    unmerged: tuple[_PlannedBlock, ...]
    merged: tuple[_PlannedBlock, ...]
    position: dict[int, int]
    calls: tuple[tuple[int, str], ...]
    flavor: frozenset[int]
    primes: tuple[int, ...]
    consts: tuple[int, ...]
    leaf: bool
    pad_ranks: dict[str, tuple[tuple[str, int], ...]]
    folds: dict[str, frozenset[int]]
    pieces: dict[tuple[str, str], _Pieces] = field(default_factory=dict, compare=False)


@dataclass(slots=True)
class _Pieces:
    """What every index reads of one part at one compiler and layout kind,
    with no pad: its block fingerprints in layout order (``_fingerprints``)
    and their sorted signature. A spec pads only comparison blocks, whose
    chains never fold, so a pad multiplies one ``CONST_REF`` prime into its
    chain's fingerprint (``_padded``).

    For the ``folded`` layout, dedup's Os body key, filled on first use
    (``_os_body_key``): ``body_key`` is ``_body_key`` of the build's function
    with no pad, whose rows come in block-id order, and ``row_of`` gives the
    row of each layout position. A pad rebuilds only the row of its chain."""

    fingerprints: tuple[int, ...]
    signature: tuple[int, ...]
    body_key: tuple | None = None
    row_of: tuple[int, ...] = ()


_CONST_PRIME = KIND_PRIMES[KeyKind.CONST_REF]
_STRING_PRIME = KIND_PRIMES[KeyKind.STRING_REF]
_COMPARE_PRIME = KIND_PRIMES[KeyKind.COMPARE]
_CALL_PRIME = KIND_PRIMES[KeyKind.CALL]


def _plan_function(fn: Function) -> _FunctionPlan:
    blocks = fn.blocks
    primes, consts, calls = [], [], []
    for bi, blk in enumerate(blocks):
        product, n = 1, 0
        for ki in blk.keyins:
            if ki.kind is KeyKind.CONST_REF:
                n += 1
            else:
                prime = KIND_PRIMES[ki.kind]
                product *= prime
                if prime == _CALL_PRIME and ki.operand:
                    calls.append((bi, call_target(ki.operand)))
        primes.append(product)
        consts.append(n)
    compares = [product % _COMPARE_PRIME == 0 for product in primes]
    chains = _merge_chains(fn, compares)
    position = {bi: pos for pos, (chain, _succs, _foldable) in enumerate(chains) for bi in chain}
    return _FunctionPlan(
        unmerged=tuple(((bi,), tuple(blk.succs)) for bi, blk in enumerate(blocks)),
        merged=tuple((chain, succs) for chain, succs, _foldable in chains),
        position=position,
        calls=tuple((position[bi], target) for bi, target in calls),
        flavor=_flavor_blocks(fn, primes),
        primes=tuple(primes),
        consts=tuple(consts),
        leaf=len(chains) <= INLINE_MAX_BLOCKS and all(p % _CALL_PRIME for p in primes),
        pad_ranks={
            c: tuple(
                (_site_rank("pad", c, fn.id, blocks[bi].id), bi)
                for bi, is_cmp in enumerate(compares)
                if is_cmp
            )
            for c in COMPILERS
        },
        folds={
            c: frozenset(
                pos
                for pos, (chain, _succs, foldable) in enumerate(chains)
                if foldable and _folds(c, fn.id, blocks[chain[0]].id)
            )
            for c in COMPILERS
        },
    )


def _flavor_blocks(fn: Function, primes: list[int]) -> frozenset[int]:
    """Compiler-family code-gen trait: clang plants a guard string in every
    comparison block, and in the entry block of branch-free functions that
    make calls (those have no comparison block to carry it). Call-free
    straight-line functions are left bare. ``primes`` holds the plan's
    product of kind primes per block."""
    marked = frozenset(bi for bi, p in enumerate(primes) if p % _COMPARE_PRIME == 0)
    if marked or all(p % _CALL_PRIME for p in primes):
        return marked
    return frozenset((next((bi for bi, blk in enumerate(fn.blocks) if blk.id == fn.entry), 0),))


_FOLD_THRESHOLD = int(FOLD_RATE * 0xFFFFFFFF)


def _folds(compiler: str, fid: str, bid: str) -> bool:
    """Fold (O2 and up) drops the constants of a compiler-salted selection
    of the foldable merged blocks."""
    return int(_site_rank("fold", compiler, fid, bid)[:8], 16) <= _FOLD_THRESHOLD


def _merge_chains(
    fn: Function, compares: list[bool]
) -> tuple[tuple[tuple[int, ...], tuple[str, ...], bool], ...]:
    """The merged layout (O1 and up) of one function, each block with
    whether it may fold; ``compares`` flags its comparison blocks.

    Merge coalesces single-successor/single-predecessor chains to a
    fixpoint. A merge changes no block's predecessor count and only the
    absorbing block's successors, so one pass in block-id order, each block
    absorbing its chain while it stays eligible, makes the same merges in
    the same order as rescanning from the first block after every merge.

    A merged block may fold when its chain holds no comparison (branch
    immediates are never folded) and at least one constant.
    """
    blocks = fn.blocks
    position = {blk.id: bi for bi, blk in enumerate(blocks)}
    preds = Counter(s for blk in blocks for s in blk.succs)
    chains = [[bi] for bi in range(len(blocks))]
    succs = [blk.succs for blk in blocks]
    absorbed = [False] * len(blocks)
    for bid in sorted(position):
        bi = position[bid]
        if absorbed[bi]:
            continue
        while len(succs[bi]) == 1:
            succ_id = succs[bi][0]
            if succ_id == bid or succ_id == fn.entry or preds[succ_id] != 1:
                break
            si = position[succ_id]
            chains[bi] += chains[si]
            succs[bi] = succs[si]
            absorbed[si] = True
    layout = []
    for bi in range(len(blocks)):
        if absorbed[bi]:
            continue
        chain = chains[bi]
        foldable = not any(compares[m] for m in chain) and any(
            ki.kind is KeyKind.CONST_REF for m in chain for ki in blocks[m].keyins
        )
        layout.append((tuple(chain), tuple(succs[bi]), foldable))
    return tuple(layout)


def _apply_inline(program: BinaryProgram) -> None:
    """Replace calls to small leaf functions with the callee's flattened
    body. Library calls are never inlined and callees stay in the program."""
    leaves: dict[str, list[KeyInstruction]] = {}
    for fn in program.functions:
        if len(fn.blocks) > INLINE_MAX_BLOCKS:
            continue
        keyins = [ki for blk in sorted(fn.blocks, key=lambda b: b.id) for ki in blk.keyins]
        if any(ki.kind is KeyKind.CALL for ki in keyins):
            continue
        leaves[fn.id] = keyins
    for fn in program.functions:
        for blk in fn.blocks:
            new_keyins: list[KeyInstruction] = []
            for ki in blk.keyins:
                target = (
                    call_target(ki.operand) if ki.kind is KeyKind.CALL and ki.operand else None
                )
                if target in leaves and target != fn.id:
                    new_keyins.extend(leaves[target])
                else:
                    new_keyins.append(ki)
            blk.keyins = new_keyins


def _body_key(fn: Function) -> tuple:
    return (
        fn.entry,
        tuple(
            (blk.id, tuple((ki.kind, ki.operand) for ki in blk.keyins), tuple(blk.succs))
            for blk in sorted(fn.blocks, key=lambda b: b.id)
        ),
    )


def _apply_dedup(program: BinaryProgram) -> None:
    """Merge functions with identical bodies, keeping the smallest id and
    retargeting calls."""
    groups: dict[tuple, list[str]] = {}
    for fn in sorted(program.functions, key=lambda f: f.id):
        groups.setdefault(_body_key(fn), []).append(fn.id)
    remap: dict[str, str] = {}
    for ids in groups.values():
        keeper = ids[0]
        for other in ids[1:]:
            remap[other] = keeper
    if not remap:
        return
    program.functions = [f for f in program.functions if f.id not in remap]
    for fn in program.functions:
        for blk in fn.blocks:
            blk.keyins = [_retarget(ki, remap) for ki in blk.keyins]


def _retarget(ki: KeyInstruction, remap: dict[str, str]) -> KeyInstruction:
    """The call redirected through ``remap``, as a new instruction; any other
    instruction unchanged."""
    if ki.kind is not KeyKind.CALL or not ki.operand:
        return ki
    marked = ki.operand.startswith("?")
    target = ki.operand[1:] if marked else ki.operand
    if target not in remap:
        return ki
    target = remap[target]
    return KeyInstruction(KeyKind.CALL, operand=("?" + target) if marked else target)


def _pad_order(parts: list[_FunctionPlan], compiler: str) -> list[tuple[int, int]]:
    """(function index, block index) of the sites the versions of
    ``compiler`` pad, in pad order: the lowest ranks across all ``parts``,
    as many as the last version fills."""
    ranked = sorted(
        (rank, fi, bi) for fi, part in enumerate(parts) for rank, bi in part.pad_ranks[compiler]
    )
    return [(fi, bi) for _rank, fi, bi in ranked[: PADS_PER_THETA * THETA[-1]]]


def _pad_sites(order: list[tuple[int, int]], spec: BuildSpec) -> dict[int, dict[int, int]]:
    """Function index -> block index -> pad number of the sites ``spec``'s
    version fills: the first ``PADS_PER_THETA * theta`` of ``order``."""
    sites: dict[int, dict[int, int]] = {}
    for n, (fi, bi) in enumerate(order[: PADS_PER_THETA * version_theta(spec)]):
        sites.setdefault(fi, {})[bi] = n
    return sites


def _layout(
    part: _FunctionPlan, spec: BuildSpec
) -> tuple[tuple[_PlannedBlock, ...], frozenset[int]]:
    """The blocks of ``part`` at ``spec``'s level, and the positions among
    them whose constants fold."""
    if spec.level == "O0":
        return part.unmerged, frozenset()
    return part.merged, part.folds[spec.compiler] if spec.level in _FOLD_LEVELS else frozenset()


_FOLD_LEVELS = ("O2", "O3", "Os")
_LAYOUT_KINDS = {"O0": "O0", "O1": "merged", "O2": "folded", "O3": "folded", "Os": "folded"}


def _layout_keyins(
    base: list[BasicBlock], layout, pads: dict[int, int], flavor, folds
) -> list[list[KeyInstruction]]:
    """The key instructions of each block of ``layout``: each base block's
    own, then its pad, then its clang marker, with every ``CONST_REF``
    dropped where the block folds. ``pads`` maps each padded base block to
    its pad number; ``flavor`` and ``folds`` hold base block indices and
    layout positions."""
    out = []
    for pos, (chain, _succs) in enumerate(layout):
        keyins: list[KeyInstruction] = []
        for bi in chain:
            keyins += base[bi].keyins
            if bi in pads:
                keyins.append(KeyInstruction(KeyKind.CONST_REF, str(7100 + pads[bi])))
            if bi in flavor:
                keyins.append(KeyInstruction(KeyKind.STRING_REF, FLAVOR_MARKER))
        if pos in folds:
            keyins = [ki for ki in keyins if ki.kind is not KeyKind.CONST_REF]
        out.append(keyins)
    return out


def _replay(fn: Function, part: _FunctionPlan, spec: BuildSpec, pads: dict[int, int]) -> Function:
    """``fn`` built at ``spec`` before inline and dedup, in fresh function
    and block shells (``_layout_keyins``)."""
    base = fn.blocks
    layout, folds = _layout(part, spec)
    flavor = part.flavor if spec.compiler == "clang" else ()
    blocks = [
        BasicBlock(id=base[chain[0]].id, keyins=keyins, succs=list(succs))
        for (chain, succs), keyins in zip(layout, _layout_keyins(base, layout, pads, flavor, folds))
    ]
    return Function(id=fn.id, entry=fn.entry, blocks=blocks, symbol=fn.symbol)


def apply_transforms(
    program: BinaryProgram, spec: BuildSpec, parts: list[_FunctionPlan] | None = None
) -> BinaryProgram:
    """Apply the full per-spec transform chain to an unoptimized program.

    ``parts`` must be the ``_plan_function`` of each function of
    ``program``, in order; they are planned here when not given. Version
    pads, the flavor marker, merge and fold replay the parts; inline (O3)
    and dedup (Os) then run on the result.

    The input is left untouched: every function and block of the output is a
    new shell with its own key-instruction and successor lists, and the
    passes replace key instructions rather than edit them, so the output
    shares only unchanged instructions with the input.
    """
    if parts is None:
        parts = [_plan_function(fn) for fn in program.functions]
    pads = _pad_sites(_pad_order(parts, spec.compiler), spec)
    functions = [
        _replay(fn, part, spec, pads.get(fi, {}))
        for fi, (fn, part) in enumerate(zip(program.functions, parts, strict=True))
    ]
    out = BinaryProgram(
        name=f"{program.name}@{spec.text()}", stripped=program.stripped, functions=functions
    )
    if spec.level == "O3":
        _apply_inline(out)
    if spec.level == "Os":
        _apply_dedup(out)
    return out


def _fingerprints(part: _FunctionPlan, spec: BuildSpec, pads: dict[int, int]) -> list[int]:
    """The fingerprint of each block of ``_replay(fn, part, spec, pads)``,
    in order, from the part: the product of its chain's block fingerprints
    and of a ``STRING_REF`` prime per clang marker, times a ``CONST_REF``
    prime per constant unless the block folds, then padded (``_padded``)."""
    layout, folds = _layout(part, spec)
    flavor = part.flavor if spec.compiler == "clang" else ()
    primes, consts = part.primes, part.consts
    out = []
    for pos, (chain, _succs) in enumerate(layout):
        fp, n = 1, 0
        for bi in chain:
            fp *= primes[bi]
            n += consts[bi]
            if bi in flavor:
                fp *= _STRING_PRIME
        out.append(fp if pos in folds else fp * _CONST_PRIME**n)
    return _padded(out, part, spec, pads)


def _padded(fingerprints, part: _FunctionPlan, spec: BuildSpec, pads: dict[int, int]) -> list[int]:
    """``fingerprints``, those of ``part`` at ``spec`` with no pad, with
    ``pads`` added. A pad lands in a comparison block, whose chain never
    folds, so it multiplies one ``CONST_REF`` prime into its chain's
    fingerprint."""
    out = list(fingerprints)
    for bi in pads:
        out[bi if spec.level == "O0" else part.position[bi]] *= _CONST_PRIME
    return out


def _pieces(part: _FunctionPlan, spec: BuildSpec) -> _Pieces:
    """``part``'s pieces at ``spec``'s compiler and layout kind, computed
    once per part."""
    key = (spec.compiler, _LAYOUT_KINDS[spec.level])
    pieces = part.pieces.get(key)
    if pieces is None:
        fingerprints = tuple(_fingerprints(part, spec, {}))
        pieces = part.pieces[key] = _Pieces(fingerprints, tuple(sorted(fingerprints)))
    return pieces


def _index_parts(base: _Base, spec: BuildSpec) -> ProgramIndex:
    """The index of ``apply_transforms(base.program, spec, base.parts)``,
    computed from the base's index and its parts' pieces without building it.

    Pads, the flavor marker, merge and fold add and remove no call, function
    or symbol, so they change only the signatures: a function with no pad
    takes its piece's signature as it is, and a padded one sorts its padded
    fingerprints. Inline (O3) and dedup (Os) then adjust the index as they
    adjust the program (``_inline_index``, ``_dedup_index``), from a
    skeleton the base keeps: its index with their edges and numbers.
    """
    if base.index is None:
        base.index = index_program(base.program)
    if spec.compiler not in base.pad_orders:
        base.pad_orders[spec.compiler] = _pad_order(base.parts, spec.compiler)
    pads = _pad_sites(base.pad_orders[spec.compiler], spec)
    pieces = [_pieces(part, spec) for part in base.parts]
    fingerprints = [p.fingerprints for p in pieces]
    signatures = [p.signature for p in pieces]
    for fi, sites in pads.items():
        fingerprints[fi] = _padded(fingerprints[fi], base.parts[fi], spec, sites)
        signatures[fi] = tuple(sorted(fingerprints[fi]))
    skeleton = base.index
    if spec.level == "O3":
        skeleton = _inline_index(base, fingerprints, signatures)
    elif spec.level == "Os":
        skeleton, signatures = _dedup_index(base, spec, pads, signatures)
    return ProgramIndex(
        ids=skeleton.ids,
        unique_symbols=skeleton.unique_symbols,
        callees=skeleton.callees,
        libcalls=skeleton.libcalls,
        callers=skeleton.callers,
        signatures=tuple(signatures),
    )


def _inline_index(base: _Base, fingerprints: list, signatures: list) -> ProgramIndex:
    """``_apply_inline`` at index level: each call to a leaf leaves
    ``callees`` and ``callers`` of the skeleton this returns, and trades
    its block's call prime for the product of the leaf's block fingerprints,
    in ``signatures``. A leaf makes no call, so it inlines nothing and
    changes in no way. The skeleton and the calls to leaves depend only on
    the base, which keeps them (``base.inlined``)."""
    if base.inlined is None:
        index, parts = base.index, base.parts
        leaves = {index.ids[k]: k for k, part in enumerate(parts) if part.leaf}
        numbers = set(leaves.values())
        skeleton = ProgramIndex(
            ids=index.ids,
            unique_symbols=index.unique_symbols,
            callees=tuple(tuple(m for m in out if m not in numbers) for out in index.callees),
            libcalls=index.libcalls,
            callers=tuple(() if m in numbers else into for m, into in enumerate(index.callers)),
            signatures=(),
        )
        calls = (
            (k, tuple((pos, leaves[t]) for pos, t in part.calls if t in leaves))
            for k, part in enumerate(parts)
        )
        base.inlined = skeleton, tuple((k, sites) for k, sites in calls if sites)
    skeleton, callers_of_leaves = base.inlined
    products: dict[int, int] = {}
    for k, sites in callers_of_leaves:
        fps = list(fingerprints[k])
        for pos, m in sites:
            if m not in products:
                products[m] = math.prod(fingerprints[m])
            fps[pos] = fps[pos] // _CALL_PRIME * products[m]
        signatures[k] = tuple(sorted(fps))
    return skeleton


def _dedup_index(
    base: _Base, spec: BuildSpec, pads: dict[int, dict[int, int]], signatures: list
) -> tuple[ProgramIndex, list]:
    """``_apply_dedup`` at index level: the first function, in id order, of
    each group of equal body keys (``_os_body_key``) stays, the calls to the
    others go to it, and the functions are renumbered. Returns the skeleton
    and the signatures of the functions that stay. The skeleton depends only
    on which functions stay, so the base keeps it per keeper tuple."""
    functions, parts = base.program.functions, base.parts
    # Equal bodies have equal signatures, so a function whose signature no
    # other function shares has no duplicate and needs no body key.
    shared = Counter(signatures)
    groups: dict[tuple, int] = {}
    keepers = tuple(
        groups.setdefault(_os_body_key(functions[k], parts[k], spec, pads.get(k)), k)
        if shared[signature] > 1
        else k
        for k, signature in enumerate(signatures)
    )
    if keepers not in base.deduped:
        index = base.index
        kept = tuple(k for k, keeper in enumerate(keepers) if keeper == k)
        number = {k: n for n, k in enumerate(kept)}
        callees = tuple(tuple(number[keepers[m]] for m in index.callees[k]) for k in kept)
        callers: list[list[int]] = [[] for _ in kept]
        for n, out in enumerate(callees):
            for m in out:
                callers[m].append(n)
        base.deduped[keepers] = kept, ProgramIndex(
            ids=tuple(index.ids[k] for k in kept),
            unique_symbols={sym: number[k] for sym, k in index.unique_symbols.items() if k in number},
            callees=callees,
            libcalls=tuple(index.libcalls[k] for k in kept),
            callers=tuple(map(tuple, callers)),
            signatures=(),
        )
    kept, skeleton = base.deduped[keepers]
    return skeleton, [signatures[k] for k in kept]


def _os_body_key(
    fn: Function, part: _FunctionPlan, spec: BuildSpec, pads: dict[int, int] | None
) -> tuple:
    """``_body_key`` of ``fn`` built at ``spec`` (an Os spec) with ``pads``
    (None for none), before dedup. The key with no pad is a piece of the
    part; a pad rebuilds the row of its chain, which never folds."""
    pieces = _pieces(part, spec)
    flavor = part.flavor if spec.compiler == "clang" else ()
    if pieces.body_key is None:
        keyins = _layout_keyins(fn.blocks, part.merged, {}, flavor, part.folds[spec.compiler])
        rows = [_body_row(fn, block, k) for block, k in zip(part.merged, keyins)]
        order = sorted(range(len(rows)), key=lambda pos: rows[pos][0])
        row_of = [0] * len(rows)
        for r, pos in enumerate(order):
            row_of[pos] = r
        pieces.body_key = (fn.entry, tuple(rows[pos] for pos in order))
        pieces.row_of = tuple(row_of)
    if not pads:
        return pieces.body_key
    rows = list(pieces.body_key[1])
    for bi in pads:
        pos = part.position[bi]
        block = part.merged[pos]
        (keyins,) = _layout_keyins(fn.blocks, (block,), pads, flavor, ())
        rows[pieces.row_of[pos]] = _body_row(fn, block, keyins)
    return (fn.entry, tuple(rows))


def _body_row(fn: Function, block: _PlannedBlock, keyins: list[KeyInstruction]) -> tuple:
    """The ``_body_key`` row of planned ``block`` of ``fn``'s build, which
    holds ``keyins``."""
    chain, succs = block
    return (fn.blocks[chain[0]].id, tuple((ki.kind, ki.operand) for ki in keyins), succs)


# --- backends -------------------------------------------------------------


class _Backend:
    """What both backends share: a build cache and an index cache, both
    keyed by (spec, configuration), and the count of fresh builds
    (``build_count``). A backend supplies ``_compile(spec, config)``, which
    ``build`` calls once per key, and may override ``_index_of(spec,
    config)``, which ``index`` calls once per key; by default it indexes
    ``build(spec, config)``.

    A key counts as one build when it first reaches either cache, whether
    through ``build``, ``index`` or both, in either order. A key whose
    compile raises is neither cached nor counted."""

    def __init__(self) -> None:
        self._cache: dict[tuple, BinaryProgram] = {}
        self._indexes: dict[tuple, ProgramIndex] = {}

    @property
    def build_count(self) -> int:
        return len(self._cache.keys() | self._indexes.keys())

    def build(self, spec: BuildSpec, config: ConfigAssignment) -> BinaryProgram:
        key = (spec, config.key())
        if key not in self._cache:
            self._cache[key] = self._compile(spec, config)
        return self._cache[key]

    def index(self, spec: BuildSpec, config: ConfigAssignment) -> ProgramIndex:
        """The ``ProgramIndex`` of ``build(spec, config)``, computed once per
        backend."""
        key = (spec, config.key())
        if key not in self._indexes:
            self._indexes[key] = self._index_of(spec, config)
        return self._indexes[key]

    def _index_of(self, spec: BuildSpec, config: ConfigAssignment) -> ProgramIndex:
        return index_program(self.build(spec, config))


@dataclass(slots=True)
class _Base:
    """One configuration's unoptimized program, the parts of its functions
    in order, and what every index of its builds reads, computed on first
    use: the base's own index, the pad order per compiler, the O3 skeleton
    with the calls to leaves (``_inline_index``), and the Os skeleton per
    keeper tuple (``_dedup_index``)."""

    program: BinaryProgram
    parts: list[_FunctionPlan]
    index: ProgramIndex | None = None
    pad_orders: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    inlined: tuple | None = None
    deduped: dict[tuple[int, ...], tuple] = field(default_factory=dict)


class SimulatedToolchain(_Backend):
    """Build oracle over a source tree using the simulated transform chain.

    Builds and their indexes are cached by (spec, configuration); the
    caches are shared by the option-inference search and the configuration
    stage, which never pay twice for the same probe.
    The unoptimized base, the parts of its functions, the base's index and
    its pad orders are cached together per configuration (``_Base``), and
    the tree keeps each unit's scan, so a fresh build only replays the parts
    up to its version and level and runs inline or dedup; it never mutates
    the cached base.

    ``index`` builds no program at any level: it computes the index from
    the base's index and parts (``_index_parts``). So a subclass that
    overrides ``build`` sees only the builds it is asked for, and no index.

    Configurations of one case mostly differ in a few conditional lines, so
    their bases share most function bodies. Each distinct body, keyed by
    unit, function name and active lines, is emitted and planned once per
    toolchain (``_bodies``, and ``_parts`` keyed by the function's id), and
    every base that has it shares the one function object and its part.
    ``_bodies`` holds every function it emitted, so no id is reused. The
    source tree cannot change, so no cache can go stale.
    """

    def __init__(self, tree: SourceTree, base_name: str = "prog"):
        super().__init__()
        self.tree = tree
        self.base_name = base_name
        self._bases: dict[tuple, _Base] = {}
        self._bodies: dict[tuple, Function] = {}
        self._parts: dict[int, _FunctionPlan] = {}

    def _base(self, config: ConfigAssignment) -> _Base:
        config_key = config.key()
        if config_key not in self._bases:
            program = build_unoptimized(self.tree, config, self.base_name, self._bodies)
            for fn in program.functions:
                if id(fn) not in self._parts:
                    self._parts[id(fn)] = _plan_function(fn)
            parts = [self._parts[id(fn)] for fn in program.functions]
            self._bases[config_key] = _Base(program, parts)
        return self._bases[config_key]

    def _compile(self, spec: BuildSpec, config: ConfigAssignment) -> BinaryProgram:
        spec.validate()
        base = self._base(config)
        return apply_transforms(base.program, spec, base.parts)

    def _index_of(self, spec: BuildSpec, config: ConfigAssignment) -> ProgramIndex:
        spec.validate()
        return _index_parts(self._base(config), spec)


# Seconds an external process (a toolchain command, a run-case trigger) may
# run before it is killed, so that a hung driver cannot hang the pipeline.
EXTERNAL_TIMEOUT_S = 600.0


def run_external(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``argv`` in a session of its own and capture its text output.

    If the wait ends in an exception (``TimeoutExpired`` past
    ``EXTERNAL_TIMEOUT_S``, ``KeyboardInterrupt`` or any other), the whole
    process group is killed, so no child the command forked outlives it, and
    the exception propagates. A ``TimeoutExpired`` carries the output
    written so far, as bytes.
    """
    with subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=EXTERNAL_TIMEOUT_S)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


# A shell word: unquoted characters, escapes and quoted strings. A quote left
# open or a trailing backslash runs to the end, for ``shlex`` to refuse.
_SHELL_WORD_RE = re.compile(r"""(?:[^\s'"\\]|\\.?|'[^']*'?|"(?:[^"\\]|\\.?)*"?)+""")


class ExternalToolchain(_Backend):
    """Shells out to real compiler commands listed in a toolchain manifest.

    Manifest format, one entry per line:

        # a line that starts with '#' is a comment
        gcc/7   : ./drivers/gcc7.sh
        clang/4.0 : python3 drivers/clang.py --version 4.0  # trailing note

    A command is split as the shell splits it, so a ``#`` starts a comment
    only at the start of a word: ``./drv a#b`` passes ``a#b``.

    The command is invoked with the level (-O2 style), -D<macro> for every
    defined macro, and the selected unit paths; it must print the
    disassembly export on stdout. A configuration of every unit
    (``units=None``) passes no unit paths, so the driver compiles the whole
    tree: every option probe, and the configuration stage's first diff,
    reach the driver that way. A command that cannot start, exits
    non-zero or runs past ``EXTERNAL_TIMEOUT_S`` raises
    ``BuildFailureError``; one that runs past it is killed together with
    every process it forked. Each ingested export is cached and indexed
    once, so a repeated ``build`` or ``index`` starts no process.
    """

    def __init__(self, manifest: dict[tuple[str, str], list[str]]):
        super().__init__()
        self.manifest = manifest

    @classmethod
    def parse_manifest(cls, text: str) -> ExternalToolchain:
        manifest: dict[tuple[str, str], list[str]] = {}
        seen: dict[tuple[str, str], int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise SchemaError(f"toolchain manifest line {lineno}: missing ':'")
            lhs, _, rhs = line.partition(":")
            lhs = lhs.strip()
            if "/" not in lhs:
                raise SchemaError(
                    f"toolchain manifest line {lineno}: expected <compiler>/<version>"
                )
            compiler, _, version = lhs.partition("/")
            key = (compiler.strip(), version.strip())
            if key in seen:
                raise SchemaError(
                    f"toolchain manifest line {lineno}: {key[0]}/{key[1]} already listed "
                    f"on line {seen[key]}"
                )
            seen[key] = lineno
            comment = next((w.start() for w in _SHELL_WORD_RE.finditer(rhs) if w[0].startswith("#")), None)
            try:
                command = shlex.split(rhs[:comment])
            except ValueError as exc:  # an unclosed quote or a trailing backslash
                raise SchemaError(f"toolchain manifest line {lineno}: {exc}") from None
            if not command:
                raise SchemaError(f"toolchain manifest line {lineno}: empty command")
            manifest[key] = command
        return cls(manifest)

    def _compile(self, spec: BuildSpec, config: ConfigAssignment) -> BinaryProgram:
        command = self.manifest.get((spec.compiler, spec.version))
        if command is None:
            raise OracleUnavailableError(
                f"no toolchain entry for {spec.compiler}/{spec.version}"
            )
        argv = list(command)
        argv.append(f"-{spec.level}")
        argv.extend(f"-D{m}" for m in sorted(config.macros))
        if config.units is not None:
            argv.extend(config.units)
        try:
            proc = run_external(argv)
        except subprocess.TimeoutExpired:
            raise BuildFailureError(
                f"toolchain command {shlex.join(command)!r} ran past {EXTERNAL_TIMEOUT_S:g} s"
            ) from None
        except OSError as exc:
            raise BuildFailureError(
                f"toolchain command {shlex.join(command)!r} could not start: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise BuildFailureError(
                f"toolchain command failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        return ingest_disassembly_export(proc.stdout, name=spec.text()).program
