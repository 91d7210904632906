"""Build oracle: turn source plus a configuration into a binary model.

The simulated toolchain builds an unoptimized program directly from source
(one basic block per statement, explicit branch diamonds), then applies a
deterministic transform chain that reproduces how real compilers leave
structural traces of their identity:

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

The transform chain never mutates its input: ``apply_transforms`` gives the
output fresh function and block shells and shares the unchanged key
instructions, which no pass rewrites in place. ``SimulatedToolchain`` builds
the unoptimized base once per configuration and each source unit is scanned
once per tree (``SourceTree.scan``), so a probe costs only its transforms.

An external toolchain backend is provided for real compilers; it shells out
per the toolchain manifest and reads the disassembly export the command
prints.
"""

from __future__ import annotations

import hashlib
import re
import shlex
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
# ``scan_unit`` is not called here (``SourceTree.scan`` is), but stays a module
# attribute: perfbench's tracer rebinds ``buildoracle.scan_unit`` by name.
from .varsource import SourceTree, scan_unit  # noqa: F401

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

    @property
    def level_index(self) -> int:
        return LEVELS.index(self.level)

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

    def macro_env(self) -> dict[str, bool]:
        return {m: True for m in self.macros}

    def key(self) -> tuple:
        return (tuple(sorted(self.macros)), self.units if self.units is None else tuple(sorted(self.units)))


# --- unoptimized builder -------------------------------------------------

_KEYWORDS = {"if", "else", "while", "for", "return", "switch", "sizeof"}


def _scan_expression(text: str, out: list[KeyInstruction]) -> None:
    """Emit key instructions for one expression, left to right, arguments
    before their call."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                j = n
            out.append(KeyInstruction(KeyKind.STRING_REF, operand=text[i + 1 : j]))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            token = text[i:j]
            if "." not in token:
                out.append(KeyInstruction(KeyKind.CONST_REF, operand=str(int(token))))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            ident = text[i:j]
            k = j
            while k < n and text[k] in " \t":
                k += 1
            if k < n and text[k] == "(" and ident not in _KEYWORDS:
                depth = 0
                m = k
                while m < n:
                    if text[m] == "(":
                        depth += 1
                    elif text[m] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    m += 1
                _scan_expression(text[k + 1 : m], out)
                out.append(KeyInstruction(KeyKind.CALL, operand=ident))
                i = m + 1
                continue
            i = j
            continue
        i += 1


@dataclass
class _SimpleStmt:
    text: str


@dataclass
class _IfStmt:
    condition: str
    then_body: list
    else_body: list | None


_IF_RE = re.compile(r"^\s*if\s*\((.*)\)\s*\{\s*$")


def _parse_statements(lines: list[str], i: int, stop_at_brace: bool) -> tuple[list, int]:
    stmts: list = []
    while i < len(lines):
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        if stripped.startswith("}"):
            if stop_at_brace:
                return stmts, i
            i += 1
            continue
        m = _IF_RE.match(stripped)
        if m:
            then_body, i = _parse_statements(lines, i + 1, stop_at_brace=True)
            closing = lines[i].strip() if i < len(lines) else "}"
            if "else" in closing:
                else_body, i = _parse_statements(lines, i + 1, stop_at_brace=True)
                i += 1  # past the final '}'
            else:
                else_body = None
                i += 1
            stmts.append(_IfStmt(condition=m.group(1), then_body=then_body, else_body=else_body))
            continue
        stmts.append(_SimpleStmt(text=stripped.rstrip(";")))
        i += 1
    return stmts, i


class _FunctionEmitter:
    """Statement-per-block emission with explicit branch diamonds."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.by_id: dict[str, BasicBlock] = {}

    def new_block(self) -> BasicBlock:
        blk = BasicBlock(id=f"b{len(self.blocks)}")
        self.blocks.append(blk)
        self.by_id[blk.id] = blk
        return blk

    def emit_chain(self, stmts: list) -> tuple[str, list[str]]:
        """Emit a statement list; returns (first block id, loose tail ids)."""
        first: str | None = None
        tails: list[str] = []
        for stmt in stmts:
            if isinstance(stmt, _SimpleStmt):
                blk = self.new_block()
                _scan_expression(stmt.text, blk.keyins)
                if first is None:
                    first = blk.id
                for t in tails:
                    self.by_id[t].succs.append(blk.id)
                tails = [blk.id]
            else:
                cond = self.new_block()
                _scan_expression(stmt.condition, cond.keyins)
                cond.keyins.append(KeyInstruction(KeyKind.COMPARE))
                if first is None:
                    first = cond.id
                for t in tails:
                    self.by_id[t].succs.append(cond.id)
                join = self.new_block()
                t_first, t_tails = self.emit_chain(stmt.then_body)
                if t_first is None:
                    cond.succs.append(join.id)
                else:
                    cond.succs.append(t_first)
                    for t in t_tails:
                        self.by_id[t].succs.append(join.id)
                if stmt.else_body is None:
                    cond.succs.append(join.id)
                else:
                    e_first, e_tails = self.emit_chain(stmt.else_body)
                    if e_first is None:
                        cond.succs.append(join.id)
                    else:
                        cond.succs.append(e_first)
                        for t in e_tails:
                            self.by_id[t].succs.append(join.id)
                tails = [join.id]
        return first, tails



_ERROR_DIRECTIVE_RE = re.compile(r"^\s*#\s*error\b\s*(.*)$")


def build_unoptimized(
    tree: SourceTree, config: ConfigAssignment, name: str = "prog"
) -> BinaryProgram:
    """Compile the configured source tree to the unoptimized program model.

    A line participates when its owning fragment's condition holds under the
    defined macros; an active #error directive aborts the build.
    """
    unit_map = tree.unit_map()
    if config.units is None:
        selected = [u.name for u in tree.units]
    else:
        selected = list(config.units)
        for uname in selected:
            if uname not in unit_map:
                raise ConfigError(f"unit {uname!r} not in source tree")

    env = config.macro_env()
    active_lines: dict[str, tuple[list[str], set[int]]] = {}
    scans = {}
    for uname in selected:
        scan = tree.scan(unit_map[uname])
        scans[uname] = scan
        lines = unit_map[uname].text.splitlines()
        active: set[int] = set()
        for frag in scan.fragments:
            if _evaluate_fragment(frag, env):
                active.update(frag.lines)
        for lineno in sorted(active):
            m = _ERROR_DIRECTIVE_RE.match(lines[lineno - 1])
            if m:
                raise BuildFailureError(f"{uname}:{lineno}: {m.group(1) or '#error'}")
        active_lines[uname] = (lines, active)

    # First pass: which functions exist in this configuration.
    spans: list[tuple[str, str, int, int]] = []
    for uname in selected:
        lines, active = active_lines[uname]
        for fname, span in scans[uname].functions.items():
            if span.start in active:
                spans.append((uname, fname, span.start, span.end))

    functions: list[Function] = []
    for uname, fname, start, end in spans:
        lines, active = active_lines[uname]
        body = [
            lines[ln - 1]
            for ln in range(start + 1, end)
            if ln in active and not lines[ln - 1].lstrip().startswith("#")
        ]
        stmts, _ = _parse_statements(body, 0, stop_at_brace=False)
        emitter = _FunctionEmitter()
        first, _tails = emitter.emit_chain(stmts)
        if first is None:
            entry = emitter.new_block().id
        else:
            entry = first
        fn = Function(id=fname, entry=entry, blocks=emitter.blocks, symbol=fname)
        _elide_empty_blocks(fn)
        functions.append(fn)

    functions.sort(key=lambda f: f.id)
    return BinaryProgram(name=name, stripped=False, functions=functions)


def _elide_empty_blocks(fn: Function) -> None:
    """Remove pass-through blocks with no key instructions, rerouting their
    predecessors. Join points the emitter materializes as empty blocks do
    not exist in real code layout."""
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


def _evaluate_fragment(frag, env: dict[str, bool]) -> bool:
    return evaluate(frag.condition, env, env)


# --- optimization transform chain ----------------------------------------


def _site_rank(*parts: str) -> str:
    return hashlib.md5("|".join(parts).encode()).hexdigest()


def _has_compare(blk: BasicBlock) -> bool:
    return any(ki.kind is KeyKind.COMPARE for ki in blk.keyins)


def _apply_version_pads(program: BinaryProgram, spec: BuildSpec) -> None:
    count = PADS_PER_THETA * THETA[spec.version_index]
    if count == 0:
        return
    sites = [
        (fn, blk)
        for fn in program.functions
        for blk in fn.blocks
        if _has_compare(blk)
    ]
    sites.sort(key=lambda s: (_site_rank("pad", spec.compiler, s[0].id, s[1].id), s[0].id, s[1].id))
    for rank, (_fn, blk) in enumerate(sites[:count]):
        blk.keyins.append(KeyInstruction(KeyKind.CONST_REF, operand=str(7100 + rank)))


def _apply_flavor(program: BinaryProgram, spec: BuildSpec) -> None:
    """Compiler-family code-gen trait: clang plants a guard string in every
    comparison block, and in the entry block of branch-free functions that
    make calls (those have no comparison block to carry it). Call-free
    straight-line functions are left bare."""
    if spec.compiler != "clang":
        return
    for fn in program.functions:
        marked = False
        has_call = False
        for blk in fn.blocks:
            if _has_compare(blk):
                blk.keyins.append(KeyInstruction(KeyKind.STRING_REF, operand=FLAVOR_MARKER))
                marked = True
            if any(ki.kind == KeyKind.CALL for ki in blk.keyins):
                has_call = True
        if not marked and has_call and fn.blocks:
            entry = next((b for b in fn.blocks if b.id == fn.entry), fn.blocks[0])
            entry.keyins.append(KeyInstruction(KeyKind.STRING_REF, operand=FLAVOR_MARKER))


def _apply_merge(program: BinaryProgram) -> None:
    """Coalesce single-successor/single-predecessor chains to a fixpoint.

    A merge changes no block's predecessor count and only the absorbing
    block's successors, so one pass in block-id order, each block absorbing
    its chain while it stays eligible, makes the same merges in the same
    order as rescanning from the first block after every merge.
    """
    for fn in program.functions:
        blocks = {b.id: b for b in fn.blocks}
        preds = Counter(s for b in fn.blocks for s in b.succs)
        merged: set[str] = set()
        for bid in sorted(blocks):
            if bid in merged:
                continue
            blk = blocks[bid]
            while len(blk.succs) == 1:
                succ_id = blk.succs[0]
                if succ_id == bid or succ_id == fn.entry or preds[succ_id] != 1:
                    break
                succ = blocks[succ_id]
                blk.keyins.extend(succ.keyins)
                blk.succs = list(succ.succs)
                merged.add(succ_id)
        if merged:
            fn.blocks = [b for b in fn.blocks if b.id not in merged]


def _apply_fold(program: BinaryProgram, spec: BuildSpec) -> None:
    """Drop constants from a compiler-salted selection of non-branch blocks.
    Branch-condition immediates are never folded."""
    threshold = int(FOLD_RATE * 0xFFFFFFFF)
    for fn in program.functions:
        for blk in fn.blocks:
            if _has_compare(blk):
                continue
            if not any(ki.kind is KeyKind.CONST_REF for ki in blk.keyins):
                continue
            h = int(_site_rank("fold", spec.compiler, fn.id, blk.id)[:8], 16)
            if h <= threshold:
                blk.keyins = [ki for ki in blk.keyins if ki.kind is not KeyKind.CONST_REF]


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


def apply_transforms(program: BinaryProgram, spec: BuildSpec) -> BinaryProgram:
    """Apply the full per-spec transform chain to an unoptimized program.

    The input is left untouched: every function and block of the output is a
    new shell with its own key-instruction and successor lists, and the
    passes replace key instructions rather than edit them, so the output
    shares only unchanged instructions with the input.
    """
    out = BinaryProgram(
        name=f"{program.name}@{spec.text()}",
        stripped=program.stripped,
        functions=[
            Function(
                id=fn.id,
                entry=fn.entry,
                blocks=[
                    BasicBlock(id=blk.id, keyins=list(blk.keyins), succs=list(blk.succs))
                    for blk in fn.blocks
                ],
                symbol=fn.symbol,
            )
            for fn in program.functions
        ],
    )
    _apply_version_pads(out, spec)
    _apply_flavor(out, spec)
    if spec.level != "O0":
        _apply_merge(out)
    if spec.level in ("O2", "O3", "Os"):
        _apply_fold(out, spec)
    if spec.level == "O3":
        _apply_inline(out)
    if spec.level == "Os":
        _apply_dedup(out)
    return out


# --- backends -------------------------------------------------------------


class SimulatedToolchain:
    """Build oracle over a source tree using the simulated transform chain.

    Builds are cached by (spec, configuration); the cache is shared by the
    option-inference search, which never pays twice for the same probe.
    The unoptimized base is cached per configuration, and the tree keeps
    each unit's scan, so a fresh build runs only the transform chain, which
    never mutates the cached base. ``build_count`` counts fresh builds.
    """

    def __init__(self, tree: SourceTree, base_name: str = "prog"):
        self.tree = tree
        self.base_name = base_name
        self._cache: dict[tuple, BinaryProgram] = {}
        self._bases: dict[tuple, BinaryProgram] = {}
        self.build_count = 0

    def build(self, spec: BuildSpec, config: ConfigAssignment) -> BinaryProgram:
        spec.validate()
        config_key = config.key()
        key = (spec, config_key)
        if key not in self._cache:
            base = self._bases.get(config_key)
            if base is None:
                base = build_unoptimized(self.tree, config, name=self.base_name)
                self._bases[config_key] = base
            self._cache[key] = apply_transforms(base, spec)
            self.build_count += 1
        return self._cache[key]


class ExternalToolchain:
    """Shells out to real compiler commands listed in a toolchain manifest.

    Manifest format, one entry per line, '#' comments allowed:

        gcc/7   : ./drivers/gcc7.sh
        clang/4.0 : python3 drivers/clang.py --version 4.0

    The command is invoked with the level (-O2 style), -D<macro> for every
    defined macro, and the selected unit paths; it must print the
    disassembly export on stdout.
    """

    def __init__(self, manifest: dict[tuple[str, str], list[str]]):
        self.manifest = manifest
        self._cache: dict[tuple, BinaryProgram] = {}

    @classmethod
    def parse_manifest(cls, text: str) -> ExternalToolchain:
        manifest: dict[tuple[str, str], list[str]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
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
            command = shlex.split(rhs.strip())
            if not command:
                raise SchemaError(f"toolchain manifest line {lineno}: empty command")
            manifest[(compiler.strip(), version.strip())] = command
        return cls(manifest)

    def build(self, spec: BuildSpec, config: ConfigAssignment) -> BinaryProgram:
        key = (spec, config.key())
        if key in self._cache:
            return self._cache[key]
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
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildFailureError(
                f"toolchain command failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        program = ingest_disassembly_export(proc.stdout, name=spec.text()).program
        self._cache[key] = program
        return program
