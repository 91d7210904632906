"""Deterministic benchmark corpus generation.

Each generated case is a small source tree plus a config map, a hidden
build spec and flag set, and the stripped crash binary produced from them.
The source follows a deliberately rigid layout so that every structural
signal the toolkit relies on exists with a known, bounded magnitude:

* Exactly eight branch-bearing functions (seven workers and one entry
  driver), each with three conditionals and the same block count at every
  optimization level. Version pads land only on comparison blocks, so a
  uniform shape keeps the per-site similarity penalty uniform and the
  version bracket arithmetic exact.
* Twenty-four comparison blocks total: enough for the farthest version's
  twenty pads plus a four-block cross-compiler margin.
* Constant pools and leaf-function calls in separate branch arms, so the
  constant-folding and inlining penalties touch disjoint blocks.
* Two one-block leaf functions (inline targets, stable at every level),
  and a duplicate function pair with compare-free, constant-free bodies
  so deduplication fires at Os and nowhere else.
* A distinctive library-call multiset per function so call-graph matching
  converges on stripped binaries.
* Guarded fragments confined to two branch-free "hub" functions, one
  unique probe string per fragment. Keeping conditionals out of guarded
  and optional code makes the comparison-block population identical under
  every configuration, which keeps option inference exact even when the
  prober runs with an empty seed configuration.

A fixed pair of case indices is generated signal-free: their guarded
fragments hold only featureless assignments, so no presence decision is
possible and the pipeline must report the failure honestly. One case index
carries a deliberate evidence conflict: a fragment guarded by the negation
of an active macro whose probe string also occurs unguarded, producing a
false Present that contradicts the true Present and exercises the
conflict-dropping path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .binmodel import BinaryProgram, ingest_model, serialize_model, strip_program
from .buildoracle import (
    BuildSpec,
    ConfigAssignment,
    all_option_specs,
    apply_transforms,
    build_unoptimized,
)
from .conditions import evaluate
from .errors import SchemaError
from .varsource import ConfigMap, SourceTree, scan_tree

__all__ = [
    "GeneratedCase",
    "generate_case",
    "generate_corpus",
    "signal_free_indices",
    "conflict_index",
    "write_corpus",
    "load_case_dir",
    "read_text",
    "read_source_dir",
]

MACRO_POOL = ("CFG_ALPHA", "CFG_BRAVO", "CFG_CHARLIE", "CFG_DELTA", "CFG_ECHO")
FLAG_POOL = ("with_alpha", "with_bravo", "with_charlie", "with_delta", "with_echo")
EXT_FLAG = "with_ext"
EXT_UNIT = "ext.c"

WORKER_NAMES = ("fn_a0", "fn_a1", "fn_a2", "fn_a3", "fn_b0", "fn_b1", "fn_b2")


@dataclass
class GeneratedCase:
    name: str
    index: int
    tree: SourceTree
    config_map: ConfigMap
    base_units: tuple[str, ...]
    hidden_spec: BuildSpec
    hidden_flags: tuple[str, ...]
    vulnerable_fragment: str | None
    signal_free: bool
    crash: BinaryProgram

    def truth_config(self) -> ConfigAssignment:
        return ConfigAssignment.for_flags(self.config_map, self.hidden_flags, self.base_units)

    def seed_config(self) -> ConfigAssignment:
        """No macros, mandatory units only: no hidden flag is set. Tests and
        the benchmark build at it; the pipeline's probes compile every unit."""
        return ConfigAssignment(macros=frozenset(), units=self.base_units)


def signal_free_indices(size: int) -> set[int]:
    if size < 3:
        return set()
    return {size // 3, (2 * size) // 3}


def conflict_index(size: int) -> int | None:
    if size < 4:
        return None
    idx = 3
    return idx if idx not in signal_free_indices(size) else idx + 1


class _CaseBuilder:
    def __init__(self, seed: int, index: int):
        self.rng = random.Random(f"corpus:{seed}:{index}")
        self.index = index
        self.string_n = 0
        self.const_n = 0

    def uniq_string(self, tag: str) -> str:
        self.string_n += 1
        return f"{tag}_{self.index}_{self.string_n}"

    def uniq_const(self) -> int:
        # Stay far below 7000: values from 7100 up are reserved for pads.
        self.const_n += 1
        return 200 + 9 * self.const_n + self.rng.randrange(7)

    def worker(self, name: str, leaf_a: str, leaf_b: str) -> list[str]:
        """Branch-bearing worker: exactly three conditionals and fourteen
        single-statement blocks, the same shape for every worker.

        Every join carries a statement so block merging always fuses real
        payloads; an empty join would merge into the next comparison and
        leave its fingerprint intact, keeping unoptimized builds too close
        to optimized ones."""
        u1 = self.uniq_string(f"{name}_id")
        u2 = self.uniq_string(f"{name}_warn")
        return [
            f"int {name}(int x) {{",
            f"  acc = x + {self.uniq_const()};",
            f'  lib_{name}("{u1}");',
            f"  if (acc > {self.uniq_const()}) {{",
            f"    {leaf_a}();",
            "  } else {",
            f'    lib_warn("{u2}");',
            "  }",
            f'  lib_step1("{self.uniq_string(f"{name}_s1")}", "{self.uniq_string(f"{name}_s1b")}", "{self.uniq_string(f"{name}_s1c")}");',
            f"  if (x > {self.uniq_const()}) {{",
            f"    acc = acc + {self.uniq_const()};",
            "  }",
            f'  lib_step2("{self.uniq_string(f"{name}_s2a")}", "{self.uniq_string(f"{name}_s2b")}", "{self.uniq_string(f"{name}_s2c")}", "{self.uniq_string(f"{name}_s2d")}", "{self.uniq_string(f"{name}_s2e")}");',
            f"  if (acc > {self.uniq_const()}) {{",
            f"    {leaf_b}();",
            "  } else {",
            f"    acc = acc - {self.uniq_const()};",
            "  }",
            f'  lib_step3("{self.uniq_string(f"{name}_s3")}");',
            "  lib_sink(acc);",
            "}",
        ]

    def entry(self) -> list[str]:
        u = self.uniq_string("entry_banner")
        return [
            "int run_entry(int argc) {",
            f"  acc = argc + {self.uniq_const()};",
            f'  lib_banner("{u}");',
            f"  if (acc > {self.uniq_const()}) {{",
            "    acc = fn_a0(acc) + leaf_log();",
            "  } else {",
            "    acc = fn_a1(acc);",
            "  }",
            f'  lib_step1("{self.uniq_string("entry_s1")}", "{self.uniq_string("entry_s1b")}", "{self.uniq_string("entry_s1c")}");',
            f"  if (acc > {self.uniq_const()}) {{",
            "    acc = fn_a2(acc) + leaf_tick();",
            "  }",
            f'  lib_step2("{self.uniq_string("entry_s2a")}", "{self.uniq_string("entry_s2b")}", "{self.uniq_string("entry_s2c")}", "{self.uniq_string("entry_s2d")}", "{self.uniq_string("entry_s2e")}");',
            f"  if (acc > {self.uniq_const()}) {{",
            "    acc = fn_b0(acc);",
            "  } else {",
            "    acc = fn_b1(acc);",
            "  }",
            f'  lib_step3("{self.uniq_string("entry_s3")}");',
            "  lib_sink(acc);",
            "}",
        ]

    def hub(self, name: str, frag_lines: list[str], dup_call: str) -> list[str]:
        """Branch-free host for guarded fragments. Collapses to a single
        block at any optimized level, and configuration differences never
        touch the comparison-block population."""
        u = self.uniq_string(f"{name}_id")
        lines = [
            f"int {name}(int x) {{",
            f"  acc = x + {self.uniq_const()};",
            f'  lib_{name}("{u}");',
        ]
        lines.extend(frag_lines)
        lines.append(f"  acc = acc + {self.uniq_const()};")
        lines.append(f"  {dup_call}(acc);")
        lines.append("  lib_sink(acc);")
        lines.append("}")
        return lines

    def leaf(self, name: str) -> list[str]:
        # Two string statements: the unoptimized body shares no fingerprint
        # with the merged one, constant folding cannot touch it, and the
        # body stays call-free and small enough to inline.
        tag = self.uniq_string(f"{name}_tag")
        tag2 = self.uniq_string(f"{name}_aux")
        return [
            f"int {name}() {{",
            f'  buf = "{tag}";',
            f'  msg = "{tag2}";',
            "}",
        ]

    def dup_pair(self) -> list[str]:
        # Identical bodies, no compares, no constants: the only pair dedup
        # can and should collapse at Os.
        t1 = self.uniq_string("dup_tag")
        t2 = self.uniq_string("dup_tag")
        lines: list[str] = []
        for name in ("dup_copy_a", "dup_copy_b"):
            lines.extend(
                [
                    f"int {name}(int v) {{",
                    f'  lib_mirror("{t1}");',
                    f'  lib_mirror("{t2}");',
                    "}",
                    "",
                ]
            )
        return lines

    def simple_fragment(self, macro: str, tag: str, signal_free: bool) -> list[str]:
        if signal_free:
            body = "  acc = acc;"
        else:
            body = f'  lib_trace("{self.uniq_string(tag)}");'
        return [f"#ifdef {macro}", body, "#endif"]


def generate_case(seed: int, index: int, signal_free: bool = False,
                  with_conflict: bool = False) -> GeneratedCase:
    b = _CaseBuilder(seed, index)
    rng = b.rng

    n_defines = rng.randint(2, 5)
    define_flags = list(FLAG_POOL[:n_defines])
    macros = list(MACRO_POOL[:n_defines])
    has_ext = rng.random() < 0.5
    flags = define_flags + ([EXT_FLAG] if has_ext else [])

    map_lines = [f"{flag} : define {macro}" for flag, macro in zip(define_flags, macros)]
    if has_ext:
        map_lines.append(f"{EXT_FLAG} : unit {EXT_UNIT}")
    config_map = ConfigMap.parse("\n".join(map_lines))

    # Hidden truth: any of the fifty option points, plus a flag subset with
    # at least one define flag on.
    hidden_spec = rng.choice(all_option_specs())
    while True:
        hidden = [f for f in flags if rng.random() < 0.5]
        if with_conflict and define_flags[0] not in hidden:
            hidden.insert(0, define_flags[0])
        if any(f in define_flags for f in hidden):
            break

    # Guarded fragments: simple per-macro probes in hub_a, the chain and
    # nested shapes plus any conflict planting in hub_b.
    hub_a_frags: list[str] = []
    hub_b_frags: list[str] = []
    for flag, macro in zip(define_flags, macros):
        hub_a_frags.extend(b.simple_fragment(macro, f"cfg_{macro.lower()}", signal_free))
    if with_conflict and not signal_free:
        # Second clean probe for the conflicted macro; it survives the
        # conflict drop and keeps the flag recoverable.
        hub_a_frags.extend(b.simple_fragment(macros[0], "conflict_clean", False))
        decoy = b.uniq_string("conflict_decoy")
        hub_b_frags.extend(
            [
                f"#ifndef {macros[0]}",
                f'  lib_trace("{decoy}");',
                "#endif",
                f'  lib_probe("{decoy}");',
            ]
        )
    if not signal_free and not with_conflict and n_defines >= 2:
        hub_b_frags.extend(
            [
                f"#if defined({macros[0]})",
                f'  lib_trace("{b.uniq_string("chain_on")}");',
                f"#elif defined({macros[1]})",
                f'  lib_trace("{b.uniq_string("chain_mid")}");',
                "#else",
                f'  lib_trace("{b.uniq_string("chain_off")}");',
                "#endif",
                f"#ifdef {macros[0]}",
                f'  lib_trace("{b.uniq_string("nest_outer")}");',
                f"#ifndef {macros[1]}",
                f'  lib_trace("{b.uniq_string("nest_inner")}");',
                "#endif",
                "#endif",
            ]
        )

    main_lines: list[str] = ["// generated case source"]
    util_lines: list[str] = ["// generated case helpers"]

    main_lines.extend(b.leaf("leaf_log"))
    main_lines.append("")
    util_lines.extend(b.leaf("leaf_tick"))
    util_lines.append("")
    main_lines.extend(b.dup_pair())

    for name in WORKER_NAMES:
        if name.startswith("fn_a"):
            main_lines.extend(b.worker(name, "leaf_log", "leaf_tick"))
            main_lines.append("")
        else:
            util_lines.extend(b.worker(name, "leaf_tick", "leaf_log"))
            util_lines.append("")

    main_lines.extend(b.entry())
    main_lines.append("")
    main_lines.extend(b.hub("hub_a", hub_a_frags, "dup_copy_a"))
    util_lines.extend(b.hub("hub_b", hub_b_frags, "dup_copy_b"))
    util_lines.append("")

    # Whole-function fragment: the last define flag may guard an extra
    # branch-free function, exercising the absent-function decision path.
    if not signal_free and n_defines >= 2 and rng.random() < 0.6:
        util_lines.extend(
            [
                f"#ifdef {macros[-1]}",
                "int opt_feature(int v) {",
                f'  lib_opt("{b.uniq_string("optfn")}");',
                f'  lib_opt2("{b.uniq_string("optfn")}");',
                f"  v = v + {b.uniq_const()};",
                "}",
                "#endif",
            ]
        )

    units = {
        "main.c": "\n".join(main_lines) + "\n",
        "util.c": "\n".join(util_lines) + "\n",
    }
    if has_ext:
        # Optional unit: branch-free, so its presence never disturbs the
        # comparison-block population the version pads are ranked over.
        ext_lines = [
            "// optional extension unit",
            "int ext_handler(int v) {",
            f'  lib_ext("{b.uniq_string("ext")}");',
            f'  lib_ext2("{b.uniq_string("ext")}");',
            f"  v = v + {b.uniq_const()};",
            "  lib_sink(v);",
            "}",
        ]
        units[EXT_UNIT] = "\n".join(ext_lines) + "\n"

    tree = SourceTree.from_mapping(units)
    base_units = tuple(sorted(n for n in units if n != EXT_UNIT))

    truth_config = ConfigAssignment.for_flags(config_map, hidden, base_units)
    base = build_unoptimized(tree, truth_config, name=f"case{index:02d}")
    truth = apply_transforms(base, hidden_spec)
    crash = strip_program(truth, name=f"case{index:02d}-crash")

    vulnerable = None if signal_free else _pick_vulnerable_fragment(tree, truth_config)

    return GeneratedCase(
        name=f"case{index:02d}",
        index=index,
        tree=tree,
        config_map=config_map,
        base_units=base_units,
        hidden_spec=hidden_spec,
        hidden_flags=tuple(hidden),
        vulnerable_fragment=vulnerable,
        signal_free=signal_free,
        crash=crash,
    )


def _pick_vulnerable_fragment(tree: SourceTree, config: ConfigAssignment) -> str | None:
    env = config.macro_env()
    for unit_name, scan in sorted(scan_tree(tree).items()):
        if config.units is not None and unit_name not in config.units:
            continue
        for frag in scan.conditional_fragments():
            if frag.features and evaluate(frag.condition, env):
                return frag.id
    return None


def generate_corpus(seed: int, size: int) -> list[GeneratedCase]:
    sf = signal_free_indices(size)
    conflict = conflict_index(size)
    return [
        generate_case(seed, i, signal_free=(i in sf), with_conflict=(i == conflict))
        for i in range(size)
    ]


def write_corpus(cases: list[GeneratedCase], root: Path) -> None:
    """Write each case as a directory: sources, config map, crash model and
    manifest with the hidden ground truth."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for case in cases:
        cdir = root / case.name
        (cdir / "src").mkdir(parents=True, exist_ok=True)
        for unit in case.tree.units:
            (cdir / "src" / unit.name).write_text(unit.text)
        (cdir / "config.map").write_text(case.config_map.to_text())
        (cdir / "crash.model").write_text(serialize_model(case.crash))
        manifest = {
            "name": case.name,
            "index": case.index,
            "base_units": list(case.base_units),
            "signal_free": case.signal_free,
            "vulnerable_fragment": case.vulnerable_fragment,
            "hidden": {
                "spec": case.hidden_spec.text(),
                "flags": list(case.hidden_flags),
            },
        }
        (cdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_case_dir(cdir: Path) -> GeneratedCase:
    """Read a case directory ``write_corpus`` wrote. A missing file or a
    malformed manifest raises ``SchemaError`` naming the directory and the
    file or manifest key."""
    cdir = Path(cdir)
    try:
        manifest = json.loads(_read(cdir, "manifest.json"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise SchemaError(f"{cdir}: manifest.json is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise SchemaError(f"{cdir}: manifest.json must hold an object")
    hidden = _manifest_field(cdir, manifest, "hidden", dict, "an object")
    manifest.setdefault("vulnerable_fragment", None)  # a manifest may leave it out
    try:
        tree = read_source_dir(cdir / "src")
    except FileNotFoundError:
        raise SchemaError(f"{cdir}: missing src") from None
    return GeneratedCase(
        name=_manifest_field(cdir, manifest, "name", str, "a string"),
        index=_manifest_field(cdir, manifest, "index", int, "an integer"),
        tree=tree,
        config_map=ConfigMap.parse(_read(cdir, "config.map")),
        base_units=_manifest_names(cdir, manifest, "base_units"),
        hidden_spec=BuildSpec.from_text(
            _manifest_field(cdir, hidden, "spec", str, "a string", "hidden.")
        ),
        hidden_flags=_manifest_names(cdir, hidden, "flags", "hidden."),
        vulnerable_fragment=_manifest_field(
            cdir, manifest, "vulnerable_fragment", (str, type(None)), "a string or null"
        ),
        signal_free=_manifest_field(cdir, manifest, "signal_free", bool, "true or false"),
        crash=ingest_model(_read(cdir, "crash.model")),
    )


def read_text(path) -> str:
    """The text of the file at ``path``, read as UTF-8. A file that is not
    UTF-8 raises ``SchemaError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def read_source_dir(path) -> SourceTree:
    """The source tree of the files directly in the directory ``path``;
    subdirectories are skipped. A missing directory, or one that holds no
    file, raises ``FileNotFoundError``."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"source directory not found: {path}")
    units = {p.name: read_text(p) for p in sorted(root.iterdir()) if p.is_file()}
    if not units:
        raise FileNotFoundError(f"source directory is empty: {path}")
    return SourceTree.from_mapping(units)


def _read(cdir: Path, name: str) -> str:
    try:
        return read_text(cdir / name)
    except FileNotFoundError:
        raise SchemaError(f"{cdir}: missing {name}") from None


def _manifest_field(cdir: Path, obj: dict, key: str, kind, expected: str, prefix: str = ""):
    """``obj[key]``, which must be an instance of ``kind`` (a bool is no
    integer here); ``prefix`` places ``obj`` in the manifest."""
    if key not in obj:
        raise SchemaError(f"{cdir}: manifest.json: missing {prefix}{key}")
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise SchemaError(f"{cdir}: manifest.json: {prefix}{key} must be {expected}")
    return value


def _manifest_names(cdir: Path, obj: dict, key: str, prefix: str = "") -> tuple[str, ...]:
    """``obj[key]`` as a tuple: a list of distinct strings."""
    names = _manifest_field(cdir, obj, key, list, "a list of strings", prefix)
    if not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{cdir}: manifest.json: {prefix}{key} must be a list of strings")
    if len(set(names)) != len(names):
        repeated = next(n for n in names if names.count(n) > 1)
        raise SchemaError(f"{cdir}: manifest.json: {prefix}{key} lists {repeated!r} twice")
    return tuple(names)
