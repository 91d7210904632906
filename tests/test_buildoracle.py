"""Build oracle: option space, unoptimized emission, transform chain, backends."""

from __future__ import annotations

import hashlib

import pytest

from binprov import buildoracle, varsource
from binprov.binmodel import KeyKind, serialize_model
from binprov.buildoracle import (
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
from binprov.errors import (
    BuildFailureError,
    ConfigError,
    OracleUnavailableError,
    SchemaError,
)
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

    def counting(tree, config, name="prog"):
        calls.append(config.key())
        return build_unoptimized(tree, config, name=name)

    monkeypatch.setattr(buildoracle, "build_unoptimized", counting)
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    configs = (case0.seed_config(), EMPTY_CONFIG)
    for cfg in configs:
        for spec in specs:
            backend.build(spec, cfg)
    assert calls == [cfg.key() for cfg in configs]
    assert backend.build_count == 2 * len(specs)


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

    changed = tree.units[0]
    changed.text += "int added_late(void) {\n    return 1;\n}\n"
    rescanned = scan_tree(tree)
    assert scanned[len(tree.units):] == [changed.name]
    assert "added_late" in rescanned[changed.name].functions
    assert "added_late" not in first[changed.name].functions


def test_external_toolchain_manifest_parsing():
    tc = ExternalToolchain.parse_manifest(
        "# comment\ngcc/7 : ./gcc7.sh --fast\nclang/4.0 : python3 cc.py\n"
    )
    assert tc.manifest[("gcc", "7")] == ["./gcc7.sh", "--fast"]
    assert tc.manifest[("clang", "4.0")] == ["python3", "cc.py"]
    for bad in ("gcc/7 ./gcc7.sh\n", "gcc7 : ./gcc7.sh\n", "gcc/7 :\n"):
        with pytest.raises(SchemaError):
            ExternalToolchain.parse_manifest(bad)


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
    script.unlink()  # second build must come from the cache
    assert tc.build(BuildSpec("gcc", "7", "O2"), cfg) is program


def test_external_toolchain_failure_paths(tmp_path):
    tc = ExternalToolchain.parse_manifest("gcc/7 : true\n")
    with pytest.raises(OracleUnavailableError):
        tc.build(BuildSpec("clang", "4.0", "O2"), EMPTY_CONFIG)
    bad = tmp_path / "bad.py"
    bad.write_text("import sys; sys.stderr.write('boom'); sys.exit(3)\n")
    tc2 = ExternalToolchain.parse_manifest(f"gcc/7 : python3 {bad}\n")
    with pytest.raises(BuildFailureError, match="boom"):
        tc2.build(BuildSpec("gcc", "7", "O2"), EMPTY_CONFIG)
