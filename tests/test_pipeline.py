"""End-to-end pipeline: case reproduction, corpus runs, the option landscape."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import json
import random
import re
from collections import Counter

import pytest

from binprov import buildoracle, pipeline, simdiff
from binprov.binmodel import KeyInstruction, KeyKind, strip_program
from binprov.buildoracle import (
    BuildSpec,
    ConfigAssignment,
    SimulatedToolchain,
    apply_transforms,
    build_unoptimized,
)
from binprov.conditions import evaluate
from binprov.corpusgen import generate_case, generate_corpus
from binprov.errors import ConfigError
from binprov.matcher import PayloadIndex
from binprov.pipeline import (
    NO_SIGNAL,
    Verification,
    check_matrix_orderings,
    matrix_to_text,
    run_case,
    run_corpus,
    run_generated_case,
    similarity_matrix,
)
from binprov.simdiff import index_program, similarity
from binprov.varsource import ConfigMap, SourceTree, scan_tree


def test_reproduces_a_generated_case(corpus21):
    case = corpus21[0]
    report = run_generated_case(case)
    assert report.verification is Verification.REPRODUCED_STRUCTURALLY
    assert report.decided_options == case.hidden_spec
    assert set(report.decided_configs) == set(case.hidden_flags)
    assert report.similarity == pytest.approx(1.0)
    assert report.option_trace is not None and report.option_trace.t_infer in (5, 8)
    assert report.t_extract_seconds >= 0.0
    assert report.constraints  # some presence evidence was derived


def test_reproduced_configuration_compiles_the_vulnerable_fragment(corpus21):
    # The paper's success criterion: the rebuild compiles the vulnerable code.
    reproduced = 0
    for case in corpus21:
        report = run_generated_case(case)
        if report.verification is not Verification.REPRODUCED_STRUCTURALLY:
            continue
        config = ConfigAssignment.for_flags(
            case.config_map, report.decided_configs, case.base_units
        )
        fragment = next(
            frag
            for scan in scan_tree(case.tree).values()
            for frag in scan.fragments
            if frag.id == case.vulnerable_fragment
        )
        assert fragment.unit in config.units, case.name
        assert evaluate(fragment.condition, config.macro_env()), case.name
        reproduced += 1
    assert reproduced > len(corpus21) // 2


def test_case_report_text_layout(corpus21):
    report = run_generated_case(corpus21[0])
    text = report.to_text()
    assert text.startswith(f"case: {corpus21[0].name}\n")
    assert "verification: ReproducedStructurally" in text
    assert f"options: {corpus21[0].hidden_spec.text()}" in text
    assert "t_infer:" in text and "similarity:" in text
    assert text.endswith("\n")


def test_run_is_deterministic(corpus21):
    case = corpus21[5]
    first = run_generated_case(case)
    second = run_generated_case(case)
    assert first.verification == second.verification
    assert first.decided_options == second.decided_options
    assert first.decided_configs == second.decided_configs
    assert first.similarity == second.similarity


def test_signal_free_case_fails_with_no_signal(corpus21):
    for idx in (7, 14):
        case = corpus21[idx]
        assert case.signal_free
        report = run_generated_case(case)
        assert report.verification is Verification.FAILED
        assert report.reason == NO_SIGNAL
        assert report.verdict_text() == f"Failed({NO_SIGNAL})"
        # options were still inferred before the config stage gave up
        assert report.decided_options == case.hidden_spec


def test_conflict_case_still_recovers_flags(corpus21):
    case = corpus21[3]
    report = run_generated_case(case)
    assert report.conflicts, "the planted contradiction should be recorded"
    assert report.verification is Verification.REPRODUCED_STRUCTURALLY
    assert set(report.decided_configs) == set(case.hidden_flags)


UNSAT_SRC = """\
int gate(int x) {
    open_door(x);
#if defined(ALPHA)
    lib_sig("arm-one");
#elif defined(BETA)
    lib_sig_two("arm-two");
#endif
    close_door(x);
}
"""


def test_impossible_evidence_reports_unsat():
    tree = SourceTree.from_mapping({"gate.c": UNSAT_SRC})
    cmap = ConfigMap.parse("with_alpha : define ALPHA\nwith_beta : define BETA\n")
    backend = SimulatedToolchain(tree)
    crash = copy.deepcopy(
        backend.build(BuildSpec("gcc", "6", "O0"), ConfigAssignment())
    )
    blk = crash.functions[0].blocks[0]
    # payloads of two mutually exclusive chain arms in one binary
    for kind, op in (
        (KeyKind.STRING_REF, "arm-one"),
        (KeyKind.CALL, "lib_sig"),
        (KeyKind.STRING_REF, "arm-two"),
        (KeyKind.CALL, "lib_sig_two"),
    ):
        blk.keyins.append(KeyInstruction(kind, operand=op))
    result = run_case(crash, tree, cmap)
    assert result.verification is Verification.FAILED
    assert result.reason.startswith("constraints unsatisfiable:")
    assert "defined(ALPHA)" in result.reason


MYSTERY_SRC = """\
int lone(int x) {
    ping(x);
#ifdef MYSTERY
    lib_sig("mystery-on");
#endif
}
"""


def test_unmapped_macro_reports_map_gap():
    tree = SourceTree.from_mapping({"lone.c": MYSTERY_SRC})
    cmap = ConfigMap.parse("with_known : define KNOWN\n")
    backend = SimulatedToolchain(tree)
    crash = backend.build(
        BuildSpec("gcc", "6", "O0"), ConfigAssignment(macros=frozenset({"MYSTERY"}))
    )
    result = run_case(crash, tree, cmap)
    assert result.verification is Verification.FAILED
    assert result.reason.startswith("configuration map gap:")


def test_threshold_gates_the_verdict(corpus21):
    # an impossible bar turns the same reproduction into LowConfidence
    report = run_generated_case(corpus21[0], threshold=2.0)
    assert report.verification is Verification.LOW_CONFIDENCE
    assert "below threshold" in report.reason


def _report_record(report) -> list:
    trace = report.option_trace
    return [
        report.verdict_text(),
        report.decided_options.text() if report.decided_options else None,
        list(report.decided_configs),
        repr(report.similarity),
        [[p.spec.text(), repr(p.score), p.step, p.cached] for p in trace.probes]
        if trace
        else None,
        list(report.constraints),
        [list(pair) for pair in report.conflicts],
        list(report.present_units),
        report.model.to_text() if report.model else None,
        sorted(report.model.free_atoms) if report.model else None,
        [
            [d.fragment_id, d.unit, d.presence.value, repr(d.confidence), d.scope]
            for d in report.decisions
        ],
        report.reason,
    ]


def test_case_reports_match_golden_digest():
    # Every case report of corpus seeds 1-3, down to the float reprs. Each
    # seed's index-3 case plants a conflict whose dropped evidence mentions
    # an atom no kept constraint does, so the digest also pins how such an
    # atom is assigned. Feature checks are left out: they carry scan data
    # whose shape may change without changing a decision.
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for report in run_corpus(generate_corpus(seed, 21)):
            digest.update(json.dumps(_report_record(report), sort_keys=True).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == "c49acfc4239e5c183cd44d6a2ee615c69eccafa3b42c4dab050c2905283046f7"


# Cases whose hidden ``Os`` reads as ``O2`` when the option probes compile
# only the base units: the duplicates ``Os`` folds away sit in optional
# units. Probing at every unit, as ``infer-options`` does, recovers them.
OS_RECOVERED = [
    (2, "case11"), (3, "case08"), (3, "case15"), (6, "case13"), (6, "case16"),
    (7, "case12"), (8, "case01"), (9, "case14"), (9, "case18"), (10, "case11"),
]


@pytest.mark.parametrize("seed,name", OS_RECOVERED)
def test_run_case_recovers_hidden_os(seed, name):
    case = next(c for c in generate_corpus(seed, 21) if c.name == name)
    assert case.hidden_spec.level == "Os"
    report = run_generated_case(case)
    assert report.decided_options == case.hidden_spec
    if not case.signal_free:
        assert sorted(report.decided_configs) == sorted(case.hidden_flags)
        assert report.verification is Verification.REPRODUCED_STRUCTURALLY


def test_run_case_pauses_and_restores_the_collector(collector, corpus21, monkeypatch):
    seen = []
    infer = pipeline.infer_options
    monkeypatch.setattr(
        pipeline, "infer_options", lambda *args, **kw: seen.append(gc.isenabled()) or infer(*args, **kw)
    )
    case = corpus21[0]
    report = run_generated_case(case)
    assert seen == [False]
    assert report.verification is Verification.REPRODUCED_STRUCTURALLY
    assert gc.isenabled() is collector
    with pytest.raises(AttributeError):
        run_case(None, case.tree, case.config_map)
    assert gc.isenabled() is collector


def _bulk_case(copies: int):
    """Seed 1's ``case00`` with a ``bulk.c`` of ``copies`` copies of
    ``fn_a0``, each renamed and its strings suffixed, built at the hidden
    spec and the truth configuration: the crash, the tree, the base units."""
    case = generate_case(1, 0)
    units = {u.name: u.text for u in case.tree.units}
    start = units["main.c"].index("int fn_a0(")
    body = units["main.c"][start : units["main.c"].index("\n}\n", start) + 3]
    bulk = []
    for i in range(copies):
        copy_i = re.sub(r"\bfn_a0\b", f"fn_bulk{i:04d}", body)
        bulk.append(re.sub(r'"([^"]*)"', lambda m: f'"{m[1]}_bulk{i}"', copy_i))
    assert len(set(bulk)) == copies
    units["bulk.c"] = "\n".join(bulk)
    tree = SourceTree.from_mapping(units)
    base_units = tuple(sorted((*case.base_units, "bulk.c")))
    truth = ConfigAssignment.for_flags(case.config_map, case.hidden_flags, base_units)
    built = apply_transforms(build_unoptimized(tree, truth, name="bulk"), case.hidden_spec)
    return case, strip_program(built, name="bulk-crash"), tree, base_units


def test_run_case_recovers_a_case_of_a_thousand_functions():
    case, crash, tree, base_units = _bulk_case(1000)
    assert len(crash.functions) == 1014
    report = run_case(crash, tree, case.config_map, name="bulk", base_units=base_units)
    assert report.decided_options == case.hidden_spec == BuildSpec("gcc", "5", "O0")
    assert sorted(report.decided_configs) == sorted(case.hidden_flags) == ["with_alpha", "with_bravo"]
    assert report.verification is Verification.REPRODUCED_STRUCTURALLY


def test_run_case_indexes_the_crash_once(corpus21, monkeypatch):
    indexed = []

    def counting(program):
        indexed.append(id(program))
        return index_program(program)

    for module in (pipeline, buildoracle, simdiff):
        monkeypatch.setattr(module, "index_program", counting)
    for case in corpus21[:4]:
        indexed.clear()
        report = run_generated_case(case)
        assert report.option_trace is not None
        assert indexed.count(id(case.crash)) == 1, case.name


def test_run_case_indexes_the_crash_payloads_once(corpus21, monkeypatch):
    # One payload index over the whole crash binary per case, read by the
    # fragment decisions and the optional-unit decisions alike, and one per
    # matched crash function, however many fragments share that function.
    built = []

    def counting(self, blocks):
        built.append(blocks)
        payload_init(self, blocks)

    payload_init = PayloadIndex.__init__
    monkeypatch.setattr(PayloadIndex, "__init__", counting)
    scoped_total = 0
    for case in corpus21:
        built.clear()
        report = run_generated_case(case)
        assert report.decisions, case.name
        n_blocks = sum(len(fn.blocks) for fn in case.crash.functions)
        whole = [blocks for blocks in built if len(blocks) == n_blocks]
        scoped = [blocks for blocks in built if len(blocks) < n_blocks]
        assert len(whole) == 1, case.name
        assert len({id(blocks) for blocks in scoped}) == len(scoped), case.name
        scoped_total += len(scoped)
    assert scoped_total > 0


def test_run_case_indexes_each_program_once(corpus21, monkeypatch):
    # Every index, O3 and Os included, is computed from the functions' parts
    # and the index of the base, which is indexed once per configuration.
    # So no built program is indexed, each base exactly once, and the crash
    # once.
    indexed = []

    def counting(program):
        indexed.append(id(program))
        return index_program(program)

    for module in (pipeline, buildoracle, simdiff):
        monkeypatch.setattr(module, "index_program", counting)
    bases = {}  # configuration key -> its unoptimized program
    build_unoptimized = buildoracle.build_unoptimized

    def recording(tree, config, *args, **kwargs):
        program = build_unoptimized(tree, config, *args, **kwargs)
        bases[config.key()] = program
        return program

    monkeypatch.setattr(buildoracle, "build_unoptimized", recording)
    for case in corpus21[:4]:
        built = {}

        class Recording(SimulatedToolchain):
            def build(self, spec, config):
                program = super().build(spec, config)
                built[id(program)] = program
                return program

        indexed.clear()
        bases.clear()
        report = run_generated_case(case, backend=Recording(case.tree, base_name=case.name))
        assert report.option_trace is not None
        counts = Counter(indexed)
        assert not set(counts) & set(built), case.name
        assert bases, case.name
        for key, base in bases.items():
            assert counts[id(base)] == 1, (case.name, key)
        assert counts[id(case.crash)] == 1, case.name
        assert set(counts) <= {*map(id, bases.values()), id(case.crash)}, case.name


def test_similarity_matrix_makes_no_program(case0, specs, monkeypatch):
    # Each of the fifty indexes of a grid comes from the parts: a fresh
    # toolchain never runs the transform chain.
    calls = []
    apply_transforms = buildoracle.apply_transforms

    def counting(*args, **kwargs):
        calls.append(args[1])
        return apply_transforms(*args, **kwargs)

    monkeypatch.setattr(buildoracle, "apply_transforms", counting)
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    grid = similarity_matrix(backend, case0.seed_config(), specs)
    assert len(grid) == len(specs) and backend.build_count == len(specs)
    assert calls == []


# --- option landscape ---------------------------------------------------------


@pytest.fixture(scope="module")
def grid0(case0, backend0, specs):
    return similarity_matrix(backend0, case0.seed_config(), specs)


def test_matrix_golden_digests(case0, backend0):
    # Digests of the full grid, recorded before scoring moved to program
    # indexes; any drift in a single float shows. Every unit compiled
    # (the `binprov matrix` default), then the hidden configuration, whose
    # macro-guarded fragments the macro-free builds never contain.
    golden = {
        "every-unit": "a230c4e5bfaf73f138922010c7aa1f6b2f09f12ae9f0681c7d481aac8022ab8f",
        "truth": "7d8ab54ccaec70dd35ceb26746f8988db61c701b0dfcf276d3225953fdf43c50",
    }
    configs = {"every-unit": ConfigAssignment(), "truth": case0.truth_config()}
    for label, config in configs.items():
        grid = similarity_matrix(backend0, config)
        assert hashlib.sha256(repr(grid).encode()).hexdigest() == golden[label], label


# The acceptance gate's five study programs (``PROGRAM_SEEDS`` there).
STUDY_PROGRAMS = [(1, 0), (1, 1), (1, 2), (2, 0), (3, 5)]


@pytest.fixture(scope="module")
def study_grids(specs):
    """(label, backend, config, grid) for each study program at its seed
    and at its hidden configuration."""
    out = []
    for seed, index in STUDY_PROGRAMS:
        case = generate_case(seed, index)
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        for tag, config in (("seed", case.seed_config()), ("truth", case.truth_config())):
            grid = similarity_matrix(backend, config, specs)
            out.append((f"{case.name}/{tag}", backend, config, grid))
    return out


def test_matrix_equals_every_ordered_pair_scored_apart(study_grids, specs):
    # The grid matches each unordered pair once; every cell must still equal
    # the ordered similarity computed on its own, diagonal included.
    for label, backend, config, grid in study_grids:
        indexes = [index_program(backend.build(s, config)) for s in specs]
        naive = [[similarity(ia, ib) for ib in indexes] for ia in indexes]
        assert repr(grid) == repr(naive), label


def _hand_index(*functions: tuple[str, str | None, tuple[int, ...]]) -> simdiff.ProgramIndex:
    """The index of ``(id, symbol or None, block fingerprints)`` triples,
    given in sorted-id order, with no calls."""
    ids = tuple(fid for fid, _sym, _sig in functions)
    assert list(ids) == sorted(ids)
    carriers = Counter(sym for _fid, sym, _sig in functions if sym)
    none = ((),) * len(ids)
    return simdiff.ProgramIndex(
        ids=ids,
        unique_symbols={sym: k for k, (_f, sym, _s) in enumerate(functions) if sym and carriers[sym] == 1},
        callees=none,
        libcalls=none,
        callers=none,
        signatures=tuple(tuple(sorted(sig)) for _fid, _sym, sig in functions),
    )


# Hand-made indexes for every path of ``similarity_matrix``. "named" and
# "renamed" share one symbol table; "reversed" pairs with both in reverse
# order, with fractions 1/7, 1/7 and 1/2 whose sum depends on its order.
HAND_INDEXES = {
    "named": _hand_index(("a", "x", (2, 3, 3, 3, 3, 3, 3)), ("b", "y", (5, 7, 7, 7, 7, 7, 7)), ("c", "z", (2, 3))),
    "renamed": _hand_index(("a", "x", (2,)), ("b", "y", (5, 7)), ("c", "z", (2, 7))),
    "reversed": _hand_index(("a", "z", (2, 5)), ("b", "y", (5,)), ("c", "x", (2,))),
    "wider": _hand_index(("a", "x", (2,)), ("b", "y", (5,)), ("c", "z", (2, 3)), ("d", "w", (3,))),
    "stripped": _hand_index(("a", None, (2, 3)), ("b", None, (5,)), ("c", None, (2, 7))),
    "shared": _hand_index(("a", "x", (2, 3)), ("b", "x", (5,)), ("c", "z", (2, 7))),
    "partial": _hand_index(("a", "x", (2,)), ("b", None, (5, 7)), ("c", None, (3,)), ("d", None, (2, 3))),
    "empty": _hand_index(),
}


def test_matrix_memo_never_changes_a_cell(specs):
    # Pairings kept per pair of symbol tables and single sums must give the
    # bits ``similarities`` gives each pair on its own, on every path.
    served = dict(zip(specs, HAND_INDEXES.values()))

    class HandBackend:
        def index(self, spec, config):
            return served[spec]

    ix = HAND_INDEXES
    assert simdiff._symbol_table(ix["named"]) == simdiff._symbol_table(ix["renamed"])
    assert simdiff._symbol_pairing(ix["named"], ix["reversed"]).by_right is not None
    assert simdiff._symbol_pairing(ix["wider"], ix["named"]) is not None
    for partial in ("stripped", "shared", "partial"):
        assert simdiff._symbol_pairing(ix[partial], ix["named"]) is None, partial
    grid = similarity_matrix(HandBackend(), ConfigAssignment(), list(served))
    names = list(HAND_INDEXES)
    for i, a in enumerate(names):
        for j, b in enumerate(names[i:], i):
            apart = simdiff.similarities(ix[a], ix[b])
            assert (grid[i][j].hex(), grid[j][i].hex()) == tuple(map(float.hex, apart)), (a, b)
    n, r = names.index("named"), names.index("reversed")
    assert grid[n][r].hex() != grid[r][n].hex()  # the two summation orders differ in bits


def test_matrix_runs_pass_one_once_per_pair_of_symbol_tables(study_grids, specs, monkeypatch):
    _label, backend, config, grid = study_grids[0]
    runs = []
    symbol_pass = simdiff._symbol_pass

    def counting(left, right):
        runs.append(1)
        return symbol_pass(left, right)

    monkeypatch.setattr(simdiff, "_symbol_pass", counting)
    assert repr(similarity_matrix(backend, config, specs)) == repr(grid)
    tables = {simdiff._symbol_table(backend.index(s, config)) for s in specs}
    assert len(tables) == 2 and len(runs) <= 4


def test_matrix_orderings_match_golden_digest(study_grids, specs):
    # Every check's name, verdict, margin bits and detail text over the study
    # grids, recorded before the checks indexed grid positions directly.
    digest = hashlib.sha256()
    for _label, _backend, _config, grid in study_grids:
        for r in check_matrix_orderings(grid, specs):
            digest.update(json.dumps([r.name, r.ok, repr(r.margin), r.detail]).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == "fdbe9d8ea15e97c00a704b546f1bc4b06de71a6f0b9667664f09cb400c225397"


def _cell(grid, specs, a, b):
    pos = {s.text(): i for i, s in enumerate(specs)}
    return grid[pos[a]][pos[b]]


def test_matrix_anchor_cells(grid0, specs):
    anchors = {
        ("gcc-6-O0", "gcc-5-O0"): 0.989796,
        ("gcc-6-O2", "gcc-6-O3"): 0.873016,
        ("gcc-6-O2", "gcc-6-Os"): 0.928571,
        ("gcc-6-O2", "clang-4.0-O2"): 0.492063,
        ("gcc-5-O1", "clang-3.9-O3"): 0.333333,
        ("gcc-6-O0", "gcc-6-O2"): 0.163265,
        ("clang-4.0-O1", "clang-7.0-O1"): 0.857143,
    }
    for (a, b), expected in anchors.items():
        assert _cell(grid0, specs, a, b) == pytest.approx(expected, abs=1e-6), (a, b)
        assert _cell(grid0, specs, b, a) == pytest.approx(expected, abs=1e-6), (b, a)


def test_matrix_orderings_all_hold(grid0, specs):
    results = check_matrix_orderings(grid0, specs)
    assert len(results) == 15
    names = [r.name for r in results]
    assert names == [
        "o0-isolation-gcc",
        "o0-isolation-clang",
        "level-affinity-gcc",
        "level-affinity-clang",
        "version-monotonic-gcc",
        "version-monotonic-clang",
        "same-compiler-O0",
        "same-compiler-O1",
        "same-compiler-O2",
        "same-compiler-O3",
        "same-compiler-Os",
        "os-closest-to-o2",
        "o1-closer-to-o2-than-o3",
        "o3-closer-to-o2-than-o1",
        "diagonal-and-symmetry",
    ]
    for result in results:
        assert result.ok, f"{result.name}: {result.detail}"
        if result.name != "diagonal-and-symmetry":
            assert result.margin >= 0.01, f"{result.name}: {result.margin}"
        else:
            assert result.margin is None


def test_orderings_name_the_point_a_partial_spec_list_misses(grid0, specs):
    keep = [i for i, s in enumerate(specs) if s.text() != "clang-3.9-O0"]
    partial = [specs[i] for i in keep]
    grid = [[grid0[i][j] for j in keep] for i in keep]
    with pytest.raises(ConfigError, match="specs do not cover clang-3.9-O0"):
        check_matrix_orderings(grid, partial)


def test_orderings_reject_a_grid_not_square_in_the_specs(grid0, specs):
    with pytest.raises(ConfigError, match=r"grid has 49 rows of \[50\] cells for 50 specs"):
        check_matrix_orderings(grid0[:-1], specs)
    ragged = [list(row) for row in grid0]
    ragged[3].pop()
    with pytest.raises(ConfigError, match=r"grid has 50 rows of \[49, 50\] cells for 50 specs"):
        check_matrix_orderings(ragged, specs)


def _with_a_repeat(grid0, specs):
    """The grid and spec list with ``specs[7]`` (gcc-6-O2) listed again."""
    idx = [*range(len(specs)), 7]
    return [[grid0[i][j] for j in idx] for i in idx], [specs[i] for i in idx]


def test_orderings_reject_a_spec_listed_twice(grid0, specs):
    grid, repeated = _with_a_repeat(grid0, specs)
    with pytest.raises(ConfigError, match="spec gcc-6-O2 listed twice"):
        check_matrix_orderings(grid, repeated)


def _synthetic_grid(specs, cell):
    return [[1.0 if a == b else cell(a, b) for b in specs] for a in specs]


def _set(grid, specs, row, col, value):
    pos = {s.text(): i for i, s in enumerate(specs)}
    grid[pos[row]][pos[col]] = value


def test_orderings_worst_gap_rule_on_synthetic_grids(specs):
    # Same-level cells 1.0, all others 0.0: every level-affinity gap is 1.0,
    # none below the 1.0 ceiling, so the margin stays 1.0 with no detail.
    grid = _synthetic_grid(specs, lambda a, b: 1.0 if a.level == b.level else 0.0)
    by_name = {r.name: r for r in check_matrix_orderings(grid, specs)}
    for comp in ("gcc", "clang"):
        result = by_name[f"level-affinity-{comp}"]
        assert (result.ok, repr(result.margin), result.detail) == (True, "1.0", "")

    # Two equal worst gaps: the one the loop order (row version, compared
    # version, row level, other level) reaches first is reported, although
    # the other lies in an earlier grid row.
    _set(grid, specs, "gcc-5-O3", "gcc-6-O3", 0.25)
    _set(grid, specs, "gcc-5-O3", "gcc-6-O1", 0.75)
    _set(grid, specs, "gcc-5-O0", "gcc-7-O0", 0.25)
    _set(grid, specs, "gcc-5-O0", "gcc-7-O2", 0.75)
    result = {r.name: r for r in check_matrix_orderings(grid, specs)}["level-affinity-gcc"]
    assert repr(result.margin) == repr(0.25 - 0.75)
    assert result.detail == "gcc-5-O3: same-level 6 0.2500 vs 6-O1 0.7500"

    # The same in one row of os-closest-to-o2: the farther levels are read
    # O0, O1, O3, and gcc before clang.
    grid = _synthetic_grid(specs, lambda a, b: 0.5)
    for row, far in (("clang-3.9-Os", "clang-3.9-O0"), ("gcc-9-Os", "gcc-9-O3"), ("gcc-9-Os", "gcc-9-O1")):
        _set(grid, specs, row, row[:-2] + "O2", 0.25)
        _set(grid, specs, row, far, 0.75)
    result = {r.name: r for r in check_matrix_orderings(grid, specs)}["os-closest-to-o2"]
    assert result.detail == "gcc-9: Os~O2 0.2500 vs Os~O1 0.7500"


def _with_unordered_pair(result):
    # The min opt pair prints in spec order, so a permutation may swap it.
    head, sep, rest = result.detail.partition(" (")
    if head.startswith("min opt pair "):
        head = " vs ".join(sorted(head[len("min opt pair "):].split(" vs ")))
    return (result.name, result.ok, repr(result.margin), head + sep + rest)


def test_orderings_do_not_depend_on_the_spec_order(specs):
    rng = random.Random(21)
    n = len(specs)
    values = iter(rng.sample(range(1, 10**6), n * (n - 1) // 2))
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = grid[j][i] = next(values) / 10**6
    expected = [_with_unordered_pair(r) for r in check_matrix_orderings(grid, specs)]
    for _ in range(3):
        order = rng.sample(range(n), n)
        permuted = [[grid[i][j] for j in order] for i in order]
        results = check_matrix_orderings(permuted, [specs[i] for i in order])
        assert [_with_unordered_pair(r) for r in results] == expected


def test_matrix_text_rejects_an_empty_spec_list():
    with pytest.raises(ConfigError, match="no specs"):
        matrix_to_text([], [])


def test_matrix_text_rejects_a_grid_not_square_in_the_specs():
    with pytest.raises(ConfigError, match=r"grid has 1 rows of \[1\] cells for 50 specs"):
        matrix_to_text([[1.0]])


def test_matrix_text_rejects_a_spec_listed_twice(grid0, specs):
    grid, repeated = _with_a_repeat(grid0, specs)
    with pytest.raises(ConfigError, match="spec gcc-6-O2 listed twice"):
        matrix_to_text(grid, repeated)


def test_matrix_text_rendering(grid0, specs):
    text = matrix_to_text(grid0, specs)
    lines = text.splitlines()
    assert len(lines) == 50
    assert lines[0].startswith("gcc-5-O0")
    cells = lines[0].split()[1:]
    assert len(cells) == 50
    assert cells[0] == "100"  # self-similarity renders as 100 percent
    assert all(0 <= int(c) <= 100 for c in cells)


# Pipeline invariants: run_case's answer must not depend on the order of the
# units or the config map's flags, nor on what the macros and flags are
# called. Renaming functions is not an invariant: the simulated toolchain
# ranks version-pad sites by a hash of function ids (``_site_rank``), so a
# rename moves pads and changes similarities.
def _renamer(mapping: dict[str, str]):
    pattern = re.compile(r"\b(?:" + "|".join(map(re.escape, mapping)) + r")\b")
    return lambda text: pattern.sub(lambda m: mapping[m.group()], text)


def _reversing_names(names, prefix: str) -> dict[str, str]:
    """New names that sort in the reverse order of ``names``."""
    ordered = sorted(names)
    return {name: f"{prefix}{len(ordered) - k:02d}" for k, name in enumerate(ordered)}


def _units_reversed(case):
    return SourceTree(units=case.tree.units[::-1]), case.config_map, case.base_units[::-1], str


def _flags_reversed(case):
    return case.tree, ConfigMap(flags=case.config_map.flags[::-1]), case.base_units, str


def _macros_renamed(case):
    names = _reversing_names({m for flag in case.config_map.flags for m in flag.defines}, "ZM")
    new = _renamer(names)
    tree = SourceTree(units=tuple(dataclasses.replace(u, text=new(u.text)) for u in case.tree.units))
    flags = [dataclasses.replace(f, defines=tuple(map(new, f.defines))) for f in case.config_map.flags]
    return tree, ConfigMap(flags=flags), case.base_units, _renamer({v: k for k, v in names.items()})


def _flags_renamed(case):
    names = _reversing_names([f.name for f in case.config_map.flags], "opt")
    flags = [dataclasses.replace(f, name=names[f.name]) for f in case.config_map.flags]
    return case.tree, ConfigMap(flags=flags), case.base_units, _renamer({v: k for k, v in names.items()})


def _answer(report, back) -> tuple:
    """What a relation must keep, with names mapped back through ``back``."""
    return (
        report.decided_options,
        sorted(map(back, report.decided_configs)),
        report.verification,
        round(report.similarity, 6),
        back(report.reason),
    )


# Seed 1: plain O0, an optional unit present at O2, the planted conflict,
# clang O3, a signal-free case and Os.
@pytest.mark.parametrize("index", [0, 1, 3, 6, 7, 9])
@pytest.mark.parametrize("relation", [_units_reversed, _flags_reversed, _macros_renamed, _flags_renamed])
def test_run_case_ignores_the_order_and_names_of_its_inputs(corpus21, index, relation):
    case = corpus21[index]
    tree, config_map, base_units, back = relation(case)
    report = run_case(case.crash, tree, config_map, name=case.name, base_units=base_units)
    assert _answer(report, back) == _answer(run_generated_case(case), str)
