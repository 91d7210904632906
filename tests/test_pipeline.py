"""End-to-end pipeline: case reproduction, corpus runs, the option landscape."""

from __future__ import annotations

import copy
import hashlib

import pytest

from binprov.binmodel import KeyInstruction, KeyKind
from binprov.buildoracle import (
    BuildSpec,
    ConfigAssignment,
    SimulatedToolchain,
)
from binprov.pipeline import (
    NO_SIGNAL,
    Verification,
    check_matrix_orderings,
    matrix_to_text,
    run_case,
    run_generated_case,
    similarity_matrix,
)
from binprov.varsource import ConfigMap, SourceTree


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


def test_matrix_text_rendering(grid0, specs):
    text = matrix_to_text(grid0, specs)
    lines = text.splitlines()
    assert len(lines) == 50
    assert lines[0].startswith("gcc-5-O0")
    cells = lines[0].split()[1:]
    assert len(cells) == 50
    assert cells[0] == "100"  # self-similarity renders as 100 percent
    assert all(0 <= int(c) <= 100 for c in cells)
