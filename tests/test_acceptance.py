"""Acceptance gate: the seven shipping criteria, each with pinned tolerances
and a runtime budget, reported as one pass/fail line apiece in the terminal
summary."""

from __future__ import annotations

import itertools
import random
import re
import time
from collections import Counter

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
)
from binprov.buildoracle import SimulatedToolchain, all_option_specs
from binprov.conditions import atom_keys, evaluate, neg, parse_expression
from binprov.corpusgen import generate_case, generate_conditional_unit
from binprov.matcher import derive_constraints
from binprov.optinfer import infer_options
from binprov.pipeline import (
    NO_SIGNAL,
    Verification,
    check_matrix_orderings,
    run_corpus,
    similarity_matrix,
)
from binprov.simdiff import (
    compare_programs,
    diff_programs,
    match_functions,
    spp_fingerprint,
)
from binprov.solver import Model, Unsatisfiable, enumerate_models, solve
from binprov.varsource import scan_tree, scan_unit

# Five deterministic study programs for the landscape and sweep criteria.
PROGRAM_SEEDS = [(1, 0), (1, 1), (1, 2), (2, 0), (3, 5)]


def _study_programs():
    cases = [generate_case(seed, index) for seed, index in PROGRAM_SEEDS]
    return [
        (case, SimulatedToolchain(case.tree, base_name=case.name)) for case in cases
    ]


def _verdict(criterion_line, number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    criterion_line(f"criterion {number} {label}: {status} ({detail})")
    assert ok, f"criterion {number} {label}: {detail}"


# --- 1: similarity ordering over the full option grid ------------------------


def test_criterion_1_similarity_ordering(criterion_line, specs):
    t0 = time.perf_counter()
    worst = None
    failures = []
    for case, backend in _study_programs():
        grid = similarity_matrix(backend, case.seed_config(), specs)
        results = check_matrix_orderings(grid, specs, margin=0.01)
        assert len(results) == 15
        for result in results:
            if not result.ok:
                failures.append(f"{case.name}:{result.name} ({result.detail})")
            if result.margin is not None and (worst is None or result.margin < worst):
                worst = result.margin
    elapsed = time.perf_counter() - t0
    ok = not failures and worst >= 0.01 and elapsed < 120.0
    _verdict(
        criterion_line,
        1,
        "similarity-ordering",
        ok,
        f"5 programs x 15 checks, worst margin {worst:+.4f}, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


# --- 2: option inference exactness and probe cost ----------------------------


def test_criterion_2_option_inference_sweep(criterion_line, specs):
    t0 = time.perf_counter()
    counts = []
    misses = []
    for case, backend in _study_programs():
        config = case.seed_config()
        for spec in specs:
            crash = backend.build(spec, config)
            trace = infer_options(backend, crash, config=config)
            counts.append(trace.t_infer)
            if trace.inferred != spec:
                misses.append(f"{case.name}: {spec.text()} -> {trace.inferred.text()}")
            if not 5 <= trace.t_infer <= 8:
                misses.append(f"{case.name}: {spec.text()} cost {trace.t_infer}")
    mean = sum(counts) / len(counts)
    elapsed = time.perf_counter() - t0
    ok = not misses and 5.5 <= mean <= 7.5 and elapsed < 300.0
    _verdict(
        criterion_line,
        2,
        "option-inference-sweep",
        ok,
        f"{len(counts)} hidden specs, 100% exact, T in [5,8], mean {mean:.2f}, "
        f"{elapsed:.1f}s" + (f"; misses: {misses[:3]}" if misses else ""),
    )


# --- 3: diff partition and fingerprint soundness ------------------------------

_KIND_POOL = [KeyKind.COMPARE, KeyKind.CALL, KeyKind.STRING_REF, KeyKind.CONST_REF]


def _random_program(rng: random.Random, tag: str) -> BinaryProgram:
    functions = []
    for fi in range(rng.randint(1, 8)):
        blocks = []
        n_blocks = rng.randint(1, 6)
        for bi in range(n_blocks):
            keyins = []
            for _ in range(rng.randint(0, 5)):
                kind = rng.choice(_KIND_POOL)
                operand = None
                if kind is KeyKind.CALL:
                    operand = f"callee_{rng.randrange(6)}"
                elif kind is KeyKind.STRING_REF:
                    operand = f"s{rng.randrange(12)}"
                elif kind is KeyKind.CONST_REF:
                    operand = str(rng.randrange(100))
                keyins.append(KeyInstruction(kind, operand=operand))
            succs = [
                f"b{rng.randrange(n_blocks)}" for _ in range(rng.randint(0, 2))
            ]
            blocks.append(BasicBlock(id=f"b{bi}", keyins=keyins, succs=succs))
        functions.append(Function(id=f"{tag}_f{fi}", entry="b0", blocks=blocks))
    return BinaryProgram(name=f"rand-{tag}", stripped=True, functions=functions)


def test_criterion_3_diff_and_fingerprint_properties(criterion_line):
    t0 = time.perf_counter()
    rng = random.Random(1003)
    instances = 0
    failures = []
    for round_no in range(500):
        left = _random_program(rng, "l")
        right = _random_program(rng, "r")
        instances += 2

        blocks = [
            blk
            for program in (left, right)
            for fn in program.functions
            for blk in fn.blocks
        ]
        for program in (left, right):
            if compare_programs(program, program) != 1.0:
                failures.append(f"round {round_no}: self-similarity != 1.0")
        # equal fingerprints exactly when the kind multisets are equal,
        # operands never participate
        for a, b in zip(blocks, blocks[1:] + blocks[:1]):
            same_print = spp_fingerprint(a) == spp_fingerprint(b)
            same_kinds = Counter(ki.kind for ki in a.keyins) == Counter(
                ki.kind for ki in b.keyins
            )
            if same_print != same_kinds:
                failures.append(f"round {round_no}: fingerprint not kind-multiset")

        pairs = match_functions(left, right)
        lefts = [a for a, _ in pairs]
        rights = [b for _, b in pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            failures.append(f"round {round_no}: match not injective")

        diff = diff_programs(left, right)
        l_ids = Counter(f.id for f in left.functions)
        r_ids = Counter(f.id for f in right.functions)
        if Counter(p.left for p in diff.pairs) + Counter(diff.left_only) != l_ids:
            failures.append(f"round {round_no}: left partition broken")
        if Counter(p.right for p in diff.pairs) + Counter(diff.right_only) != r_ids:
            failures.append(f"round {round_no}: right partition broken")
        if failures:
            break
    elapsed = time.perf_counter() - t0
    ok = not failures and instances >= 1000 and elapsed < 60.0
    _verdict(
        criterion_line,
        3,
        "diff-and-fingerprint-properties",
        ok,
        f"{instances} random programs, {elapsed:.1f}s"
        + (f"; {failures[0]}" if failures else ""),
    )


# --- 4: variability scanning, solver-verified ---------------------------------

XMLLINT_SNIPPET = """\
static int
lookup_sequence(const char *cur) {
    int mode;
#ifdef LIBXML_HTML_ENABLED
    mode = html_mode("relaxed");
    note_path(cur, 2);
#else
    mode = strict_mode("strict");
#endif
    return mode;
}
"""


def _chain_groups(text: str) -> list[list[int]]:
    """Independent directive walker: per chain, each arm's body start line."""
    groups: list[list[int]] = []
    stack: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = re.match(r"\s*#\s*(\w+)", raw)
        d = m.group(1) if m else None
        if d in ("if", "ifdef", "ifndef"):
            stack.append([lineno + 1])
        elif d in ("elif", "else"):
            stack[-1].append(lineno + 1)
        elif d == "endif":
            groups.append(stack.pop())
    return groups


def _check_unit(name: str, text: str, failures: list[str]) -> tuple[int, int]:
    scan = scan_unit(name, text)
    n_lines = len(text.splitlines())
    all_lines = sorted(ln for f in scan.fragments for ln in f.lines)
    if all_lines != list(range(1, n_lines + 1)):
        failures.append(f"{name}: fragment lines do not partition the file")

    pairs = 0
    children = 0
    frag_by_start = {f.span[0]: f for f in scan.fragments if not f.is_root}
    for group in _chain_groups(text):
        arms = [frag_by_start[s] for s in group if s in frag_by_start]
        for i in range(len(arms)):
            for j in range(i + 1, len(arms)):
                if not isinstance(
                    solve([arms[i].condition, arms[j].condition]), Unsatisfiable
                ):
                    failures.append(f"{name}: chain arms not exclusive")
                pairs += 1
    frag_map = scan.fragment_map()
    for frag in scan.fragments:
        if frag.is_root:
            continue
        parent = frag_map[frag.parent]
        out = solve([frag.condition, neg(parent.condition)])
        if not isinstance(out, Unsatisfiable):
            failures.append(f"{name}: child does not imply parent")
        children += 1
    return pairs, children


def test_criterion_4_variability_scanning(criterion_line):
    t0 = time.perf_counter()
    failures: list[str] = []

    scan = scan_unit("parser.c", XMLLINT_SNIPPET)
    conds = [f.condition_text() for f in scan.fragments]
    if conds != [
        "1",
        "defined(LIBXML_HTML_ENABLED)",
        "!defined(LIBXML_HTML_ENABLED)",
    ]:
        failures.append(f"xmllint fragments wrong: {conds}")
    _check_unit("parser.c", XMLLINT_SNIPPET, failures)

    pairs = children = 0
    for index in range(200):
        text = generate_conditional_unit(1, index)
        p, c = _check_unit(f"rand{index}.c", text, failures)
        pairs += p
        children += c
        if failures:
            break
    elapsed = time.perf_counter() - t0
    ok = not failures and pairs > 50 and children > 50 and elapsed < 60.0
    _verdict(
        criterion_line,
        4,
        "variability-scanning",
        ok,
        f"xmllint snippet + 200 random files, {pairs} exclusivity pairs, "
        f"{children} implications, {elapsed:.1f}s"
        + (f"; {failures[0]}" if failures else ""),
    )


# --- 5: solver agrees with the enumeration oracle ------------------------------

LIBPNG_EXPR = (
    "defined(PNG_FLOATING_POINT_SUPPORTED) && "
    "!defined(PNG_FIXED_POINT_MACRO_SUPPORTED) && "
    "(defined(PNG_gAMA_SUPPORTED) || defined(PNG_cHRM_SUPPORTED) || "
    "defined(PNG_sCAL_SUPPORTED) || defined(PNG_READ_BACKGROUND_SUPPORTED) || "
    "defined(PNG_READ_RGB_TO_GRAY_SUPPORTED)) || "
    "(defined(PNG_sCAL_SUPPORTED) && defined(PNG_FLOATING_ARITHMETIC_SUPPORTED))"
)


def _model_ok(model: Model, constraints) -> bool:
    env = dict(model.assignment)
    return all(evaluate(c, env) for c in constraints)


def _random_formula(rng: random.Random):
    atoms = [f"M{i}" for i in range(rng.randint(2, 16))]

    def leaf():
        text = f"defined({rng.choice(atoms)})"
        return f"!{text}" if rng.random() < 0.4 else text

    def expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.35:
            return leaf()
        op = rng.choice([" && ", " || "])
        return "(" + op.join(expr(depth - 1) for _ in range(2)) + ")"

    return [parse_expression(expr(3)) for _ in range(rng.randint(1, 3))]


def _corpus_constraint_sets(corpus):
    sets = []
    for case in corpus:
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        seed = backend.build(case.hidden_spec, case.seed_config())
        diff = diff_programs(seed, case.crash)
        report = derive_constraints(scan_tree(case.tree), case.crash, diff)
        if report.constraints:
            sets.append(report.constraints)
    return sets


def test_criterion_5_solver_oracle_equivalence(criterion_line, corpus21):
    t0 = time.perf_counter()
    failures: list[str] = []

    formulas = _corpus_constraint_sets(corpus21)
    n_corpus = len(formulas)
    rng = random.Random(1005)
    formulas += [_random_formula(rng) for _ in range(500)]

    checked_models = 0
    for i, constraints in enumerate(formulas):
        outcome = solve(constraints)
        sat_oracle = bool(enumerate_models(constraints, limit=1))
        if isinstance(outcome, Unsatisfiable):
            if sat_oracle:
                failures.append(f"formula {i}: solver unsat, oracle sat")
            if not isinstance(solve(list(outcome.core)), Unsatisfiable):
                failures.append(f"formula {i}: reported core is satisfiable")
        else:
            if not sat_oracle:
                failures.append(f"formula {i}: solver sat, oracle unsat")
            if not _model_ok(outcome, constraints):
                failures.append(f"formula {i}: model fails brute-force evaluation")
            checked_models += 1
            atoms = {k for c in constraints for k in atom_keys(c)}
            if len(atoms) <= 10:
                table = enumerate_models(constraints)
                if dict(outcome.assignment) not in [
                    dict(m.assignment) for m in table
                ]:
                    failures.append(f"formula {i}: model not in enumeration")
        if failures:
            break

    # the published configuration guard: only oracle-validated models count
    cond = parse_expression(LIBPNG_EXPR)
    out = solve([cond])
    names = sorted(set(atom_keys(cond)))
    satisfying = []
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        if evaluate(cond, env):
            satisfying.append(env)
    if not (isinstance(out, Model) and dict(out.assignment) in satisfying):
        failures.append("libpng expression: model fails the truth-table oracle")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _verdict(
        criterion_line,
        5,
        "solver-oracle-equivalence",
        ok,
        f"{n_corpus} corpus sets + 500 random formulas, {checked_models} models "
        f"oracle-checked, libpng oracle {len(satisfying)} satisfying, {elapsed:.1f}s"
        + (f"; {failures[0]}" if failures else ""),
    )


# --- 6: end-to-end reproduction rate ------------------------------------------


def test_criterion_6_corpus_reproduction(criterion_line, corpus21):
    t0 = time.perf_counter()
    reports = run_corpus(corpus21)
    reproduced = 0
    failures: list[str] = []
    for case, report in zip(corpus21, reports):
        if case.signal_free:
            if report.verification is not Verification.FAILED or report.reason != NO_SIGNAL:
                failures.append(
                    f"{case.name}: signal-free case ended {report.verdict_text()}"
                )
            continue
        if report.verification is not Verification.REPRODUCED_STRUCTURALLY:
            failures.append(f"{case.name}: {report.verdict_text()} ({report.reason})")
            continue
        if report.decided_options != case.hidden_spec:
            failures.append(f"{case.name}: options {report.decided_options.text()}")
            continue
        if set(report.decided_configs) != set(case.hidden_flags):
            failures.append(
                f"{case.name}: flags {report.decided_configs} != {case.hidden_flags}"
            )
            continue
        reproduced += 1
    n_signal_free = sum(1 for c in corpus21 if c.signal_free)
    elapsed = time.perf_counter() - t0
    ok = (
        not failures
        and reproduced >= 19
        and n_signal_free == 2
        and elapsed < 600.0
    )
    _verdict(
        criterion_line,
        6,
        "corpus-reproduction",
        ok,
        f"{reproduced}/21 reproduced with exact options+flags, "
        f"{n_signal_free} signal-free failed with '{NO_SIGNAL}', {elapsed:.1f}s"
        + (f"; {failures[:3]}" if failures else ""),
    )


# --- 7: ingestion round-trip ----------------------------------------------------

HAND_EXPORTS = [
    """\
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
""",
    """\
FUNC spin
BLOCK top -> top,out
  test ecx, ecx
  sub ecx, 1
BLOCK out
  ret
""",
    """\
FUNC noise
BLOCK n0
  nop
  xchg rax, rax
  call memset
""",
]


def test_criterion_7_ingestion_round_trip(criterion_line, corpus21):
    t0 = time.perf_counter()
    failures: list[str] = []
    n_models = 0
    for case in corpus21:
        text = serialize_model(case.crash)
        if serialize_model(ingest_model(text)) != text:
            failures.append(f"{case.name}: corpus model round-trip not byte-exact")
        n_models += 1
    for i, export in enumerate(HAND_EXPORTS):
        program = ingest_disassembly_export(export, name=f"export{i}").program
        text = serialize_model(program)
        if serialize_model(ingest_model(text)) != text:
            failures.append(f"export {i}: round-trip not byte-exact")
        n_models += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _verdict(
        criterion_line,
        7,
        "ingestion-round-trip",
        ok,
        f"{n_models} models byte-exact, {elapsed:.1f}s"
        + (f"; {failures[0]}" if failures else ""),
    )
