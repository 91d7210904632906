"""Structural similarity: fingerprints, matching, and diff reports."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov import simdiff
from binprov.binmodel import (
    BasicBlock,
    BinaryProgram,
    Function,
    KeyInstruction,
    KeyKind,
    ingest_model,
    serialize_model,
    strip_program,
)
from binprov.buildoracle import SimulatedToolchain, all_option_specs
from binprov.errors import SchemaError
from binprov.simdiff import (
    KIND_PRIMES,
    compare_programs,
    diff_programs,
    index_program,
    match_functions,
    similarity,
    similarity_grid,
)

from oracles import function_signature, spp_fingerprint

_KINDS = list(KeyKind)
_LIB_NAMES = ["puts", "memcpy", "open", "lib_log", "lib_err"]


def random_program(
    rng: random.Random, name: str = "p", max_fns: int = 6, min_fns: int = 1
) -> BinaryProgram:
    n_fns = rng.randint(min_fns, max_fns)
    fn_ids = [f"fn{idx}" for idx in range(n_fns)]
    functions = []
    for fid in fn_ids:
        n_blocks = rng.randint(1, 5)
        blocks = []
        for b in range(n_blocks):
            keyins = []
            for _ in range(rng.randint(0, 4)):
                kind = rng.choice(_KINDS)
                if kind is KeyKind.CALL:
                    target = rng.choice(fn_ids + _LIB_NAMES)
                    keyins.append(KeyInstruction(kind, operand=target))
                elif kind is KeyKind.STRING_REF:
                    keyins.append(KeyInstruction(kind, operand=f"s{rng.randint(0, 9)}"))
                elif kind is KeyKind.CONST_REF:
                    keyins.append(KeyInstruction(kind, operand=str(rng.randint(0, 99))))
                else:
                    keyins.append(KeyInstruction(kind))
            succs = [f"b{rng.randrange(n_blocks)}" for _ in range(rng.randint(0, 2))]
            blocks.append(BasicBlock(id=f"b{b}", keyins=keyins, succs=succs))
        functions.append(Function(id=fid, entry="b0", blocks=blocks, symbol=fid))
    return BinaryProgram(name=name, stripped=False, functions=functions)


def _kind_multiset(block: BasicBlock) -> Counter:
    return Counter(ki.kind for ki in block.keyins)


_keyins = st.lists(
    st.sampled_from(_KINDS).flatmap(
        lambda k: st.builds(
            KeyInstruction,
            st.just(k),
            st.just("x") if k in (KeyKind.CALL, KeyKind.STRING_REF, KeyKind.CONST_REF) else st.none(),
        )
    ),
    max_size=6,
)


@settings(max_examples=300, derandomize=True)
@given(_keyins, _keyins)
def test_spp_fingerprint_iff_kind_multiset(keyins_a, keyins_b):
    a = BasicBlock(id="a", keyins=keyins_a, succs=[])
    b = BasicBlock(id="b", keyins=keyins_b, succs=[])
    same_fp = spp_fingerprint(a) == spp_fingerprint(b)
    same_kinds = _kind_multiset(a) == _kind_multiset(b)
    assert same_fp == same_kinds


def test_fingerprint_ignores_operands():
    a = BasicBlock(id="a", keyins=[KeyInstruction(KeyKind.CALL, operand="foo")], succs=[])
    b = BasicBlock(id="b", keyins=[KeyInstruction(KeyKind.CALL, operand="bar")], succs=[])
    assert spp_fingerprint(a) == spp_fingerprint(b) == KIND_PRIMES[KeyKind.CALL]


@settings(max_examples=100, derandomize=True)
@given(_keyins)
def test_fingerprint_is_the_product_of_kind_primes(keyins):
    block = BasicBlock(id="a", keyins=keyins, succs=[])
    assert spp_fingerprint(block) == math.prod(KIND_PRIMES[ki.kind] for ki in keyins)


def test_empty_block_fingerprint_is_one():
    assert spp_fingerprint(BasicBlock(id="a", keyins=[], succs=[])) == 1


def test_kind_primes_are_distinct_primes():
    vals = sorted(KIND_PRIMES.values())
    assert vals == [2, 3, 5, 7]
    assert len(KIND_PRIMES) == len(KeyKind)


def test_self_similarity_is_exactly_one_over_many_random_programs():
    rng = random.Random(7)
    for i in range(300):
        prog = random_program(rng, name=f"p{i}")
        assert compare_programs(prog, prog) == 1.0
        # stripping must not change self-similarity even with twins inside
        stripped = strip_program(prog)
        assert compare_programs(stripped, stripped) == 1.0


def test_self_similarity_with_duplicate_twin_functions():
    blocks = lambda: [
        BasicBlock(
            id="b0",
            keyins=[KeyInstruction(KeyKind.STRING_REF, operand="dup")],
            succs=[],
        )
    ]
    twins = BinaryProgram(
        name="twins",
        stripped=False,
        functions=[
            Function(id="copy_a", entry="b0", blocks=blocks(), symbol="copy_a"),
            Function(id="copy_b", entry="b0", blocks=blocks(), symbol="copy_b"),
        ],
    )
    stripped = strip_program(twins)
    assert compare_programs(stripped, stripped) == 1.0


def test_match_is_injective_and_diff_partitions():
    rng = random.Random(11)
    for i in range(300):
        left = random_program(rng, name="L")
        right = random_program(rng, name="R")
        diff = diff_programs(left, right)
        left_matched = [p.left for p in diff.pairs]
        right_matched = [p.right for p in diff.pairs]
        assert len(set(left_matched)) == len(left_matched)
        assert len(set(right_matched)) == len(right_matched)
        assert sorted(left_matched + list(diff.left_only)) == sorted(
            f.id for f in left.functions
        )
        assert sorted(right_matched + list(diff.right_only)) == sorted(
            f.id for f in right.functions
        )


def test_similarity_is_symmetric_and_bounded():
    rng = random.Random(13)
    for _ in range(200):
        a = random_program(rng, name="a")
        b = random_program(rng, name="b")
        s_ab = compare_programs(a, b)
        s_ba = compare_programs(b, a)
        assert abs(s_ab - s_ba) <= 1e-12
        assert 0.0 <= s_ab <= 1.0


def test_disjoint_programs_score_zero():
    a = BinaryProgram(
        name="a",
        stripped=False,
        functions=[
            Function(
                id="f",
                entry="b0",
                blocks=[
                    BasicBlock(
                        id="b0",
                        keyins=[KeyInstruction(KeyKind.COMPARE)],
                        succs=[],
                    )
                ],
                symbol="f",
            )
        ],
    )
    b = BinaryProgram(
        name="b",
        stripped=False,
        functions=[
            Function(
                id="g",
                entry="b0",
                blocks=[
                    BasicBlock(
                        id="b0",
                        keyins=[KeyInstruction(KeyKind.CALL, operand="x")],
                        succs=[],
                    )
                ],
                symbol="g",
            )
        ],
    )
    assert compare_programs(a, b) == 0.0


def test_symbol_pass_matches_identical_names():
    rng = random.Random(3)
    prog = random_program(rng, name="sym")
    pairs = match_functions(prog, prog)
    assert {(a, b) for a, b in pairs} == {(f.id, f.id) for f in prog.functions}


def test_neighborhood_pass_uses_call_anchors_when_stripped(base0):
    # Stripped worker functions share identical signatures; their unique
    # library anchor calls are what tells them apart.
    stripped = strip_program(base0)
    diff = diff_programs(base0, stripped)
    assert diff.beta == 1.0
    assert compare_programs(base0, stripped) == 1.0
    # every worker pairs to the function holding its own anchor call
    for pair in diff.pairs:
        left_fn = base0.function_map()[pair.left]
        right_fn = stripped.function_map()[pair.right]
        left_libs = sorted(
            ki.operand
            for blk in left_fn.blocks
            for ki in blk.keyins
            if ki.kind is KeyKind.CALL and not ki.operand.startswith("?")
            and ki.operand not in base0.function_map()
        )
        right_libs = sorted(
            ki.operand
            for blk in right_fn.blocks
            for ki in blk.keyins
            if ki.kind is KeyKind.CALL and not ki.operand.startswith("?")
        )
        assert left_libs == right_libs


def test_function_signature_is_block_multiset():
    fn = Function(
        id="f",
        entry="b0",
        blocks=[
            BasicBlock(id="b0", keyins=[KeyInstruction(KeyKind.COMPARE)], succs=["b1"]),
            BasicBlock(id="b1", keyins=[], succs=[]),
        ],
        symbol=None,
    )
    sig = function_signature(fn)
    assert sig == (1, 2)


def test_fraction_counts_shared_fingerprints_over_larger_side():
    left = Function(
        id="f",
        entry="b0",
        blocks=[
            BasicBlock(id="b0", keyins=[KeyInstruction(KeyKind.COMPARE)], succs=[]),
            BasicBlock(id="b1", keyins=[], succs=[]),
        ],
        symbol="f",
    )
    right = Function(
        id="f",
        entry="b0",
        blocks=[
            BasicBlock(id="b0", keyins=[KeyInstruction(KeyKind.COMPARE)], succs=[]),
            BasicBlock(id="b1", keyins=[KeyInstruction(KeyKind.CALL, operand="x")], succs=[]),
            BasicBlock(id="b2", keyins=[], succs=[]),
        ],
        symbol="f",
    )
    pa = BinaryProgram(name="a", stripped=False, functions=[left])
    pb = BinaryProgram(name="b", stripped=False, functions=[right])
    diff = diff_programs(pa, pb)
    assert len(diff.pairs) == 1
    assert diff.pairs[0].fraction == 2 / 3


def _renamed(fn: Function, new_id: str) -> Function:
    twin = copy.deepcopy(fn)
    twin.id = new_id
    twin.symbol = new_id
    return twin


def _score_only_cases(rng: random.Random):
    """Acceptance-style random pairs: unstripped, one side stripped, both
    stripped (overlapping f000... ids), and with duplicate function bodies."""
    for i in range(150):
        left = random_program(rng, name="L", max_fns=8)
        right = random_program(rng, name="R", max_fns=8)
        if i % 3 == 0:
            for prog in (left, right):
                src = rng.choice(prog.functions)
                prog.functions.append(_renamed(src, f"dup{len(prog.functions)}"))
        yield left, right
        yield left, strip_program(right)
        yield strip_program(left), strip_program(right)


def test_score_only_path_equals_diff_score_exactly():
    rng = random.Random(29)
    for left, right in _score_only_cases(rng):
        diff = diff_programs(left, right)
        assert compare_programs(left, right) == diff.score
        assert match_functions(left, right) == [(p.left, p.right) for p in diff.pairs]


def test_neighborhood_pass_reads_each_sides_own_block_counts():
    # Both sides stripped, so both use f000..f003. Left's f000/f001 are
    # one-block workers and f002/f003 two-block pads; right holds them in
    # the opposite order. Workers share one signature and pads another, so
    # only the library anchor in each neighbourhood key tells them apart,
    # and that key must carry each function's own block count.
    def worker(name: str, lib: str) -> Function:
        blk = BasicBlock(id="b0", keyins=[KeyInstruction(KeyKind.CALL, operand=lib)])
        return Function(id=name, entry="b0", blocks=[blk], symbol=name)

    def pad(name: str, lib: str) -> Function:
        blocks = [
            BasicBlock(id="b0", keyins=[KeyInstruction(KeyKind.CALL, operand=lib)],
                       succs=["b1"]),
            BasicBlock(id="b1", keyins=[KeyInstruction(KeyKind.COMPARE)]),
        ]
        return Function(id=name, entry="b0", blocks=blocks, symbol=name)

    left = strip_program(BinaryProgram(name="L", functions=[
        worker("a", "alpha"), worker("b", "beta"), pad("c", "gamma"), pad("d", "delta"),
    ]))
    right = strip_program(BinaryProgram(name="R", functions=[
        pad("a", "delta"), pad("b", "gamma"), worker("c", "beta"), worker("d", "alpha"),
    ]))
    expected = [("f000", "f003"), ("f001", "f002"), ("f002", "f001"), ("f003", "f000")]
    assert match_functions(left, right) == expected
    diff = diff_programs(left, right)
    assert [(p.left, p.right) for p in diff.pairs] == expected
    assert diff.score == 1.0


def test_diff_pauses_and_restores_the_collector(collector, monkeypatch):
    program = random_program(random.Random(5))
    seen = []
    index = simdiff.index_program
    monkeypatch.setattr(
        simdiff, "index_program", lambda p: seen.append(gc.isenabled()) or index(p)
    )
    diff_programs(program, program)
    assert seen == [False, False]
    assert gc.isenabled() is collector
    with pytest.raises(AttributeError):
        diff_programs(program, "not a program")
    assert gc.isenabled() is collector


def test_ingest_ingest_diff_run_no_collection():
    # The pauses make no tracked allocation at their edges, so with the
    # collector on, back-to-back calls over two large models give it no
    # allocation to start a collection in.
    rng = random.Random(11)
    left_text = serialize_model(random_program(rng, "L", max_fns=400, min_fns=300))
    right_text = serialize_model(strip_program(random_program(rng, "R", max_fns=400, min_fns=300)))
    collections: list[int] = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        left = ingest_model(left_text)
        right = ingest_model(right_text)
        report = diff_programs(left, right)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert collections == []
    assert len(left.functions) >= 300 and len(right.functions) >= 300
    assert report.pairs


def test_similarities_sum_each_direction_in_its_own_id_order():
    # Symbols pair L's a, b, c with R's c, b, a at fractions 0.1, 0.2 and
    # 0.3. Float addition is not associative, so the two directions sum to
    # different bits, and each must come out as its own ``similarity``.
    def fn(fid: str, symbol: str, shared: int, filler: list[KeyInstruction]) -> Function:
        # Ten blocks: ``shared`` comparison blocks, the rest holding ``filler``.
        blocks = [
            BasicBlock(id=f"b{k}", keyins=[KeyInstruction(KeyKind.COMPARE)] if k < shared else list(filler))
            for k in range(10)
        ]
        return Function(id=fid, entry="b0", blocks=blocks, symbol=symbol)

    string = [KeyInstruction(KeyKind.STRING_REF, operand="x")]
    left = BinaryProgram(name="L", functions=[
        fn("a", "s1", 1, []), fn("b", "s2", 2, []), fn("c", "s3", 3, []),
    ])
    right = BinaryProgram(name="R", functions=[
        fn("a", "s3", 3, string), fn("b", "s2", 2, string), fn("c", "s1", 1, string),
    ])
    li, ri = index_program(left), index_program(right)
    grid = similarity_grid([li, ri])
    forward, backward = grid[0][1], grid[1][0]
    assert forward != backward
    assert repr((forward, backward)) == repr((similarity(li, ri), similarity(ri, li)))


def test_library_named_like_a_pair_token_is_not_a_matched_callee():
    # L's u calls a library named "m:x"; R's w calls rx, which pairs with
    # L's x by symbol. No library name may stand for that pair, however the
    # pair's token is spelled, or u~w would match from L's side only and the
    # two directions would differ.
    def fn(fid: str, symbol: str | None, call: str | None, second: KeyKind) -> Function:
        head = [KeyInstruction(KeyKind.CALL, operand=call)] if call else [KeyInstruction(KeyKind.COMPARE)]
        blocks = [
            BasicBlock(id="b0", keyins=head, succs=["b1"]),
            BasicBlock(id="b1", keyins=[KeyInstruction(second, operand="s")]),
        ]
        return Function(id=fid, entry="b0", blocks=blocks, symbol=symbol)

    left = BinaryProgram(name="L", functions=[
        fn("x", "s", None, KeyKind.CONST_REF), fn("u", None, "m:x", KeyKind.STRING_REF),
        fn("v", None, "zz", KeyKind.STRING_REF),
    ])
    right = BinaryProgram(name="R", functions=[
        fn("rx", "s", None, KeyKind.CONST_REF), fn("w", None, "rx", KeyKind.CONST_REF),
        fn("t", None, "qq", KeyKind.CONST_REF),
    ])
    assert match_functions(left, right) == [("x", "rx")]
    assert match_functions(right, left) == [("rx", "x")]
    li, ri = index_program(left), index_program(right)
    grid = similarity_grid([li, ri])
    assert (grid[0][1], grid[1][0]) == (similarity(li, ri), similarity(ri, li)) == (1 / 3, 1 / 3)


def _with_twin(program: BinaryProgram) -> BinaryProgram:
    twin = copy.deepcopy(program)
    twin.functions.append(_renamed(twin.functions[0], "twin"))
    return twin


def _draw_programs(draw, names: list[str]) -> list[BinaryProgram]:
    """Random programs of these names, each optionally stripped, with a
    duplicate twin function or no functions at all."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sides = []
    for name in names:
        shape = draw(st.sampled_from(["plain", "twin", "empty"]))
        if shape == "empty":
            program = BinaryProgram(name=name, stripped=False, functions=[])
        else:
            program = random_program(rng, name=name, max_fns=8)
            if shape == "twin":
                program = _with_twin(program)
        if draw(st.booleans()):
            program = strip_program(program)
        sides.append(program)
    return sides


@st.composite
def _program_pairs(draw):
    return tuple(_draw_programs(draw, ["L", "R"]))


@st.composite
def _program_lists(draw):
    return _draw_programs(draw, [f"P{k}" for k in range(draw(st.integers(1, 4)))])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_program_lists())
def test_similarities_equal_both_directions_computed_apart(programs):
    # ``similarity_grid`` fills both cells of a pair from one match and
    # shares its memos across the whole list; this holds every cell to the
    # direction computed in full on its own.
    indexes = [index_program(p) for p in programs]
    apart = [[similarity(a, b) for b in indexes] for a in indexes]
    assert repr(similarity_grid(indexes)) == repr(apart)
    for left, right in itertools.combinations_with_replacement(programs, 2):
        forward = match_functions(left, right)
        assert sorted((r, l) for l, r in forward) == match_functions(right, left)


def _shuffled(program: BinaryProgram, rng: random.Random) -> BinaryProgram:
    functions = list(program.functions)
    rng.shuffle(functions)
    return BinaryProgram(name=program.name, stripped=program.stripped, functions=functions)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_program_pairs(), st.integers(0, 2**32 - 1))
def test_function_order_changes_nothing(pair, seed):
    # Functions are numbered in sorted-id order, so the order a program
    # lists them in must not reach the match, the score bits or the diff.
    left, right = pair
    rng = random.Random(seed)
    shuffled_left, shuffled_right = _shuffled(left, rng), _shuffled(right, rng)
    li, ri = index_program(left), index_program(right)
    for program in (left, right, shuffled_left, shuffled_right):
        index = index_program(program)
        by_id = program.function_map()
        assert index.ids == tuple(sorted(by_id))
        for k, fid in enumerate(index.ids):
            assert index.signatures[k] == function_signature(by_id[fid])
    for shuffled in ((shuffled_left, right), (left, shuffled_right), (shuffled_left, shuffled_right)):
        sl, sr = index_program(shuffled[0]), index_program(shuffled[1])
        assert match_functions(*shuffled) == match_functions(left, right)
        assert repr(similarity_grid([sl, sr])) == repr(similarity_grid([li, ri]))
        assert repr(diff_programs(*shuffled)) == repr(diff_programs(left, right))


def test_duplicate_function_id_is_a_schema_error():
    # One number per id cannot tell two functions of one id apart.
    def fn(symbol: str, kind: KeyKind) -> Function:
        blocks = [BasicBlock(id="b0", keyins=[KeyInstruction(kind, operand="x")])]
        return Function(id="f", entry="b0", blocks=blocks, symbol=symbol)

    twice = BinaryProgram(name="dup", functions=[fn("a", KeyKind.COMPARE), fn("b", KeyKind.CALL)])
    once = BinaryProgram(name="one", functions=[fn("a", KeyKind.COMPARE)])
    with pytest.raises(SchemaError, match="program 'dup': duplicate function id 'f'"):
        index_program(twice)
    with pytest.raises(SchemaError, match="duplicate function id 'f'"):
        match_functions(once, twice)
    with pytest.raises(SchemaError, match="duplicate function id 'f'"):
        diff_programs(twice, once)


# --- early exit and the fraction memo ---------------------------------------


def _symbol_program(name: str, symbols: list[str]) -> BinaryProgram:
    """One single-block function per symbol, each called by the next, so
    the later passes would have keys to hash."""
    functions = []
    for k, sym in enumerate(symbols):
        keyins = [KeyInstruction(KeyKind.CONST_REF, operand=str(k))]
        if k:
            keyins.append(KeyInstruction(KeyKind.CALL, operand=symbols[k - 1]))
        blocks = [BasicBlock(id="b0", keyins=keyins)]
        functions.append(Function(id=sym, entry="b0", blocks=blocks, symbol=sym))
    return BinaryProgram(name=name, stripped=False, functions=functions)


@pytest.mark.parametrize("complete_side", ["left", "right"])
def test_matching_stops_once_either_side_is_fully_paired(complete_side, monkeypatch):
    # Pass 1 pairs every function of the smaller side. Later passes pair
    # only functions unmatched on both sides, so none of them may run.
    later = []
    for name in ("_neighborhood_keys", "_unique_key_matches"):
        original = getattr(simdiff, name)

        def counting(*args, _name=name, _original=original):
            later.append(_name)
            return _original(*args)

        monkeypatch.setattr(simdiff, name, counting)
    small = _symbol_program("S", ["a", "b", "c"])
    large = _symbol_program("L", ["a", "b", "c", "d", "e"])
    left, right = (small, large) if complete_side == "left" else (large, small)
    assert match_functions(left, right) == [("a", "a"), ("b", "b"), ("c", "c")]
    assert later == []
    # Unpaired functions on both sides still reach the later passes.
    left.functions[0].symbol = right.functions[0].symbol = None
    assert match_functions(left, right) == [("a", "a"), ("b", "b"), ("c", "c")]
    assert later


def _half_symbols(program: BinaryProgram) -> BinaryProgram:
    functions = [
        fn if k % 2 == 0 else dataclasses.replace(fn, symbol=None)
        for k, fn in enumerate(program.functions)
    ]
    return BinaryProgram(name=program.name, stripped=False, functions=functions)


def _matched_ids(left: simdiff.ProgramIndex, right: simdiff.ProgramIndex) -> list[tuple[str, str]]:
    """``match_functions`` of two indexes."""
    return [(left.ids[l], right.ids[r]) for l, r in enumerate(simdiff._match(left, right)[0]) if r >= 0]


def test_matching_and_scores_match_golden_digest(case0):
    # Every ordered pair of the 50 hidden-configuration builds of one case,
    # their stripped views and a variant that keeps symbols on every other
    # function: 22,500 matches and score pairs. The digest was recorded
    # before matching stopped early and scores shared fractions.
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    builds = [backend.build(spec, case0.truth_config()) for spec in all_option_specs()]
    programs = builds + [strip_program(b) for b in builds] + [_half_symbols(b) for b in builds]
    indexes = [index_program(p) for p in programs]
    grid = similarity_grid(indexes)
    digest = hashlib.sha256()
    for i, a in enumerate(indexes):
        for j, b in enumerate(indexes):
            digest.update(repr(_matched_ids(a, b)).encode())
            digest.update(repr((grid[i][j], grid[j][i])).encode())
    assert digest.hexdigest() == (
        "efdb5acef4cccf7b0e59a3754b40233e45f546055cffde3107c5c5e172c46d49"
    )


_block_kinds = st.lists(st.lists(st.sampled_from(_KINDS), max_size=3), max_size=6)


def _one_function_index(kinds_per_block: list[list[KeyKind]]) -> simdiff.ProgramIndex:
    blocks = [
        BasicBlock(id=f"b{k}", keyins=[KeyInstruction(kind, operand="x") for kind in kinds])
        for k, kinds in enumerate(kinds_per_block)
    ]
    fn = Function(id="f", entry="b0", blocks=blocks, symbol="f")
    return index_program(BinaryProgram(name="p", stripped=False, functions=[fn]))


@settings(max_examples=60, derandomize=True)
@given(_block_kinds, _block_kinds)
def test_pair_fraction_is_signature_overlap_over_larger_side(left_kinds, right_kinds):
    li, ri = _one_function_index(left_kinds), _one_function_index(right_kinds)
    sig_l, sig_r = li.signatures[0], ri.signatures[0]
    denom = max(len(sig_l), len(sig_r))
    overlap = sum((Counter(sig_l) & Counter(sig_r)).values())
    expected = 1.0 if denom == 0 else overlap / denom
    assert repr(simdiff._pair_fraction(li, 0, ri, 0)) == repr(expected)
    assert repr(simdiff._pair_fraction(li, 0, li, 0)) == repr(1.0)


def test_pair_fraction_of_two_empty_functions_is_one():
    empty = _one_function_index([])
    assert empty.signatures[0] == ()
    assert simdiff._pair_fraction(empty, 0, empty, 0) == 1.0
    # Equal signatures from blocks in another order, with a repeat: n/n.
    left = _one_function_index([[KeyKind.CALL], [KeyKind.CALL], []])
    right = _one_function_index([[KeyKind.CALL], [], [KeyKind.CALL]])
    assert simdiff._pair_fraction(left, 0, right, 0) == 1.0


# --- the first neighborhood round --------------------------------------------


def _parent_match(left: simdiff.ProgramIndex, right: simdiff.ProgramIndex):
    """``_match`` as it was before its first neighborhood round read the
    keys straight from the index: every round maps the callees and callers
    through the pair tokens."""
    nl, nr = len(left.ids), len(right.ids)
    lr, rl, matched = simdiff._symbol_pass(left, right)
    if matched in (nl, nr):
        return lr, rl
    ltok = [l if r >= 0 else -1 for l, r in enumerate(lr)]

    def record(pairs):
        nonlocal matched
        for l, r in pairs:
            lr[l] = r
            rl[r] = ltok[l] = l
        matched += len(pairs)
        return bool(pairs)

    def unmatched(side):
        return [k for k, other in enumerate(side) if other < 0]

    def keyed_pass(keys):
        return record(simdiff._unique_key_matches(keys(left, lr, ltok), keys(right, rl, rl)))

    def neighborhood(index, side, token):
        return simdiff._neighborhood_keys(index, unmatched(side), token)

    def signature(index, side, token):
        return [(k, index.signatures[k]) for k in unmatched(side)]

    def converge():
        while True:
            if matched in (nl, nr):
                return True
            change = keyed_pass(neighborhood)
            if matched in (nl, nr):
                return True
            change = keyed_pass(signature) or change
            if not change:
                return False

    def positional():
        groups = []
        for index, side in ((left, lr), (right, rl)):
            by_sig = {}
            for k in unmatched(side):
                by_sig.setdefault(index.signatures[k], []).append(k)
            groups.append(by_sig)
        pairs = []
        for sig, ls in groups[0].items():
            pairs.extend(zip(ls, groups[1].get(sig, [])))
        return record(pairs)

    if not converge() and positional():
        converge()
    return lr, rl


def _call_graph_program(rng: random.Random, n: int) -> BinaryProgram:
    """Functions of one to four blocks that call each other and, rarely,
    ``puts``: most share their library callees, so the block count and the
    matched neighbors decide the neighborhood keys."""
    ids = [f"fn{k}" for k in range(n)]
    functions = []
    for fid in ids:
        blocks = []
        for b in range(rng.randint(1, 4)):
            kinds = [KeyKind.COMPARE, KeyKind.STRING_REF, KeyKind.CONST_REF]
            keyins = [KeyInstruction(rng.choice(kinds), "x") for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.4:
                keyins.append(KeyInstruction(KeyKind.CALL, rng.choice([*ids, "puts"])))
            blocks.append(BasicBlock(f"b{b}", keyins))
        functions.append(Function(fid, "b0", blocks, fid))
    return BinaryProgram(name="L", functions=functions)


@st.composite
def _pass_one_pairs(draw):
    """A random program and a perturbed copy whose symbol table pass 1
    pairs with none, some or all of the first's functions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    left = _call_graph_program(rng, rng.randint(1, 14))
    right = copy.deepcopy(left)
    right.name = "R"
    # Most signatures change and no block count does, so the neighborhood
    # passes decide most pairs.
    for fn in right.functions:
        if rng.random() < 0.7:
            rng.choice(fn.blocks).keyins.append(KeyInstruction(KeyKind.CONST_REF, "1"))
    if rng.random() < 0.5:
        extra = _call_graph_program(rng, 1).functions[0]
        right.functions.append(dataclasses.replace(extra, id="extra", symbol="extra"))
    paired = draw(st.sampled_from(["none", "some", "all"]))
    if paired == "none":
        stripped = draw(st.sampled_from(["left", "right", "both"]))
        if stripped != "right":
            left = strip_program(left)
        if stripped != "left":
            right = strip_program(right)
    elif paired == "some":
        for fn in right.functions:
            if rng.random() < 0.5:
                fn.symbol = None
    return left, right


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_pass_one_pairs())
def test_match_equals_the_match_that_maps_every_round_through_tokens(pair):
    li, ri = map(index_program, pair)
    for a, b in ((li, ri), (ri, li)):
        assert simdiff._match(a, b) == _parent_match(a, b)
