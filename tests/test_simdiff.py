"""Structural similarity: fingerprints, matching, and diff reports."""

from __future__ import annotations

import copy
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from binprov.binmodel import (
    BasicBlock,
    BinaryProgram,
    Function,
    KeyInstruction,
    KeyKind,
    strip_program,
)
from binprov.simdiff import (
    KIND_PRIMES,
    compare_programs,
    diff_programs,
    function_signature,
    match_functions,
    spp_fingerprint,
)

_KINDS = list(KeyKind)
_LIB_NAMES = ["puts", "memcpy", "open", "lib_log", "lib_err"]


def random_program(rng: random.Random, name: str = "p", max_fns: int = 6) -> BinaryProgram:
    n_fns = rng.randint(1, max_fns)
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
    assert spp_fingerprint(a) == spp_fingerprint(b) == (KIND_PRIMES[KeyKind.CALL],)


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
    assert sig == ((), (2,))


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
