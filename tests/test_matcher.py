"""Feature matching and presence-constraint derivation."""

from __future__ import annotations

import copy

from binprov.binmodel import BasicBlock, BinaryProgram, Function, KeyInstruction, KeyKind
from binprov.buildoracle import ConfigAssignment, build_unoptimized
from binprov.conditions import to_text
from binprov.matcher import (
    ConstraintReport,
    MatchVerdict,
    PayloadIndex,
    Presence,
    coarse_match,
    decide_fragment,
    derive_constraints,
    fine_match_shape,
)
from binprov.simdiff import diff_programs
from binprov.varsource import BranchShape, CallSig, IntConst, StringLit, scan_tree, SourceTree


def _block(bid, keyins, succs=()):
    return BasicBlock(id=bid, keyins=keyins, succs=list(succs))


def _ki(kind, operand=None):
    return KeyInstruction(kind, operand=operand)


HAY = [
    _block(
        "b0",
        [
            _ki(KeyKind.STRING_REF, "unique-string"),
            _ki(KeyKind.CALL, "seen_call"),
            _ki(KeyKind.CONST_REF, "42"),
        ],
    ),
    _block("b1", [_ki(KeyKind.CONST_REF, "42")]),
]


def test_coarse_match_counts_occurrences():
    index = PayloadIndex(HAY)
    assert coarse_match(StringLit("unique-string"), index) is MatchVerdict.FOUND
    assert coarse_match(StringLit("ghost"), index) is MatchVerdict.NOT_FOUND
    assert coarse_match(IntConst(42), index) is MatchVerdict.NOT_UNIQUE
    # call matching goes by symbol
    assert coarse_match(CallSig("seen_call"), index) is MatchVerdict.FOUND


def test_payload_index_scopes():
    fn = Function(id="f", entry="b0", blocks=[HAY[0]])
    per_fn = PayloadIndex(fn.blocks)
    assert coarse_match(IntConst(42), per_fn) is MatchVerdict.FOUND
    prog = BinaryProgram(
        name="p", stripped=True, functions=[fn, Function(id="g", entry="b1", blocks=[HAY[1]])]
    )
    assert coarse_match(IntConst(42), PayloadIndex.for_program(prog)) is MatchVerdict.NOT_UNIQUE


def _fragment_with(features):
    scan = scan_tree(SourceTree.from_mapping({"u.c": "#ifdef F\nx;\n#endif\n"}))["u.c"]
    frag = scan.conditional_fragments()[0]
    return Fragment_clone(frag, features)


def Fragment_clone(frag, features):
    clone = copy.copy(frag)
    clone.features = tuple(features)
    return clone


def test_decide_found_string_settles_present_without_reading_on():
    frag = _fragment_with(
        [StringLit("unique-string"), CallSig("never_checked"), IntConst(7)]
    )
    decision = decide_fragment(frag, PayloadIndex(HAY), "binary")
    assert decision.presence is Presence.PRESENT
    assert decision.confidence == 1.0
    # only the string group ran
    assert [c.feature for c in decision.checks] == [StringLit("unique-string")]
    assert decision.scope == "binary"


def test_decide_missing_strings_are_definitive_absent():
    # the call would match, but the absent string already proves the
    # fragment was compiled out; the call hit belongs to someone else
    frag = _fragment_with([StringLit("ghost"), CallSig("seen_call")])
    decision = decide_fragment(frag, PayloadIndex(HAY), "binary")
    assert decision.presence is Presence.ABSENT
    assert decision.confidence == 1.0


def test_decide_call_and_const_groups_fire_in_order():
    frag = _fragment_with([CallSig("seen_call")])
    assert decide_fragment(frag, PayloadIndex(HAY), "f").presence is Presence.PRESENT
    # a missing call falls through to constants rather than settling
    frag = _fragment_with([CallSig("inlined_away"), IntConst(42)])
    decision = decide_fragment(frag, PayloadIndex([HAY[1]]), "f")
    assert decision.presence is Presence.PRESENT
    assert decision.confidence == 0.5  # one miss, one found


def test_decide_all_missing_settles_absent_and_ambiguity_unknown():
    frag = _fragment_with([CallSig("inlined_away"), IntConst(9000)])
    assert decide_fragment(frag, PayloadIndex(HAY), "f").presence is Presence.ABSENT
    # a NOT_UNIQUE-only record supports no conclusion
    frag = _fragment_with([IntConst(42)])
    decision = decide_fragment(frag, PayloadIndex(HAY), "f")
    assert decision.presence is Presence.UNKNOWN
    assert decision.confidence == 0.0


def test_decide_featureless_fragment_is_unknown():
    frag = _fragment_with([])
    assert decide_fragment(frag, PayloadIndex(HAY), "f").presence is Presence.UNKNOWN


BRANCHY = [
    _block(
        "c0",
        [_ki(KeyKind.CONST_REF, "13"), _ki(KeyKind.COMPARE)],
        succs=("t", "e"),
    ),
    _block("t", [_ki(KeyKind.CALL, "then_side")], succs=("j",)),
    _block("e", [], succs=("j",)),
    _block("j", []),
]


def test_fine_match_shape_requires_compare_payloads_and_else_edge():
    index = PayloadIndex(BRANCHY)
    shape = BranchShape(condition_features=(IntConst(13),), has_else=True)
    assert fine_match_shape(shape, index) is MatchVerdict.FOUND
    assert (
        fine_match_shape(BranchShape(condition_features=(IntConst(99),)), index)
        is MatchVerdict.NOT_FOUND
    )
    # two compare blocks with the same payload: ambiguous
    doubled = BRANCHY + [copy.deepcopy(BRANCHY[0])]
    doubled[-1].id = "c1"
    assert (
        fine_match_shape(shape, PayloadIndex(doubled)) is MatchVerdict.NOT_UNIQUE
    )
    # an else-bearing source branch needs a two-way block
    one_way = [_block("c0", [_ki(KeyKind.CONST_REF, "13"), _ki(KeyKind.COMPARE)], succs=("t",))]
    assert fine_match_shape(shape, PayloadIndex(one_way)) is MatchVerdict.NOT_FOUND


def test_decide_falls_back_to_shape_matching():
    shape = BranchShape(condition_features=(IntConst(13),), has_else=True)
    frag = _fragment_with([shape])
    decision = decide_fragment(frag, PayloadIndex(BRANCHY), "f")
    assert decision.presence is Presence.PRESENT
    assert decision.checks[-1].feature is shape


# --- constraint derivation ---------------------------------------------------

PARSER_SRC = """\
int lookup_sequence(int cur) {
    prep(cur);
#ifdef LIBXML_HTML_ENABLED
    mode_set("html-relaxed");
#else
    mode_set("strict-only");
#endif
    done(cur);
}
"""


def _built(tree, macros=frozenset()):
    return build_unoptimized(tree, ConfigAssignment(macros=frozenset(macros)))


def test_derive_constraints_from_absent_arm():
    tree = SourceTree.from_mapping({"parser.c": PARSER_SRC})
    scans = scan_tree(tree)
    seed = _built(tree)
    crash = _built(tree)  # HTML disabled in the hidden configuration
    report = derive_constraints(scans, crash, diff_programs(seed, crash))
    texts = sorted(to_text(c) for c in report.constraints)
    # the #else arm asserts !defined(...), the missing if-arm agrees, and
    # the duplicate collapses
    assert texts == ["!defined(LIBXML_HTML_ENABLED)"]
    assert not report.conflicts and not report.dropped
    assert not report.all_unknown()


def test_derive_constraints_from_present_arm():
    tree = SourceTree.from_mapping({"parser.c": PARSER_SRC})
    scans = scan_tree(tree)
    seed = _built(tree)
    crash = _built(tree, {"LIBXML_HTML_ENABLED"})
    report = derive_constraints(scans, crash, diff_programs(seed, crash))
    assert sorted(to_text(c) for c in report.constraints) == [
        "defined(LIBXML_HTML_ENABLED)"
    ]


ESCAPED_QUOTE_SRC = """\
int f(void) {
  g(1);
#ifdef M
  lib("x\\"y");
#endif
}
"""


def test_fragment_with_an_escaped_quote_built_in_is_present():
    tree = SourceTree.from_mapping({"m.c": ESCAPED_QUOTE_SRC})
    scans = scan_tree(tree)
    crash = _built(tree, {"M"})
    report = derive_constraints(scans, crash, diff_programs(_built(tree), crash))
    assert [d.presence for d in report.decisions] == [Presence.PRESENT]
    assert [to_text(c) for c in report.constraints] == ["defined(M)"]


def test_build_compiles_no_comment():
    tree = SourceTree.from_mapping({"m.c": 'int f(void) {\n  g(1); // h("note")\n}\n'})
    (fn,) = _built(tree).functions
    assert [(ki.kind, ki.operand) for blk in fn.blocks for ki in blk.keyins] == [
        (KeyKind.CONST_REF, "1"),
        (KeyKind.CALL, "g"),
    ]


CONFLICT_SRC_A = "#ifdef A\nint fa(void) {\n    mark_one(\"both-sides\");\n}\n#endif\n"
CONFLICT_SRC_B = "#ifndef A\nint fb(void) {\n    mark_two(\"both-sides-too\");\n}\n#endif\n"


def test_conflicting_evidence_is_dropped_in_pairs():
    tree = SourceTree.from_mapping({"a.c": CONFLICT_SRC_A, "b.c": CONFLICT_SRC_B})
    scans = scan_tree(tree)
    seed = _built(tree)
    # a crash binary that carries BOTH guarded payloads is inconsistent
    # with any single configuration
    crash = BinaryProgram(
        name="crash",
        stripped=True,
        functions=[
            Function(
                id="f000",
                entry="b0",
                blocks=[
                    _block(
                        "b0",
                        [
                            _ki(KeyKind.STRING_REF, "both-sides"),
                            _ki(KeyKind.CALL, "mark_one"),
                            _ki(KeyKind.STRING_REF, "both-sides-too"),
                            _ki(KeyKind.CALL, "mark_two"),
                        ],
                    )
                ],
            )
        ],
    )
    report = derive_constraints(scans, crash, diff_programs(seed, crash))
    assert report.constraints == []
    assert report.conflicts == [("defined(A)", "!defined(A)")] or report.conflicts == [
        ("!defined(A)", "defined(A)")
    ]
    assert sorted(to_text(c) for c in report.dropped) == [
        "!defined(A)",
        "defined(A)",
    ]


def _guarded(*arms):
    """A unit of one function per (directive, macro, string) arm."""
    return "".join(
        f"#{d} {m}\nint f_{text.replace('-', '_')}(void) {{\n    mark(\"{text}\");\n}}\n#endif\n"
        for d, m, text in arms
    )


def test_conflict_order_with_repeated_evidence_on_each_side():
    # defined(A) and !defined(A) each arrive twice, !defined(C) before
    # defined(C), and defined(B) twice; only "d-on" is missing from the crash.
    tree = SourceTree.from_mapping({
        "a.c": _guarded(("ifndef", "C", "c-off"), ("ifdef", "A", "a-on-1"), ("ifdef", "B", "b-on-1")),
        "b.c": _guarded(("ifdef", "A", "a-on-2"), ("ifndef", "A", "a-off-1"), ("ifdef", "C", "c-on")),
        "c.c": _guarded(("ifndef", "A", "a-off-2"), ("ifdef", "B", "b-on-2"), ("ifdef", "D", "d-on")),
    })
    strings = ["c-off", "a-on-1", "b-on-1", "a-on-2", "a-off-1", "c-on", "a-off-2", "b-on-2"]
    crash = BinaryProgram(
        name="crash",
        stripped=True,
        functions=[Function(id="f000", entry="b0", blocks=[
            _block("b0", [_ki(KeyKind.STRING_REF, t) for t in strings]),
        ])],
    )
    report = derive_constraints(scan_tree(tree), crash, diff_programs(_built(tree), crash))
    assert report.conflicts == [("!defined(C)", "defined(C)"), ("defined(A)", "!defined(A)")]
    assert [to_text(c) for c in report.dropped] == [
        "!defined(C)", "defined(A)", "defined(A)", "!defined(A)", "defined(C)", "!defined(A)",
    ]
    assert [to_text(c) for c in report.constraints] == ["defined(B)", "!defined(D)"]


TWIN_SRC = """\
int twin_one(int x) {
    shared_helper(x);
#ifdef DEEP
    lib_note("deep-path");
#endif
}
int twin_two(int x) {
    shared_helper(x);
}
"""


def test_function_scope_miss_rechecks_whole_binary():
    tree = SourceTree.from_mapping({"t.c": TWIN_SRC})
    scans = scan_tree(tree)
    seed = _built(tree)
    # plant the guarded payload in the structurally identical sibling, the
    # way a content-blind pairing can misroute it
    crash = copy.deepcopy(_built(tree))
    crash_fn = next(f for f in crash.functions if f.id == "twin_two")
    crash_fn.blocks[-1].keyins.append(_ki(KeyKind.STRING_REF, "deep-path"))
    crash_fn.blocks[-1].keyins.append(_ki(KeyKind.CALL, "lib_note"))
    report = derive_constraints(scans, crash, diff_programs(seed, crash))
    assert [to_text(c) for c in report.constraints] == ["defined(DEEP)"]
    (decision,) = [d for d in report.decisions if d.presence is Presence.PRESENT]
    assert decision.scope == "binary"


def test_all_unknown_flags_empty_evidence():
    report = ConstraintReport()
    assert not report.all_unknown()  # no decisions at all is not "all unknown"
