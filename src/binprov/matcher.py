"""Feature matching: decide which source fragments are present in the crash
binary and derive presence-condition constraints from the decisions.

Coarse matching counts payload occurrences (string contents, call symbols,
constant values) inside a range of the crash binary, either one matched
function or the whole binary. Fine matching handles branch shapes: it counts
comparison blocks whose payloads cover the branch-condition features, with
a second successor when the source branch has an else arm. Both read their
count by one rule: exactly one is a Found, zero is a NotFound, more than one
is a NotUnique and supports no conclusion by itself.

Fragment decisions run the feature groups in priority order, strings before
calls before constants, because string payloads survive every optimization
level while constants may be folded away. Shapes are consulted only when no
coarse group fired.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .binmodel import BasicBlock, BinaryProgram, Function, KeyKind
from .conditions import Condition, neg, to_text
from .simdiff import DiffReport, FunctionPairDiff
from .varsource import (
    BranchShape,
    CallSig,
    Feature,
    Fragment,
    IntConst,
    StringLit,
    UnitVariability,
)

l = logging.getLogger(__name__)

__all__ = [
    "MatchVerdict",
    "Presence",
    "FeatureCheck",
    "FragmentDecision",
    "PayloadIndex",
    "coarse_match",
    "fine_match_shape",
    "decide_fragment",
    "derive_constraints",
    "ConstraintReport",
]


class MatchVerdict(Enum):
    FOUND = "found"
    NOT_FOUND = "not-found"
    NOT_UNIQUE = "not-unique"


class Presence(Enum):
    PRESENT = "present"
    ABSENT = "absent"
    UNKNOWN = "unknown"


@dataclass
class FeatureCheck:
    feature: Feature
    verdict: MatchVerdict


@dataclass
class FragmentDecision:
    fragment_id: str
    unit: str
    presence: Presence
    confidence: float
    scope: str
    checks: list[FeatureCheck] = field(default_factory=list)


class PayloadIndex:
    """Occurrence counts of key-instruction payloads over a block range."""

    def __init__(self, blocks: list[BasicBlock]):
        self.blocks = blocks
        self.counts: Counter = Counter()
        for blk in blocks:
            for ki in blk.keyins:
                if ki.operand is not None:
                    self.counts[(ki.kind, ki.operand)] += 1

    @classmethod
    def for_program(cls, program: BinaryProgram) -> PayloadIndex:
        return cls([blk for fn in program.functions for blk in fn.blocks])

    def occurrences(self, feature: Feature) -> int:
        key = _payload_key(feature)
        if key is None:
            raise TypeError(f"not a payload feature: {feature!r}")
        return self.counts[key]


def _payload_key(feature: Feature) -> tuple[KeyKind, str] | None:
    """The (kind, operand) key instruction a feature shows up as, or None
    for a feature with no payload of its own."""
    if isinstance(feature, StringLit):
        return (KeyKind.STRING_REF, feature.value)
    if isinstance(feature, IntConst):
        return (KeyKind.CONST_REF, str(feature.value))
    if isinstance(feature, CallSig):
        return (KeyKind.CALL, feature.name)
    return None


def _verdict(n: int) -> MatchVerdict:
    """The verdict for ``n`` matches, by the rule in the module docstring."""
    if n == 0:
        return MatchVerdict.NOT_FOUND
    return MatchVerdict.FOUND if n == 1 else MatchVerdict.NOT_UNIQUE


def coarse_match(feature: Feature, index: PayloadIndex) -> MatchVerdict:
    return _verdict(index.occurrences(feature))


def _block_payloads(blk: BasicBlock) -> Counter:
    return Counter(
        (ki.kind, ki.operand) for ki in blk.keyins if ki.operand is not None
    )


def _shape_block_matches(shape: BranchShape, blk: BasicBlock) -> bool:
    if not any(ki.kind is KeyKind.COMPARE for ki in blk.keyins):
        return False
    have = _block_payloads(blk)
    keys = (_payload_key(feat) for feat in shape.condition_features)
    need = Counter(key for key in keys if key is not None)
    for key, cnt in need.items():
        if have[key] < cnt:
            return False
    return not shape.has_else or len(blk.succs) >= 2


def fine_match_shape(shape: BranchShape, index: PayloadIndex) -> MatchVerdict:
    return _verdict(sum(1 for blk in index.blocks if _shape_block_matches(shape, blk)))


def decide_fragment(fragment: Fragment, index: PayloadIndex, scope: str) -> FragmentDecision:
    """Decide fragment presence against one range of the crash binary."""
    strings = [f for f in fragment.features if isinstance(f, StringLit)]
    calls = [f for f in fragment.features if isinstance(f, CallSig)]
    consts = [f for f in fragment.features if isinstance(f, IntConst)]
    shapes = [f for f in fragment.features if isinstance(f, BranchShape)]

    checks: list[FeatureCheck] = []

    def settle(presence: Presence) -> FragmentDecision:
        found = sum(1 for c in checks if c.verdict is MatchVerdict.FOUND)
        not_unique = sum(1 for c in checks if c.verdict is MatchVerdict.NOT_UNIQUE)
        if presence is Presence.PRESENT:
            confidence = (found + not_unique) / len(checks)
        elif presence is Presence.ABSENT:
            confidence = 1.0
        else:
            confidence = 0.0
        return FragmentDecision(
            fragment_id=fragment.id,
            unit=fragment.unit,
            presence=presence,
            confidence=confidence,
            scope=scope,
            checks=checks,
        )

    for group in (strings, calls, consts):
        fired = False
        misses = 0
        for feat in group:
            verdict = coarse_match(feat, index)
            checks.append(FeatureCheck(feature=feat, verdict=verdict))
            if verdict is MatchVerdict.FOUND:
                fired = True
            elif verdict is MatchVerdict.NOT_FOUND:
                misses += 1
        if fired:
            return settle(Presence.PRESENT)
        # String payloads survive every transform, so a fragment whose
        # strings are all missing was not compiled in; don't let an
        # ambiguous call or constant from a sibling fragment override that.
        # Calls can vanish to inlining and constants to folding, so their
        # misses are not definitive on their own.
        if group is strings and group and misses == len(group):
            return settle(Presence.ABSENT)

    for shape in shapes:
        verdict = fine_match_shape(shape, index)
        checks.append(FeatureCheck(feature=shape, verdict=verdict))
    if any(c.verdict is MatchVerdict.FOUND for c in checks):
        return settle(Presence.PRESENT)

    if not checks:
        return settle(Presence.UNKNOWN)
    if all(c.verdict is MatchVerdict.NOT_FOUND for c in checks):
        return settle(Presence.ABSENT)
    return settle(Presence.UNKNOWN)


@dataclass
class ConstraintReport:
    constraints: list[Condition] = field(default_factory=list)
    decisions: list[FragmentDecision] = field(default_factory=list)
    conflicts: list[tuple[str, str]] = field(default_factory=list)
    dropped: list[Condition] = field(default_factory=list)
    # The payload index of the whole crash binary the decisions read.
    whole_index: PayloadIndex | None = field(default=None, repr=False, compare=False)

    def all_unknown(self) -> bool:
        return bool(self.decisions) and all(
            d.presence is Presence.UNKNOWN for d in self.decisions
        )


def _fragment_scope(
    fragment: Fragment,
    scan: UnitVariability,
    pairs: dict[str, FunctionPairDiff],
    crash_fns: dict[str, Function],
) -> tuple[str, list[BasicBlock] | None]:
    """The crash-side range a fragment should be matched against: the matched
    counterpart of its enclosing function if there is one, else the whole
    binary."""
    if not fragment.lines:
        return "binary", None
    lo, hi = min(fragment.lines), max(fragment.lines)
    for span in scan.functions.values():
        if span.start <= lo and hi <= span.end:
            pair = pairs.get(span.name)
            if pair is not None and pair.right in crash_fns:
                return f"function:{pair.right}", crash_fns[pair.right].blocks
            return "binary", None
    return "binary", None


def derive_constraints(
    scans: dict[str, UnitVariability],
    crash: BinaryProgram,
    diff: DiffReport,
) -> ConstraintReport:
    """Sweep every conditional fragment, decide its presence in the crash
    binary, and emit its condition (Present) or negated condition (Absent).

    Decisions that contradict each other by asserting both a condition and
    its negation are discarded in pairs and logged; what remains goes to the
    solver. The crash's payloads are indexed once for the whole binary
    (``whole_index``) and once per matched function.
    """
    crash_fns = crash.function_map()
    pairs = {p.left: p for p in diff.pairs}
    whole = PayloadIndex.for_program(crash)
    report = ConstraintReport(whole_index=whole)
    scoped: dict[str, PayloadIndex] = {}  # scope -> index of its blocks

    derived: list[Condition] = []
    for unit_name in sorted(scans):
        scan = scans[unit_name]
        for fragment in scan.conditional_fragments():
            scope, blocks = _fragment_scope(fragment, scan, pairs, crash_fns)
            if blocks is None:
                index = whole
            elif (index := scoped.get(scope)) is None:
                index = scoped[scope] = PayloadIndex(blocks)
            decision = decide_fragment(fragment, index, scope)
            if blocks is not None and decision.presence is not Presence.PRESENT:
                # Function pairing is content-blind, so configured payloads
                # can sit in a different but structurally identical function.
                # A miss inside the matched function is only conclusive when
                # the whole binary misses too; a unique hit elsewhere wins.
                decision = decide_fragment(fragment, whole, "binary")
            report.decisions.append(decision)
            if decision.presence is Presence.PRESENT:
                derived.append(fragment.condition)
            elif decision.presence is Presence.ABSENT:
                derived.append(neg(fragment.condition))

    texts = [to_text(cond) for cond in derived]
    present = set(texts)
    kept: set[str] = set()
    for cond, text in zip(derived, texts):
        neg_text = to_text(neg(cond))
        if neg_text in present:
            report.dropped.append(cond)
            if (text, neg_text) not in report.conflicts and (neg_text, text) not in report.conflicts:
                report.conflicts.append((text, neg_text))
                l.warning("conflicting presence evidence, dropping both: %s vs %s", text, neg_text)
        elif text not in kept:
            kept.add(text)
            report.constraints.append(cond)
    return report
