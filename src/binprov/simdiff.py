"""Structural similarity and diffing between binary program models.

Matching runs in four passes, each pairing only functions that are still
unmatched, and only when the pairing key is unique on both sides:

1. identical symbol names,
2. neighborhood hash (sorted library callees, sorted tokens of already
   matched callees and callers, and the block count, where a pair's token
   is its left id; iterated to a fixpoint so matches cascade along the call
   graph),
3. whole-function fingerprint signature,
4. positional pairing inside equal-signature classes, in sorted-id order.

Pass 4 is what makes a program compare equal to itself even when it contains
byte-identical duplicate functions, which passes 1-3 can never tell apart in
a stripped binary. Matching stops as soon as either side has no unmatched
function left, since no later pass could pair one: two unstripped builds of
one source pair up by symbol and run pass 1 only.

A block's fingerprint is the product of one small prime per key
instruction, the prime fixed by the instruction's kind. By unique
factorization two fingerprints are equal exactly when the blocks hold the
same multiset of kinds, so an int stands for the whole multiset.

Similarity of a matched function pair is the fingerprint-multiset overlap of
their blocks over the larger block count; program similarity is the sum of
pair similarities over the larger function count. Both are symmetric, land
in [0, 1], and hit exactly 1.0 on self-comparison. Every pass of the matcher
is symmetric under swapping the sides, so ``similarities`` scores both
directions of a pair from one match. A pair's fraction depends only on the
two function signatures, and is exactly 1.0 when they are equal; a caller
that scores many programs built from one source, as ``similarity_matrix``
does, keeps one memo of fractions per distinct signature pair for the
length of its call.

Every per-program fact the matcher and the scores read (symbols, call
edges and fingerprint signatures, which also give the block counts) comes
from a ``ProgramIndex``, built once per program by ``index_program``. A
caller that scores one program against many holds its index and calls
``similarity``. Neither scoring nor ``diff_programs`` aligns blocks: the
configuration stage reads only which functions pair up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binmodel import (
    BasicBlock,
    BinaryProgram,
    Function,
    KeyKind,
    _collector_paused,
    call_target,
)

__all__ = [
    "KIND_PRIMES",
    "spp_fingerprint",
    "function_signature",
    "ProgramIndex",
    "index_program",
    "match_functions",
    "similarity",
    "similarities",
    "pair_blocks",
    "compare_programs",
    "diff_programs",
    "BlockPair",
    "FunctionPairDiff",
    "DiffReport",
]

# Small-prime-product encoding of block content: each key-instruction kind
# maps to a fixed prime, a block's fingerprint is the product of its
# primes (1 for a block with none). By unique factorization two blocks have
# the same fingerprint exactly when they hold the same multiset of
# key-instruction kinds.
KIND_PRIMES: dict[KeyKind, int] = {
    KeyKind.COMPARE: 2,
    KeyKind.CALL: 3,
    KeyKind.STRING_REF: 5,
    KeyKind.CONST_REF: 7,
}

Fingerprint = int


def spp_fingerprint(block: BasicBlock) -> Fingerprint:
    fp = 1
    for ki in block.keyins:
        fp *= KIND_PRIMES[ki.kind]
    return fp


def function_signature(fn: Function) -> tuple[Fingerprint, ...]:
    """Multiset of block fingerprints, as a sorted tuple."""
    return tuple(sorted(spp_fingerprint(b) for b in fn.blocks))


@dataclass(frozen=True)
class ProgramIndex:
    """Per-program facts that matching, scoring and diffing read.

    Built once from a program by ``index_program`` and never updated, so a
    caller that scores one program against many others indexes it once.
    ``unique_symbols`` maps each symbol carried by exactly one function to
    that function's id; every other map is keyed by function id, and edge
    tuples keep repeats. ``libcalls`` is sorted, as the neighborhood hash
    reads it. A signature holds one fingerprint per block, so its length
    is the function's block count.
    """

    ids: tuple[str, ...]
    unique_symbols: dict[str, str]
    callees: dict[str, tuple[str, ...]]
    libcalls: dict[str, tuple[str, ...]]
    callers: dict[str, tuple[str, ...]]
    signatures: dict[str, tuple[Fingerprint, ...]]


def index_program(program: BinaryProgram) -> ProgramIndex:
    """Compute a program's ``ProgramIndex`` in one pass over its blocks."""
    ids = tuple(f.id for f in program.functions)
    callees: dict[str, list[str]] = {fid: [] for fid in ids}
    libcalls: dict[str, list[str]] = {fid: [] for fid in ids}
    callers: dict[str, list[str]] = {fid: [] for fid in ids}
    symbol_ids: dict[str, list[str]] = {}
    signatures: dict[str, tuple[Fingerprint, ...]] = {}
    for fn in program.functions:
        if fn.symbol:
            symbol_ids.setdefault(fn.symbol, []).append(fn.id)
        signatures[fn.id] = function_signature(fn)
        for blk in fn.blocks:
            for ki in blk.keyins:
                if ki.kind is not KeyKind.CALL or not ki.operand:
                    continue
                target = call_target(ki.operand)
                if target in callees:
                    callees[fn.id].append(target)
                    callers[target].append(fn.id)
                else:
                    libcalls[fn.id].append(target)
    return ProgramIndex(
        ids=ids,
        unique_symbols={sym: fids[0] for sym, fids in symbol_ids.items() if len(fids) == 1},
        callees={fid: tuple(v) for fid, v in callees.items()},
        libcalls={fid: tuple(sorted(v)) for fid, v in libcalls.items()},
        callers={fid: tuple(v) for fid, v in callers.items()},
        signatures=signatures,
    )


def _indexed(program: BinaryProgram | ProgramIndex) -> ProgramIndex:
    """``program``'s index: the argument itself when it is one already."""
    return program if isinstance(program, ProgramIndex) else index_program(program)


class _IndexMemo:
    """``index_program`` over the programs one caller scores, computing
    each program's index once. Entries are keyed by identity, since a
    toolchain hands back the same object for a cached build, and hold their
    program, so no id is reused while the memo lives."""

    def __init__(self) -> None:
        self._held: dict[int, tuple[BinaryProgram, ProgramIndex]] = {}

    def __call__(self, program: BinaryProgram) -> ProgramIndex:
        held = self._held.get(id(program))
        if held is None:
            held = self._held[id(program)] = (program, index_program(program))
        return held[1]


def _unique_key_matches(
    left_keys: dict[str, object], right_keys: dict[str, object]
) -> list[tuple[str, str]]:
    """Pair left/right ids whose key value occurs exactly once on each side."""
    left_by_key: dict[object, list[str]] = {}
    right_by_key: dict[object, list[str]] = {}
    for fid, key in left_keys.items():
        left_by_key.setdefault(key, []).append(fid)
    for fid, key in right_keys.items():
        right_by_key.setdefault(key, []).append(fid)
    out = []
    for key, lids in left_by_key.items():
        rids = right_by_key.get(key)
        if rids is not None and len(lids) == 1 and len(rids) == 1:
            out.append((lids[0], rids[0]))
    return sorted(out)


def _neighborhood_hash(index: ProgramIndex, fid: str, pair_token) -> object:
    """Library callees, matched callees, matched callers and the block count.
    Library names and pair tokens sit in separate tuples, so a library
    symbol spelled like a pair token cannot pose as a matched callee."""
    ctoks = []
    for callee in index.callees[fid]:
        tok = pair_token(callee)
        if tok is not None:
            ctoks.append(tok)
    rtoks = []
    for caller in index.callers[fid]:
        tok = pair_token(caller)
        if tok is not None:
            rtoks.append(tok)
    return (
        index.libcalls[fid], tuple(sorted(ctoks)), tuple(sorted(rtoks)), len(index.signatures[fid])
    )


def _match_indexes(left: ProgramIndex, right: ProgramIndex) -> list[tuple[str, str]]:
    """The four-pass matcher over two program indexes; returns
    (left_id, right_id) pairs sorted by left id."""
    matched_lr: dict[str, str] = {}
    matched_rl: dict[str, str] = {}

    def record(pairs) -> bool:
        added = False
        for lid, rid in pairs:
            if lid in matched_lr or rid in matched_rl:
                continue
            matched_lr[lid] = rid
            matched_rl[rid] = lid
            added = True
        return added

    # Pass 1: symbols, where both sides carry them. A unique symbol names
    # one id on each side, so no two of these pairs share an id and the
    # order they are recorded in does not matter.
    right_symbols = right.unique_symbols
    for sym, lid in left.unique_symbols.items():
        rid = right_symbols.get(sym)
        if rid is not None:
            matched_lr[lid] = rid
            matched_rl[rid] = lid

    def left_token(fid: str):
        # Matched pairs are identified by the left-side id: stable and equal
        # for both members of the pair.
        return fid if fid in matched_lr else None

    def right_token(fid: str):
        return matched_rl.get(fid)

    def neighborhood_pass() -> bool:
        lkeys = {
            fid: _neighborhood_hash(left, fid, left_token)
            for fid in left.ids
            if fid not in matched_lr
        }
        rkeys = {
            fid: _neighborhood_hash(right, fid, right_token)
            for fid in right.ids
            if fid not in matched_rl
        }
        return record(_unique_key_matches(lkeys, rkeys))

    def signature_pass() -> bool:
        lkeys = {fid: left.signatures[fid] for fid in left.ids if fid not in matched_lr}
        rkeys = {fid: right.signatures[fid] for fid in right.ids if fid not in matched_rl}
        return record(_unique_key_matches(lkeys, rkeys))

    def positional_pass() -> bool:
        lgroups: dict[tuple, list[str]] = {}
        rgroups: dict[tuple, list[str]] = {}
        for fid in left.ids:
            if fid not in matched_lr:
                lgroups.setdefault(left.signatures[fid], []).append(fid)
        for fid in right.ids:
            if fid not in matched_rl:
                rgroups.setdefault(right.signatures[fid], []).append(fid)
        pairs = []
        for sig, lids in lgroups.items():
            rids = rgroups.get(sig)
            if not rids:
                continue
            for lid, rid in zip(sorted(lids), sorted(rids)):
                pairs.append((lid, rid))
        return record(pairs)

    def one_side_done() -> bool:
        # Every later pass pairs only ids unmatched on both sides, so once
        # either side has none left no pass can add a pair.
        return len(matched_lr) == len(left.ids) or len(matched_rl) == len(right.ids)

    def converge() -> bool:
        """Passes 2 and 3 to a fixpoint; True when they stop because one
        side is fully matched."""
        while True:
            if one_side_done():
                return True
            any_change = neighborhood_pass()
            if one_side_done():
                return True
            if signature_pass():
                any_change = True
            if not any_change:
                return False

    if not converge() and positional_pass():
        converge()
    return sorted(matched_lr.items())


def match_functions(left: BinaryProgram, right: BinaryProgram) -> list[tuple[str, str]]:
    """Match functions between two programs; returns (left_id, right_id) pairs
    sorted by left id."""
    return _match_indexes(index_program(left), index_program(right))


def _pair_fraction(left: ProgramIndex, lid: str, right: ProgramIndex, rid: str) -> float:
    """Fingerprint-multiset overlap of a matched pair over its larger block
    count. It reads only the two signatures, and is exactly 1.0 when they
    are equal: n/n, or an empty pair. Both are sorted, so one merge walk
    counts the overlap."""
    a = left.signatures[lid]
    b = right.signatures[rid]
    if a == b:
        return 1.0
    na, nb = len(a), len(b)
    i = j = overlap = 0
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            overlap += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return overlap / (na if na > nb else nb)


def similarity(left: ProgramIndex, right: ProgramIndex) -> float:
    """Program similarity from two indexes: matched-pair fractions summed in
    left-id order over the larger function count. No blocks are aligned."""
    total = 0.0
    for lid, rid in _match_indexes(left, right):
        total += _pair_fraction(left, lid, right, rid)
    denom = max(len(left.ids), len(right.ids))
    return 1.0 if denom == 0 else total / denom


def similarities(left: ProgramIndex, right: ProgramIndex) -> tuple[float, float]:
    """``(similarity(left, right), similarity(right, left))`` from one match.

    Each pass of the matcher pairs the same functions when the sides are
    swapped, and a pair's fraction is symmetric, so only the order of
    summation differs: left-id order for the first value, right-id order for
    the second. The explicit loops keep the float bits of ``similarity``.
    """
    return _similarities(left, right, {}, left.signatures, right.signatures)


def _similarities(
    left: ProgramIndex,
    right: ProgramIndex,
    fractions: dict,
    left_classes: dict[str, object],
    right_classes: dict[str, object],
) -> tuple[float, float]:
    """``similarities``, reading and filling ``fractions``, which maps a
    (left class, right class) pair to that function pair's fraction. A class
    map gives each function id of its side a key that is equal exactly when
    the signatures are. A caller that scores many pairs of programs passes
    one dict and one key space to them all, so each distinct signature pair
    is scored once."""
    scored = []
    for lid, rid in _match_indexes(left, right):
        key = (left_classes[lid], right_classes[rid])
        f = fractions.get(key)
        if f is None:
            f = fractions[key] = _pair_fraction(left, lid, right, rid)
        scored.append((rid, f))
    forward = 0.0
    for _rid, f in scored:
        forward += f
    backward = 0.0
    # Matched right ids are distinct, so the tuples sort by right id alone.
    for _rid, f in sorted(scored):
        backward += f
    denom = max(len(left.ids), len(right.ids))
    if denom == 0:
        return 1.0, 1.0
    return forward / denom, backward / denom


@dataclass
class BlockPair:
    left: str
    right: str
    same_fingerprint: bool


@dataclass
class FunctionPairDiff:
    left: str
    right: str
    fraction: float


@dataclass
class DiffReport:
    score: float
    beta: float
    pairs: list[FunctionPairDiff] = field(default_factory=list)
    left_only: list[str] = field(default_factory=list)
    right_only: list[str] = field(default_factory=list)


# ``pair_blocks`` and ``BlockPair`` have no caller; they stay only because
# perfbench's tracer rebinds ``simdiff.pair_blocks`` by name.
def pair_blocks(a: Function, b: Function) -> list[BlockPair]:
    """Align blocks of a matched function pair.

    Entries pair first; pairs propagate along positionally aligned successor
    edges when fingerprints agree; remaining blocks pair greedily inside
    fingerprint classes in sorted-id order.
    """
    amap = a.block_map()
    bmap = b.block_map()
    fpa = {bid: spp_fingerprint(blk) for bid, blk in amap.items()}
    fpb = {bid: spp_fingerprint(blk) for bid, blk in bmap.items()}
    paired_a: dict[str, str] = {}
    paired_b: dict[str, str] = {}
    out: list[BlockPair] = []

    def take(x: str, y: str) -> None:
        paired_a[x] = y
        paired_b[y] = x
        out.append(BlockPair(left=x, right=y, same_fingerprint=fpa[x] == fpb[y]))

    take(a.entry, b.entry)
    queue = [(a.entry, b.entry)]
    while queue:
        xa, xb = queue.pop(0)
        for sa, sb in zip(amap[xa].succs, bmap[xb].succs):
            if sa in paired_a or sb in paired_b:
                continue
            if fpa[sa] == fpb[sb]:
                take(sa, sb)
                queue.append((sa, sb))

    rest_a: dict[Fingerprint, list[str]] = {}
    rest_b: dict[Fingerprint, list[str]] = {}
    for bid in sorted(amap):
        if bid not in paired_a:
            rest_a.setdefault(fpa[bid], []).append(bid)
    for bid in sorted(bmap):
        if bid not in paired_b:
            rest_b.setdefault(fpb[bid], []).append(bid)
    for fp, aids in rest_a.items():
        bids = rest_b.get(fp)
        if not bids:
            continue
        for xa, xb in zip(aids, bids):
            take(xa, xb)
    return out


@_collector_paused()
def diff_programs(
    left: BinaryProgram | ProgramIndex, right: BinaryProgram | ProgramIndex
) -> DiffReport:
    """Function-level diff: the matched pairs with their overlaps, and the
    unmatched functions of each side. ``left`` is conventionally the freshly
    generated binary and ``right`` the crash-report binary, so ``left_only``
    holds generated-only functions and ``right_only`` crash-only ones.
    Either side may be given as its ``ProgramIndex``, so a caller that holds
    the crash's index does not index it again.

    The cyclic collector is paused throughout: the indexes and the report
    are acyclic, so it would only rescan them as they grow."""
    lidx, ridx = _indexed(left), _indexed(right)
    matches = _match_indexes(lidx, ridx)

    pairs = []
    total = 0.0
    for lid, rid in matches:
        fraction = _pair_fraction(lidx, lid, ridx, rid)
        pairs.append(FunctionPairDiff(left=lid, right=rid, fraction=fraction))
        total += fraction

    denom = max(len(lidx.ids), len(ridx.ids))
    if denom == 0:
        score = beta = 1.0
    else:
        score = total / denom
        beta = len(matches) / denom

    matched_l = {lid for lid, _ in matches}
    matched_r = {rid for _, rid in matches}
    return DiffReport(
        score=score,
        beta=beta,
        pairs=pairs,
        left_only=sorted(fid for fid in lidx.ids if fid not in matched_l),
        right_only=sorted(fid for fid in ridx.ids if fid not in matched_r),
    )


def compare_programs(left: BinaryProgram, right: BinaryProgram) -> float:
    """Similarity score alone, for callers that do not need the diff."""
    return similarity(index_program(left), index_program(right))
