"""Structural similarity and diffing between binary program models.

Matching runs in four passes, each pairing only functions that are still
unmatched, and only when the pairing key is unique on both sides:

1. identical symbol names,
2. neighborhood hash (sorted callee and caller tokens plus block count,
   where a token is a library symbol or the identity of an already matched
   pair; iterated to a fixpoint so matches cascade along the call graph),
3. whole-function fingerprint signature,
4. positional pairing inside equal-signature classes, in sorted-id order.

Pass 4 is what makes a program compare equal to itself even when it contains
byte-identical duplicate functions, which passes 1-3 can never tell apart in
a stripped binary.

Similarity of a matched function pair is the fingerprint-multiset overlap of
their blocks over the larger block count; program similarity is the sum of
pair similarities over the larger function count. Both are symmetric, land
in [0, 1], and hit exactly 1.0 on self-comparison.

Every per-program fact the matcher and the scores read (symbols, call
edges, block counts, fingerprint signatures and fingerprint multisets) comes
from a ``ProgramIndex``, built once per program by ``index_program``. A
caller that scores one program against many holds its index and calls
``similarity``. Neither scoring nor ``diff_programs`` aligns blocks: the
configuration stage reads only which functions pair up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .binmodel import BasicBlock, BinaryProgram, Function, KeyKind, call_target

__all__ = [
    "KIND_PRIMES",
    "spp_fingerprint",
    "function_signature",
    "ProgramIndex",
    "index_program",
    "match_functions",
    "similarity",
    "pair_blocks",
    "compare_programs",
    "diff_programs",
    "BlockPair",
    "FunctionPairDiff",
    "DiffReport",
]

# Small-prime-product encoding of block content: each key-instruction kind
# maps to a fixed prime, a block's fingerprint is the sorted tuple of its
# primes. Two blocks have the same fingerprint exactly when they hold the
# same multiset of key-instruction kinds.
KIND_PRIMES: dict[KeyKind, int] = {
    KeyKind.COMPARE: 2,
    KeyKind.CALL: 3,
    KeyKind.STRING_REF: 5,
    KeyKind.CONST_REF: 7,
}

Fingerprint = tuple[int, ...]


def spp_fingerprint(block: BasicBlock) -> Fingerprint:
    return tuple(sorted(KIND_PRIMES[ki.kind] for ki in block.keyins))


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
    tuples keep repeats.
    """

    ids: tuple[str, ...]
    unique_symbols: dict[str, str]
    callees: dict[str, tuple[str, ...]]
    libcalls: dict[str, tuple[str, ...]]
    callers: dict[str, tuple[str, ...]]
    nblocks: dict[str, int]
    signatures: dict[str, tuple[Fingerprint, ...]]
    fingerprints: dict[str, Counter]


def index_program(program: BinaryProgram) -> ProgramIndex:
    """Compute a program's ``ProgramIndex`` in one pass over its blocks."""
    ids = tuple(f.id for f in program.functions)
    callees: dict[str, list[str]] = {fid: [] for fid in ids}
    libcalls: dict[str, list[str]] = {fid: [] for fid in ids}
    callers: dict[str, list[str]] = {fid: [] for fid in ids}
    symbol_ids: dict[str, list[str]] = {}
    signatures: dict[str, tuple[Fingerprint, ...]] = {}
    fingerprints: dict[str, Counter] = {}
    for fn in program.functions:
        if fn.symbol:
            symbol_ids.setdefault(fn.symbol, []).append(fn.id)
        signatures[fn.id] = signature = function_signature(fn)
        fingerprints[fn.id] = Counter(signature)
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
        libcalls={fid: tuple(v) for fid, v in libcalls.items()},
        callers={fid: tuple(v) for fid, v in callers.items()},
        nblocks={f.id: len(f.blocks) for f in program.functions},
        signatures=signatures,
        fingerprints=fingerprints,
    )


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
    ctoks = list(index.libcalls[fid])
    for callee in index.callees[fid]:
        tok = pair_token(callee)
        if tok is not None:
            ctoks.append(tok)
    rtoks = []
    for caller in index.callers[fid]:
        tok = pair_token(caller)
        if tok is not None:
            rtoks.append(tok)
    return (tuple(sorted(ctoks)), tuple(sorted(rtoks)), index.nblocks[fid])


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

    # Pass 1: symbols, where both sides carry them.
    record(
        sorted(
            (lid, right.unique_symbols[sym])
            for sym, lid in left.unique_symbols.items()
            if sym in right.unique_symbols
        )
    )

    def left_token(fid: str):
        # Matched pairs are identified by the left-side id: stable and equal
        # for both members of the pair.
        return "m:" + fid if fid in matched_lr else None

    def right_token(fid: str):
        lid = matched_rl.get(fid)
        return "m:" + lid if lid is not None else None

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

    def converge() -> None:
        while True:
            any_change = neighborhood_pass()
            if signature_pass():
                any_change = True
            if not any_change:
                break

    converge()
    if positional_pass():
        converge()
    return sorted(matched_lr.items())


def match_functions(left: BinaryProgram, right: BinaryProgram) -> list[tuple[str, str]]:
    """Match functions between two programs; returns (left_id, right_id) pairs
    sorted by left id."""
    return _match_indexes(index_program(left), index_program(right))


def _pair_fraction(left: ProgramIndex, lid: str, right: ProgramIndex, rid: str) -> float:
    """Fingerprint-multiset overlap of a matched pair over its larger block
    count."""
    ca, cb = left.fingerprints[lid], right.fingerprints[rid]
    overlap = sum(min(ca[fp], cb[fp]) for fp in ca if fp in cb)
    denom = max(left.nblocks[lid], right.nblocks[rid])
    if denom == 0:
        return 1.0
    return overlap / denom


def similarity(left: ProgramIndex, right: ProgramIndex) -> float:
    """Program similarity from two indexes: matched-pair fractions summed in
    left-id order over the larger function count. No blocks are aligned."""
    total = 0.0
    for lid, rid in _match_indexes(left, right):
        total += _pair_fraction(left, lid, right, rid)
    denom = max(len(left.ids), len(right.ids))
    return 1.0 if denom == 0 else total / denom


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
    left_name: str
    right_name: str
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


def diff_programs(left: BinaryProgram, right: BinaryProgram) -> DiffReport:
    """Function-level diff: the matched pairs with their overlaps, and the
    unmatched functions of each side. ``left`` is conventionally the freshly
    generated binary and ``right`` the crash-report binary, so ``left_only``
    holds generated-only functions and ``right_only`` crash-only ones."""
    lidx, ridx = index_program(left), index_program(right)
    matches = _match_indexes(lidx, ridx)

    pairs = []
    total = 0.0
    for lid, rid in matches:
        fraction = _pair_fraction(lidx, lid, ridx, rid)
        pairs.append(FunctionPairDiff(left=lid, right=rid, fraction=fraction))
        total += fraction

    denom = max(len(left.functions), len(right.functions))
    if denom == 0:
        score = beta = 1.0
    else:
        score = total / denom
        beta = len(matches) / denom

    matched_l = {lid for lid, _ in matches}
    matched_r = {rid for _, rid in matches}
    return DiffReport(
        left_name=left.name,
        right_name=right.name,
        score=score,
        beta=beta,
        pairs=pairs,
        left_only=sorted(f.id for f in left.functions if f.id not in matched_l),
        right_only=sorted(f.id for f in right.functions if f.id not in matched_r),
    )


def compare_programs(left: BinaryProgram, right: BinaryProgram) -> float:
    """Similarity score alone, for callers that do not need the diff."""
    return similarity(index_program(left), index_program(right))
