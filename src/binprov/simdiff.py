"""Structural similarity and diffing between binary program models.

Matching runs in four passes, each pairing only functions that are still
unmatched, and only when the pairing key is unique on both sides:

1. identical symbol names,
2. neighborhood hash (sorted library callees, sorted tokens of already
   matched callees and callers, and the block count, where a pair's token
   is its left function number; iterated to a fixpoint so matches cascade
   along the call graph),
3. whole-function fingerprint signature,
4. positional pairing inside equal-signature classes, in sorted-id order.

While no pair is matched yet (a stripped side, so pass 1 paired nothing),
every token is -1, so the first round of pass 2 keys each function by its
library callees and block count straight from the index (``_bare_keys``),
without mapping a call edge through the tokens.

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
in [0, 1], and hit exactly 1.0 on self-comparison. ``similarity`` scores one
ordered pair. ``similarity_grid`` scores every ordered pair of a list of
programs, as the option grid reads them, with the bits ``similarity`` gives
each cell. It matches each unordered pair once, since every pass of the
matcher is symmetric under swapping the sides, and it computes once what
programs built from one source share: pass 1 of each pair of symbol tables
(``_symbol_table``) and the fraction of each pair of signatures.

Every per-program fact the matcher and the scores read (symbols, call
edges and fingerprint signatures, which also give the block counts) comes
from a ``ProgramIndex``, built once per program by ``index_program``. A
caller that scores one program against many holds its index and calls
``similarity``. Neither scoring nor ``diff_programs`` aligns blocks: the
configuration stage reads only which functions pair up.

The index numbers a program's functions 0…n−1 in sorted-id order, and the
matcher, the scores and the diff work on those numbers and on lists
indexed by them. Since number order is sorted-id order, every walk and
every float summation runs in the order the ids would sort in. Ids come
back only where they leave the module: the ``(left_id, right_id)`` pairs of
``match_functions``, and the ``DiffReport``.
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

from .binmodel import BinaryProgram, KeyKind, call_target
from .errors import SchemaError

__all__ = [
    "KIND_PRIMES",
    "ProgramIndex",
    "index_program",
    "match_functions",
    "similarity",
    "similarity_grid",
    "compare_programs",
    "diff_programs",
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

_function_id = attrgetter("id")


@dataclass(frozen=True, slots=True)
class ProgramIndex:
    """Per-program facts that matching, scoring and diffing read.

    Built once from a program by ``index_program`` and never updated, so a
    caller that scores one program against many others indexes it once.
    The functions are numbered 0…n−1 in sorted-id order: ``ids[k]`` is the
    id of function ``k``, and every other tuple is indexed by that number.
    Int order is sorted-id order, so a walk over the numbers visits the
    functions in the order a sort of their ids would. ``unique_symbols``
    maps each symbol carried by exactly one function to its number.
    ``callees`` and ``callers`` hold numbers and keep repeats; ``libcalls``
    holds each function's library call names, sorted, as the neighborhood
    hash reads them. A signature holds one fingerprint per block, so its
    length is the function's block count.
    """

    ids: tuple[str, ...]
    unique_symbols: dict[str, int]
    callees: tuple[tuple[int, ...], ...]
    libcalls: tuple[tuple[str, ...], ...]
    callers: tuple[tuple[int, ...], ...]
    signatures: tuple[tuple[Fingerprint, ...], ...]


def index_program(program: BinaryProgram) -> ProgramIndex:
    """Compute a program's ``ProgramIndex`` in one pass over its blocks.

    Raises ``SchemaError`` when two functions share an id, since one number
    per id could not tell them apart."""
    functions = sorted(program.functions, key=_function_id)
    ids = tuple(map(_function_id, functions))
    number = {fid: k for k, fid in enumerate(ids)}
    if len(number) != len(ids):
        repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise SchemaError(f"program {program.name!r}: duplicate function id {repeated!r}")
    callees: list[tuple[int, ...]] = []
    libcalls: list[tuple[str, ...]] = []
    callers: list[list[int]] = [[] for _ in ids]
    signatures: list[tuple[Fingerprint, ...]] = []
    symbol_numbers: dict[str, int] = {}  # -1 for a symbol two functions carry
    primes = KIND_PRIMES
    call = KeyKind.CALL
    for k, fn in enumerate(functions):
        if fn.symbol:
            symbol_numbers[fn.symbol] = -1 if fn.symbol in symbol_numbers else k
        out: list[int] = []
        lib: list[str] = []
        fingerprints = []
        for blk in fn.blocks:
            fp = 1  # the block's fingerprint, taken in the walk that finds the calls
            for ki in blk.keyins:
                fp *= primes[ki.kind]
                if ki.kind is call and ki.operand:
                    target = call_target(ki.operand)
                    m = number.get(target)
                    if m is None:
                        lib.append(target)
                    else:
                        out.append(m)
                        callers[m].append(k)
            fingerprints.append(fp)
        fingerprints.sort()
        signatures.append(tuple(fingerprints))
        callees.append(tuple(out))
        lib.sort()
        libcalls.append(tuple(lib))
    return ProgramIndex(
        ids=ids,
        unique_symbols={sym: k for sym, k in symbol_numbers.items() if k >= 0},
        callees=tuple(callees),
        libcalls=tuple(libcalls),
        callers=tuple(map(tuple, callers)),
        signatures=tuple(signatures),
    )


def _indexed(program: BinaryProgram | ProgramIndex) -> ProgramIndex:
    """``program``'s index: the argument itself when it is one already."""
    return program if isinstance(program, ProgramIndex) else index_program(program)


def _unique_key_matches(left_keys, right_keys) -> list[tuple[int, int]]:
    """Pair left/right numbers whose key occurs exactly once on each side.
    Each side is an iterable of ``(number, key)``. No two returned pairs
    share a number."""
    left_by_key = _number_by_key(left_keys)
    right_by_key = _number_by_key(right_keys)
    out = []
    for key, l in left_by_key.items():
        if l >= 0:
            r = right_by_key.get(key, -1)
            if r >= 0:
                out.append((l, r))
    return out


def _number_by_key(keyed) -> dict:
    """Each key's number, or -1 for a key that more than one number has."""
    by_key: dict = {}
    for k, key in keyed:
        if by_key.setdefault(key, k) != k:
            by_key[key] = -1
    return by_key


def _neighborhood_keys(index: ProgramIndex, unmatched: list[int], token: list[int]):
    """``(k, key)`` for each unmatched function ``k``: its library callees,
    the sorted tokens of its matched callees and callers, and its block
    count. ``token[m]`` is function ``m``'s pair token, -1 while it is
    unmatched. Library names and pair tokens sit in separate tuples, so a
    library symbol cannot pose as a matched callee."""
    callees, callers = index.callees, index.callers
    libcalls, signatures = index.libcalls, index.signatures
    for k in unmatched:
        ctoks = [t for t in map(token.__getitem__, callees[k]) if t >= 0]
        rtoks = [t for t in map(token.__getitem__, callers[k]) if t >= 0]
        ctoks.sort()
        rtoks.sort()
        yield k, (libcalls[k], tuple(ctoks), tuple(rtoks), len(signatures[k]))


def _bare_keys(index: ProgramIndex):
    """``_neighborhood_keys`` of every function while no function is
    matched: its library callees, two empty token tuples and its block
    count."""
    empty = repeat(())
    return enumerate(zip(index.libcalls, empty, empty, map(len, index.signatures)))


def _symbol_table(index: ProgramIndex) -> tuple:
    """All that pass 1 reads of an index, as a hashable key: its function
    count and its unique symbols."""
    return len(index.ids), frozenset(index.unique_symbols.items())


def _symbol_pass(left: ProgramIndex, right: ProgramIndex) -> tuple[list[int], list[int], int]:
    """Pass 1 of the matcher: symbols, where both sides carry them. Returns
    ``(lr, rl, matched)`` as ``_match`` does, with the number of pairs. It
    reads only the two ``_symbol_table``s, so indexes with equal tables get
    equal results."""
    lr = [-1] * len(left.ids)
    rl = [-1] * len(right.ids)
    # A unique symbol names one function on each side, so no two of these
    # pairs share a number.
    right_symbols = right.unique_symbols
    for sym, l in left.unique_symbols.items():
        r = right_symbols.get(sym)
        if r is not None:
            lr[l] = r
            rl[r] = l
    return lr, rl, len(lr) - lr.count(-1)


def _match(left: ProgramIndex, right: ProgramIndex) -> tuple[list[int], list[int]]:
    """The four-pass matcher on function numbers. Returns ``(lr, rl)``:
    ``lr[l]`` is the right number paired with left function ``l`` and
    ``rl[r]`` the left number paired with right function ``r``, -1 where a
    function is unmatched."""
    nl, nr = len(left.ids), len(right.ids)
    lr, rl, matched = _symbol_pass(left, right)

    def one_side_done() -> bool:
        # Every later pass pairs only functions unmatched on both sides, so
        # once either side has none left no pass can add a pair.
        return matched == nl or matched == nr

    if one_side_done():
        return lr, rl

    # A matched pair's token is its left number: stable, and equal for both
    # members of the pair. ``rl`` already holds the right side's tokens.
    ltok = [l if r >= 0 else -1 for l, r in enumerate(lr)]

    def record(pairs: list[tuple[int, int]]) -> bool:
        # Every pass pairs only unmatched functions, each at most once.
        nonlocal matched
        for l, r in pairs:
            lr[l] = r
            rl[r] = ltok[l] = l
        matched += len(pairs)
        return bool(pairs)

    def unmatched(side: list[int]) -> list[int]:
        return [k for k, other in enumerate(side) if other < 0]

    def neighborhood_pass() -> bool:
        if not matched:
            # Every token is -1, so no function has a matched callee or
            # caller: the keys come straight from the index.
            return record(_unique_key_matches(_bare_keys(left), _bare_keys(right)))
        return record(_unique_key_matches(
            _neighborhood_keys(left, unmatched(lr), ltok),
            _neighborhood_keys(right, unmatched(rl), rl),
        ))

    def signature_pass() -> bool:
        lsig, rsig = left.signatures, right.signatures
        return record(_unique_key_matches(
            [(l, lsig[l]) for l in unmatched(lr)],
            [(r, rsig[r]) for r in unmatched(rl)],
        ))

    def positional_pass() -> bool:
        # Numbers are appended in increasing order, so each class lists its
        # functions in sorted-id order.
        lgroups: dict[tuple, list[int]] = {}
        rgroups: dict[tuple, list[int]] = {}
        for l in unmatched(lr):
            lgroups.setdefault(left.signatures[l], []).append(l)
        for r in unmatched(rl):
            rgroups.setdefault(right.signatures[r], []).append(r)
        pairs = []
        for sig, ls in lgroups.items():
            rs = rgroups.get(sig)
            if rs:
                pairs.extend(zip(ls, rs))
        return record(pairs)

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
    return lr, rl


def match_functions(left: BinaryProgram, right: BinaryProgram) -> list[tuple[str, str]]:
    """Match functions between two programs; returns (left_id, right_id) pairs
    sorted by left id."""
    lidx, ridx = index_program(left), index_program(right)
    lids, rids = lidx.ids, ridx.ids
    return [(lids[l], rids[r]) for l, r in enumerate(_match(lidx, ridx)[0]) if r >= 0]


def _pair_fraction(left: ProgramIndex, l: int, right: ProgramIndex, r: int) -> float:
    """Fingerprint-multiset overlap of a matched pair, left function ``l``
    and right function ``r``, over its larger block count. It reads only the
    two signatures, and is exactly 1.0 when they are equal: n/n, or an empty
    pair. Both are sorted, so one merge walk counts the overlap."""
    a = left.signatures[l]
    b = right.signatures[r]
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
    for l, r in enumerate(_match(left, right)[0]):
        if r >= 0:
            total += _pair_fraction(left, l, right, r)
    denom = max(len(left.ids), len(right.ids))
    return 1.0 if denom == 0 else total / denom


def _pairing(lr: list[int], rl: list[int]) -> tuple[list[tuple[int, int]], list | None, int]:
    """A match as the scores read it: the matched ``(l, r)`` pairs in left
    order, the same pairs in right order (None when that is the same list)
    and the larger function count."""
    pairs = [(l, r) for l, r in enumerate(lr) if r >= 0]
    by_right = [(l, r) for r, l in enumerate(rl) if l >= 0]
    return pairs, None if by_right == pairs else by_right, max(len(lr), len(rl))


def similarity_grid(indexes: Sequence[ProgramIndex]) -> list[list[float]]:
    """Every ordered pair's score: ``grid[i][j]`` is
    ``similarity(indexes[i], indexes[j])``, bit for bit.

    Each unordered pair is matched once and fills both of its cells, the
    diagonal like any other cell. Every pass of the matcher pairs the same
    functions when the sides are swapped, and a pair's fraction is
    symmetric, so only the order of summation differs between the two
    cells: left-id order for ``grid[i][j]``, right-id order for
    ``grid[j][i]``. Programs built from one source share most of their
    facts, and the grid computes each shared one once:

    - Pass 1 of the matcher reads only the two symbol tables, so it runs
      once per ordered pair of distinct tables. Where it leaves a side fully
      paired, the match ends there, and every pair with those tables takes
      that pairing. Any other pair is matched on its own.
    - A function pair's fraction depends only on the two signatures, so one
      memo for the whole grid scores each distinct signature pair once.
    - A pairing whose pairs come in the same order on both sides gives both
      cells from one sum."""
    n = len(indexes)
    grid = [[0.0] * n for _ in range(n)]
    # Each distinct signature gets a small int, the key of the fraction memo;
    # ``classes[i][k]`` is the class of function number ``k`` of program ``i``.
    class_ids: dict[tuple, int] = {}
    classes = [[class_ids.setdefault(sig, len(class_ids)) for sig in ix.signatures] for ix in indexes]
    fractions: dict[tuple[int, int], float] = {}
    # Each distinct symbol table gets a small int; ``symbol_pairings`` maps
    # an ordered pair of them to pass 1's pairing, None where it is partial.
    table_ids: dict[tuple, int] = {}
    tables = [table_ids.setdefault(_symbol_table(ix), len(table_ids)) for ix in indexes]
    symbol_pairings: dict[tuple[int, int], tuple | None] = {}
    for i, left in enumerate(indexes):
        row, lclass = grid[i], classes[i]
        for j in range(i, n):
            right, rclass = indexes[j], classes[j]
            key = (tables[i], tables[j])
            if key not in symbol_pairings:
                lr, rl, matched = _symbol_pass(left, right)
                symbol_pairings[key] = _pairing(lr, rl) if matched in (len(lr), len(rl)) else None
            pairs, by_right, denom = symbol_pairings[key] or _pairing(*_match(left, right))
            forward = 0.0
            for l, r in pairs:
                memo_key = (lclass[l], rclass[r])
                f = fractions.get(memo_key)
                if f is None:
                    f = fractions[memo_key] = _pair_fraction(left, l, right, r)
                forward += f
            backward = forward
            if by_right is not None:
                backward = 0.0
                for l, r in by_right:
                    backward += fractions[lclass[l], rclass[r]]
            row[j], grid[j][i] = (forward / denom, backward / denom) if denom else (1.0, 1.0)
    return grid


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


# Bound only for perfbench's tracer, which rebinds it by name; ROADMAP item 5 removes it.
pair_blocks = None


def diff_programs(
    left: BinaryProgram | ProgramIndex, right: BinaryProgram | ProgramIndex
) -> DiffReport:
    """Function-level diff: the matched pairs with their overlaps, and the
    unmatched functions of each side. ``left`` is conventionally the freshly
    generated binary and ``right`` the crash-report binary, so ``left_only``
    holds generated-only functions and ``right_only`` crash-only ones.
    Either side may be given as its ``ProgramIndex``, so a caller that holds
    the crash's index does not index it again.

    The cyclic collector is off throughout, as ``binmodel`` describes: the
    indexes and the report are acyclic, so it would only rescan them as
    they grow."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _diff_programs(left, right)
    finally:
        if was_on:
            gc.enable()


def _diff_programs(
    left: BinaryProgram | ProgramIndex, right: BinaryProgram | ProgramIndex
) -> DiffReport:
    lidx, ridx = _indexed(left), _indexed(right)
    lr, rl = _match(lidx, ridx)
    lids, rids = lidx.ids, ridx.ids

    pairs = []
    total = 0.0
    for l, r in enumerate(lr):
        if r >= 0:
            fraction = _pair_fraction(lidx, l, ridx, r)
            pairs.append(FunctionPairDiff(left=lids[l], right=rids[r], fraction=fraction))
            total += fraction

    denom = max(len(lids), len(rids))
    if denom == 0:
        score = beta = 1.0
    else:
        score = total / denom
        beta = len(pairs) / denom

    return DiffReport(
        score=score,
        beta=beta,
        pairs=pairs,
        left_only=[lids[l] for l, r in enumerate(lr) if r < 0],
        right_only=[rids[r] for r, l in enumerate(rl) if l < 0],
    )


def compare_programs(left: BinaryProgram, right: BinaryProgram) -> float:
    """Similarity score alone, for callers that do not need the diff."""
    return similarity(index_program(left), index_program(right))
