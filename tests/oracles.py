"""Reference definitions the tests check the library against.

Each is the plain form of something the library does faster, inside
another walk, or not at all: the block fingerprint and function signature
that ``simdiff.index_program`` computes in its call walk, a brute-force
enumeration of models over an atom table's keys that ``solver.solve``
must agree with, random directive files for the scanner's property tests,
and ``run_case`` on a generated case.
"""

from __future__ import annotations

import itertools
import random

from binprov.binmodel import BasicBlock, Function
from binprov.conditions import evaluate
from binprov.corpusgen import GeneratedCase
from binprov.pipeline import CaseReport, run_case
from binprov.simdiff import KIND_PRIMES, Fingerprint
from binprov.solver import AtomTable, Model

ENUMERATION_ATOM_LIMIT = 20


class AtomLimitError(Exception):
    """Model enumeration refused: too many distinct atoms."""


def spp_fingerprint(block: BasicBlock) -> Fingerprint:
    fp = 1
    for ki in block.keyins:
        fp *= KIND_PRIMES[ki.kind]
    return fp


def function_signature(fn: Function) -> tuple[Fingerprint, ...]:
    """Multiset of block fingerprints, as a sorted tuple."""
    return tuple(sorted(spp_fingerprint(b) for b in fn.blocks))


def table_keys(table: AtomTable) -> list[str]:
    """The table's keys in index order."""
    return [table.key_of(i) for i in range(len(table))]


def enumerate_models(constraints, table: AtomTable | None = None, limit: int | None = None):
    """All satisfying assignments by brute force, in lexicographic order
    (False < True, atoms in table order). Guarding oracle for ``solve``."""
    constraints = list(constraints)
    if table is None:
        table = AtomTable()
    for cond in constraints:
        table.add_condition(cond)
    keys = table_keys(table)
    if len(keys) > ENUMERATION_ATOM_LIMIT:
        raise AtomLimitError(
            f"{len(keys)} atoms exceed the enumeration limit of {ENUMERATION_ATOM_LIMIT}"
        )

    models = []
    for bits in itertools.product((False, True), repeat=len(keys)):
        env = dict(zip(keys, bits))
        if all(evaluate(c, env) for c in constraints):
            models.append(Model(assignment=env, free_atoms=frozenset()))
            if limit is not None and len(models) >= limit:
                break
    return models


def generate_conditional_unit(seed: int, index: int) -> str:
    """A random balanced nested-directive file for fragment-tree property
    testing. Only the preprocessor structure matters here."""
    rng = random.Random(f"cond:{seed}:{index}")
    macros = ["OPT_A", "OPT_B", "OPT_C", "OPT_D", "OPT_E", "OPT_F"]
    lines: list[str] = []
    depth = 0
    seen_else: list[bool] = []

    for _ in range(rng.randint(5, 60)):
        roll = rng.random()
        if roll < 0.28 and depth < 4:
            m = rng.choice(macros)
            style = rng.randrange(3)
            if style == 0:
                lines.append(f"#ifdef {m}")
            elif style == 1:
                lines.append(f"#ifndef {m}")
            else:
                other = rng.choice(macros)
                op = rng.choice(["&&", "||"])
                lines.append(f"#if defined({m}) {op} !defined({other})")
            depth += 1
            seen_else.append(False)
        elif roll < 0.38 and depth > 0 and not seen_else[-1]:
            if rng.random() < 0.5:
                lines.append(f"#elif defined({rng.choice(macros)})")
            else:
                lines.append("#else")
                seen_else[-1] = True
        elif roll < 0.5 and depth > 0:
            lines.append("#endif")
            depth -= 1
            seen_else.pop()
        else:
            k = rng.randrange(1000)
            lines.append(f"  value_{k} = source_{k % 7} + {k};")
    while depth > 0:
        lines.append("#endif")
        depth -= 1
        seen_else.pop()
    return "\n".join(lines) + "\n"


def run_generated_case(case: GeneratedCase, **kwargs) -> CaseReport:
    return run_case(
        case.crash,
        case.tree,
        case.config_map,
        name=case.name,
        base_units=case.base_units,
        **kwargs,
    )
