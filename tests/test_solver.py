"""DPLL solving validated against the exhaustive enumerator.

The enumerator is the oracle: it walks every assignment over the atom
table. Every solve() answer must be contained in (sat) or agree with
(unsat) the enumerated truth.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov.buildoracle import SimulatedToolchain
from binprov.conditions import (
    And,
    BoolConst,
    DefinedAtom,
    Not,
    OpaqueAtom,
    Or,
    atom_key,
    atom_keys,
    evaluate,
    neg,
    parse_expression,
    to_text,
)
from binprov.matcher import derive_constraints
from binprov.simdiff import diff_programs
from binprov.solver import (
    AtomTable,
    Model,
    Unsatisfiable,
    _cnf_clauses,
    _dpll,
    solve,
)
from binprov.varsource import scan_tree

from oracles import AtomLimitError, enumerate_models, table_keys

# Real libpng guard for floating-point arithmetic (pngpriv.h); eight
# distinct defined-atoms, sCAL appears in both disjuncts.
LIBPNG_EXPR = (
    "defined(PNG_FLOATING_POINT_SUPPORTED) && "
    "!defined(PNG_FIXED_POINT_MACRO_SUPPORTED) && "
    "(defined(PNG_gAMA_SUPPORTED) || defined(PNG_cHRM_SUPPORTED) || "
    "defined(PNG_sCAL_SUPPORTED) || defined(PNG_READ_BACKGROUND_SUPPORTED) || "
    "defined(PNG_READ_RGB_TO_GRAY_SUPPORTED)) || "
    "(defined(PNG_sCAL_SUPPORTED) && defined(PNG_FLOATING_ARITHMETIC_SUPPORTED))"
)


def _model_satisfies(model: Model, constraints) -> bool:
    env = dict(model.assignment)
    return all(evaluate(c, env) for c in constraints)


def test_empty_constraint_list_is_trivially_satisfiable():
    out = solve([])
    assert isinstance(out, Model)
    assert out.assignment == {}
    assert out.free_atoms == frozenset()


def test_negated_and_positive_unit_facts():
    # String "world" present implies not-A; call foo present implies B.
    constraints = [parse_expression("!defined(A)"), parse_expression("defined(B)")]
    out = solve(constraints)
    assert isinstance(out, Model)
    assert out.assignment == {"A": False, "B": True}


def test_direct_contradiction_returns_core():
    a = parse_expression("defined(A)")
    na = parse_expression("!defined(A)")
    out = solve([a, na])
    assert isinstance(out, Unsatisfiable)
    assert set(out.core) == {a, na}


def test_core_is_unsatisfiable_subset_of_input():
    constraints = [
        parse_expression("defined(A) || defined(B)"),
        parse_expression("!defined(B)"),
        parse_expression("!defined(A)"),
        parse_expression("defined(C)"),
    ]
    out = solve(constraints)
    assert isinstance(out, Unsatisfiable)
    assert set(out.core) <= set(constraints)
    assert isinstance(solve(list(out.core)), Unsatisfiable)


def test_free_atoms_default_to_disabled():
    # C never appears; A forced true, B forced false.
    constraints = [parse_expression("defined(A)"), parse_expression("!defined(B)")]
    out = solve(constraints)
    assert out.assignment["A"] is True
    assert out.assignment["B"] is False
    assert out.free_atoms == frozenset()


def test_table_atoms_outside_the_constraints_are_free_and_disabled():
    # An atom the caller interned but no constraint mentions is still part
    # of the model: disabled, and listed as free.
    table = AtomTable()
    table.intern("A")
    table.intern("ORPHAN")
    out = solve([parse_expression("defined(A)")], table)
    assert out.assignment == {"A": True, "ORPHAN": False}
    assert out.free_atoms == frozenset({"ORPHAN"})


def test_solve_is_deterministic():
    constraints = [
        parse_expression("defined(A) || !defined(B)"),
        parse_expression("defined(C) || defined(B)"),
    ]
    first = solve(constraints)
    second = solve(constraints)
    assert first == second


def test_model_text_lists_sorted_assignments():
    out = solve([parse_expression("defined(B) && !defined(A)")])
    assert out.to_text() == "A = False\nB = True"


def test_enumerate_models_truth_table():
    out = enumerate_models([parse_expression("!defined(A) || defined(B)")], limit=8)
    assert len(out) == 3
    for m in out:
        env = dict(m.assignment)
        assert (not env["A"]) or env["B"]


def test_enumerate_models_unsat_is_empty():
    out = enumerate_models(
        [parse_expression("defined(A)"), parse_expression("!defined(A)")], limit=8
    )
    assert out == []


def test_enumerate_models_atom_limit():
    big = parse_expression(" || ".join(f"defined(M{i})" for i in range(21)))
    with pytest.raises(AtomLimitError):
        enumerate_models([big], limit=4)


def test_opaque_atoms_are_solved_as_free_booleans():
    constraints = [parse_expression("VER > 2 && defined(A)")]
    out = solve(constraints)
    assert isinstance(out, Model)
    assert out.assignment["A"] is True
    assert out.assignment["VER > 2"] is True


def test_libpng_expression_has_eight_atoms():
    cond = parse_expression(LIBPNG_EXPR)
    assert len(set(atom_keys(cond))) == 8


def test_libpng_solve_passes_brute_force_oracle():
    cond = parse_expression(LIBPNG_EXPR)
    extra = parse_expression("!defined(PNG_FIXED_POINT_MACRO_SUPPORTED)")
    out = solve([cond, extra])
    assert isinstance(out, Model)
    names = sorted(set(atom_keys(cond)))
    assert len(names) == 8
    # independent oracle: full 2^8 truth table
    satisfying = []
    for bits in itertools.product([False, True], repeat=8):
        env = dict(zip(names, bits))
        if evaluate(cond, env) and evaluate(extra, env):
            satisfying.append(env)
    assert len(satisfying) == 78
    assert dict(out.assignment) in satisfying
    # deterministic contract: pure-literal elimination enables every
    # positively-pure atom before any decision runs
    assert sorted(out.enabled()) == [
        "PNG_FLOATING_ARITHMETIC_SUPPORTED",
        "PNG_FLOATING_POINT_SUPPORTED",
        "PNG_READ_BACKGROUND_SUPPORTED",
        "PNG_READ_RGB_TO_GRAY_SUPPORTED",
        "PNG_cHRM_SUPPORTED",
        "PNG_gAMA_SUPPORTED",
        "PNG_sCAL_SUPPORTED",
    ]


def _random_formula(rng: random.Random, atoms: list[str]):
    def leaf():
        name = rng.choice(atoms)
        text = f"defined({name})"
        return f"!{text}" if rng.random() < 0.4 else text

    def grow(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        op = rng.choice([" && ", " || "])
        n = rng.randint(2, 3)
        parts = [grow(depth - 1) for _ in range(n)]
        body = op.join(parts)
        return f"!({body})" if rng.random() < 0.2 else f"({body})"

    return parse_expression(grow(3))


def test_solve_agrees_with_enumeration_on_random_formulas():
    rng = random.Random(42)
    for _ in range(500):
        atoms = [f"M{i}" for i in range(rng.randint(2, 16))]
        constraints = [_random_formula(rng, atoms) for _ in range(rng.randint(1, 3))]
        out = solve(constraints)
        models = enumerate_models(constraints)
        if isinstance(out, Unsatisfiable):
            assert models == [], f"solve unsat but {len(models)} models exist"
            assert isinstance(solve(list(out.core)), Unsatisfiable)
        else:
            assert models, "solve found a model but enumeration found none"
            assert _model_satisfies(out, constraints)


def _wide_or(width: int):
    """OR of ``width`` two-atom ANDs over distinct atoms."""
    return parse_expression(
        " || ".join(f"(defined(A{i}) && defined(B{i}))" for i in range(width))
    )


@pytest.mark.parametrize("width", [16, 17])
def test_wide_or_and_its_negation_are_unsatisfiable(width):
    phi = _wide_or(width)
    out = solve([phi, neg(phi)])
    assert isinstance(out, Unsatisfiable)
    assert out.core == (phi, neg(phi))


def test_cnf_of_wide_or_grows_linearly():
    table = AtomTable()
    clauses = _cnf_clauses(_wide_or(64), table, itertools.count(-1, -1))
    assert len(clauses) <= 3 * 64 + 1
    # Fresh variables stay out of the atom table.
    assert len(table) == 128


def test_decision_depth_beyond_the_recursion_limit():
    # False-first decides the fresh variables of phi one at a time, so the
    # search holds width - 1 open decisions before it backtracks.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        phi = _wide_or(1050)
        out = solve([phi, neg(phi)])
    finally:
        sys.setrecursionlimit(old_limit)
    assert isinstance(out, Unsatisfiable)
    assert out.core == (phi, neg(phi))


def _outcome_record(out) -> list:
    if isinstance(out, Unsatisfiable):
        return ["unsat", [to_text(c) for c in out.core]]
    return ["sat", sorted(out.assignment.items()), sorted(out.free_atoms)]


def _needs_fresh_variables(constraints) -> bool:
    fresh = itertools.count(-1, -1)
    for cond in constraints:
        clauses = _cnf_clauses(cond, AtomTable(), fresh) or []
        if any(idx < 0 for cl in clauses for idx, _ in cl):
            return True
    return False


def test_corpus_constraint_outcomes_match_golden_digest(corpus21):
    # Every derive_constraints set of corpus seed 1 (hidden options, seed and
    # truth configurations), solved over a table holding every
    # fragment atom of the case: whole, without its single-atom facts, and
    # with the negation of its last guard added. No guard has an OR above an
    # AND, so the encoding adds no fresh variable. The digest holds the
    # records that the distributive encoding and recursive search this one
    # replaced gave with False-first decisions.
    records = []
    for case in corpus21:
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        scans = scan_tree(case.tree)
        guards = [frag.condition for unit in scans.values() for frag in unit.fragments]
        for config in (case.seed_config(), case.truth_config()):
            diff = diff_programs(backend.build(case.hidden_spec, config), case.crash)
            derived = list(derive_constraints(scans, case.crash, diff).constraints)
            if not derived:
                continue
            compound = [c for c in derived if isinstance(c, (And, Or))]
            for constraints in (derived, compound, derived + [neg(derived[-1])]):
                assert not _needs_fresh_variables(constraints)
                table = AtomTable()
                for cond in guards:
                    table.add_condition(cond)
                records.append(_outcome_record(solve(constraints, table)))
    assert len(records) == 114
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "252b70335ffb34cf732087826db1bb425aba732e30f14960b67cb6dbef849541"


def test_flat_random_outcomes_match_golden_digest():
    # Random sets whose encoding adds no fresh variable must get the models
    # and cores the distributive encoding and recursive search gave with
    # False-first decisions; the digest was computed with them. These sets backtrack, so the digest
    # also pins what the search leaves assigned after a failed branch.
    rng = random.Random(2024)
    records = []
    for _ in range(600):
        atoms = [f"M{i}" for i in range(rng.randint(2, 8))]
        constraints = [_random_formula(rng, atoms) for _ in range(rng.randint(1, 4))]
        if _needs_fresh_variables(constraints):
            continue
        records.append(_outcome_record(solve(constraints)))
    assert len(records) == 149
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "e1b01ba98e421f8ed91c40715321b0ec33642b7835bd0dc7690d4e1d0c6b6aa6"


_guard_leaves = st.sampled_from(
    [DefinedAtom(n) for n in "ABCDE"]
    + [Not(DefinedAtom(n)) for n in "ABCDE"]
    + [BoolConst(True), BoolConst(False)]
)


def _guard_nodes(children):
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(st.builds(Not, children), st.builds(And, operands), st.builds(Or, operands))


_subguards = st.recursive(_guard_leaves, _guard_nodes, max_leaves=8)
# Every drawn guard is compound, and half are ORs, so about half the sets
# need fresh variables.
_guards = st.one_of(
    st.builds(Or, st.lists(_subguards, min_size=2, max_size=3).map(tuple)),
    _guard_nodes(_subguards),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_guards, min_size=1, max_size=4))
def test_solve_agrees_with_enumeration_on_nested_guards(constraints):
    satisfiable = bool(enumerate_models(constraints, limit=1))
    keys = {k for c in constraints for k in atom_keys(c)}
    out = solve(constraints)
    if isinstance(out, Model):
        assert satisfiable
        assert _model_satisfies(out, constraints)
        # Fresh variables never reach the model.
        assert set(out.assignment) == keys
        assert out.free_atoms <= keys
    else:
        assert not satisfiable
        core = list(out.core)
        assert all(any(c is d for d in constraints) for c in core)
        assert not enumerate_models(core, limit=1)
        for i in range(len(core)):
            assert enumerate_models(core[:i] + core[i + 1:], limit=1)


def _reference_nnf(cond, negated=False):
    if isinstance(cond, BoolConst):
        return BoolConst(cond.value != negated)
    if isinstance(cond, (DefinedAtom, OpaqueAtom)):
        return Not(cond) if negated else cond
    if isinstance(cond, Not):
        return _reference_nnf(cond.operand, not negated)
    if isinstance(cond, And):
        parts = tuple(_reference_nnf(op, negated) for op in cond.operands)
        return Or(parts) if negated else And(parts)
    if isinstance(cond, Or):
        parts = tuple(_reference_nnf(op, negated) for op in cond.operands)
        return And(parts) if negated else Or(parts)
    raise TypeError(f"not a condition: {cond!r}")


def _reference_cnf_clauses(cond, table, fresh):
    """The encoding as an NNF copy followed by a walk over the copy: the
    reference the one-walk ``_cnf_clauses`` must reproduce exactly."""

    def walk(c):
        if isinstance(c, BoolConst):
            return [] if c.value else None
        if isinstance(c, (DefinedAtom, OpaqueAtom)):
            return [frozenset({(table.intern(atom_key(c)), True)})]
        if isinstance(c, Not):
            return [frozenset({(table.intern(atom_key(c.operand)), False)})]
        if isinstance(c, And):
            out = []
            for op in c.operands:
                sub = walk(op)
                if sub is None:
                    return None
                out.extend(sub)
            return out
        clause, defs = None, []
        for op in c.operands:
            sub = walk(op)
            if sub is None:
                continue
            if not sub:
                return []
            if len(sub) == 1:
                lits = sub[0]
            else:
                x = next(fresh)
                lits = frozenset({(x, True)})
                defs.extend(cl | {(x, False)} for cl in sub)
            clause = lits if clause is None else clause | lits
        return None if clause is None else [clause, *defs]

    clauses = walk(_reference_nnf(cond))
    if clauses is None:
        return None
    return [cl for cl in clauses if not any((idx, not pol) in cl for idx, pol in cl)]


# Built from the node classes, not conj/disj, so constants inside AND/OR,
# one-operand nodes and double negations all occur.
_raw_leaves = st.sampled_from(
    [DefinedAtom(n) for n in "ABC"] + [OpaqueAtom("X > 1"), BoolConst(True), BoolConst(False)]
)


def _raw_nodes(children):
    operands = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(st.builds(Not, children), st.builds(And, operands), st.builds(Or, operands))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.recursive(_raw_leaves, _raw_nodes, max_leaves=10), min_size=1, max_size=3))
def test_one_walk_encoding_equals_the_nnf_reference(conds):
    got_table, want_table = AtomTable(), AtomTable()
    got_fresh, want_fresh = itertools.count(-1, -1), itertools.count(-1, -1)
    for cond in conds:
        assert _cnf_clauses(cond, got_table, got_fresh) == _reference_cnf_clauses(cond, want_table, want_fresh)
    assert next(got_fresh) == next(want_fresh)
    assert table_keys(got_table) == table_keys(want_table)


# --- backtracking undoes the failed branch ------------------------------------


def test_a_failed_branch_leaves_no_assignment_behind():
    # The first branch (the left disjunct) sets M5 by a unit, then fails on
    # M4. Nothing in the branch that succeeds settles M5 or M2, so both are
    # free and disabled.
    out = solve([parse_expression(
        "defined(M5) && !defined(M2) && !defined(M4) && defined(M4) && !defined(M6) || "
        "(defined(M2) || !defined(M5) || defined(M1)) && defined(M3) && !defined(M4)"
    )])
    assert isinstance(out, Model)
    assert out.assignment["M5"] is False
    assert out.free_atoms == frozenset({"M2", "M5"})


def _reference_dpll(clauses):
    """``_dpll`` by recursion, each decision working on its own copy of the
    assignment, so a failed value can leave nothing behind: the first unit
    in list order, then every pure literal, then the smallest open index,
    False first."""

    def simplify(cls, idx, val):
        out = []
        for cl in cls:
            if (idx, val) in cl:
                continue
            if (idx, not val) in cl:
                if len(cl) == 1:
                    return None
                cl = cl - {(idx, not val)}
            out.append(cl)
        return out

    def search(cls, assignment):
        while True:
            unit = next((cl for cl in cls if len(cl) == 1), None)
            if unit is None:
                break
            (idx, val), = unit
            assignment[idx] = val
            cls = simplify(cls, idx, val)
            if cls is None:
                return None
        if not cls:
            return assignment
        literals = set().union(*cls)
        pures = {(idx, val) for idx, val in literals if (idx, not val) not in literals}
        assignment.update(pures)
        cls = [cl for cl in cls if cl.isdisjoint(pures)]
        if not cls:
            return assignment
        pick = min(set().union(*cls))[0]
        for val in (False, True):
            nxt = simplify(cls, pick, val)
            if nxt is not None:
                found = search(nxt, {**assignment, pick: val})
                if found is not None:
                    return found
        return None

    return search(list(clauses), {})


def _or_of_ands(rng: random.Random, atoms: list[str]):
    """An OR of two or three conjunctions of literals, as ``_dpll`` meets
    them in guard sets: each disjunct it tries first sets its atoms by unit
    propagation before it can fail."""

    def literal() -> str:
        text = f"defined({rng.choice(atoms)})"
        return f"!{text}" if rng.random() < 0.5 else text

    disjuncts = [" && ".join(literal() for _ in range(rng.randint(1, 5))) for _ in range(rng.randint(2, 3))]
    return parse_expression(" || ".join(f"({d})" for d in disjuncts))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from([_random_formula, _or_of_ands]), st.integers(0, 2**32 - 1))
def test_dpll_equals_the_search_that_copies_its_assignment(formula, seed):
    rng = random.Random(seed)
    atoms = [f"M{i}" for i in range(rng.randint(2, 8))]
    constraints = [formula(rng, atoms) for _ in range(rng.randint(1, 3))]
    table = AtomTable()
    fresh = itertools.count(-1, -1)
    clauses = []
    for cond in constraints:
        encoded = _cnf_clauses(cond, table, fresh)
        if encoded is None:
            return
        clauses += encoded
    assert _dpll(clauses) == _reference_dpll(clauses)
