"""Satisfiability over presence conditions.

Each constraint is turned into clauses by one walk that tracks the polarity
of each subformula (the Plaisted–Greenbaum encoding): an OR disjunct that is
more than one clause is named by a fresh variable, so clause count grows
linearly with formula size. A plain DPLL search decides the clauses, trying
False before True at every decision. Fresh variables are numbered below
every atom, so the search first decides which disjunct holds and only then
touches an atom. The point of this module is a precise contract:

* ``solve`` returns either a total ``Model`` over every atom the solver has
  seen, or an ``Unsatisfiable`` carrying a minimal-by-deletion core. An atom
  no constraint settles is False: no macro is enabled without evidence.
* ``enumerate_models`` brute-forces every assignment, used as the ground
  truth the DPLL answer is checked against in tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

from .conditions import (
    And,
    BoolConst,
    Condition,
    DefinedAtom,
    Not,
    OpaqueAtom,
    Or,
    atom_key,
    atom_keys,
    evaluate,
    to_text,
)
from .errors import AtomLimitError, InvariantError

__all__ = [
    "AtomTable",
    "Model",
    "Unsatisfiable",
    "solve",
    "enumerate_models",
    "ENUMERATION_ATOM_LIMIT",
]

ENUMERATION_ATOM_LIMIT = 20

# Literal = (variable index, polarity): a table atom's index, or a negative
# fresh variable of the encoding. Clause = frozenset of literals.
Literal = tuple[int, bool]
Clause = frozenset[Literal]


class AtomTable:
    """Insertion-ordered bidirectional atom registry.

    Atoms are keyed by their textual identity: a defined(NAME) atom by NAME,
    an opaque atom by its verbatim text. Indices are dense and stable.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._keys: list[str] = []

    def intern(self, key: str) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._keys)
            self._index[key] = idx
            self._keys.append(key)
        return idx

    def key_of(self, index: int) -> str:
        return self._keys[index]

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> list[str]:
        return list(self._keys)

    def add_condition(self, cond: Condition) -> None:
        for key in atom_keys(cond):
            self.intern(key)


@dataclass(frozen=True)
class Model:
    """Total truth assignment over the atom table.

    ``free_atoms`` are atoms no constraint forced either way; they are
    disabled, so the pipeline never enables a macro without evidence.
    """

    assignment: dict[str, bool]
    free_atoms: frozenset[str] = field(default_factory=frozenset)

    def enabled(self) -> set[str]:
        return {k for k, v in self.assignment.items() if v}

    def to_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in sorted(self.assignment.items()))


@dataclass(frozen=True)
class Unsatisfiable:
    """Conflict answer carrying a deletion-minimal subset of the input."""

    core: tuple[Condition, ...]


def _cnf_clauses(cond: Condition, table: AtomTable, fresh: Iterator[int]) -> list[Clause] | None:
    """Plaisted–Greenbaum CNF of a single condition. None means it is false.

    One walk carries each subformula's polarity: ``Not`` flips it, and a
    negated AND is encoded as an OR, a negated OR as an AND. In an OR, a
    disjunct whose CNF is one clause is merged into the OR clause. Any other
    disjunct gets a fresh variable ``x`` from ``fresh``: ``x`` joins the OR
    clause and each clause ``C`` of the disjunct becomes ``¬x ∨ C``. Each
    disjunct is encoded at its own polarity, so ``x`` only has to imply it:
    the clauses are satisfiable exactly when the condition is, and any model
    of them satisfies it. Clause count is linear in formula size, and a
    condition with no OR above an AND gets the same clauses a distributive
    conversion would.
    """

    def walk(c: Condition, negated: bool) -> list[Clause] | None:
        if isinstance(c, BoolConst):
            return [] if c.value != negated else None
        if isinstance(c, (DefinedAtom, OpaqueAtom)):
            return [frozenset({(table.intern(atom_key(c)), not negated)})]
        if isinstance(c, Not):
            return walk(c.operand, not negated)
        if not isinstance(c, (And, Or)):
            raise TypeError(f"not a condition: {c!r}")
        if isinstance(c, And) != negated:
            out: list[Clause] = []
            for op in c.operands:
                sub = walk(op, negated)
                if sub is None:
                    return None
                out.extend(sub)
            return out
        clause: Clause | None = None
        defs: list[Clause] = []
        for op in c.operands:
            sub = walk(op, negated)
            if sub is None:
                continue
            if not sub:
                return []  # one disjunct is trivially true
            if len(sub) == 1:
                lits = sub[0]
            else:
                x = next(fresh)
                lits = frozenset({(x, True)})
                defs.extend(cl | {(x, False)} for cl in sub)
            clause = lits if clause is None else clause | lits
        if clause is None:
            return None  # every disjunct was false
        return [clause, *defs]

    clauses = walk(cond, False)
    if clauses is None:
        return None
    # Drop tautological clauses (contain both polarities of an atom).
    return [cl for cl in clauses if not any((idx, not pol) in cl for idx, pol in cl)]


def _dpll(clauses: list[Clause]) -> dict[int, bool] | None:
    """DPLL search; the assignment it returns satisfies every clause.

    Each step propagates the first unit clause in list order until none is
    left, then assigns every pure literal, then decides the smallest open
    index, False first, so a decided atom is enabled only when False fails.
    Fresh variables have negative indices, so the search picks which
    disjunct holds before it touches a table atom. Open decisions live on an
    explicit trail, not the Python stack, so the search depth is not bounded
    by the recursion limit.
    """
    assignment: dict[int, bool] = {}

    def simplify(cls: list[Clause], idx: int, val: bool) -> list[Clause] | None:
        lit, opposite = (idx, val), (idx, not val)
        out = []
        for cl in cls:
            if lit in cl:
                continue
            if opposite in cl:
                if len(cl) == 1:
                    return None
                cl = cl - {opposite}
            out.append(cl)
        return out

    def propagate(cls: list[Clause]) -> bool | tuple[list[Clause], int]:
        """True if every clause holds, False on a conflict, else the
        remaining clauses and the index to decide next."""
        while True:
            unit = next((cl for cl in cls if len(cl) == 1), None)
            if unit is None:
                break
            (idx, val), = unit
            assignment[idx] = val
            nxt = simplify(cls, idx, val)
            if nxt is None:
                return False  # the frame's undo drops ``idx`` with the rest
            cls = nxt
        if not cls:
            return True
        literals = set().union(*cls)
        pures = {(idx, val) for idx, val in literals if (idx, not val) not in literals}
        if pures:
            assignment.update(pures)
            cls = [cl for cl in cls if cl.isdisjoint(pures)]
            if not cls:
                return True
            literals = set().union(*cls)
        # The smallest open index, as (index, polarity) pairs sort by index.
        return cls, min(literals)[0]

    # One frame per open decision: [clauses, index, values tried so far,
    # size of the assignment when the frame opened], where the values go
    # False, then True. Keys are only ever added on top of the ones a frame
    # saw, so dropping the newest ones back to that size undoes a failed
    # value: its decision, unit propagations and pure literals alike.
    trail: list[list] = []
    step = propagate(list(clauses))
    while step is not True:
        if step is False:
            if not trail:
                return None
            for _ in range(len(assignment) - trail[-1][3]):
                assignment.popitem()
        else:
            trail.append([*step, 0, len(assignment)])
        frame = trail[-1]
        cls, pick, tried, _ = frame
        if tried == 2:
            trail.pop()  # both values failed: so did the parent's choice
            step = False
            continue
        frame[2] = tried + 1
        val = tried == 1
        assignment[pick] = val
        nxt = simplify(cls, pick, val)
        step = False if nxt is None else propagate(nxt)
    return assignment


def _minimize_core(
    constraints: list[Condition], encoded: list[list[Clause] | None]
) -> tuple[Condition, ...]:
    """Single deletion pass: drop each constraint that is not needed for UNSAT."""
    core = list(range(len(constraints)))
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if _sat_status([encoded[n] for n in trial]) is None:
            core = trial
        else:
            i += 1
    return tuple(constraints[n] for n in core)


def _sat_status(encoded: list[list[Clause] | None]) -> dict[int, bool] | None:
    clauses: list[Clause] = []
    for sub in encoded:
        if sub is None:
            return None
        clauses.extend(sub)
    return _dpll(clauses)


def solve(constraints, table: AtomTable | None = None):
    """Decide a constraint set.

    Returns a total Model over every atom in ``table`` (the constraints'
    atoms are interned after the table's own), or an Unsatisfiable with a
    minimal core. Atoms the search leaves open are disabled and listed in
    ``free_atoms``.
    """
    constraints = list(constraints)
    if table is None:
        table = AtomTable()
    for cond in constraints:
        table.add_condition(cond)

    fresh = itertools.count(-1, -1)
    encoded = [_cnf_clauses(cond, table, fresh) for cond in constraints]
    partial = _sat_status(encoded)
    if partial is None:
        return Unsatisfiable(core=_minimize_core(constraints, encoded))

    assignment: dict[str, bool] = {}
    free: set[str] = set()
    for idx in range(len(table)):
        key = table.key_of(idx)
        if idx in partial:
            assignment[key] = partial[idx]
        else:
            assignment[key] = False
            free.add(key)

    # Soundness gate: a model that fails its own constraints is a solver bug.
    for cond in constraints:
        if not evaluate(cond, assignment):
            raise InvariantError(f"model violates constraint {to_text(cond)!r}")
    return Model(assignment=assignment, free_atoms=frozenset(free))


def enumerate_models(constraints, table: AtomTable | None = None, limit: int | None = None):
    """All satisfying assignments by brute force, in lexicographic order
    (False < True, atoms in table order). Guarding oracle for ``solve``."""
    constraints = list(constraints)
    if table is None:
        table = AtomTable()
    for cond in constraints:
        table.add_condition(cond)
    keys = table.keys()
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
