"""Bench-side preprocessor guards: generation, text form, parsing and
evaluation.

The `solve` workload checks the solver against answers computed here, so
nothing in this module imports binprov. A guard is a tuple tree:
("atom", NAME), ("not", g), ("and", (g, ...)) or ("or", (g, ...)).
"""

from __future__ import annotations

import itertools
import random
import re

# Brute-force truth tables are built only up to this many atoms; wider sets
# take their answer from construction instead.
TRUTH_TABLE_ATOMS = 16


def atom(name: str) -> tuple:
    return ("atom", name)


def text_of(guard: tuple) -> str:
    kind = guard[0]
    if kind == "atom":
        return f"defined({guard[1]})"
    if kind == "not":
        inner = text_of(guard[1])
        return f"!{inner}" if guard[1][0] == "atom" else f"!({inner})"
    joiner = " && " if kind == "and" else " || "
    return "(" + joiner.join(text_of(g) for g in guard[1]) + ")"


def evaluate(guard: tuple, env: dict[str, bool]) -> bool:
    """Truth value under ``env``; atoms missing from it count as undefined."""
    kind = guard[0]
    if kind == "atom":
        return bool(env.get(guard[1], False))
    if kind == "not":
        return not evaluate(guard[1], env)
    if kind == "and":
        return all(evaluate(g, env) for g in guard[1])
    return any(evaluate(g, env) for g in guard[1])


def atoms_of(guards) -> list[str]:
    out: dict[str, None] = {}

    def walk(g: tuple) -> None:
        if g[0] == "atom":
            out.setdefault(g[1], None)
        elif g[0] == "not":
            walk(g[1])
        else:
            for sub in g[1]:
                walk(sub)

    for g in guards:
        walk(g)
    return list(out)


def satisfiable_by_table(guards) -> bool:
    """Exhaustive truth table over the atoms of ``guards``."""
    names = atoms_of(guards)
    if len(names) > TRUTH_TABLE_ATOMS:
        raise ValueError(f"{len(names)} atoms is too many for a truth table")
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(evaluate(g, env) for g in guards):
            return True
    return False


_TOKEN = re.compile(r"\s*(defined|&&|\|\||!|\(|\)|[A-Za-z_][A-Za-z0-9_]*)")


def parse(text: str) -> tuple:
    """Parse the defined()/!/&&/|| subset that corpus constraints use.

    Anything else (comparisons, integers) raises ValueError: such a guard
    has no bench-side answer, and set-up must not silently accept it.
    """
    tokens: list[str] = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot parse guard {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def take(expected: str | None = None) -> str:
        nonlocal i
        tok = tokens[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r} in {text!r}, found {tok!r}")
        i += 1
        return tok

    def parse_or() -> tuple:
        parts = [parse_and()]
        while tokens[i] == "||":
            take()
            parts.append(parse_and())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def parse_and() -> tuple:
        parts = [parse_unary()]
        while tokens[i] == "&&":
            take()
            parts.append(parse_unary())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def parse_unary() -> tuple:
        tok = take()
        if tok == "!":
            return ("not", parse_unary())
        if tok == "(":
            inner = parse_or()
            take(")")
            return inner
        if tok == "defined":
            take("(")
            name = take()
            take(")")
            return atom(name)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return atom(tok)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    guard = parse_or()
    take("")
    return guard


def random_guard(rng: random.Random, names: list[str], depth: int = 3) -> tuple:
    """Random nested guard in the style of the solver acceptance formulas."""
    if depth == 0 or rng.random() < 0.35:
        leaf = atom(rng.choice(names))
        return ("not", leaf) if rng.random() < 0.4 else leaf
    op = rng.choice(("and", "or"))
    return (op, (random_guard(rng, names, depth - 1), random_guard(rng, names, depth - 1)))


def wide_guard(rng: random.Random, k: int, prefix: str) -> tuple:
    """OR of ``k`` two-atom ANDs over 2k distinct atoms: satisfiable, and
    unsatisfiable together with its own negation."""
    names = [f"{prefix}_{i}" for i in range(2 * k)]
    rng.shuffle(names)
    terms = []
    for j in range(k):
        a, b = atom(names[2 * j]), atom(names[2 * j + 1])
        if rng.random() < 0.3:
            b = ("not", b)
        terms.append(("and", (a, b)))
    return ("or", tuple(terms))
