"""Bench-only generator of stripped model pairs with a known function
correspondence, in the style of the acceptance suite's random programs.

The left model has ``n`` functions with random blocks, key instructions,
library calls and internal call edges. The right model is an edited copy:
ids permuted, about 5% of functions deleted, about 5% added, and about 10%
edited (one extra constant or string in one block).

The generator keeps the correspondence recoverable by construction, so any
mismatch is a matcher result rather than an ambiguity in the input:

* every function body has a block-kind signature that no other body in
  either model has (an unedited copy shares it with its original only);
* edited and added functions carry a library call no other function
  makes, so their call neighbourhood is unique on both sides;
* only functions without internal callers are deleted, so no surviving
  function loses a call.

Models are written as compact JSON documents in the model-file schema;
this module does not import binprov.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

KINDS = ("cmp", "call", "str", "const")
MAX_BLOCKS = 8
MAX_KEYINS = 5


@dataclass
class ModelPair:
    size: int
    left_json: str
    right_json: str
    pairs: dict[str, str]  # left id -> right id
    left_only: list[str]
    right_only: list[str]


def _signature(body) -> tuple:
    return tuple(sorted(tuple(sorted(k for k, _ in keyins)) for keyins, _ in body))


def _claim(body: list, used: set) -> bool:
    """Reserve the body's signature; False if another body already has it."""
    sig = _signature(body)
    if sig in used:
        return False
    used.add(sig)
    return True


def _with(body: list, block: int, keyin: tuple) -> list:
    return [(keyins + [keyin] if i == block else list(keyins), succs)
            for i, (keyins, succs) in enumerate(body)]


def _random_body(rng: random.Random, n: int, lib_pool: int, used: set,
                 anchor: tuple | None = None) -> list:
    """Blocks as (keyins, succ indices); an internal call is ("call", int)."""
    while True:
        nb = rng.randint(1, MAX_BLOCKS)
        body = []
        for _ in range(nb):
            keyins = []
            for _ in range(rng.randint(0, MAX_KEYINS)):
                kind = rng.choice(KINDS)
                if kind == "call":
                    if rng.random() < 0.5:
                        keyins.append((kind, rng.randrange(n)))
                    else:
                        keyins.append((kind, f"lib_{rng.randrange(lib_pool)}"))
                elif kind == "str":
                    keyins.append((kind, f"s{rng.randrange(1_000_000)}"))
                elif kind == "const":
                    keyins.append((kind, str(rng.randrange(10_000))))
                else:
                    keyins.append((kind, None))
            succs = sorted({rng.randrange(nb) for _ in range(rng.randint(0, 2))})
            body.append((keyins, succs))
        if anchor is not None:
            body = _with(body, 0, anchor)
        if _claim(body, used):
            return body


def _doc(name: str, ids: list[str], bodies: list, target_id: dict[int, str]) -> str:
    functions = []
    for fid, body in zip(ids, bodies):
        blocks = []
        for b, (keyins, succs) in enumerate(body):
            kdocs = []
            for kind, operand in keyins:
                if isinstance(operand, int):
                    # Only added functions can name a deleted callee; it
                    # becomes a library call, which keeps the block kinds.
                    target = target_id.get(operand)
                    operand = "lib_gone" if target is None else "?" + target
                kdocs.append({"kind": kind} if operand is None else {"kind": kind, "operand": operand})
            blocks.append({"id": f"b{b}", "keyins": kdocs, "succs": [f"b{s}" for s in succs]})
        functions.append({"id": fid, "entry": "b0", "blocks": blocks})
    doc = {"name": name, "stripped": True, "functions": functions}
    return json.dumps(doc, separators=(",", ":"))


def make_pair(seed: int, n: int) -> ModelPair:
    rng = random.Random(f"perfbench-diff:{seed}:{n}")
    lib_pool = max(8, n // 2)
    used: set = set()
    bodies = [_random_body(rng, n, lib_pool, used) for _ in range(n)]

    called = {op for body in bodies for keyins, _ in body for _, op in keyins
              if isinstance(op, int)}
    roots = [i for i in range(n) if i not in called]
    deleted = set(rng.sample(roots, min(len(roots), n // 20)))
    kept = [i for i in range(n) if i not in deleted]

    right_bodies: dict[int, list] = {}
    for i in rng.sample(kept, len(kept) // 10):
        # The anchor sits on both sides, so the neighbourhoods still agree.
        anchored = _with(bodies[i], 0, ("call", f"lib_edit_{i}"))
        if not _claim(anchored, used):
            continue
        for _ in range(8):
            extra = ("const", "4242") if rng.random() < 0.5 else ("str", "edited")
            edited = _with(anchored, rng.randrange(len(anchored)), extra)
            if _claim(edited, used):
                bodies[i] = anchored
                right_bodies[i] = edited
                break
    added = [
        _random_body(rng, n, lib_pool, used, anchor=("call", f"lib_new_{j}"))
        for j in range(n // 20)
    ]

    left_ids = {i: f"f{i:05d}" for i in range(n)}
    order = kept + [n + j for j in range(len(added))]
    slots = list(range(len(order)))
    rng.shuffle(slots)
    right_ids = {src: f"f{slot:05d}" for src, slot in zip(order, slots)}
    right_targets = {i: right_ids[i] for i in kept}

    left_json = _doc(f"left-{seed}-{n}", [left_ids[i] for i in range(n)], bodies, left_ids)
    right_list = [right_bodies.get(i, bodies[i]) for i in kept] + added
    right_json = _doc(
        f"right-{seed}-{n}", [right_ids[src] for src in order], right_list, right_targets
    )
    return ModelPair(
        size=n,
        left_json=left_json,
        right_json=right_json,
        pairs={left_ids[i]: right_ids[i] for i in kept},
        left_only=sorted(left_ids[i] for i in deleted),
        right_only=sorted(right_ids[n + j] for j in range(len(added))),
    )
