"""A fixed reference task that measures how fast the machine is right now.

On a shared virtual machine the speed of a core changes by 1.4-1.8x from
one second to the next and drifts further over minutes, so two runs of
the same code can differ by more than a regression worth catching. The
benchmark therefore times this task at intervals during a run and scales
every measured time by ``REFERENCE_S`` over the task's time around it: a
scaled time is the time the work would take on a machine that runs the
task in exactly ``REFERENCE_S``. The task uses no binprov code, so a
change to binprov moves the scaled times as much as the wall times.

The task does, in roughly equal parts, five kinds of work that binprov
requests do: small-integer arithmetic; deep copies of nested lists and
dicts with string joins, tuple keys, sorting and set building; parsing a
JSON document; a young-generation collection over a graph of fresh
containers; and a walk along a scrambled cycle through an 8 MB array. The
last three slow, as the workloads do, when other tenants take the shared
cache or memory bandwidth; a cache-resident task alone misses that.
Automatic collection is off while the task runs, so its time does not
depend on the size of the benchmark's own heap.
"""

from __future__ import annotations

import copy
import gc
import json
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

# Nominal time of one reference task: about its median time on a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest under Python 3.11.
REFERENCE_S = 0.028
# Take a sample before a request once this long has passed since the last.
SAMPLE_EVERY_S = 0.25
CHASE_SLOTS = 1 << 20  # 8-byte slots
CHASE_STEPS = 30_000
GRAPH_NODES = 7_500

_TEMPLATE = [
    {
        "name": f"f{i}",
        "blocks": [("op", j, str(j * i)) for j in range(8)],
        "succ": {j: [j + 1] for j in range(8)},
    }
    for i in range(80)
]
_DOCUMENT = json.dumps([
    {"id": f"f{i:06d}", "blocks": [{"kind": "op", "succ": [j + 1], "calls": ["lib_x"]} for j in range(6)]}
    for i in range(450)
])


def _scrambled_cycle(n: int) -> array:
    """``next[i]`` for one cycle through all ``n`` slots (a power of two) in
    scrambled order: a full-period linear congruential step, built in place
    so that no temporary list raises the peak memory."""
    nxt = array("q", [0]) * n
    for i in range(n):
        nxt[i] = (i * 0x5DEECE66D + 0xB) & (n - 1)
    return nxt


_CYCLE = _scrambled_cycle(CHASE_SLOTS)


def _arithmetic() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def _copying() -> int:
    functions = copy.deepcopy(_TEMPLATE)
    index: dict[tuple, list[str]] = {}
    edges = set()
    for fn in functions:
        key = tuple(sorted(block[2] for block in fn["blocks"]))
        index.setdefault(key, []).append(fn["name"])
        fn["sig"] = "|".join(block[0] + block[2] for block in fn["blocks"])
        for src, dsts in fn["succ"].items():
            edges.add((fn["name"], src, dsts[0]))
    return len(index) + len(edges)


def _parsing() -> int:
    return len(json.loads(_DOCUMENT))


def _collecting() -> int:
    nodes = [[{"k": i}, [i]] for i in range(GRAPH_NODES)]
    for node, successor in zip(nodes, nodes[1:]):
        node.append(successor)
    return gc.collect(1) + len(nodes)


def _chasing() -> int:
    slot = 0
    for _ in range(CHASE_STEPS):
        slot = _CYCLE[slot]
    return slot


def reference_task() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _arithmetic() + _copying() + _parsing() + _collecting() + _chasing()
    finally:
        if enabled:
            gc.enable()


def time_reference() -> float:
    t0 = perf_counter()
    reference_task()
    return perf_counter() - t0


class SpeedProbe:
    """Reference samples taken between measurements, in time order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended

    def sample(self) -> int:
        """Time the reference task now; returns the sample's index."""
        self.samples.append(time_reference())
        self.times.append(perf_counter())
        return len(self.samples) - 1

    def sample_if_due(self) -> int:
        """Sample if ``SAMPLE_EVERY_S`` has passed; returns the index of the
        latest sample."""
        if not self.samples or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, start: float, end: float, before: int) -> float:
        """Factor for a time measured from ``start`` to ``end``, just after
        sample ``before``.

        The reference time is the mean of the samples on either side and of
        every sample within half the measurement's duration of it, so that
        a long measurement is set against the machine's speed over a span
        about as long as itself, not against one instant.
        """
        half = (end - start) / 2
        near = range(bisect_left(self.times, start - half), bisect_right(self.times, end + half))
        chosen = set(near) | {before, before + 1}
        return REFERENCE_S / statistics.fmean(self.samples[k] for k in chosen)
