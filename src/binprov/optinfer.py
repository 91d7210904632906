"""Compilation-option inference by similarity-guided rebuilding.

Given the crash-report binary and a build oracle, the search walks the
option space in four stages instead of trying all fifty combinations:

1. build the default compiler at its default version at O0 and at O2;
   the binary is unoptimized exactly when the O0 probe scores higher,
2. build the other compiler at the same proxy level (O0 if stage 1 said
   unoptimized, O2 otherwise) and keep whichever compiler scores higher,
3. unless stage 1 settled on O0, probe the remaining levels O1, O3 and Os
   with the chosen compiler and take the level with the best score (the O2
   score is already known from stages 1-2),
4. refine the version along the distance ladder: probe the upper neighbor
   of the default; if it scores worse, probe the lower end and keep the
   better of those two; if it scores better, probe the top of the ladder
   and pick the far, middle or near candidate by comparing against the
   probes already taken. Two probes decide among all five versions because
   the ladder spacing is convex.

Scores for already-built option points are reused, never recounted, so the
probe count is 5 for unoptimized binaries and 8 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binmodel import BinaryProgram
from .buildoracle import (
    DEFAULT_COMPILER,
    LEVELS,
    VERSIONS,
    BuildSpec,
    ConfigAssignment,
    default_spec,
)
from .errors import BudgetExceededError
# ``compare_programs`` is not called here, but stays a module attribute:
# perfbench's tracer rebinds ``optinfer.compare_programs`` by name.
from .simdiff import compare_programs, index_program, similarity  # noqa: F401

__all__ = ["Probe", "InferenceTrace", "infer_options"]


@dataclass(frozen=True)
class Probe:
    spec: BuildSpec
    score: float
    step: int
    cached: bool


@dataclass
class InferenceTrace:
    inferred: BuildSpec
    probes: list[Probe] = field(default_factory=list)

    @property
    def t_infer(self) -> int:
        """Number of distinct option points actually built and compared."""
        return sum(1 for p in self.probes if not p.cached)

    def score_of(self, spec: BuildSpec) -> float:
        for p in self.probes:
            if p.spec == spec:
                return p.score
        raise KeyError(spec.text())


class _Prober:
    def __init__(self, backend, crash, config, budget):
        self.backend = backend
        self.crash = index_program(crash)
        self.config = config
        self.budget = budget
        self.scores: dict[BuildSpec, float] = {}
        self.probes: list[Probe] = []

    def score(self, spec: BuildSpec, step: int) -> float:
        if spec in self.scores:
            self.probes.append(Probe(spec=spec, score=self.scores[spec], step=step, cached=True))
            return self.scores[spec]
        novel = sum(1 for p in self.probes if not p.cached)
        if self.budget is not None and novel >= self.budget:
            raise BudgetExceededError(
                f"probe budget {self.budget} exhausted before trying {spec.text()}"
            )
        generated = self.backend.build(spec, self.config)
        value = similarity(index_program(generated), self.crash)
        self.scores[spec] = value
        self.probes.append(Probe(spec=spec, score=value, step=step, cached=False))
        return value


def infer_options(
    backend,
    crash: BinaryProgram,
    config: ConfigAssignment | None = None,
    budget: int | None = None,
) -> InferenceTrace:
    """Infer (compiler, version, level) for a crash-report binary.

    ``budget`` caps the number of fresh builds; past it the search raises
    ``BudgetExceededError``.
    """
    config = config or ConfigAssignment()
    prober = _Prober(backend, crash, config, budget)

    # Stage 1: unoptimized or not, using the default compiler.
    first = DEFAULT_COMPILER
    s_o0 = prober.score(default_spec(first, "O0"), step=1)
    s_o2 = prober.score(default_spec(first, "O2"), step=1)
    hidden_o0 = s_o0 > s_o2
    proxy = "O0" if hidden_o0 else "O2"
    first_score = s_o0 if hidden_o0 else s_o2

    # Stage 2: which compiler.
    other = next(c for c in ("gcc", "clang") if c != first)
    other_score = prober.score(default_spec(other, proxy), step=2)
    if other_score > first_score:
        compiler = other
    else:
        compiler = first

    # Stage 3: which level.
    if hidden_o0:
        level = "O0"
    else:
        candidates = {"O2": prober.score(default_spec(compiler, "O2"), step=3)}
        for lv in ("O1", "O3", "Os"):
            candidates[lv] = prober.score(default_spec(compiler, lv), step=3)
        level = max(sorted(candidates, key=LEVELS.index), key=lambda lv: candidates[lv])

    # Stage 4: which version.
    version = VERSIONS[compiler][_bracket_version(prober, compiler, level)]
    return InferenceTrace(inferred=BuildSpec(compiler, version, level), probes=prober.probes)


def _bracket_version(prober: _Prober, compiler: str, level: str) -> int:
    """Two-probe version refinement around the ladder.

    Relies on the default sitting at index 1 of five and on the convex
    ladder spacing; under those, comparing the default, its upper neighbor
    and the ladder top separates all five version hypotheses.
    """

    def score_at(i: int) -> float:
        return prober.score(BuildSpec(compiler, VERSIONS[compiler][i], level), step=4)

    s1 = score_at(1)  # cached: every path here has already built the default
    s2 = score_at(2)
    if s2 < s1:
        s0 = score_at(0)
        return 0 if s0 > s1 else 1
    s4 = score_at(4)
    if s4 > s2:
        return 4
    if s4 > s1:
        return 3
    return 2
