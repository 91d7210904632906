"""End-to-end orchestration: from a crash-report model and a source tree to
a rebuilt binary with inferred build options and configuration flags.

``run_case`` executes the stages in order: ingest (the caller provides the
parsed crash model), option inference, diffing against a build at the
inferred options, configuration constraint derivation and solving, and a
final rebuild that is verified structurally. Every outcome is a report;
errors during a stage degrade the verdict instead of aborting.

``similarity_matrix`` and ``check_matrix_orderings`` implement the option
landscape study: the full cross-comparison grid over all fifty build specs
and the fifteen ordering checks the grid is expected to satisfy (optimized
levels isolate O0; same compiler binds tighter than cross compiler; version
distance is monotone; neighboring levels sit closer, with Os closest to O2;
plus the diagonal/symmetry sanity check).
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from enum import Enum

from .binmodel import BinaryProgram
from .buildoracle import (
    COMPILERS,
    LEVELS,
    VERSIONS,
    BuildSpec,
    ConfigAssignment,
    SimulatedToolchain,
    all_option_specs,
    version_theta,
)
from .conditions import atom_keys, evaluate, to_text
from .corpusgen import GeneratedCase
from .errors import BinprovError, MapGapError
from .matcher import (
    ConstraintReport,
    FragmentDecision,
    PayloadIndex,
    Presence,
    decide_fragment,
    derive_constraints,
)
from .optinfer import InferenceTrace, infer_options
from .simdiff import ProgramIndex, diff_programs, index_program, similarity
# ``compare_programs`` is not called here, but stays a module attribute:
# perfbench's tracer rebinds ``pipeline.compare_programs`` by name.
from .simdiff import compare_programs  # noqa: F401
from .solver import Model, Unsatisfiable, solve
from .varsource import ConfigMap, SourceTree, resolve_flags, scan_tree

l = logging.getLogger(__name__)

__all__ = [
    "Verification",
    "CaseReport",
    "run_case",
    "run_generated_case",
    "run_corpus",
    "similarity_matrix",
    "OrderingResult",
    "check_matrix_orderings",
    "matrix_to_text",
]

NO_SIGNAL = "no structural signal"


class Verification(Enum):
    REPRODUCED_STRUCTURALLY = "ReproducedStructurally"
    LOW_CONFIDENCE = "LowConfidence"
    FAILED = "Failed"


@dataclass
class CaseReport:
    name: str
    verification: Verification
    reason: str = ""
    decided_options: BuildSpec | None = None
    decided_configs: tuple[str, ...] = ()
    option_trace: InferenceTrace | None = None
    t_extract_seconds: float = 0.0
    similarity: float = 0.0
    constraints: tuple[str, ...] = ()
    conflicts: tuple[tuple[str, str], ...] = ()
    decisions: tuple[FragmentDecision, ...] = ()
    present_units: tuple[str, ...] = ()
    model: Model | None = None

    def verdict_text(self) -> str:
        if self.verification is Verification.FAILED:
            return f"Failed({self.reason})"
        return self.verification.value

    def to_text(self) -> str:
        lines = [
            f"case: {self.name}",
            f"verification: {self.verdict_text()}",
            f"options: {self.decided_options.text() if self.decided_options else '-'}",
            f"configs: {','.join(self.decided_configs) if self.decided_configs else '-'}",
            f"similarity: {self.similarity:.4f}",
            f"t_infer: {self.option_trace.t_infer if self.option_trace else 0}",
            f"t_extract_seconds: {self.t_extract_seconds:.4f}",
        ]
        if self.present_units:
            lines.append("present_units: " + ",".join(self.present_units))
        for text in self.constraints:
            lines.append(f"constraint: {text}")
        for a, b in self.conflicts:
            lines.append(f"conflict: {a} <> {b}")
        if self.reason and self.verification is not Verification.FAILED:
            lines.append(f"note: {self.reason}")
        return "\n".join(lines) + "\n"


def _optional_units(config_map: ConfigMap) -> list[str]:
    out: set[str] = set()
    for flag in config_map.flags:
        out.update(flag.units)
    return sorted(out)


def _decide_unit_presence(
    scans, unit: str, whole: PayloadIndex
) -> FragmentDecision | None:
    scan = scans.get(unit)
    if scan is None:
        return None
    root = next((f for f in scan.fragments if f.is_root), None)
    if root is None:
        return None
    return decide_fragment(root, whole, "binary")


MAX_FREE_ATOM_REFINE = 4


def _config_for_model(
    config_map: ConfigMap, base_units, present_units: set[str], model: Model
) -> tuple[tuple[str, ...], ConfigAssignment]:
    flags = resolve_flags(config_map, model.enabled(), present_units)
    units = set(base_units) | config_map.units_for(flags)
    config = ConfigAssignment(
        macros=frozenset(config_map.macros_for(flags)),
        units=tuple(sorted(units)),
    )
    return tuple(flags), config


def _refine_free_atoms(
    backend,
    crash_index: ProgramIndex,
    config_map: ConfigMap,
    spec,
    base_units,
    present_units: set[str],
    model: Model,
    prefer_enabled: bool,
) -> Model:
    """Settle solver-free atoms by rebuilding each candidate assignment and
    keeping the one structurally closest to the crash. Conflict dropping can
    leave an atom unconstrained even though the binary clearly prefers one
    side; the rebuild comparison is the evidence that remains."""
    free = sorted(model.free_atoms)
    if not free or len(free) > MAX_FREE_ATOM_REFINE:
        return model
    best: tuple[tuple[float, int], Model] | None = None
    for bits in itertools.product((False, True), repeat=len(free)):
        assignment = dict(model.assignment)
        assignment.update(zip(free, bits))
        candidate = Model(assignment=assignment, free_atoms=frozenset())
        try:
            _flags, config = _config_for_model(
                config_map, base_units, present_units, candidate
            )
            built = backend.build(spec, config)
        except BinprovError:
            continue
        sim = similarity(index_program(built), crash_index)
        enabled_count = sum(bits)
        key = (sim, enabled_count if prefer_enabled else -enabled_count)
        if best is None or key > best[0]:
            best = (key, candidate)
    return model if best is None else best[1]


def run_case(
    crash: BinaryProgram,
    tree: SourceTree,
    config_map: ConfigMap,
    backend=None,
    *,
    name: str | None = None,
    base_units: tuple[str, ...] | None = None,
    threshold: float = 0.85,
    prefer_enabled: bool = False,
    budget: int | None = None,
) -> CaseReport:
    """Run the full reproduction pipeline for one crash model."""
    name = name or crash.name
    if backend is None:
        backend = SimulatedToolchain(tree, base_name=name)
    if base_units is None:
        optional = set(_optional_units(config_map))
        base_units = tuple(sorted(u.name for u in tree.units if u.name not in optional))
    seed_config = ConfigAssignment(macros=frozenset(), units=base_units)
    report = CaseReport(name=name, verification=Verification.FAILED)

    try:
        trace = infer_options(backend, crash, config=seed_config, budget=budget)
        report.option_trace = trace
        report.decided_options = trace.inferred

        generated = backend.build(trace.inferred, seed_config)
        diff = diff_programs(generated, crash)
        low_confidence_note = ""
        if diff.score < threshold:
            low_confidence_note = (
                f"option-stage similarity {diff.score:.4f} below threshold {threshold:.2f}"
            )
            l.warning("%s: %s; continuing to config inference", name, low_confidence_note)

        t0 = time.perf_counter()
        scans = scan_tree(tree)
        constraint_report = derive_constraints(scans, crash, diff)
        report.decisions = tuple(constraint_report.decisions)
        report.constraints = tuple(to_text(c) for c in constraint_report.constraints)
        report.conflicts = tuple(constraint_report.conflicts)

        if constraint_report.all_unknown():
            report.t_extract_seconds = time.perf_counter() - t0
            report.reason = NO_SIGNAL
            return report

        whole = PayloadIndex.for_program(crash)
        crash_index = index_program(crash)
        present_units: list[str] = []
        for unit in _optional_units(config_map):
            decision = _decide_unit_presence(scans, unit, whole)
            if decision is not None:
                report.decisions += (decision,)
                if decision.presence is Presence.PRESENT:
                    present_units.append(unit)
        report.present_units = tuple(present_units)

        outcome = solve(constraint_report.constraints, prefer_enabled=prefer_enabled)
        report.t_extract_seconds = time.perf_counter() - t0
        if isinstance(outcome, Unsatisfiable):
            core = "; ".join(to_text(c) for c in outcome.core)
            report.reason = f"constraints unsatisfiable: {core}"
            return report
        # Atoms that only occurred in conflict-dropped evidence fell out of
        # the solver's universe entirely; bring them back as free so the
        # rebuild comparison below can settle them.
        orphaned = {
            key
            for cond in constraint_report.dropped
            for key in atom_keys(cond)
            if key not in outcome.assignment
        }
        if orphaned:
            assignment = dict(outcome.assignment)
            for key in sorted(orphaned):
                assignment[key] = prefer_enabled
            outcome = Model(
                assignment=assignment,
                free_atoms=outcome.free_atoms | frozenset(orphaned),
            )

        outcome = _refine_free_atoms(
            backend,
            crash_index,
            config_map,
            trace.inferred,
            base_units,
            set(present_units),
            outcome,
            prefer_enabled,
        )
        report.model = outcome

        try:
            flags, final_config = _config_for_model(
                config_map, base_units, set(present_units), outcome
            )
        except MapGapError as exc:
            report.reason = f"configuration map gap: {exc}"
            return report
        report.decided_configs = tuple(flags)

        rebuilt = backend.build(trace.inferred, final_config)
        report.similarity = similarity(index_program(rebuilt), crash_index)

        env = {m: True for m in final_config.macros}
        holds = all(evaluate(c, env, env) for c in constraint_report.constraints)
        if not holds:
            report.verification = Verification.LOW_CONFIDENCE
            report.reason = "a derived constraint fails under the decided configuration"
        elif report.similarity >= threshold:
            report.verification = Verification.REPRODUCED_STRUCTURALLY
            report.reason = low_confidence_note
        else:
            report.verification = Verification.LOW_CONFIDENCE
            report.reason = (
                f"rebuilt similarity {report.similarity:.4f} below threshold {threshold:.2f}"
            )
        return report
    except BinprovError as exc:
        report.verification = Verification.FAILED
        report.reason = str(exc)
        return report


def run_generated_case(case: GeneratedCase, **kwargs) -> CaseReport:
    return run_case(
        case.crash,
        case.tree,
        case.config_map,
        name=case.name,
        base_units=case.base_units,
        **kwargs,
    )


def run_corpus(cases: list[GeneratedCase], **kwargs) -> list[CaseReport]:
    return [run_generated_case(case, **kwargs) for case in cases]


def similarity_matrix(
    backend, config: ConfigAssignment, specs: list[BuildSpec] | None = None
) -> list[list[float]]:
    """Full cross-comparison grid: Sim(build(a), build(b)) for every spec
    pair, in the order of ``specs`` (all fifty by default)."""
    specs = list(specs) if specs is not None else all_option_specs()
    indexes = [index_program(backend.build(s, config)) for s in specs]
    return [[similarity(ia, ib) for ib in indexes] for ia in indexes]


@dataclass
class OrderingResult:
    name: str
    ok: bool
    margin: float | None  # None for exactness checks with no slack notion
    detail: str = ""


def check_matrix_orderings(
    grid: list[list[float]],
    specs: list[BuildSpec] | None = None,
    margin: float = 0.01,
) -> list[OrderingResult]:
    """The fifteen ordering checks a well-behaved option landscape must pass.

    Each check reports its achieved worst-case slack; ``ok`` means the slack
    meets the requested margin.
    """
    specs = list(specs) if specs is not None else all_option_specs()
    pos = {s: i for i, s in enumerate(specs)}

    def sim(a: BuildSpec, b: BuildSpec) -> float:
        return grid[pos[a]][pos[b]]

    def spec(c: str, v: str, lv: str) -> BuildSpec:
        return BuildSpec(compiler=c, version=v, level=lv)

    results: list[OrderingResult] = []
    opt_levels = [lv for lv in LEVELS if lv != "O0"]
    opt_specs = [s for s in specs if s.level != "O0"]

    min_opt = 1.0
    min_opt_pair = ""
    for i, a in enumerate(opt_specs):
        for b in opt_specs[i + 1:]:
            v = sim(a, b)
            if v < min_opt:
                min_opt, min_opt_pair = v, f"{a.text()} vs {b.text()}"

    for comp in COMPILERS:
        worst = 1.0
        detail = ""
        for v in VERSIONS[comp]:
            a = spec(comp, v, "O0")
            for b in opt_specs:
                s = sim(a, b)
                if min_opt - s < worst:
                    worst = min_opt - s
                    detail = f"min opt pair {min_opt_pair} ({min_opt:.4f}) vs {a.text()}~{b.text()} ({s:.4f})"
        results.append(OrderingResult(f"o0-isolation-{comp}", worst >= margin, worst, detail))

    for comp in COMPILERS:
        worst = 1.0
        detail = ""
        for vi in VERSIONS[comp]:
            for vj in VERSIONS[comp]:
                for la in LEVELS:
                    lhs = sim(spec(comp, vi, la), spec(comp, vj, la))
                    for lb in LEVELS:
                        if lb == la:
                            continue
                        rhs = sim(spec(comp, vi, la), spec(comp, vj, lb))
                        if lhs - rhs < worst:
                            worst = lhs - rhs
                            detail = f"{comp}-{vi}-{la}: same-level {vj} {lhs:.4f} vs {vj}-{lb} {rhs:.4f}"
        results.append(OrderingResult(f"level-affinity-{comp}", worst >= margin, worst, detail))

    for comp in COMPILERS:
        worst = 1.0
        detail = ""
        versions = VERSIONS[comp]
        for lv in LEVELS:
            for vi in versions:
                ti = version_theta(spec(comp, vi, lv))
                for vj in versions:
                    for vk in versions:
                        tj = version_theta(spec(comp, vj, lv))
                        tk = version_theta(spec(comp, vk, lv))
                        if abs(ti - tj) >= abs(ti - tk):
                            continue
                        near = sim(spec(comp, vi, lv), spec(comp, vj, lv))
                        far = sim(spec(comp, vi, lv), spec(comp, vk, lv))
                        if near - far < worst:
                            worst = near - far
                            detail = f"{comp}-{lv}: {vi}~{vj} {near:.4f} vs {vi}~{vk} {far:.4f}"
        results.append(OrderingResult(f"version-monotonic-{comp}", worst >= margin, worst, detail))

    for lv in LEVELS:
        same_min = 1.0
        for comp in COMPILERS:
            versions = VERSIONS[comp]
            for i, vi in enumerate(versions):
                for vj in versions[i + 1:]:
                    same_min = min(same_min, sim(spec(comp, vi, lv), spec(comp, vj, lv)))
        cross_max = 0.0
        for vi in VERSIONS["gcc"]:
            for vj in VERSIONS["clang"]:
                cross_max = max(cross_max, sim(spec("gcc", vi, lv), spec("clang", vj, lv)))
        worst = same_min - cross_max
        results.append(
            OrderingResult(
                f"same-compiler-{lv}",
                worst >= margin,
                worst,
                f"min same {same_min:.4f} vs max cross {cross_max:.4f}",
            )
        )

    def per_version_gap(anchor: str, closer: str, farther: tuple[str, ...], tag: str) -> None:
        worst = 1.0
        detail = ""
        for comp in COMPILERS:
            for v in VERSIONS[comp]:
                base = sim(spec(comp, v, anchor), spec(comp, v, closer))
                for lb in farther:
                    other = sim(spec(comp, v, anchor), spec(comp, v, lb))
                    if base - other < worst:
                        worst = base - other
                        detail = f"{comp}-{v}: {anchor}~{closer} {base:.4f} vs {anchor}~{lb} {other:.4f}"
        results.append(OrderingResult(tag, worst >= margin, worst, detail))

    per_version_gap("Os", "O2", ("O0", "O1", "O3"), "os-closest-to-o2")
    per_version_gap("O1", "O2", ("O3",), "o1-closer-to-o2-than-o3")
    per_version_gap("O3", "O2", ("O1",), "o3-closer-to-o2-than-o1")

    diag_dev = max(abs(grid[i][i] - 1.0) for i in range(len(specs)))
    sym_dev = max(
        abs(grid[i][j] - grid[j][i])
        for i in range(len(specs))
        for j in range(i + 1, len(specs))
    )
    results.append(
        OrderingResult(
            "diagonal-and-symmetry",
            diag_dev == 0.0 and sym_dev <= 1e-9,
            None,
            f"diagonal deviation {diag_dev:.2e}, symmetry deviation {sym_dev:.2e}",
        )
    )
    return results


def matrix_to_text(grid: list[list[float]], specs: list[BuildSpec] | None = None) -> str:
    """Compact heat table: one row per spec, two-digit percentages."""
    specs = list(specs) if specs is not None else all_option_specs()
    width = max(len(s.text()) for s in specs)
    lines = []
    for s, row in zip(specs, grid):
        cells = " ".join(f"{int(round(v * 100)):3d}" for v in row)
        lines.append(f"{s.text():<{width}} {cells}")
    return "\n".join(lines) + "\n"
