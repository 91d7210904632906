"""End-to-end orchestration: from a crash-report model and a source tree to
a rebuilt binary with inferred build options and configuration flags.

``run_case`` executes the stages in order: ingest (the caller provides the
parsed crash model), option inference, then the configuration stage at the
inferred options: diffing against a build there, constraint derivation and
solving, and a final rebuild that is verified structurally. Option probes
and that first diff compile every unit with no macros, as ``infer-options``
and ``matrix`` do; base units shape only the refinement candidates and the
final rebuild.
``infer_config`` runs only the configuration stage, at given options; the
CLI's ``infer-config`` prints its report. Every outcome is a report; errors
during a stage degrade the verdict instead of aborting.

``similarity_matrix`` and ``check_matrix_orderings`` implement the option
landscape study: the full cross-comparison grid over all fifty build specs
and the fifteen ordering checks the grid is expected to satisfy (optimized
levels isolate O0; same compiler binds tighter than cross compiler; version
distance is monotone; neighboring levels sit closer, with Os closest to O2;
plus the diagonal/symmetry sanity check). Each slack check reports the worst
gap of one stream of comparisons, with the detail of that one comparison.
"""

from __future__ import annotations

import gc
import itertools
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
from .conditions import evaluate, to_text
from .corpusgen import GeneratedCase
from .errors import BinprovError, ConfigError, MapGapError
from .matcher import (
    ConstraintReport,
    FragmentDecision,
    Presence,
    decide_fragment,
    derive_constraints,
)
from .optinfer import InferenceTrace, infer_options
from .simdiff import (
    ProgramIndex,
    _match,
    _Pairing,
    _similarities,
    _symbol_pairing,
    _symbol_table,
    diff_programs,
    index_program,
    similarity,
)
# ``compare_programs`` is not called here, but stays a module attribute:
# perfbench's tracer rebinds ``pipeline.compare_programs`` by name.
from .simdiff import compare_programs  # noqa: F401
from .solver import AtomTable, Model, Unsatisfiable, solve
from .varsource import ConfigMap, SourceTree, resolve_flags, scan_tree

__all__ = [
    "Verification",
    "CaseReport",
    "infer_config",
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


MAX_FREE_ATOM_REFINE = 4
DEFAULT_THRESHOLD = 0.85
# Slack each ordering check of ``check_matrix_orderings`` must reach.
DEFAULT_MARGIN = 0.01


def _base_units(tree: SourceTree, config_map: ConfigMap) -> tuple[str, ...]:
    """Units no flag pulls in: compiled in every configuration."""
    optional = set(_optional_units(config_map))
    return tuple(sorted(u.name for u in tree.units if u.name not in optional))


def _config_for_model(
    config_map: ConfigMap, base_units, present_units: set[str], model: Model
) -> tuple[tuple[str, ...], ConfigAssignment]:
    flags = resolve_flags(config_map, model.enabled(), present_units)
    return tuple(flags), ConfigAssignment.for_flags(config_map, flags, base_units)


def _refine_free_atoms(
    backend,
    crash_index: ProgramIndex,
    config_map: ConfigMap,
    spec,
    base_units,
    present_units: set[str],
    model: Model,
) -> Model:
    """Settle solver-free atoms by rebuilding each candidate assignment and
    keeping the one structurally closest to the crash. Conflict dropping can
    leave an atom unconstrained even though the binary clearly prefers one
    side; the rebuild comparison is the evidence that remains. A tie keeps
    the candidate with the fewest enabled atoms."""
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
            index = backend.index(spec, config)
        except BinprovError:
            continue
        sim = similarity(index, crash_index)
        key = (sim, -sum(bits))
        if best is None or key > best[0]:
            best = (key, candidate)
    return model if best is None else best[1]


def _configure(
    report: CaseReport, crash: BinaryProgram, crash_index: ProgramIndex, tree: SourceTree,
    config_map: ConfigMap, backend, base_units: tuple[str, ...], threshold: float,
) -> CaseReport:
    """The configuration stage at ``report.decided_options``: diff a build
    of every unit, with no macros, against the crash, derive and solve
    constraints, decide optional units, refine free atoms, rebuild and
    verify. Fills in ``report`` and returns it."""
    spec = report.decided_options
    try:
        diff = diff_programs(backend.index(spec, ConfigAssignment()), crash_index)

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

        # An optional unit is present when its root fragment, which
        # scan_unit puts first, is. A unit the tree lacks is not decided.
        whole = constraint_report.whole_index
        roots = {
            unit: decide_fragment(scans[unit].fragments[0], whole, "binary")
            for unit in _optional_units(config_map) if unit in scans
        }
        report.decisions += tuple(roots.values())
        report.present_units = tuple(u for u, d in roots.items() if d.presence is Presence.PRESENT)
        present_units = set(report.present_units)

        # Atoms of conflict-dropped evidence stay in the model, free to refine.
        table = AtomTable()
        for cond in (*constraint_report.constraints, *constraint_report.dropped):
            table.add_condition(cond)
        outcome = solve(constraint_report.constraints, table)
        report.t_extract_seconds = time.perf_counter() - t0
        if isinstance(outcome, Unsatisfiable):
            core = "; ".join(to_text(c) for c in outcome.core)
            report.reason = f"constraints unsatisfiable: {core}"
            return report
        outcome = _refine_free_atoms(
            backend, crash_index, config_map, spec, base_units, present_units, outcome
        )
        report.model = outcome

        try:
            flags, final_config = _config_for_model(
                config_map, base_units, present_units, outcome
            )
        except MapGapError as exc:
            report.reason = f"configuration map gap: {exc}"
            return report
        report.decided_configs = flags

        report.similarity = similarity(backend.index(spec, final_config), crash_index)

        env = final_config.macro_env()
        holds = all(evaluate(c, env) for c in constraint_report.constraints)
        if not holds:
            report.verification = Verification.LOW_CONFIDENCE
            report.reason = "a derived constraint fails under the decided configuration"
        elif report.similarity >= threshold:
            report.verification = Verification.REPRODUCED_STRUCTURALLY
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


def infer_config(
    crash: BinaryProgram,
    tree: SourceTree,
    config_map: ConfigMap,
    backend,
    spec: BuildSpec,
) -> CaseReport:
    """Run only the configuration stage, at known build options. Base units
    are the units no flag of ``config_map`` pulls in."""
    report = CaseReport(name=crash.name, verification=Verification.FAILED, decided_options=spec)
    base_units = _base_units(tree, config_map)
    return _configure(
        report, crash, index_program(crash), tree, config_map, backend, base_units, DEFAULT_THRESHOLD
    )


def run_case(
    crash: BinaryProgram,
    tree: SourceTree,
    config_map: ConfigMap,
    backend=None,
    *,
    name: str | None = None,
    base_units: tuple[str, ...] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    budget: int | None = None,
) -> CaseReport:
    """Run the full reproduction pipeline for one crash model: the option
    stage, then the configuration stage at the inferred options. The
    cyclic collector is off throughout, one burst as ``binmodel``
    describes."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _run_case(crash, tree, config_map, backend, name, base_units, threshold, budget)
    finally:
        if was_on:
            gc.enable()


def _run_case(
    crash: BinaryProgram,
    tree: SourceTree,
    config_map: ConfigMap,
    backend,
    name: str | None,
    base_units: tuple[str, ...] | None,
    threshold: float,
    budget: int | None,
) -> CaseReport:
    name = name or crash.name
    if backend is None:
        backend = SimulatedToolchain(tree, base_name=name)
    if base_units is None:
        base_units = _base_units(tree, config_map)
    report = CaseReport(name=name, verification=Verification.FAILED)
    # One index of the crash serves option inference, the diff, the
    # refinement and the final similarity. Builds are read through
    # ``backend.index``, so a build the backend hands out again (the probe
    # at the inferred options, a refinement candidate rebuilt at the end) is
    # indexed once.
    crash_index = index_program(crash)
    try:
        trace = infer_options(backend, crash_index, budget=budget)
    except BinprovError as exc:
        report.reason = str(exc)
        return report
    report.option_trace = trace
    report.decided_options = trace.inferred
    return _configure(
        report, crash, crash_index, tree, config_map, backend, base_units, threshold
    )


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
    pair, in the order of ``specs`` (all fifty by default).

    Each unordered pair is matched once and fills both of its cells; the
    diagonal is computed like any other cell. The builds of one base share
    most of their facts, and the grid computes each shared one once:

    - Pass 1 of the matcher reads only the two symbol tables, so it runs
      once per ordered pair of distinct tables. Where it leaves a side fully
      paired, the match ends there, and every build pair with those tables
      takes that pairing. Any other pair is matched on its own.
    - A function pair's fraction depends only on the two signatures, so one
      memo for the whole grid scores each distinct signature pair once.
    - A pairing whose pairs come in the same order on both sides gives both
      cells from one sum."""
    specs = list(specs) if specs is not None else all_option_specs()
    indexes = [backend.index(s, config) for s in specs]
    n = len(indexes)
    grid = [[0.0] * n for _ in range(n)]
    # Each distinct signature gets a small int, the key of the fraction memo;
    # ``classes[i][k]`` is the class of function number ``k`` of build ``i``.
    ids_of: dict[tuple, int] = {}
    classes = [[ids_of.setdefault(sig, len(ids_of)) for sig in ix.signatures] for ix in indexes]
    fractions: dict[tuple[int, int], float] = {}
    # Each distinct symbol table gets a small int; ``symbol_pairings`` maps
    # an ordered pair of them to pass 1's pairing, None where it is partial.
    table_ids: dict[tuple, int] = {}
    tables = [table_ids.setdefault(_symbol_table(ix), len(table_ids)) for ix in indexes]
    symbol_pairings: dict[tuple[int, int], _Pairing | None] = {}
    for i, ia in enumerate(indexes):
        row = grid[i]
        for j in range(i, n):
            ib = indexes[j]
            key = (tables[i], tables[j])
            if key not in symbol_pairings:
                symbol_pairings[key] = _symbol_pairing(ia, ib)
            pairing = symbol_pairings[key] or _Pairing.of(*_match(ia, ib))
            row[j], grid[j][i] = _similarities(ia, ib, pairing, fractions, classes[i], classes[j])
    return grid


@dataclass
class OrderingResult:
    name: str
    ok: bool
    margin: float | None  # None for exactness checks with no slack notion
    detail: str = ""


def _specs_for(grid: list[list[float]], specs: list[BuildSpec] | None) -> list[BuildSpec]:
    """``specs`` as a list, all fifty by default. ``ConfigError`` for an
    empty list, a spec listed twice, or a ``grid`` not ``len(specs)``
    square."""
    specs = list(specs) if specs is not None else all_option_specs()
    if not specs:
        raise ConfigError("no specs to lay the grid out by")
    if len(set(specs)) < len(specs):
        twice = next(s for i, s in enumerate(specs) if s in specs[:i])
        raise ConfigError(f"spec {twice.text()} listed twice")
    if {len(grid)} | {len(row) for row in grid} != {len(specs)}:
        cells = sorted({len(row) for row in grid})
        raise ConfigError(f"grid has {len(grid)} rows of {cells} cells for {len(specs)} specs")
    return specs


def _worst(comparisons) -> tuple[float, tuple | None]:
    """The first smallest value below 1.0 in ``comparisons``, a stream of
    ``(value, fields)``, with its fields; ``(1.0, None)`` if none is below.
    Every worst gap of ``check_matrix_orderings`` is read by this rule."""
    worst, fields = 1.0, None
    for value, at_value in comparisons:
        if value < worst:
            worst, fields = value, at_value
    return worst, fields


def check_matrix_orderings(
    grid: list[list[float]],
    specs: list[BuildSpec] | None = None,
    margin: float = DEFAULT_MARGIN,
) -> list[OrderingResult]:
    """The fifteen ordering checks a well-behaved option landscape must pass.

    Most checks are the worst gap of one stream of comparisons: its first
    smallest slack below 1.0, with the detail of that comparison alone
    (margin 1.0 and no detail if none is below). ``same-compiler-*`` sets
    one minimum against one maximum; ``diagonal-and-symmetry`` is exact.
    ``ok`` means the slack meets the requested margin. ``ConfigError``
    names a point of the option space that ``specs`` miss or list twice, or
    rejects an empty ``specs`` or a ``grid`` not ``len(specs)`` square.
    """
    specs = _specs_for(grid, specs)
    at = {(s.compiler, s.version, s.level): i for i, s in enumerate(specs)}
    missing = [s.text() for s in all_option_specs() if (s.compiler, s.version, s.level) not in at]
    if missing:
        raise ConfigError(f"specs do not cover {', '.join(missing)}")
    # pos[comp][k][lv]: grid position of comp's k-th version at level lv, so
    # the streams below index rows and cells instead of hashing specs.
    pos = {c: [{lv: at[c, v, lv] for lv in LEVELS} for v in VERSIONS[c]] for c in COMPILERS}
    results: list[OrderingResult] = []

    def check(name, gaps, fields, detail) -> None:
        worst, at_worst = _worst(zip(gaps, fields))
        text = "" if at_worst is None else detail(*at_worst)
        results.append(OrderingResult(name, worst >= margin, worst, text))

    def row_check(name, triples, detail) -> None:
        """Gaps ``row[near] - row[far]`` over (row, near, far) positions;
        ``detail`` takes the three specs and the two cells."""
        gaps = [grid[i][j] - grid[i][k] for i, j, k in triples]
        check(name, gaps, triples, lambda i, j, k: detail(specs[i], specs[j], specs[k], grid[i][j], grid[i][k]))

    opt = [at[s.compiler, s.version, s.level] for s in specs if s.level != "O0"]
    min_opt, pair = _worst((grid[i][j], (i, j)) for k, i in enumerate(opt) for j in opt[k + 1:])
    min_opt_pair = " vs ".join(specs[i].text() for i in pair or ())
    for comp in COMPILERS:
        cells = [(p["O0"], j) for p in pos[comp] for j in opt]
        check(f"o0-isolation-{comp}", [min_opt - grid[i][j] for i, j in cells], cells, lambda i, j: (
            f"min opt pair {min_opt_pair} ({min_opt:.4f}) vs {specs[i].text()}~{specs[j].text()} ({grid[i][j]:.4f})"
        ))
    for comp in COMPILERS:
        p = pos[comp]
        row_check(
            f"level-affinity-{comp}",
            [(pi[la], pj[la], pj[lb]) for pi in p for pj in p for la in LEVELS for lb in LEVELS if lb != la],
            lambda r, n, f, a, b: f"{r.text()}: same-level {n.version} {a:.4f} vs {n.version}-{f.level} {b:.4f}",
        )
    for comp in COMPILERS:
        p, ks = pos[comp], range(len(pos[comp]))
        theta = [version_theta(specs[q["O0"]]) for q in p]
        d = [[abs(ti - tj) for tj in theta] for ti in theta]
        row_check(
            f"version-monotonic-{comp}",
            [(p[i][lv], p[j][lv], p[k][lv]) for lv in LEVELS for i in ks for j in ks for k in ks if d[i][j] < d[i][k]],
            lambda r, n, f, a, b: f"{r.compiler}-{r.level}: {r.version}~{n.version} {a:.4f} vs {r.version}~{f.version} {b:.4f}",
        )

    for lv in LEVELS:
        same = [grid[p[k][lv]][q[lv]] for p in pos.values() for k in range(len(p)) for q in p[k + 1:]]
        # Each pair reads the rows of its earlier compiler: cells are symmetric
        # only to 1e-9, so the other side could move the reported slack.
        cross = [grid[a[lv]][b[lv]] for ca, cb in itertools.combinations(COMPILERS, 2) for a in pos[ca] for b in pos[cb]]
        same_min, cross_max = min([1.0, *same]), max([0.0, *cross])
        worst = same_min - cross_max
        detail = f"min same {same_min:.4f} vs max cross {cross_max:.4f}"
        results.append(OrderingResult(f"same-compiler-{lv}", worst >= margin, worst, detail))

    for anchor, closer, farther, name in (
        ("Os", "O2", ("O0", "O1", "O3"), "os-closest-to-o2"),
        ("O1", "O2", ("O3",), "o1-closer-to-o2-than-o3"),
        ("O3", "O2", ("O1",), "o3-closer-to-o2-than-o1"),
    ):
        row_check(
            name,
            [(p[anchor], p[closer], p[lb]) for c in COMPILERS for p in pos[c] for lb in farther],
            lambda r, n, f, a, b: f"{r.compiler}-{r.version}: {r.level}~{n.level} {a:.4f} vs {r.level}~{f.level} {b:.4f}",
        )

    n = len(specs)
    diag_dev = max(abs(grid[i][i] - 1.0) for i in range(n))
    sym_dev = max(abs(grid[i][j] - grid[j][i]) for i in range(n) for j in range(i + 1, n))
    detail = f"diagonal deviation {diag_dev:.2e}, symmetry deviation {sym_dev:.2e}"
    results.append(OrderingResult("diagonal-and-symmetry", diag_dev == 0.0 and sym_dev <= 1e-9, None, detail))
    return results


def matrix_to_text(grid: list[list[float]], specs: list[BuildSpec] | None = None) -> str:
    """Compact heat table: one row per spec, two-digit percentages.
    ``ConfigError`` for an empty spec list, a spec listed twice, or a grid
    not square in it."""
    specs = _specs_for(grid, specs)
    width = max(len(s.text()) for s in specs)
    rows = (" ".join(f"{int(round(v * 100)):3d}" for v in row) for row in grid)
    return "".join(f"{s.text():<{width}} {cells}\n" for s, cells in zip(specs, rows))
