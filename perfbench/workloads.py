"""The four benchmark workloads: set-up, one request, and its answer check.

A request is one unit of user work and is the only thing timed. Set-up
makes every input from the seed and computes each known answer without
the code under test where it can (manifests written at generation time,
the diff generator's correspondence, bench-side truth tables). Checks
run after the request, outside its timing.

Every call into binprov that a request makes goes through a module
attribute (``pipeline.run_case``, ``binmodel.ingest_model`` ...), so the
tracer can rebind those names for a traced run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from binprov import binmodel, conditions, corpusgen, pipeline, simdiff, solver
from binprov.buildoracle import SimulatedToolchain, all_option_specs
from binprov.matcher import derive_constraints
from binprov.varsource import scan_tree

import diffgen
import guards

CORPUS_SIZE = 21
CORPUS_SEEDS_PER_RUN = 3
GRID_PROGRAMS = 3
GRID_MARGIN = 0.01
# Model sizes in functions, and how often each comes in a cycle: small
# diffs are the common case, and the median falls in the middle of the
# 300-function requests rather than on the edge between two sizes.
DIFF_MIX = ((100, 6), (300, 10), (1000, 3), (3000, 2), (10000, 1))
SOLVE_POOL = 800
WIDE_K = range(4, 13)
NO_SIGNAL_VERDICT = "Failed(no structural signal)"


@dataclass
class Outcome:
    """What the check of one request found.

    ``problems`` lists every difference from the known answer; each one
    makes the request count as failed. ``broken`` is set when a difference
    breaks an exact guarantee (grid identities and orderings, solver
    answers) rather than lowering a recovery rate (option and flag
    inference, function matching), and turns the run's ``correct`` false.
    """

    record: str
    problems: list[str] = field(default_factory=list)
    broken: bool = False
    fresh_builds: int | None = None
    t_infer: int | None = None
    mismatched: int = 0
    matchable: int = 0


def record_hash(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


class Workload:
    name = ""
    # The timed loop only stops between whole cycles, so every run sees
    # the same mix of inputs.
    cycle = 1
    # The outputs of the first requests form the run's digest.
    digest_requests = 1

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def request(self, state, i: int, toolchain=SimulatedToolchain):
        raise NotImplementedError

    def check(self, state, i: int, output) -> Outcome:
        raise NotImplementedError


# --- corpus -------------------------------------------------------------------


def corpus_seeds(seed: int) -> list[int]:
    return [CORPUS_SEEDS_PER_RUN * seed + k for k in range(1, CORPUS_SEEDS_PER_RUN + 1)]


def report_record(report) -> str:
    """Canonical case report; the measured t_extract_seconds is left out."""
    return json.dumps(
        {
            "name": report.name,
            "verification": report.verdict_text(),
            "decided_options": report.decided_options.text() if report.decided_options else None,
            "decided_configs": list(report.decided_configs),
            "similarity": repr(report.similarity),
            "t_infer": report.option_trace.t_infer if report.option_trace else 0,
            "constraints": list(report.constraints),
            "conflicts": [list(c) for c in report.conflicts],
            "present_units": list(report.present_units),
            "model": report.model.to_text() if report.model else None,
            "reason": report.reason,
        },
        sort_keys=True,
    )


@dataclass
class CorpusState:
    case_dirs: list[Path]
    manifests: list[dict]


class Corpus(Workload):
    name = "corpus"
    digest_requests = CORPUS_SIZE

    def setup(self, seed: int, work: Path) -> CorpusState:
        case_dirs = []
        for cs in corpus_seeds(seed):
            root = work / self.name / f"seed{cs}"
            corpusgen.write_corpus(corpusgen.generate_corpus(cs, CORPUS_SIZE), root)
            case_dirs += sorted(root.glob("case*"))
        random.Random(f"perfbench-corpus:{seed}").shuffle(case_dirs)
        manifests = [json.loads((d / "manifest.json").read_text()) for d in case_dirs]
        return CorpusState(case_dirs, manifests)

    def request(self, state: CorpusState, i: int, toolchain=SimulatedToolchain):
        case = corpusgen.load_case_dir(state.case_dirs[i % len(state.case_dirs)])
        backend = toolchain(case.tree, base_name=case.name)
        report = pipeline.run_case(
            case.crash, case.tree, case.config_map, backend,
            name=case.name, base_units=case.base_units,
        )
        return report, backend.build_count

    def check(self, state: CorpusState, i: int, output) -> Outcome:
        report, fresh = output
        truth = state.manifests[i % len(state.manifests)]
        where = "/".join(state.case_dirs[i % len(state.case_dirs)].parts[-2:])
        out = Outcome(
            record=report_record(report),
            fresh_builds=fresh,
            t_infer=report.option_trace.t_infer if report.option_trace else 0,
        )
        verdict = report.verdict_text()
        if truth["signal_free"]:
            if verdict != NO_SIGNAL_VERDICT:
                out.problems.append(f"{where}: signal-free case ended {verdict}")
            return out
        options = report.decided_options.text() if report.decided_options else None
        if verdict != "ReproducedStructurally":
            out.problems.append(f"{where}: verdict {verdict}")
        if options != truth["hidden"]["spec"]:
            out.problems.append(f"{where}: options {options} != {truth['hidden']['spec']}")
        if sorted(report.decided_configs) != sorted(truth["hidden"]["flags"]):
            out.problems.append(
                f"{where}: flags {sorted(report.decided_configs)} != {sorted(truth['hidden']['flags'])}"
            )
        return out


# --- grid ---------------------------------------------------------------------


class Grid(Workload):
    name = "grid"
    # A request takes seconds, so few run: whole cycles keep every program
    # equally often in each run.
    cycle = GRID_PROGRAMS
    digest_requests = GRID_PROGRAMS

    def setup(self, seed: int, work: Path):
        return [corpusgen.generate_case(seed, k) for k in range(GRID_PROGRAMS)]

    def request(self, state, i: int, toolchain=SimulatedToolchain):
        case = state[i % len(state)]
        backend = toolchain(case.tree, base_name=case.name)
        specs = all_option_specs()
        grid = pipeline.similarity_matrix(backend, case.seed_config(), specs)
        checks = pipeline.check_matrix_orderings(grid, specs, margin=GRID_MARGIN)
        return grid, checks, backend.build_count

    def check(self, state, i: int, output) -> Outcome:
        grid, checks, fresh = output
        name = state[i % len(state)].name
        out = Outcome(
            record=json.dumps(
                {"grid": [[repr(v) for v in row] for row in grid],
                 "checks": [[c.name, c.ok] for c in checks]}
            ),
            fresh_builds=fresh,
        )
        n = len(all_option_specs())
        if len(grid) != n or any(len(row) != n for row in grid):
            out.problems.append(f"{name}: grid is not {n}x{n}")
        else:
            diag = [i for i in range(n) if grid[i][i] != 1.0]
            if diag:
                out.problems.append(f"{name}: diagonal != 1.0 at {diag[:5]}")
            asym = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if abs(grid[a][b] - grid[b][a]) > 1e-9]
            if asym:
                out.problems.append(f"{name}: asymmetric cells {asym[:5]}")
        if len(checks) != 15:
            out.problems.append(f"{name}: {len(checks)} ordering checks, expected 15")
        out.problems += [f"{name}: ordering {c.name} failed ({c.detail})" for c in checks if not c.ok]
        out.broken = bool(out.problems)
        return out


# --- diff ---------------------------------------------------------------------


def diff_schedule() -> list[int]:
    """One cycle of sizes, each size's requests spread evenly through it."""
    slots = [((j + 0.5) / count, size) for size, count in DIFF_MIX for j in range(count)]
    return [size for _, size in sorted(slots)]


class Diff(Workload):
    name = "diff"
    cycle = sum(count for _, count in DIFF_MIX)
    digest_requests = cycle

    def setup(self, seed: int, work: Path):
        # Each slot of a size gets its own generated pair, so the median
        # spans many model shapes rather than one.
        made: dict[int, int] = {}
        pairs = []
        for n in diff_schedule():
            made[n] = made.get(n, -1) + 1
            pairs.append(diffgen.make_pair(100 * seed + made[n], n))
        return pairs

    def request(self, state, i: int, toolchain=SimulatedToolchain):
        pair = state[i % len(state)]
        left = binmodel.ingest_model(pair.left_json)
        right = binmodel.ingest_model(pair.right_json)
        return simdiff.diff_programs(left, right)

    def check(self, state, i: int, output) -> Outcome:
        truth = state[i % len(state)]
        report = output
        out = Outcome(
            record=json.dumps(
                {"score": repr(report.score), "beta": repr(report.beta),
                 "pairs": [[p.left, p.right, repr(p.fraction)] for p in report.pairs],
                 "left_only": report.left_only, "right_only": report.right_only}
            ),
            matchable=len(truth.pairs),
        )
        got = {p.left: p.right for p in report.pairs}
        wrong = sum(1 for lid, rid in got.items() if truth.pairs.get(lid) != rid)
        missing = sum(1 for lid in truth.pairs if lid not in got)
        out.mismatched = sum(1 for lid, rid in truth.pairs.items() if got.get(lid) != rid)
        if wrong or missing:
            out.problems.append(
                f"size {truth.size}: {wrong} wrong pairs, {missing} of "
                f"{len(truth.pairs)} corresponding functions unmatched"
            )
        if report.left_only != truth.left_only or report.right_only != truth.right_only:
            out.problems.append(f"size {truth.size}: unmatched functions differ from the edit")
        return out


# --- solve --------------------------------------------------------------------


@dataclass
class SolveCase:
    family: str  # "corpus", "random", "wide" or "wide-unsat"
    texts: list[str]
    guards: list[tuple]
    satisfiable: bool


def _corpus_constraint_sets(seed: int) -> list[list[str]]:
    """Constraint texts that option-exact builds yield on a corpus."""
    out = []
    for case in corpusgen.generate_corpus(seed, CORPUS_SIZE):
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        built = backend.build(case.hidden_spec, case.seed_config())
        diff = simdiff.diff_programs(built, case.crash)
        report = derive_constraints(scan_tree(case.tree), case.crash, diff)
        if report.constraints:
            out.append([conditions.to_text(c) for c in report.constraints])
    return out


class Solve(Workload):
    name = "solve"
    cycle = SOLVE_POOL
    digest_requests = 100

    def setup(self, seed: int, work: Path) -> list[SolveCase]:
        rng = random.Random(f"perfbench-solve:{seed}")
        corpus_sets = _corpus_constraint_sets(1000 + seed)
        cases: list[SolveCase] = []
        narrow = wide = 0
        for j in range(SOLVE_POOL):
            if j % 4 == 3:
                k = WIDE_K[wide % len(WIDE_K)]
                unsat = (wide // len(WIDE_K)) % 2 == 1
                phi = guards.wide_guard(rng, k, f"W{j}")
                gs = [phi, ("not", phi)] if unsat else [phi]
                cases.append(SolveCase("wide-unsat" if unsat else "wide",
                                       [guards.text_of(g) for g in gs], gs, not unsat))
                wide += 1
                continue
            if narrow % 3 == 0 and corpus_sets:
                texts = corpus_sets[(narrow // 3) % len(corpus_sets)]
                gs = [guards.parse(t) for t in texts]
                family = "corpus"
            else:
                names = [f"M{a}" for a in range(rng.randint(2, 10))]
                gs = [guards.random_guard(rng, names) for _ in range(rng.randint(1, 3))]
                texts = [guards.text_of(g) for g in gs]
                family = "random"
            cases.append(SolveCase(family, texts, gs, guards.satisfiable_by_table(gs)))
            narrow += 1
        return cases

    def request(self, state, i: int, toolchain=SimulatedToolchain):
        case = state[i % len(state)]
        conds = [conditions.parse_expression(t) for t in case.texts]
        return conds, solver.solve(conds)

    def check(self, state, i: int, output) -> Outcome:
        case = state[i % len(state)]
        conds, result = output
        where = f"set {i % len(state)} ({case.family})"
        if isinstance(result, solver.Unsatisfiable):
            index = {id(c): n for n, c in enumerate(conds)}
            core = [index.get(id(c)) for c in result.core]
            out = Outcome(record=json.dumps(["unsat", core]))
            if case.satisfiable:
                out.problems.append(f"{where}: unsatisfiable, expected satisfiable")
            elif None in core:
                out.problems.append(f"{where}: core holds a condition not in the input")
            elif case.family == "wide-unsat":
                if sorted(core) != [0, 1]:
                    out.problems.append(f"{where}: core {core}, expected [0, 1]")
            elif guards.satisfiable_by_table([case.guards[n] for n in core]):
                out.problems.append(f"{where}: core {core} is satisfiable")
        else:
            assignment = dict(result.assignment)
            out = Outcome(record=json.dumps(
                ["sat", sorted(assignment.items()), sorted(result.free_atoms)]))
            if not case.satisfiable:
                out.problems.append(f"{where}: model returned, expected unsatisfiable")
            else:
                failing = [n for n, g in enumerate(case.guards) if not guards.evaluate(g, assignment)]
                if failing:
                    out.problems.append(f"{where}: model violates guards {failing}")
        out.broken = bool(out.problems)
        return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Corpus(), Grid(), Diff(), Solve())}
