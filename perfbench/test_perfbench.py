"""Self-tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from binprov import conditions, solver  # noqa: E402

import diffgen  # noqa: E402
import guards  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DIFF_MIX, WORKLOADS, diff_schedule  # noqa: E402


@pytest.fixture(scope="module")
def corpus_state():
    return WORKLOADS["corpus"].setup(1, bench.WORK)


@pytest.fixture(scope="module")
def solve_state():
    return WORKLOADS["solve"].setup(1, bench.WORK)


SMALL_DIFF = [diffgen.make_pair(1, 100), diffgen.make_pair(1, 300)]


def test_wrong_spec_or_flag_in_the_answer_counts_as_failed(corpus_state):
    corpus = WORKLOADS["corpus"]
    clean = next(
        i for i in range(len(corpus_state.case_dirs))
        if not corpus_state.manifests[i]["signal_free"]
        and not corpus.check(corpus_state, i, corpus.request(corpus_state, i)).problems
    )
    output = corpus.request(corpus_state, clean)
    truth = corpus_state.manifests[clean]
    saved = json.loads(json.dumps(truth))
    try:
        truth["hidden"]["spec"] = "gcc-9-O3" if truth["hidden"]["spec"] != "gcc-9-O3" else "gcc-5-O0"
        assert corpus.check(corpus_state, clean, output).problems
        truth["hidden"] = json.loads(json.dumps(saved["hidden"]))
        flags = truth["hidden"]["flags"]
        truth["hidden"]["flags"] = flags[1:] if flags else ["with_alpha"]
        assert corpus.check(corpus_state, clean, output).problems
    finally:
        corpus_state.manifests[clean] = saved


def test_swapped_grid_cell_counts_as_failed():
    grid_workload = WORKLOADS["grid"]
    state = grid_workload.setup(1, bench.WORK)[:1]
    grid, checks, fresh = grid_workload.request(state, 0)
    assert not grid_workload.check(state, 0, (grid, checks, fresh)).problems
    swapped = [row[:] for row in grid]
    a, b = next((a, b) for a in range(50) for b in range(a + 1, 50) if grid[a][b] != grid[0][1])
    swapped[0][1], swapped[a][b] = grid[a][b], grid[0][1]
    outcome = grid_workload.check(state, 0, (swapped, checks, fresh))
    assert outcome.problems and outcome.broken


def test_unsatisfied_model_and_wrong_verdict_count_as_failed(solve_state):
    solve = WORKLOADS["solve"]
    i = next(n for n, case in enumerate(solve_state) if case.family == "wide")
    conds, model = solve.request(solve_state, i)
    assert isinstance(model, solver.Model)
    assert not solve.check(solve_state, i, (conds, model)).problems
    all_off = solver.Model(assignment={key: False for key in model.assignment})
    assert solve.check(solve_state, i, (conds, all_off)).broken
    assert solve.check(solve_state, i, (conds, solver.Unsatisfiable(core=tuple(conds)))).broken


def test_wrong_function_pair_counts_as_failed():
    diff = WORKLOADS["diff"]
    report = diff.request(SMALL_DIFF, 0)
    before = diff.check(SMALL_DIFF, 0, report)
    truth = SMALL_DIFF[0].pairs
    first, second = [p for p in report.pairs if truth.get(p.left) == p.right][:2]
    first.right, second.right = second.right, first.right
    after = diff.check(SMALL_DIFF, 0, report)
    assert after.problems and after.mismatched == before.mismatched + 2


@pytest.mark.parametrize("name, count", [("corpus", 3), ("grid", 1), ("diff", 2), ("solve", 60)])
def test_tracing_leaves_outputs_and_names_unchanged(name, count, corpus_state, solve_state):
    workload = WORKLOADS[name]
    state = {"corpus": corpus_state, "solve": solve_state, "diff": SMALL_DIFF}.get(name)
    if state is None:
        state = workload.setup(1, bench.WORK)[:1]
    names = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.TARGETS]

    before = bench.run_loop(workload, state, count=count)
    tracer = tracing.Tracer()
    with tracer.rebound():
        traced = bench.run_loop(workload, state, count=count, tracer=tracer)
    after = bench.run_loop(workload, state, count=count)

    assert traced.records == before.records == after.records
    assert len(before.scaled) == count and all(t > 0 for t in before.scaled)
    assert all(getattr(module, attr) is fn for module, attr, fn in names)

    metrics = tracing.layer_metrics(tracer, count)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "gc")
    total = layers + metrics["gc.pause_s"] + metrics["trace.uncovered_s"]
    assert total == pytest.approx(metrics["trace.request_s"], rel=1e-9, abs=1e-12)


def test_a_time_is_scaled_by_the_reference_samples_around_it():
    probe = speed.SpeedProbe()
    probe.samples = [0.02, 0.01, 0.04, 0.03]
    probe.times = [0.0, 0.5, 2.5, 3.0]
    # A short measurement sees only the samples on either side of it ...
    assert probe.scale(2.55, 2.6, 2) == pytest.approx(speed.REFERENCE_S / 0.035)
    # ... a long one also those within half its duration of it.
    assert probe.scale(0.5, 2.5, 1) == pytest.approx(speed.REFERENCE_S / 0.025)


def test_diff_cycle_holds_each_size_as_often_as_the_mix_says():
    schedule = diff_schedule()
    assert len(schedule) == WORKLOADS["diff"].cycle
    assert {size: schedule.count(size) for size, _ in DIFF_MIX} == dict(DIFF_MIX)


def test_guard_text_round_trips_through_both_parsers():
    rng = random.Random(7)
    names = [f"M{i}" for i in range(6)]
    for _ in range(200):
        guard = guards.random_guard(rng, names)
        again = guards.parse(conditions.to_text(conditions.parse_expression(guards.text_of(guard))))
        for bits in range(1 << len(names)):
            env = {n: bool(bits >> k & 1) for k, n in enumerate(names)}
            assert guards.evaluate(guard, env) == guards.evaluate(again, env)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    printed = set(tracing.layer_metrics(tracing.Tracer(), 1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    assert all(m["unit"] == bench.metric_unit(m["name"]) for m in spec["per_layer"])
