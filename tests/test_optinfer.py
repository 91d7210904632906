"""Option inference: staged probing, probe accounting, budgets."""

from __future__ import annotations

import hashlib

import pytest

from binprov.buildoracle import BuildSpec, SimulatedToolchain
from binprov.corpusgen import generate_case
from binprov.errors import BudgetExceededError
from binprov.optinfer import infer_options


def test_recovers_every_option_point_exactly(case0, backend0, specs):
    config = case0.seed_config()
    for spec in specs:
        crash = backend0.build(spec, config)
        trace = infer_options(backend0, crash, config=config)
        assert trace.inferred == spec, f"{spec.text()} -> {trace.inferred.text()}"


def test_probe_count_is_five_for_unoptimized(case0, backend0, specs):
    config = case0.seed_config()
    for spec in specs:
        crash = backend0.build(spec, config)
        trace = infer_options(backend0, crash, config=config)
        if spec.level == "O0":
            assert trace.t_infer == 5, spec.text()
        else:
            assert trace.t_infer == 8, spec.text()


def test_probe_count_average_over_space(case0, backend0, specs):
    config = case0.seed_config()
    counts = []
    for spec in specs:
        crash = backend0.build(spec, config)
        counts.append(infer_options(backend0, crash, config=config).t_infer)
    mean = sum(counts) / len(counts)
    assert mean == pytest.approx(7.40, abs=1e-9)
    assert 5.5 <= mean <= 7.5


def test_trace_records_stages_and_cache_hits(case0, backend0):
    config = case0.seed_config()
    spec = BuildSpec("clang", "7.0", "O3")
    crash = backend0.build(spec, config)
    trace = infer_options(backend0, crash, config=config)
    assert trace.inferred == spec
    steps = [p.step for p in trace.probes]
    assert steps == sorted(steps)
    assert {p.step for p in trace.probes} == {1, 2, 3, 4}
    # stage 3 re-reads the O2 score without rebuilding
    cached = [p for p in trace.probes if p.cached]
    assert cached and all(p.score == trace.score_of(p.spec) for p in cached)
    assert trace.t_infer == len({p.spec for p in trace.probes if not p.cached})
    with pytest.raises(KeyError):
        trace.score_of(BuildSpec("gcc", "9", "Os"))


def test_self_probe_scores_one(case0, backend0):
    config = case0.seed_config()
    spec = BuildSpec("gcc", "6", "O2")
    crash = backend0.build(spec, config)
    trace = infer_options(backend0, crash, config=config)
    assert trace.score_of(spec) == pytest.approx(1.0)


def test_budget_exhaustion_raises(case0, backend0):
    config = case0.seed_config()
    crash = backend0.build(BuildSpec("clang", "7.0", "O3"), config)
    with pytest.raises(BudgetExceededError):
        infer_options(backend0, crash, config=config, budget=4)
    # a budget equal to the needed probe count succeeds
    trace = infer_options(backend0, crash, config=config, budget=8)
    assert trace.t_infer == 8


def test_probes_share_one_backend_cache(case0):
    backend = SimulatedToolchain(case0.tree, base_name=case0.name)
    config = case0.seed_config()
    crash = backend.build(BuildSpec("gcc", "7", "O1"), config)
    before = backend.build_count
    trace = infer_options(backend, crash, config=config)
    assert trace.inferred == BuildSpec("gcc", "7", "O1")
    # the crash build itself is reused as one of the probes
    assert backend.build_count - before == trace.t_infer - 1


def test_traces_match_golden_digest(specs):
    # sha256 over the inferred spec and every probe (spec, exact score,
    # stage, cache hit) for 5 programs x 50 hidden specs at the seed
    # configuration.
    digest = hashlib.sha256()
    for seed, index in [(1, 0), (1, 1), (1, 2), (2, 0), (3, 5)]:
        case = generate_case(seed, index)
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        config = case.seed_config()
        for spec in specs:
            trace = infer_options(backend, backend.build(spec, config), config=config)
            probes = [(p.spec, repr(p.score), p.step, p.cached) for p in trace.probes]
            digest.update(repr((trace.inferred, probes)).encode())
    assert digest.hexdigest() == (
        "256faa0ba2c96da00a757151336ca4d611a4ae4775de91a2f2a347f2d44e1214"
    )
