"""Benchmark corpus generator: determinism, shape, round-trips."""

from __future__ import annotations

import json
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binprov.binmodel import serialize_model
from binprov.buildoracle import SimulatedToolchain, all_option_specs
from binprov.conditions import evaluate
from binprov.errors import BinprovError, SchemaError
from binprov.corpusgen import (
    conflict_index,
    generate_case,
    generate_conditional_unit,
    generate_corpus,
    load_case_dir,
    signal_free_indices,
    write_corpus,
)
from binprov.varsource import scan_tree


def test_generation_is_deterministic():
    a = generate_case(1, 4)
    b = generate_case(1, 4)
    assert serialize_model(a.crash) == serialize_model(b.crash)
    assert {u.name: u.text for u in a.tree.units} == {
        u.name: u.text for u in b.tree.units
    }
    assert a.hidden_spec == b.hidden_spec and a.hidden_flags == b.hidden_flags
    # a different seed moves the hidden truth or the payload strings
    c = generate_case(2, 4)
    assert serialize_model(c.crash) != serialize_model(a.crash)


def test_corpus_layout(corpus21):
    assert len(corpus21) == 21
    assert [case.index for case in corpus21] == list(range(21))
    assert len({case.name for case in corpus21}) == 21
    assert signal_free_indices(21) == {7, 14}
    assert conflict_index(21) == 3
    for case in corpus21:
        assert case.signal_free == (case.index in {7, 14})
        assert case.hidden_spec in all_option_specs()
        # at least one macro-backed flag is always on, so the config stage
        # always has something to find
        defines = case.config_map.macros_for(case.hidden_flags)
        assert defines
        if case.signal_free:
            assert case.vulnerable_fragment is None
        else:
            assert case.vulnerable_fragment is not None


def test_crash_models_are_stripped_truth_builds(corpus21):
    for case in corpus21[:5]:
        backend = SimulatedToolchain(case.tree, base_name=case.name)
        truth = backend.build(case.hidden_spec, case.truth_config())
        assert case.crash.stripped
        assert not any(fn.symbol for fn in case.crash.functions)
        assert len(case.crash.functions) == len(truth.functions)


def test_signal_free_cases_have_featureless_guards(corpus21):
    for case in corpus21:
        if not case.signal_free:
            continue
        env = case.truth_config().macro_env()
        for scan in scan_tree(case.tree).values():
            for frag in scan.conditional_fragments():
                if evaluate(frag.condition, env):
                    assert not frag.features, (
                        f"{case.name}:{frag.id} should carry no matchable payload"
                    )


def test_seed_config_hides_the_truth(corpus21):
    for case in corpus21[:5]:
        seed = case.seed_config()
        assert seed.macros == frozenset()
        assert set(seed.units) == set(case.base_units)
        truth = case.truth_config()
        assert set(truth.units) >= set(case.base_units)


def test_conflict_case_plants_contradictory_evidence():
    case = generate_case(1, 3, with_conflict=True)
    texts = {u.name: u.text for u in case.tree.units}
    joined = "\n".join(texts.values())
    assert "conflict_clean" in joined and "conflict_decoy" in joined


def test_write_and_load_round_trip(tmp_path, corpus21):
    cases = corpus21[:3]
    write_corpus(cases, tmp_path)
    for case in cases:
        loaded = load_case_dir(tmp_path / case.name)
        assert loaded.name == case.name
        assert loaded.hidden_spec == case.hidden_spec
        assert loaded.hidden_flags == tuple(case.hidden_flags)
        assert loaded.base_units == tuple(case.base_units)
        assert loaded.signal_free == case.signal_free
        assert serialize_model(loaded.crash) == serialize_model(case.crash)
        assert {u.name: u.text for u in loaded.tree.units} == {
            u.name: u.text for u in case.tree.units
        }
        assert [f.name for f in loaded.config_map.flags] == [
            f.name for f in case.config_map.flags
        ]


# A manifest edit, and the error it must raise.
MALFORMED_MANIFESTS = [
    (lambda m: "{", "manifest.json is not JSON"),
    (lambda m: [], "manifest.json must hold an object"),
    (lambda m: {k: v for k, v in m.items() if k != "name"}, "missing name"),
    (lambda m: {**m, "index": "1"}, "index must be an integer"),
    (lambda m: {**m, "hidden": None}, "hidden must be an object"),
    (lambda m: {**m, "hidden": {"flags": []}}, "missing hidden.spec"),
    (lambda m: {**m, "hidden": {**m["hidden"], "flags": "with_alpha"}},
     "hidden.flags must be a list of strings"),
    (lambda m: {**m, "base_units": "main.c"}, "base_units must be a list of strings"),
    (lambda m: {**m, "base_units": ["main.c", 7]}, "base_units must be a list of strings"),
    (lambda m: {**m, "base_units": ["main.c", "main.c"]}, "base_units lists 'main.c' twice"),
    (lambda m: {**m, "vulnerable_fragment": 3}, "vulnerable_fragment must be a string or null"),
    (lambda m: {**m, "signal_free": 0}, "signal_free must be true or false"),
]


@pytest.mark.parametrize(
    "edit,message", MALFORMED_MANIFESTS, ids=[message for _, message in MALFORMED_MANIFESTS]
)
def test_load_case_dir_rejects_a_malformed_manifest(tmp_path, corpus21, edit, message):
    write_corpus(corpus21[:1], tmp_path)
    cdir = tmp_path / corpus21[0].name
    manifest = cdir / "manifest.json"
    edited = edit(json.loads(manifest.read_text()))
    manifest.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(SchemaError, match=re.escape(f"{cdir}: ") + ".*" + re.escape(message)):
        load_case_dir(cdir)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000, '{"index": ' + "9" * 5000 + "}"])
def test_load_case_dir_reads_a_huge_integer_or_deep_nesting_as_not_json(tmp_path, corpus21, text):
    write_corpus(corpus21[:1], tmp_path)
    cdir = tmp_path / corpus21[0].name
    (cdir / "manifest.json").write_text(text)
    with pytest.raises(SchemaError, match=re.escape(f"{cdir}: manifest.json is not JSON")):
        load_case_dir(cdir)


@pytest.fixture(scope="module")
def fuzzed_case_dir(tmp_path_factory, corpus21):
    """A case directory whose manifest each fuzz example overwrites."""
    root = tmp_path_factory.mktemp("fuzz")
    write_corpus(corpus21[:1], root)
    return root / corpus21[0].name


_MANIFEST_JUNK = [None, True, 0, -1, 1.5, "", "x", "gcc-6-O9", "gcc-6-O2", "main.c", [], ["main.c", 7],
                  ["main.c", "main.c"], {}, {"spec": "gcc-6-O2"}, {"flags": []}]
_MANIFEST_KEYS = ["name", "index", "base_units", "signal_free", "vulnerable_fragment", "hidden", "spec",
                  "flags", "extra", ""]


@st.composite
def _manifest_texts(draw, original: dict) -> str:
    how = draw(st.sampled_from(["mutated", "mutated", "not an object", "truncated"]))
    if how == "not an object":
        return json.dumps(draw(st.sampled_from([[], [original], 7, "manifest", None, True])))
    if how == "truncated":
        text = json.dumps(original, indent=2)
        return text[: draw(st.integers(0, len(text) - 1))]
    manifest = json.loads(json.dumps(original))
    for _ in range(draw(st.integers(1, 3))):
        target = manifest["hidden"] if draw(st.booleans()) and isinstance(manifest.get("hidden"), dict) else manifest
        key = draw(st.sampled_from(_MANIFEST_KEYS))
        change = draw(st.sampled_from(["set", "drop", "rename"]))
        if change == "set":
            target[key] = draw(st.sampled_from(_MANIFEST_JUNK))
        elif key in target:
            value = target.pop(key)
            if change == "rename":
                target[draw(st.sampled_from(_MANIFEST_KEYS))] = value
    return json.dumps(manifest)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_load_case_dir_raises_only_binprov_errors_on_fuzzed_manifests(fuzzed_case_dir, corpus21, data):
    manifest = fuzzed_case_dir / "manifest.json"
    original = json.loads(manifest.read_text())
    manifest.write_text(data.draw(_manifest_texts(original)))
    try:
        case = load_case_dir(fuzzed_case_dir)
    except BinprovError:
        return
    finally:
        manifest.write_text(json.dumps(original))
    assert serialize_model(case.crash) == serialize_model(corpus21[0].crash)


@pytest.mark.parametrize("name", ["manifest.json", "config.map", "crash.model", "src"])
def test_load_case_dir_names_a_missing_file(tmp_path, corpus21, name):
    write_corpus(corpus21[:1], tmp_path)
    cdir = tmp_path / corpus21[0].name
    if (cdir / name).is_dir():
        shutil.rmtree(cdir / name)
    else:
        (cdir / name).unlink()
    with pytest.raises(SchemaError, match=re.escape(f"{cdir}: missing {name}")):
        load_case_dir(cdir)


def test_load_case_dir_rejects_a_src_without_files(tmp_path, corpus21):
    write_corpus(corpus21[:1], tmp_path)
    cdir = tmp_path / corpus21[0].name
    shutil.rmtree(cdir / "src")
    (cdir / "src" / "include").mkdir(parents=True)
    with pytest.raises(SchemaError, match=re.escape(f"{cdir}: missing src")):
        load_case_dir(cdir)


def test_conditional_unit_generator_is_balanced_and_deterministic():
    for index in range(30):
        text = generate_conditional_unit(9, index)
        assert text == generate_conditional_unit(9, index)
        depth = 0
        for line in text.splitlines():
            if line.startswith(("#ifdef", "#ifndef", "#if ")):
                depth += 1
            elif line.startswith("#endif"):
                depth -= 1
            assert depth >= 0
        assert depth == 0
