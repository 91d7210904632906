"""Command line interface: subcommands, output formats, exit codes."""

from __future__ import annotations

import json

import pytest

from binprov.binmodel import serialize_model
from binprov.cli import main
from binprov.corpusgen import write_corpus


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory, corpus21):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(corpus21[:2], root)
    return root / corpus21[0].name, root


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["ingest"])  # missing positional
    assert exc.value.code == 1
    assert main(["ingest", "/nonexistent/model.json"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_invalid_model_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ingest", str(bad)]) == 2
    assert "SchemaError" in capsys.readouterr().err


def test_ingest_echoes_canonical_model(case_dir, corpus21, capsys):
    cdir, _root = case_dir
    assert main(["ingest", str(cdir / "crash.model")]) == 0
    out = capsys.readouterr().out
    assert out == serialize_model(corpus21[0].crash)


def test_ingest_machine_format(case_dir, corpus21, capsys):
    cdir, _root = case_dir
    assert main(["ingest", str(cdir / "crash.model"), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == corpus21[0].crash.name
    assert payload["functions"] == len(corpus21[0].crash.functions)
    assert payload["model"] == serialize_model(corpus21[0].crash)


EXPORT_TEXT = """\
FUNC main entry_main
BLOCK b0 -> b1
  cmp eax, 2
BLOCK b1
  lea rdi, "done"
  call puts
  nop
"""


def test_ingest_export_and_strip(tmp_path, capsys):
    path = tmp_path / "dump.txt"
    path.write_text(EXPORT_TEXT)
    assert main(["ingest", str(path), "--export", "--strip"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["functions"][0]["id"] == "f000"
    assert "symbol" not in payload["functions"][0]


def test_diff_self_is_identity(case_dir, capsys):
    cdir, _root = case_dir
    model = str(cdir / "crash.model")
    assert main(["diff", model, model, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["similarity"] == pytest.approx(1.0)
    assert payload["matched_fraction"] == pytest.approx(1.0)
    assert payload["left_only"] == [] and payload["right_only"] == []


def test_infer_options_finds_hidden_spec(case_dir, corpus21, capsys):
    cdir, _root = case_dir
    case = corpus21[0]
    rc = main(
        [
            "infer-options",
            str(cdir / "crash.model"),
            "--source-dir",
            str(cdir / "src"),
            "--format",
            "machine",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inferred"] == case.hidden_spec.text()
    assert payload["t_infer"] in (5, 8)
    assert all(p["step"] in (1, 2, 3, 4) for p in payload["probes"])


@pytest.mark.parametrize("command", ["infer-options", "run-case"])
@pytest.mark.parametrize(
    "flag",
    [
        ["--default-compiler", "clang"],
        ["--default-gcc", "7"],
        ["--default-clang", "6.0"],
        ["--exhaustive-versions"],
        ["--build-seconds", "90"],
    ],
)
def test_removed_search_flags_are_usage_errors(case_dir, command, flag, capsys):
    cdir, _root = case_dir
    target = cdir / "crash.model" if command == "infer-options" else cdir
    argv = [command, str(target), "--source-dir", str(cdir / "src"), *flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_infer_config_reports_flags(case_dir, corpus21, capsys):
    cdir, _root = case_dir
    case = corpus21[0]
    rc = main(
        [
            "infer-config",
            str(cdir / "crash.model"),
            "--source-dir",
            str(cdir / "src"),
            "--options",
            case.hidden_spec.text(),
            "--config-map",
            str(cdir / "config.map"),
            "--format",
            "machine",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constraints"]
    # unit-backed flags are resolved by the full pipeline, not this stage;
    # the define-backed flags must all be here
    expected = {
        f for f in case.hidden_flags if case.config_map.macros_for([f])
    }
    assert expected <= set(payload["flags"])


def test_run_case_on_case_directory(case_dir, corpus21, capsys):
    cdir, _root = case_dir
    assert main(["run-case", str(cdir), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verification"] == "ReproducedStructurally"
    assert payload["decided_options"] == corpus21[0].hidden_spec.text()
    assert set(payload["decided_configs"]) == set(corpus21[0].hidden_flags)


def test_run_case_on_corpus_root(case_dir, capsys):
    _cdir, root = case_dir
    assert main(["run-case", str(root), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["reports"]) == 2
    assert all(
        r["verification"] == "ReproducedStructurally" for r in payload["reports"]
    )


def test_run_case_records_trigger_exit(case_dir, capsys):
    cdir, _root = case_dir
    rc = main(
        ["run-case", str(cdir), "--run-trigger", "exit 7", "--format", "machine"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trigger"]["exit_code"] == 7
    assert payload["trigger"]["signal"] is None
    assert payload["trigger"]["command"] == "exit 7"


def test_run_case_raw_model_needs_sources(case_dir, capsys):
    cdir, _root = case_dir
    assert main(["run-case", str(cdir / "crash.model")]) == 1
    assert "needs --source-dir" in capsys.readouterr().err


def test_matrix_runs_ordering_checks(case_dir, capsys):
    cdir, _root = case_dir
    assert main(["matrix", "--source-dir", str(cdir / "src")]) == 0
    out = capsys.readouterr().out
    check_lines = [l for l in out.splitlines() if l.startswith(("ok ", "FAIL "))]
    assert len(check_lines) == 15
    assert all(l.startswith("ok ") for l in check_lines)
    assert any("margin exact" in l for l in check_lines)


def test_gen_corpus_writes_cases(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["gen-corpus", "--out", str(out), "--seed", "2", "--size", "5"]) == 0
    listing = capsys.readouterr().out
    assert "wrote 5 cases" in listing
    dirs = sorted(p for p in out.iterdir() if p.is_dir())
    assert len(dirs) == 5
    for d in dirs:
        assert (d / "manifest.json").exists()
        assert (d / "crash.model").exists()
        assert (d / "config.map").exists()
    # regeneration is byte-identical
    out2 = tmp_path / "bench2"
    assert main(["gen-corpus", "--out", str(out2), "--seed", "2", "--size", "5"]) == 0
    capsys.readouterr()
    for d in dirs:
        twin = out2 / d.name
        assert (twin / "crash.model").read_text() == (d / "crash.model").read_text()
