"""Command line interface: subcommands, output formats, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import shutil
import time
from pathlib import Path

import pytest

from binprov import buildoracle
from binprov.buildoracle import COMPILERS, VERSIONS
from binprov.binmodel import serialize_model
from binprov.cli import _run_trigger, build_parser, main
from binprov.corpusgen import generate_corpus, write_corpus
from binprov.pipeline import run_generated_case


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01", "1.01", "high"])
def test_run_case_threshold_outside_the_unit_interval_is_a_usage_error(value, case_dir, capsys):
    cdir, _root = case_dir
    with pytest.raises(SystemExit) as exc:
        main(["run-case", str(cdir), f"--threshold={value}"])
    assert exc.value.code == 1
    assert "argument --threshold:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "wide"])
def test_matrix_margin_not_finite_is_a_usage_error(value, case_dir, capsys):
    cdir, _root = case_dir
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--source-dir", str(cdir / "src"), f"--margin={value}"])
    assert exc.value.code == 1
    assert "argument --margin:" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "flag", "value"),
    [("run-case", "--budget", "-3"), ("infer-options", "--budget", "-1"),
     ("gen-corpus", "--size", "-2"), ("gen-corpus", "--size", "many"), ("run-case", "--budget", "1.5")],
)
def test_integer_flags_below_zero_or_not_integers_are_usage_errors(command, flag, value, case_dir, tmp_path, capsys):
    cdir, _root = case_dir
    args = {
        "run-case": ["run-case", str(cdir)],
        "infer-options": ["infer-options", str(cdir / "crash.model"), "--source-dir", str(cdir / "src")],
        "gen-corpus": ["gen-corpus", "--out", str(tmp_path / "out")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*args, f"{flag}={value}"])
    assert exc.value.code == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_flags_take_zero_and_budget_zero_aborts_before_the_first_fresh_build(case_dir, capsys):
    cdir, _root = case_dir
    assert build_parser().parse_args(["gen-corpus", "--out", "o", "--size", "0"]).size == 0
    main(["run-case", str(cdir), "--budget", "0"])
    assert "probe budget 0 exhausted before trying" in capsys.readouterr().out


def test_float_flags_take_their_bounds():
    parser = build_parser()
    assert [parser.parse_args(["run-case", "c", "--threshold", t]).threshold for t in ("0", "1")] == [0.0, 1.0]
    assert parser.parse_args(["matrix", "--source-dir", "s", "--margin", "-0.5"]).margin == -0.5


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_infer_options_agrees_with_run_case(seed, tmp_path, capsys):
    # Both probe at every unit with no macros, so the command and the
    # pipeline's option stage name the same options for every case.
    cases = generate_corpus(seed, 21)
    write_corpus(cases, tmp_path)
    for case in cases:
        cdir = tmp_path / case.name
        argv = ["infer-options", str(cdir / "crash.model"), "--source-dir", str(cdir / "src")]
        assert main([*argv, "--format", "machine"]) == 0
        inferred = json.loads(capsys.readouterr().out)["inferred"]
        assert inferred == run_generated_case(case).decided_options.text(), case.name


@pytest.mark.parametrize("command", ["infer-options", "run-case", "infer-config"])
@pytest.mark.parametrize(
    "flag",
    [
        ["--default-compiler", "clang"],
        ["--default-gcc", "7"],
        ["--default-clang", "6.0"],
        ["--exhaustive-versions"],
        ["--build-seconds", "90"],
        ["--prefer-enabled"],
    ],
)
def test_removed_search_flags_are_usage_errors(case_dir, command, flag, capsys):
    cdir, _root = case_dir
    target = cdir if command == "run-case" else cdir / "crash.model"
    argv = [command, str(target), "--source-dir", str(cdir / "src"), *flag]
    if command == "infer-config":
        argv += ["--options", "gcc-6-O2", "--config-map", str(cdir / "config.map")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# Every option string each subcommand accepts. A new knob must be added here
# on purpose, and a removed one cannot come back unnoticed.
OPTION_SURFACE = {
    "ingest": {"--export", "--strip", "--format"},
    "diff": {"--format"},
    "infer-options": {"--source-dir", "--format", "--toolchains", "--budget"},
    "infer-config": {"--source-dir", "--options", "--config-map", "--format", "--toolchains"},
    "run-case": {
        "--source-dir",
        "--config-map",
        "--threshold",
        "--run-trigger",
        "--format",
        "--toolchains",
        "--budget",
    },
    "matrix": {"--source-dir", "--margin", "--format", "--toolchains"},
    "gen-corpus": {"--out", "--seed", "--size", "--format"},
}


def test_option_surface_is_pinned():
    parser = build_parser()

    def options(p) -> set[str]:
        return {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}

    assert options(parser) == {"-v", "--verbose"}
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: options(sub) for name, sub in subs.choices.items()} == OPTION_SURFACE


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
    assert payload["decided_options"] == case.hidden_spec.text()
    assert sorted(payload["decided_configs"]) == sorted(case.hidden_flags)


def test_infer_config_at_hidden_options_names_the_hidden_flags(tmp_path, corpus21, capsys):
    # ``infer-config`` runs the same configuration stage as ``run-case``,
    # so at the hidden options it decides the optional units as well.
    write_corpus(corpus21, tmp_path)
    for case in corpus21:
        cdir = tmp_path / case.name
        argv = [
            "infer-config", str(cdir / "crash.model"),
            "--source-dir", str(cdir / "src"),
            "--config-map", str(cdir / "config.map"),
            "--options", case.hidden_spec.text(),
            "--format", "machine",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        if case.signal_free:
            assert payload["verification"] == "Failed(no structural signal)", case.name
        else:
            assert payload["verification"] == "ReproducedStructurally", case.name
            assert sorted(payload["decided_configs"]) == sorted(case.hidden_flags), case.name


def test_infer_config_needs_a_config_map(case_dir, capsys):
    cdir, _root = case_dir
    argv = [
        "infer-config", str(cdir / "crash.model"),
        "--source-dir", str(cdir / "src"),
        "--options", "gcc-6-O2",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "the following arguments are required: --config-map" in capsys.readouterr().err


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


def test_run_case_on_corpus_root_uses_the_toolchain_manifest(case_dir, tmp_path, capsys):
    _cdir, root = case_dir
    manifest = tmp_path / "toolchains"
    manifest.write_text(
        "".join(f"{c}/{v} : /bin/false\n" for c in COMPILERS for v in VERSIONS[c])
    )
    argv = ["run-case", str(root), "--toolchains", str(manifest), "--format", "machine"]
    assert main([*argv, "--run-trigger", "exit 3"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == 2
    for report in reports:
        assert report["verification"].startswith("Failed(toolchain command failed")
        assert report["trigger"]["exit_code"] == 3


def test_run_case_records_trigger_timeout(case_dir, capsys, monkeypatch):
    monkeypatch.setattr(buildoracle, "EXTERNAL_TIMEOUT_S", 0.2)
    cdir, _root = case_dir
    started = time.monotonic()
    assert main(["run-case", str(cdir), "--run-trigger", "echo started; exec sleep 5"]) == 0
    assert time.monotonic() - started < 1.0
    assert "trigger: timed out after 0.2 s" in capsys.readouterr().out
    trigger = _run_trigger("echo started; exec sleep 5")
    assert trigger["timed_out"] is True
    assert trigger["exit_code"] is None and trigger["signal"] is None
    assert trigger["stdout_tail"] == "started\n"


def test_trigger_timeout_kills_forked_children(tmp_path, monkeypatch):
    # A background child of the trigger shell would write the marker after
    # the timeout, unless the trigger's whole process group is killed.
    monkeypatch.setattr(buildoracle, "EXTERNAL_TIMEOUT_S", 0.2)
    marker = tmp_path / "M"
    trigger = _run_trigger(f"(sleep 0.5; touch {marker}) & exec sleep 5")
    assert trigger["timed_out"] is True
    time.sleep(1.0)
    assert not marker.exists()


def test_run_case_raw_model_needs_sources(case_dir, capsys):
    cdir, _root = case_dir
    assert main(["run-case", str(cdir / "crash.model")]) == 1
    assert "needs --source-dir" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("argv", [
    "ingest {bad}",
    "ingest {bad} --export",
    "diff {model} {bad}",
    "infer-options {bad} --source-dir {src}",
    "infer-options {model} --source-dir {bad_src}",
    "infer-config {model} --source-dir {src} --options gcc-7-O2 --config-map {bad}",
    "run-case {bad_case_model}",
    "run-case {bad_case_unit}",
    "run-case {bad_case_map}",
    "run-case {bad_case_manifest}",
    "run-case {model} --source-dir {src} --config-map {bad}",
    "run-case {case} --toolchains {bad}",
    "matrix --source-dir {bad_src}",
])
def test_a_file_that_is_not_utf8_is_a_schema_error(argv, case_dir, tmp_path, capsys):
    cdir, _root = case_dir
    paths = {"case": cdir, "model": cdir / "crash.model", "src": cdir / "src"}
    paths["bad"] = tmp_path / "bad.txt"
    paths["bad"].write_bytes(NOT_UTF8)
    paths["bad_src"] = tmp_path / "bad_src"
    shutil.copytree(cdir / "src", paths["bad_src"])
    next(paths["bad_src"].iterdir()).write_bytes(NOT_UTF8)
    for tag, member in (("model", "crash.model"), ("map", "config.map"),
                        ("manifest", "manifest.json"), ("unit", "src")):
        copy = paths[f"bad_case_{tag}"] = tmp_path / f"case_{tag}"
        shutil.copytree(cdir, copy)
        target = copy / member
        if target.is_dir():
            target = next(target.iterdir())
        target.write_bytes(NOT_UTF8)
    assert main(shlex.split(argv.format(**{k: str(v) for k, v in paths.items()}))) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "not UTF-8" in err


@pytest.mark.parametrize("command", ["run-case {case}", "infer-options {model} --source-dir {src}"])
def test_a_subdirectory_under_src_is_skipped(command, case_dir, tmp_path, capsys):
    def run(cdir):
        argv = command.format(case=cdir, model=cdir / "crash.model", src=cdir / "src")
        assert main([*argv.split(), "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("t_extract_seconds", None)
        return payload

    cdir, _root = case_dir
    copy = tmp_path / cdir.name
    shutil.copytree(cdir, copy)
    (copy / "src" / "include").mkdir()
    (copy / "src" / "include" / "extra.h").write_text("int skipped(void) {\n}\n")
    assert run(copy) == run(cdir)


def test_matrix_runs_ordering_checks(case_dir, capsys):
    cdir, _root = case_dir
    assert main(["matrix", "--source-dir", str(cdir / "src")]) == 0
    out = capsys.readouterr().out
    check_lines = [l for l in out.splitlines() if l.startswith(("ok ", "FAIL "))]
    assert len(check_lines) == 15
    assert all(l.startswith("ok ") for l in check_lines)
    assert any("margin exact" in l for l in check_lines)


def test_matrix_machine_output_golden_digest(case_dir, capsys):
    # ``binprov matrix`` compiles every unit, unlike the seed configuration
    # the benchmark grid uses. The digest of its machine output was
    # recorded before grid scoring shared fractions between pairs.
    cdir, _root = case_dir
    assert main(["matrix", "--source-dir", str(cdir / "src"), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dd466dc9082cc0aaf2cf07ef3634f3a4cdc23adc923846f89785e744e2f6e07d"
    )


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


def _readme_commands() -> list[list[str]]:
    """Every ``binprov`` line of README's command-line block, with its
    continuation lines joined and its trailing comment dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in joined.splitlines() if line.strip()]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "binprov", argv
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
