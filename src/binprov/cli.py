"""Command line interface.

Subcommands cover each pipeline stage plus the end-to-end run:

    ingest         parse and validate a crash-report model (or a raw
                   disassembly export with --export) and echo the canonical
                   serialization
    diff           similarity and function matching between two models
    infer-options  recover compiler, version and optimization level
    infer-config   the pipeline's configuration stage at known options
                   (--config-map required); prints a case report
    run-case       the full pipeline on a case directory, a corpus root
                   (each case honours --toolchains and --run-trigger) or
                   explicit inputs
    matrix         build the full option cross-comparison grid and run the
                   ordering checks on it
    gen-corpus     emit a deterministic synthetic benchmark corpus

Exit status: 0 when a report was produced (including Failed verdicts),
1 for usage errors, 2 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

from .binmodel import (
    ingest_disassembly_export,
    ingest_model,
    serialize_model,
    strip_program,
)
from . import buildoracle
from .buildoracle import (
    BuildSpec,
    ConfigAssignment,
    ExternalToolchain,
    SimulatedToolchain,
    all_option_specs,
)
from .corpusgen import generate_corpus, load_case_dir, read_source_dir, read_text, write_corpus
from .errors import BinprovError
from .optinfer import infer_options
from .pipeline import (
    DEFAULT_MARGIN,
    DEFAULT_THRESHOLD,
    CaseReport,
    check_matrix_orderings,
    infer_config,
    matrix_to_text,
    run_case,
    similarity_matrix,
)
from .simdiff import diff_programs
from .varsource import ConfigMap, SourceTree

USAGE_EXIT = 1
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _finite(text: str) -> float:
    """A float flag's value; a usage error unless it is a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _fraction(text: str) -> float:
    """A float flag's value; a usage error unless it is a number in [0, 1]."""
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _count(text: str) -> int:
    """An integer flag's value; a usage error unless it is a whole number
    of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _backend_for(args, tree: SourceTree, name: str):
    if getattr(args, "toolchains", None):
        return ExternalToolchain.parse_manifest(read_text(args.toolchains))
    return SimulatedToolchain(tree, base_name=name)


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "machine":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _trace_payload(trace) -> dict:
    return {
        "inferred": trace.inferred.text(),
        "t_infer": trace.t_infer,
        "probes": [
            {
                "spec": p.spec.text(),
                "score": p.score,
                "step": p.step,
                "cached": p.cached,
            }
            for p in trace.probes
        ],
    }


def _trace_text(trace) -> str:
    lines = [f"inferred: {trace.inferred.text()}", f"t_infer: {trace.t_infer}"]
    for p in trace.probes:
        tag = " (cached)" if p.cached else ""
        lines.append(f"step {p.step}: {p.spec.text()} = {p.score:.4f}{tag}")
    return "\n".join(lines) + "\n"


def _report_payload(report: CaseReport) -> dict:
    return {
        "name": report.name,
        "verification": report.verdict_text(),
        "decided_options": report.decided_options.text() if report.decided_options else None,
        "decided_configs": list(report.decided_configs),
        "similarity": report.similarity,
        "t_infer": report.option_trace.t_infer if report.option_trace else 0,
        "t_extract_seconds": report.t_extract_seconds,
        "constraints": list(report.constraints),
        "conflicts": [list(c) for c in report.conflicts],
        "present_units": list(report.present_units),
        "model": report.model.to_text() if report.model else None,
        "reason": report.reason,
    }


def cmd_ingest(args) -> int:
    text = read_text(args.model)
    if args.export:
        ingested = ingest_disassembly_export(text, name=Path(args.model).stem)
        program = ingested.program
        dropped = dict(sorted(ingested.dropped.items()))
    else:
        program = ingest_model(text)
        dropped = {}
    if args.strip:
        program = strip_program(program)
    canonical = serialize_model(program)
    payload = {
        "name": program.name,
        "functions": len(program.functions),
        "blocks": sum(len(f.blocks) for f in program.functions),
        "dropped": dropped,
        "model": canonical,
    }
    _emit(args, canonical, payload)
    return 0


def cmd_diff(args) -> int:
    left = ingest_model(read_text(args.left))
    right = ingest_model(read_text(args.right))
    report = diff_programs(left, right)
    lines = [
        f"similarity: {report.score:.4f}",
        f"matched_fraction: {report.beta:.4f}",
    ]
    for pair in report.pairs:
        lines.append(f"pair: {pair.left} ~ {pair.right} overlap {pair.fraction:.4f}")
    for fid in report.left_only:
        lines.append(f"left_only: {fid}")
    for fid in report.right_only:
        lines.append(f"right_only: {fid}")
    payload = {
        "similarity": report.score,
        "matched_fraction": report.beta,
        "pairs": [
            {"left": p.left, "right": p.right, "overlap": p.fraction} for p in report.pairs
        ],
        "left_only": list(report.left_only),
        "right_only": list(report.right_only),
    }
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def cmd_infer_options(args) -> int:
    crash = ingest_model(read_text(args.crash))
    tree = read_source_dir(args.source_dir)
    backend = _backend_for(args, tree, crash.name)
    trace = infer_options(backend, crash, budget=args.budget)
    _emit(args, _trace_text(trace), _trace_payload(trace))
    return 0


def cmd_infer_config(args) -> int:
    crash = ingest_model(read_text(args.crash))
    tree = read_source_dir(args.source_dir)
    config_map = ConfigMap.parse(read_text(args.config_map))
    backend = _backend_for(args, tree, crash.name)
    report = infer_config(crash, tree, config_map, backend, BuildSpec.from_text(args.options))
    _emit(args, report.to_text(), _report_payload(report))
    return 0


def _load_case_inputs(args, path: Path):
    if path.is_dir():
        case = load_case_dir(path)
        return case.crash, case.tree, case.config_map, case.name, case.base_units
    if not args.source_dir or not args.config_map:
        raise FileNotFoundError(
            "run-case on a raw model needs --source-dir and --config-map"
        )
    crash = ingest_model(read_text(path))
    tree = read_source_dir(args.source_dir)
    config_map = ConfigMap.parse(read_text(args.config_map))
    return crash, tree, config_map, crash.name, None


def _run_trigger(command: str) -> dict:
    """Run a user command after the report; record how the process ended.

    The command runs through the shell as given; no portability guarantees
    beyond POSIX shells. Exit status is recorded, never interpreted. A
    command still running after ``EXTERNAL_TIMEOUT_S`` is killed with every
    process it forked, and recorded as timed out, with whatever output it
    wrote by then.
    """
    try:
        proc = buildoracle.run_external(["/bin/sh", "-c", command])
    except subprocess.TimeoutExpired as exc:
        return {
            "command": command,
            "exit_code": None,
            "signal": None,
            "timed_out": True,
            "stdout_tail": _output_text(exc.stdout)[-400:],
            "stderr_tail": _output_text(exc.stderr)[-400:],
        }
    signal = -proc.returncode if proc.returncode < 0 else None
    return {
        "command": command,
        "exit_code": proc.returncode if proc.returncode >= 0 else None,
        "signal": signal,
        "timed_out": False,
        "stdout_tail": proc.stdout[-400:],
        "stderr_tail": proc.stderr[-400:],
    }


def _output_text(data: bytes | str | None) -> str:
    """``TimeoutExpired`` carries the captured output as bytes even when
    the run asked for text."""
    if isinstance(data, bytes):
        return data.decode(errors="replace")
    return data or ""


def _run_one(args, path: Path) -> tuple[str, dict]:
    """Run the case at ``path`` and then the trigger; the report's text
    and payload."""
    crash, tree, config_map, name, base_units = _load_case_inputs(args, path)
    backend = _backend_for(args, tree, name)
    report = run_case(
        crash, tree, config_map, backend,
        name=name, base_units=base_units, threshold=args.threshold, budget=args.budget,
    )
    payload = _report_payload(report)
    text = report.to_text()
    if args.run_trigger:
        trigger = _run_trigger(args.run_trigger)
        payload["trigger"] = trigger
        if trigger["timed_out"]:
            ended = f"timed out after {buildoracle.EXTERNAL_TIMEOUT_S:g} s"
        elif trigger["signal"] is not None:
            ended = f"signal {trigger['signal']}"
        else:
            ended = f"exit {trigger['exit_code']}"
        text += f"trigger: {ended}\n"
    return text, payload


def cmd_run_case(args) -> int:
    path = Path(args.case)
    if path.is_dir() and not (path / "manifest.json").exists():
        case_dirs = sorted(d for d in path.iterdir() if (d / "manifest.json").exists())
        if not case_dirs:
            raise FileNotFoundError(f"no case directories under {path}")
        runs = [_run_one(args, d) for d in case_dirs]
        _emit(args, "\n".join(text for text, _ in runs), {"reports": [p for _, p in runs]})
    else:
        _emit(args, *_run_one(args, path))
    return 0


def cmd_matrix(args) -> int:
    tree = read_source_dir(args.source_dir)
    backend = _backend_for(args, tree, Path(args.source_dir).name)
    specs = all_option_specs()
    grid = similarity_matrix(backend, ConfigAssignment(), specs)
    checks = check_matrix_orderings(grid, specs, margin=args.margin)
    lines = [matrix_to_text(grid, specs)]
    for c in checks:
        status = "ok" if c.ok else "FAIL"
        margin = "exact" if c.margin is None else f"{c.margin:+.4f}"
        lines.append(f"{status} {c.name} margin {margin} {c.detail}".rstrip())
    payload = {
        "specs": [s.text() for s in specs],
        "grid": grid,
        "checks": [
            {"name": c.name, "ok": c.ok, "margin": c.margin, "detail": c.detail}
            for c in checks
        ],
    }
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def cmd_gen_corpus(args) -> int:
    cases = generate_corpus(args.seed, args.size)
    write_corpus(cases, Path(args.out))
    lines = [f"wrote {len(cases)} cases to {args.out}"]
    for case in cases:
        tag = " signal-free" if case.signal_free else ""
        lines.append(f"{case.name}: hidden {case.hidden_spec.text()}{tag}")
    payload = {
        "out": args.out,
        "seed": args.seed,
        "cases": [
            {
                "name": c.name,
                "hidden_spec": c.hidden_spec.text(),
                "hidden_flags": list(c.hidden_flags),
                "signal_free": c.signal_free,
            }
            for c in cases
        ],
    }
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "machine"), default="text")


def _add_backend(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--toolchains", metavar="MANIFEST",
                     help="toolchain manifest for real compiler commands "
                          "(default: the simulated toolchain)")


def _add_infer(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=_count, default=None,
                     help="abort after this many fresh builds")


def build_parser() -> _Parser:
    parser = _Parser(prog="binprov", description=__doc__.split("\n\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="parse and canonicalize a crash model")
    p.add_argument("model")
    p.add_argument("--export", action="store_true",
                   help="input is a raw disassembly export, not a model")
    p.add_argument("--strip", action="store_true",
                   help="drop symbol names the way a shipped binary would")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("diff", help="compare two models")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(func=cmd_diff)

    p = subs.add_parser("infer-options", help="recover build options")
    p.add_argument("crash")
    p.add_argument("--source-dir", required=True)
    _add_common(p)
    _add_backend(p)
    _add_infer(p)
    p.set_defaults(func=cmd_infer_options)

    p = subs.add_parser("infer-config", help="recover configuration at known options")
    p.add_argument("crash")
    p.add_argument("--source-dir", required=True)
    p.add_argument("--options", required=True, metavar="SPEC",
                   help="build options, e.g. gcc-7-O2")
    p.add_argument("--config-map", required=True)
    _add_common(p)
    _add_backend(p)
    p.set_defaults(func=cmd_infer_config)

    p = subs.add_parser("run-case", help="full pipeline on one case or a corpus root")
    p.add_argument("case", help="case directory, corpus root, or a crash model file")
    p.add_argument("--source-dir")
    p.add_argument("--config-map")
    p.add_argument("--threshold", type=_fraction, default=DEFAULT_THRESHOLD)
    p.add_argument("--run-trigger", metavar="CMD",
                   help="shell command to run afterwards; its exit status or "
                        "terminating signal is recorded (no portability "
                        "guarantees)")
    _add_common(p)
    _add_backend(p)
    _add_infer(p)
    p.set_defaults(func=cmd_run_case)

    p = subs.add_parser("matrix", help="option grid and ordering checks")
    p.add_argument("--source-dir", required=True)
    p.add_argument("--margin", type=_finite, default=DEFAULT_MARGIN)
    _add_common(p)
    _add_backend(p)
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("gen-corpus", help="generate a benchmark corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", type=_count, default=21)
    _add_common(p)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The consumer closed stdout early (binprov ... | head). Point the
        # fd at devnull so the interpreter's exit flush cannot fail again,
        # and leave quietly like any line filter.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (FileNotFoundError, NotADirectoryError) as exc:
        print(f"binprov: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BinprovError as exc:
        print(f"binprov: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except Exception as exc:  # pragma: no cover - safety net
        print(f"binprov: internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
