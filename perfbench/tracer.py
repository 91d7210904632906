"""Tracing from outside the library, for the benchmark's traced runs.

The traced run passes a ``TracedToolchain`` where the API takes a backend,
and for the duration of each traced request rebinds the public names that
callers look up (``pipeline.compare_programs``, ``buildoracle.scan_unit``,
``simdiff.pair_blocks`` ...) to timing wrappers. Every name is restored on
exit, so an untraced request never sees a wrapper.

A span has a name, start, end, parent span, request id and, for some
names, a tuple of counts read from the call's result (``ATTR_FIELDS``).
Spans stay in memory, column by column so that tracing adds no objects
for the cyclic collector to walk, and are written out when the run ends.
A span's layer is the module part of its name; its self time is its
duration minus its children's.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from time import perf_counter

from binprov import (
    binmodel,
    buildoracle,
    conditions,
    corpusgen,
    matcher,
    optinfer,
    pipeline,
    simdiff,
    solver,
    varsource,
)
from binprov.errors import BinprovError

REQUEST_SPAN = "request"
LAYERS = (
    "binmodel", "corpusgen", "buildoracle", "varsource", "conditions",
    "simdiff", "optinfer", "matcher", "solver", "pipeline", "gc",
)
ATTR_FIELDS = {
    "buildoracle.build": ("fresh", "error", "refine"),
    "optinfer.infer_options": ("fresh", "cached"),
    "matcher.derive_constraints": ("decisions", "unknown", "conflicts"),
    "solver.solve": ("unsat",),
    "gc.collect": ("generation",),
}


def _infer_attrs(trace) -> tuple:
    return (trace.t_infer, len(trace.probes) - trace.t_infer)


def _derive_attrs(report) -> tuple:
    unknown = sum(1 for d in report.decisions if d.presence is matcher.Presence.UNKNOWN)
    return (len(report.decisions), unknown, len(report.conflicts))


def _solve_attrs(result) -> tuple:
    return (int(isinstance(result, solver.Unsatisfiable)),)


# (module, attribute, span name, counts from the result). The attribute is
# rebound where callers look it up; the span is named after the layer that
# defines the function.
TARGETS = (
    (corpusgen, "load_case_dir", "corpusgen.load_case_dir", None),
    (corpusgen, "ingest_model", "binmodel.ingest_model", None),
    (binmodel, "ingest_model", "binmodel.ingest_model", None),
    (buildoracle, "build_unoptimized", "buildoracle.build_unoptimized", None),
    (buildoracle, "apply_transforms", "buildoracle.apply_transforms", None),
    (buildoracle, "scan_unit", "varsource.scan_unit", None),
    (varsource, "scan_unit", "varsource.scan_unit", None),
    (varsource, "parse_expression", "conditions.parse_expression", None),
    (conditions, "parse_expression", "conditions.parse_expression", None),
    (pipeline, "scan_tree", "varsource.scan_tree", None),
    (pipeline, "compare_programs", "simdiff.compare_programs", None),
    (optinfer, "compare_programs", "simdiff.compare_programs", None),
    (pipeline, "diff_programs", "simdiff.diff_programs", None),
    (simdiff, "diff_programs", "simdiff.diff_programs", None),
    (simdiff, "match_functions", "simdiff.match_functions", None),
    (simdiff, "pair_blocks", "simdiff.pair_blocks", None),
    (pipeline, "infer_options", "optinfer.infer_options", _infer_attrs),
    (pipeline, "derive_constraints", "matcher.derive_constraints", _derive_attrs),
    (pipeline, "solve", "solver.solve", _solve_attrs),
    (solver, "solve", "solver.solve", _solve_attrs),
    (pipeline, "_refine_free_atoms", "pipeline.refine_free_atoms", None),
    (pipeline, "run_case", "pipeline.run_case", None),
    (pipeline, "similarity_matrix", "pipeline.similarity_matrix", None),
    (pipeline, "check_matrix_orderings", "pipeline.check_matrix_orderings", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.attrs: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.request = -1
        self.Toolchain = self._toolchain()

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(span)
        self.starts.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = perf_counter()
        self.stack.pop()

    def in_span(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                self.attrs[span] = attrs(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_request(self, index: int, fn, *args):
        self.request = index
        span = self.open(REQUEST_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(span)
            self.request = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.attrs[self.open("gc.collect")] = (info["generation"],)
        elif self.stack and self.names[self.stack[-1]] == "gc.collect":
            self.close(self.stack[-1])

    @contextmanager
    def rebound(self):
        """Rebind every traced name and watch the collector; undo on exit."""
        saved = []
        try:
            for module, attr, name, attrs in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _toolchain(self):
        """A SimulatedToolchain subclass whose builds open spans."""
        tracer = self

        class TracedToolchain(buildoracle.SimulatedToolchain):
            def build(self, spec, config):
                before = self.build_count
                span = tracer.open("buildoracle.build")
                error = 0
                try:
                    return super().build(spec, config)
                except BinprovError:
                    error = 1
                    raise
                finally:
                    tracer.close(span)
                    refine = int(tracer.in_span("pipeline.refine_free_atoms"))
                    tracer.attrs[span] = (self.build_count - before, error, refine)

        return TracedToolchain

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                attrs = dict(zip(ATTR_FIELDS.get(name, ()), self.attrs.get(i, ())))
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i],
                                     self.requests[i], attrs]) + "\n")


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request means of every per-layer metric over the traced requests."""
    n = len(tracer)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    children = [0.0] * n
    for i in range(n):
        if tracer.parents[i] >= 0:
            children[tracer.parents[i]] += durations[i]

    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, float] = {}
    request_s = uncovered = unsat_s = 0.0
    gen2 = 0
    for i, name in enumerate(tracer.names):
        if tracer.requests[i] < 0:
            continue
        own = durations[i] - children[i]
        if name == REQUEST_SPAN:
            request_s += durations[i]
            uncovered += own
            continue
        total[name] = total.get(name, 0.0) + durations[i]
        count[name] = count.get(name, 0) + 1
        self_by_layer[name.split(".")[0]] += own
        for field, value in zip(ATTR_FIELDS.get(name, ()), tracer.attrs.get(i, ())):
            counts[f"{name}.{field}"] = counts.get(f"{name}.{field}", 0) + value
        if name == "solver.solve" and tracer.attrs.get(i, (0,))[0]:
            unsat_s += durations[i]
        if name == "gc.collect" and tracer.attrs[i][0] == 2:
            gen2 += 1

    def t(name):
        return total.get(name, 0.0) / requests

    def c(name):
        return count.get(name, 0) / requests

    def a(key):
        return counts.get(key, 0) / requests

    def frac(num, den):
        return num / den if den else 0.0

    builds = count.get("buildoracle.build", 0)
    fresh = counts.get("buildoracle.build.fresh", 0)
    decisions = counts.get("matcher.derive_constraints.decisions", 0)
    metrics = {
        "binmodel.ingest_s": t("binmodel.ingest_model"),
        "binmodel.ingest_calls": c("binmodel.ingest_model"),
        "corpusgen.load_case_dir_s": t("corpusgen.load_case_dir"),
        "buildoracle.build_calls": c("buildoracle.build"),
        "buildoracle.fresh_builds": a("buildoracle.build.fresh"),
        "buildoracle.cache_hit_frac": frac(builds - fresh, builds),
        "buildoracle.build_errors": a("buildoracle.build.error"),
        "buildoracle.build_unoptimized_s": t("buildoracle.build_unoptimized"),
        "buildoracle.apply_transforms_s": t("buildoracle.apply_transforms"),
        "varsource.scan_unit_calls": c("varsource.scan_unit"),
        "varsource.scan_unit_s": t("varsource.scan_unit"),
        "varsource.scan_tree_s": t("varsource.scan_tree"),
        "simdiff.compare_calls": c("simdiff.compare_programs"),
        "simdiff.compare_s": t("simdiff.compare_programs"),
        "simdiff.diff_calls": c("simdiff.diff_programs"),
        "simdiff.diff_s": t("simdiff.diff_programs"),
        "simdiff.match_functions_s": t("simdiff.match_functions"),
        "simdiff.pair_blocks_calls": c("simdiff.pair_blocks"),
        "simdiff.pair_blocks_s": t("simdiff.pair_blocks"),
        "optinfer.infer_s": t("optinfer.infer_options"),
        "optinfer.probes_fresh": a("optinfer.infer_options.fresh"),
        "optinfer.probes_cached": a("optinfer.infer_options.cached"),
        "matcher.derive_constraints_s": t("matcher.derive_constraints"),
        "matcher.decisions": decisions / requests,
        "matcher.unknown_frac": frac(counts.get("matcher.derive_constraints.unknown", 0), decisions),
        "matcher.conflicts": a("matcher.derive_constraints.conflicts"),
        "conditions.parse_expression_s": t("conditions.parse_expression"),
        "solver.solve_calls": c("solver.solve"),
        "solver.solve_s": t("solver.solve"),
        "solver.unsat_calls": a("solver.solve.unsat"),
        "solver.unsat_s": unsat_s / requests,
        "pipeline.run_case_s": t("pipeline.run_case"),
        "pipeline.refine_builds": a("buildoracle.build.refine"),
        "pipeline.similarity_matrix_s": t("pipeline.similarity_matrix"),
        "pipeline.check_orderings_s": t("pipeline.check_matrix_orderings"),
        "gc.pause_s": t("gc.collect"),
        "gc.gen2_collections": gen2 / requests,
    }
    for layer in LAYERS:
        if layer != "gc":
            metrics[f"{layer}.self_s"] = self_by_layer[layer] / requests
    metrics["trace.request_s"] = request_s / requests
    metrics["trace.uncovered_s"] = uncovered / requests
    return metrics
