"""In-memory spans around the public calls into each autgrp layer.

The benchmark never edits the package: ``install`` replaces each traced
function, wherever an ``autgrp`` module holds a reference to it, with a
wrapper that records a span (name, start, end, parent) plus the counts the
call's result exposes (``StepReport`` steps, stages and peak tape,
``ItemCheck.words_checked``, and the per-call delta of a certificate's
``table_reads``, which the certificate itself only accumulates).  Spans stay
in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, attribute or Class.method, span name).  Span names are the layer
# metric names without their unit suffix.
TARGETS = (
    ("autgrp.automata", "InverseClosure.parse", "automata.tape_parse"),
    ("autgrp.automata", "inverse_closure", "automata.inverse_closure"),
    ("autgrp.words", "cayley_ball", "words.cayley_ball"),
    ("autgrp.words", "growth", "words.growth"),
    ("autgrp.contraction", "check_item", "contraction.check_item"),
    ("autgrp.contraction", "build_certificate", "contraction.build_certificate"),
    ("autgrp.contraction", "classify_activity", "contraction.classify"),
    ("autgrp.solvers", "best_certificate", "contraction.best_certificate"),
    ("autgrp.solvers", "solve_bounded", "solvers.bounded"),
    ("autgrp.solvers", "solve_contracting", "solvers.contracting"),
    ("autgrp.solvers", "solve_polynomial", "solvers.polynomial"),
    ("autgrp.solvers", "solve_auto", "solvers.auto"),
    ("autgrp.solvers", "solve_oracle", "solvers.oracle"),
    ("autgrp.nilpotent", "build_instance", "nilpotent.build_instance"),
    ("autgrp.nilpotent", "NilpotentInstance.parse", "nilpotent.parse"),
    ("autgrp.nilpotent", "solve_nilpotent", "nilpotent.solve"),
    ("autgrp.bench", "run_bench", "bench.run_bench"),
    ("autgrp.bench", "fit_complexity", "bench.fit"),
)

CLI_COMMANDS = ("solve", "certify", "classify", "bench")

# Layer spans whose self time is reported, in output order.
LAYER_SPANS = ("cli.import",) + tuple(f"cli.{c}" for c in CLI_COMMANDS) + tuple(t[2] for t in TARGETS)

# Solvers whose StepReport is their own work; solve_auto only forwards the
# report of the solver it dispatched to, which has its own span.
LEAF_SOLVERS = ("solvers.bounded", "solvers.contracting", "solvers.polynomial")

ITEM = "harness.item"

COUNT_METRICS = (
    "solvers.steps",
    "solvers.stages",
    "solvers.table_reads",
    "solvers.peak_tape",
    "solvers.oracle_steps",
    "nilpotent.steps",
    "nilpotent.stages",
    "contraction.words_checked",
)


class Tracer:
    """Spans as lists ``[name, start, end, parent, pass_no, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_no = -1  # -1 is set-up
        self.item_span = -1  # the open harness.item span, parent of spans from child processes

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_no, None])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.pass_no, None])

    def extend(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, up, _, attrs in spans:
            self.spans.append([name, start, end, up + base if up >= 0 else parent, self.pass_no, attrs])


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer):
    """Wrap every target so that each call records a span in ``tracer``.

    Returns a function that puts the original functions back.
    """
    from autgrp.contraction import ContractionCertificate, ItemCheck
    from autgrp.solvers import StepReport

    def counts(result, cert, reads_before):
        attrs = None
        if isinstance(result, StepReport):
            attrs = {
                "steps": result.steps,
                "stages": result.stages,
                "peak_tape": max(result.stage_tape, default=0),
            }
        elif isinstance(result, ItemCheck):
            attrs = {"words_checked": result.words_checked}
        if cert is not None:
            attrs = attrs or {}
            attrs["table_reads"] = cert.table_reads - reads_before
        return attrs

    def wrap(original, span):
        def wrapper(*args, **kwargs):
            cert = next((a for a in args if isinstance(a, ContractionCertificate)), kwargs.get("cert"))
            before = cert.table_reads if cert is not None else 0
            i = tracer.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(i)
            tracer.spans[i][5] = counts(result, cert, before)
            return result

        wrapper.__wrapped__ = original
        if hasattr(original, "cache_clear"):
            wrapper.cache_clear = original.cache_clear  # lru_cache targets stay clearable
        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "autgrp" or n.startswith("autgrp.")]
    undo = []
    for modname, path, span in TARGETS:
        module = sys.modules[modname]
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = wrap(original, span)
        # rebind every reference, including those made by `from x import f`
        holders = [owner] if owner is not module else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))

    def uninstall():
        for holder, key, original in undo:
            setattr(holder, key, original)

    return uninstall


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], traced: dict[int, tuple], untraced_walls: list[float], setup_scale: float) -> dict:
    """Per-layer metrics from one set-up and the median traced pass.

    ``traced`` maps each traced pass to its timed phase corrected for host
    speed and raw; span times are raw, so each is scaled by its pass's
    corrected-to-raw ratio, or by ``setup_scale`` during set-up.  A layer
    time is the layer's self time during set-up plus its median self time
    per traced pass.  Counts are per pass (they repeat exactly).
    ``trace.uncovered_s`` is the median part of a pass's items not inside
    any layer span: harness bookkeeping, process start-up and untraced glue
    code.
    """
    own = self_times(spans)
    passes = sorted(traced)
    pass_walls = {p: traced[p][1] for p in passes}
    scale = {p: traced[p][0] / traced[p][1] for p in passes}
    setup = {n: 0.0 for n in LAYER_SPANS}
    per_pass = {p: {n: 0.0 for n in LAYER_SPANS} for p in passes}
    counts = {p: {} for p in passes}
    covered = {p: 0.0 for p in passes}
    item_ids = {i for i, s in enumerate(spans) if s[0] == ITEM}
    n_spans = {p: 0 for p in passes}
    for i, (name, start, end, parent, pass_no, attrs) in enumerate(spans):
        if pass_no < 0:
            if name in setup:
                setup[name] += own[i] * setup_scale
            continue
        n_spans[pass_no] += 1
        if name in per_pass[pass_no]:
            per_pass[pass_no][name] += own[i] * scale[pass_no]
        if name != ITEM and (parent < 0 or parent in item_ids):
            covered[pass_no] += end - start
        if attrs:
            c = counts[pass_no]
            if name in LEAF_SOLVERS:
                for key in ("steps", "stages", "table_reads"):
                    c[f"solvers.{key}"] = c.get(f"solvers.{key}", 0) + attrs.get(key, 0)
                c["solvers.peak_tape"] = max(c.get("solvers.peak_tape", 0), attrs["peak_tape"])
            elif name == "solvers.oracle":
                c["solvers.oracle_steps"] = c.get("solvers.oracle_steps", 0) + attrs["steps"]
            elif name == "nilpotent.solve":
                c["nilpotent.steps"] = c.get("nilpotent.steps", 0) + attrs["steps"]
                c["nilpotent.stages"] = c.get("nilpotent.stages", 0) + attrs["stages"]
            elif name == "contraction.check_item":
                c["contraction.words_checked"] = c.get("contraction.words_checked", 0) + attrs["words_checked"]

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = (setup[name] + med([per_pass[p][name] for p in passes]), "s")
    for key in COUNT_METRICS:
        out[key] = (counts[passes[0]].get(key, 0) if passes else 0, "count")
    traced_s = med([traced[p][0] for p in passes])
    untraced = med(untraced_walls)
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.untraced_pass_s"] = (untraced, "s")
    out["trace.overhead"] = (traced_s / untraced - 1.0 if untraced else 0.0, "ratio")
    out["trace.uncovered_s"] = (med([(pass_walls[p] - covered[p]) * scale[p] for p in passes]), "s")
    out["trace.spans"] = (med([n_spans[p] for p in passes]), "count")
    return out
