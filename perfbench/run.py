"""Wall-clock benchmark for autgrp, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped.  With ``--trace 1`` it instead times untraced and traced passes in
turn and reports the per-layer metrics (self time per layer span, layer
counts, uncovered time and tracing overhead).  Either way it checks every
verdict, pins each reference input's exact counts against
``perfbench/tripwire.json`` and prints one JSON object as its last line.
Times are corrected for the host's speed as ``hostspeed.py`` measures it
between the items; the raw wall times are kept in the report.
A full report, with per-item latencies and, when tracing, every span, is
written to ``.perfbench_out/``.

``--record-tripwire`` rewrites this workload's entry in the tripwire file
from the current tree; use it only when a change is meant to move counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Ticker, corrected, slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRIPWIRE = HERE / "tripwire.json"

SETUP_SAMPLES = 3  # fresh interpreters, one at a time; setup_s is their median
SETUP_SLICES = 8  # kernel slices timed before and after a traced set-up
REFERENCE_SEED = 0  # the seed whose inputs the tripwire pins
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "steps_per_s": "1/s",
    "sim_steps": "count",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-tripwire", action="store_true")
    return p.parse_args(argv)


def timed_setup(wl, tracer=None):
    """Import the package and run the workload's first-time builds.

    Returns the set-up time corrected for host speed, its raw wall time and
    the function that removes the tracer's wrappers (or None).  Untraced, a
    ticker measures the host while the set-up runs; traced, its slices would
    land inside the spans, so kernel slices before and after stand in.
    """
    if tracer is None:
        ticker = Ticker()
        ticker.start()
        start = time.perf_counter()
        import autgrp  # noqa: F401

        wl.setup()
        wall = time.perf_counter() - start
        ticker.stop()
        return (*corrected(wall, ticker.slices), None)

    from tracing import install

    before = slowdown(SETUP_SLICES)
    start = time.perf_counter()
    import autgrp  # noqa: F401, F811

    imported = time.perf_counter()
    tracer.add("cli.import", start, imported)
    uninstall = install(tracer)
    build_start = time.perf_counter()
    wl.setup()
    raw = imported - start + time.perf_counter() - build_start
    return raw / ((before + slowdown(SETUP_SLICES)) / 2), raw, uninstall


def probe_setup(name: str) -> tuple[float, float]:
    """Corrected and raw set-up time in a fresh interpreter, one at a time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    corrected, raw = done.stdout.split()[-2:]
    return float(corrected), float(raw)


def run_passes(wl, items, seconds: float, tracer=None):
    """Closed loop, one client: whole passes over the items until the time is up.

    Returns per item its latencies corrected for host speed, its raw
    latencies and its outcomes, one of each per pass.  An item's slowdown is
    the mean of the kernel slices timed just before and just after it, which
    run outside the item's timing and span, unless the item measured the
    host itself while it ran (``Outcome.slowdown``); then the time of its
    own slices is taken out of its latency.
    """
    from tracing import ITEM

    latencies = [[] for _ in items]
    raw = [[] for _ in items]
    outcomes = [[] for _ in items]
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.pass_no = len(raw[0])
        gc.collect()  # every pass starts from the same heap state
        before = slowdown()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item_span = tracer.open(ITEM)
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # an unexpected exception is a failed item
                out = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(tracer.item_span)
            after = slowdown()
            took = t1 - t0 - getattr(out, "probe_s", 0.0)
            slow = getattr(out, "slowdown", None) or (before + after) / 2
            latencies[i].append(took / slow)
            raw[i].append(took)
            outcomes[i].append(out)
            before = after
        if time.perf_counter() >= deadline:
            return latencies, raw, outcomes


def pass_sums(per_item):
    """Per pass, the sum over the items: the pass's timed phase."""
    return [sum(col) for col in zip(*per_item)]


def plain(value):
    """Counts as JSON would store them, so tuples and lists compare equal."""
    return json.loads(json.dumps(value))


def gate(wl, items, outcomes):
    """Verdict check and pass-to-pass count check, outside any timed region."""
    failed = 0
    attempted = 0
    problems = []
    for i, item in enumerate(items):
        base = None
        for n, out in enumerate(outcomes[i]):
            attempted += 1
            if isinstance(out, Exception):
                why = f"exception {out!r}"
            elif not wl.check(item, out):
                why = f"verdict {plain(out.verdict)} expected {plain(item.expect)}"
            elif base is not None and plain(out.counts) != plain(base.counts):
                why = f"counts {plain(out.counts)} differ from {plain(base.counts)} in the same run"
            else:
                base = base or out
                continue
            failed += 1
            problems.append(f"{item.key} pass {n}: {why}")
    return attempted, failed, problems


def reference_outcomes(wl, ref_items, done):
    """Outcomes of the reference corpus; ``done`` maps (key, input digest) to
    an outcome already measured for that exact input."""
    ref = []
    for item in ref_items:
        out = done.get((item.key, item.digest))
        if out is None:
            try:
                out = wl.run(item)
            except Exception as exc:
                out = exc
        ref.append((item, out))
    return ref


def tripwire_entries(wl, ref):
    entries = {}
    problems = []
    for item, out in ref:
        if isinstance(out, Exception):
            problems.append(f"reference {item.key}: exception {out!r}")
            continue
        if not wl.check(item, out):
            problems.append(f"reference {item.key}: verdict {plain(out.verdict)} expected {plain(item.expect)}")
        entries[item.key] = {"input": item.digest, "verdict": plain(out.verdict), "counts": plain(out.counts)}
    return entries, problems


def dump_tripwire(pinned) -> str:
    """One line per reference input, so a moved count shows as a one-line diff."""
    blocks = []
    for name in sorted(pinned):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pinned[name].items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def compare_tripwire(name, entries):
    pinned = json.loads(TRIPWIRE.read_text()).get(name) if TRIPWIRE.is_file() else None
    if pinned is None:
        return [f"no pinned counts for {name} in {TRIPWIRE.name}"]
    problems = []
    for key in sorted(set(pinned) | set(entries)):
        if pinned.get(key) != entries.get(key):
            problems.append(f"tripwire {key}: pinned {pinned.get(key)} measured {entries.get(key)}")
    return problems


def tail_percentile(n_items: int) -> float:
    """Highest ladder percentile with at least ten item latencies beyond it;
    100 (the maximum) below twenty items."""
    for p in LADDER:
        if n_items - math.ceil(p / 100 * n_items) >= 10:
            return p
    return 100.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(math.ceil(p / 100 * len(xs)), 1) - 1]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autgrp" / "__init__.py").is_file():
        print(f"error: no autgrp package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # load from a single thread: keep numeric libraries off worker threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()

    if args.setup_probe:
        corrected, raw, _ = timed_setup(wl)
        print(repr(corrected), repr(raw))
        return 0

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": wl.name,
        "why": wl.why,
        "sizes": wl.sizes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if args.record_tripwire:
        timed_setup(wl)
        ref = reference_outcomes(wl, wl.corpus(REFERENCE_SEED), {})
        entries, problems = tripwire_entries(wl, ref)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        pinned = json.loads(TRIPWIRE.read_text()) if TRIPWIRE.is_file() else {}
        pinned[wl.name] = entries
        TRIPWIRE.write_text(dump_tripwire(pinned))
        print(f"pinned {len(entries)} reference inputs of {wl.name}")
        return 0

    items = wl.corpus(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    setup_s, setup_raw, uninstall = timed_setup(wl, tracer)
    if uninstall is not None:
        uninstall()

    for item in items:
        if wl.warms(item):
            wl.run(item)

    if not args.trace:
        latencies, raw, outcomes = run_passes(wl, items, args.seconds)
    else:
        from tracing import install, layer_metrics

        latencies, raw, outcomes = run_passes(wl, items, args.seconds / 2)
        uninstall = install(tracer)
        wl.tracer = tracer
        try:
            t_lat, t_raw, t_out = run_passes(wl, items, args.seconds / 2, tracer)
        finally:
            uninstall()
            wl.tracer = None
        for i in range(len(items)):
            outcomes[i].extend(t_out[i])
    walls = pass_sums(latencies)
    raw_walls = pass_sums(raw)

    attempted, failed, problems = gate(wl, items, outcomes)
    ref_items = items if args.seed == REFERENCE_SEED else wl.corpus(REFERENCE_SEED)
    done = {(it.key, it.digest): outs[0] for it, outs in zip(items, outcomes)}
    ref = reference_outcomes(wl, ref_items, done)
    entries, ref_problems = tripwire_entries(wl, ref)
    problems += ref_problems + compare_tripwire(wl.name, entries)
    correct = not problems

    if not args.trace:
        probes = [probe_setup(wl.name) for _ in range(SETUP_SAMPLES)]
        setup_samples = [c for c, _ in probes]
        # an item's latency is its median over the passes, so one slow
        # sample of an item cannot move the tail
        item_latency = [statistics.median(lat) for lat in latencies]
        tail_pct = tail_percentile(len(items))
        steps_per_pass = sum(out.steps for out in (outs[0] for outs in outcomes) if not isinstance(out, Exception))
        run_s = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "latency_p50_ms": 1e3 * statistics.median(item_latency),
            "latency_tail_ms": 1e3 * percentile(item_latency, tail_pct),
            "steps_per_s": steps_per_pass / run_s,
            "sim_steps": sum(out.steps for _, out in ref if not isinstance(out, Exception)),
            "peak_rss_mb": wl.peak_rss_kb() / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report.update(
            setup_samples=setup_samples,
            raw_setup_samples=[r for _, r in probes],
            pass_walls=walls,
            raw_pass_walls=raw_walls,
            latency_items=len(item_latency),
            latency_tail_percentile=tail_pct,
            items=[
                {"key": it.key, "input": it.digest, "ms": [1e3 * x for x in lat], "raw_ms": [1e3 * x for x in r]}
                for it, lat, r in zip(items, latencies, raw)
            ],
        )
        notes = [
            f"failed_frac = {failed / attempted!r} ({failed} of {attempted} item runs)",
            f"latency over {len(items)} items, each the median of its {len(walls)} passes; tail is p{tail_pct:g}",
            f"setup samples (s): {', '.join(f'{x:.4f}' for x in setup_samples)}",
            f"raw wall times: run_s {statistics.median(raw_walls)!r} s, setup_s {statistics.median(r for _, r in probes)!r} s; "
            f"host slowdown per pass {', '.join(f'{r / c:.3f}' for r, c in zip(raw_walls, walls))}",
        ]
    else:
        t_walls, t_raw_walls = pass_sums(t_lat), pass_sums(t_raw)
        traced = {p: (c, r) for p, (c, r) in enumerate(zip(t_walls, t_raw_walls))}
        layer = layer_metrics(tracer.spans, traced, walls, setup_s / setup_raw)
        layer["host.slowdown"] = (statistics.median(r / c for r, c in zip(raw_walls + t_raw_walls, walls + t_walls)), "ratio")
        layer["host.raw_pass_s"] = (statistics.median(raw_walls), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report.update(
            untraced_pass_walls=walls,
            traced_pass_walls=t_walls,
            raw_untraced_pass_walls=raw_walls,
            raw_traced_pass_walls=t_raw_walls,
            spans=tracer.spans,
        )
        notes = [
            f"failed_frac = {failed / attempted!r} ({failed} of {attempted} item runs)",
            f"{len(walls)} untraced and {len(t_walls)} traced passes; {len(tracer.spans)} spans",
        ]

    report.update(correct=correct, attempted=attempted, failed=failed, problems=problems, metrics=metrics)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  nproc {report['nproc']}  report {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']!r} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for line in problems[:20]:
        print(f"  PROBLEM {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
