"""Command-line interface.

Exit codes: 0 for success (accept / pass), 1 for a negative outcome (reject /
failed check / runtime error), 2 for usage errors.  Every random corpus is
seeded and the seed appears in the report header.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from typing import Optional

from . import catalog
from .automata import _spell, apply, minimize, section_of_word, serialize_automaton
from .contraction import (
    MODES,
    build_certificate,
    check_item,
    check_item_sampled,
    classify_activity,
)
from .errors import AutgrpError, AutomatonFormatError, CertificateNotFound
from .solvers import (
    best_certificate,
    solve_auto,
    solve_bounded,
    solve_contracting,
    solve_oracle,
    solve_polynomial,
)
from .words import csv_text, growth, is_identity_oracle, lower_bound_curve

GROUPS = ("z4", "z2", "heis")
METHODS = ("oracle", "contracting", "bounded", "polynomial", "nilpotent", "auto")


class _FamilyNames:
    """``--family`` choices, read from ``bench`` (which loads numpy) only when
    a bench command is parsed or its help is printed."""

    def __contains__(self, name):
        from .bench import FAMILIES

        return name in FAMILIES

    def __iter__(self):
        from .bench import FAMILIES

        return iter(sorted(FAMILIES))


def _automaton_arg(p, required=True):
    p.add_argument(
        "--automaton",
        required=required,
        metavar="NAME|FILE",
        help=f"built-in name ({', '.join(catalog.names())}) or a description file",
    )


def _report_arg(p, kinds=("json",)):
    p.add_argument("--report", choices=kinds, default=None, help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="autgrp",
        description="Word-problem solvers and benchmarks for automaton groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse an automaton and report its shape")
    _automaton_arg(p)
    _report_arg(p)

    p = sub.add_parser("minimize", help="print the minimized automaton")
    _automaton_arg(p)
    _report_arg(p)

    p = sub.add_parser("dual-section", help="section and image of a word at a vertex")
    _automaton_arg(p)
    p.add_argument("--word", required=True, help="state word ('-' for empty)")
    p.add_argument("--letters", required=True, help="vertex: first-level letters")
    _report_arg(p)

    p = sub.add_parser("solve", help="decide whether a word acts trivially")
    _automaton_arg(p, required=False)
    p.add_argument("--group", choices=GROUPS, help="built-in halving instance")
    p.add_argument("--word", help="input word; '#' separates segments")
    p.add_argument("--word-file", metavar="FILE", help="read the word from a file (whitespace between letters is ignored)")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--degree", type=int, default=None, help="activity degree for --method polynomial")
    _report_arg(p)

    p = sub.add_parser("certify", help="scan a contraction cell")
    _automaton_arg(p)
    p.add_argument("-L", "--block", type=int, required=True, help="section block length")
    p.add_argument("-k", "--power", type=int, required=True, help="alphabet power")
    p.add_argument("--mode", choices=sorted(MODES), required=True)
    p.add_argument("--sample", type=int, default=None, help="sample this many words instead of all")
    p.add_argument("--seed", type=int, default=0)
    _report_arg(p)

    p = sub.add_parser("classify", help="activity class of an automaton")
    _automaton_arg(p)
    _report_arg(p)

    p = sub.add_parser("growth", help="growth table and time lower-bound curve")
    _automaton_arg(p)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--bound", action="store_true", help="append the n*log2(gamma) column")
    _report_arg(p, kinds=("csv", "json"))

    p = sub.add_parser("bench", help="run a benchmark family")
    p.add_argument("--family", choices=_FamilyNames(), required=True, metavar="FAMILY", help="one of %(choices)s")
    p.add_argument("--m-lo", type=int, default=None)
    p.add_argument("--m-hi", type=int, default=None, help="inclusive upper index")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", action="store_true", help="append a complexity fit")
    _report_arg(p, kinds=("csv", "json"))

    p = sub.add_parser("fit", help="fit complexity models to a bench CSV")
    p.add_argument("--input", required=True, help="CSV from the bench subcommand")
    p.add_argument("--models", default=None, help="comma-separated model names (default: n, n log n, n log^2 n, n^2)")
    _report_arg(p)

    p = sub.add_parser("selftest", help="exhaustive small-scale agreement suites")
    p.add_argument("--seed", type=int, default=0)

    return top


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "report", None) == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_validate(args) -> int:
    A = catalog.load(args.automaton)
    m = minimize(A)
    payload = {
        "states": list(A.states),
        "alphabet": list(A.letters),
        "identity": A.identity_name,
        "minimal": len(m.states) == len(A.states),
    }
    _emit(
        args,
        payload,
        f"states: {' '.join(A.states)}\nalphabet: {' '.join(A.letters)}\n"
        f"identity: {A.identity_name or '(none)'}\n"
        f"minimal: {'yes' if payload['minimal'] else f'no ({len(m.states)} states suffice)'}",
    )
    return 0


def _cmd_minimize(args) -> int:
    A = minimize(catalog.load(args.automaton))
    text = serialize_automaton(A)
    _emit(args, {"automaton": text}, text.rstrip("\n"))
    return 0


def _cmd_dual_section(args) -> int:
    A = catalog.load(args.automaton)
    sec = section_of_word(A, args.word, args.letters)
    image = apply(A, args.word, args.letters)
    _emit(
        args,
        {"section": list(sec), "image": image},
        f"section: {_spell(sec) or '-'}\nimage: {image}",
    )
    return 0


def _read_word(args) -> str:
    if (args.word is None) == (args.word_file is None):
        raise UsageError("give exactly one of --word or --word-file")
    if args.word is not None:
        return args.word
    with open(args.word_file, encoding="utf-8") as fh:
        return "".join(fh.read().split())


def _cmd_solve(args) -> int:
    if (args.group is None) == (args.automaton is None):
        raise UsageError("give exactly one of --automaton or --group")
    word = _read_word(args)
    if args.group is not None:
        if args.method not in ("nilpotent", "auto"):
            raise UsageError(f"--group only supports --method nilpotent, not {args.method}")
        from .halving import solve_short

        # a short word of one-character letters is solved on coordinates,
        # without numpy or the tables; any other goes to the instance's parser
        rep = solve_short(args.group, word)
        if rep is None:
            from .nilpotent import build_instance, solve_nilpotent

            rep = solve_nilpotent(build_instance(args.group), word)
    else:
        A = catalog.load(args.automaton)
        method = args.method
        if method == "nilpotent":
            raise UsageError("--method nilpotent needs --group, not --automaton")
        if method == "oracle":
            rep = solve_oracle(A, word)
        elif method in ("contracting", "bounded"):
            cert = best_certificate(A, 4, 2)
            if cert is None:
                raise CertificateNotFound(4, 2)
            solver = solve_contracting if method == "contracting" else solve_bounded
            rep = solver(A, cert, word)
        elif method == "polynomial":
            degree = args.degree
            if degree is None:
                cls = classify_activity(A)
                degree = cls.degree if cls.degree is not None else 0
            rep = solve_polynomial(A, degree, word)
        else:
            rep = solve_auto(A, word)
    _emit(
        args,
        rep.to_dict(),
        f"{'accept' if rep.verdict else 'reject'} method={rep.method} "
        f"n={rep.input_length} stages={rep.stages} steps={rep.steps}",
    )
    return 0 if rep.verdict else 1


def _cmd_certify(args) -> int:
    A = catalog.load(args.automaton)
    if args.sample is not None:
        res = check_item_sampled(A, args.block, args.power, args.mode, args.sample, seed=args.seed)
    else:
        res = check_item(A, args.block, args.power, args.mode)
    payload = {
        "passed": res.passed,
        "mode": args.mode,
        "block": args.block,
        "power": args.power,
        "words_checked": res.words_checked,
        "max_section": res.max_section,
        "max_section_sum": res.max_section_sum,
        "witness": res.witness,
    }
    human = (
        f"{'pass' if res.passed else 'FAIL'} mode={args.mode} L={args.block} k={args.power} "
        f"words={res.words_checked} max_section={res.max_section} max_sum={res.max_section_sum}"
    )
    if res.witness:
        human += f"\nwitness: {res.witness}"
    _emit(args, payload, human)
    return 0 if res.passed else 1


def _cmd_classify(args) -> int:
    A = catalog.load(args.automaton)
    cls = classify_activity(A)
    payload = {"kind": cls.kind, "degree": cls.degree, "bound": cls.bound}
    _emit(args, payload, str(cls))
    return 0


def _cmd_growth(args) -> int:
    A = catalog.load(args.automaton)
    gt = growth(A, args.radius)
    curve = lower_bound_curve(gt, range(args.radius + 1))
    full = [(d, gt[d], curve[d][1]) for d in range(args.radius + 1)]
    if args.report == "json":
        import json

        print(json.dumps({"radius": args.radius, "gamma": list(gt.gamma), "rows": full}, indent=2))
    elif args.bound:
        print(csv_text(full, ("n", "gamma", "n_log2_gamma")), end="")
    else:
        print(csv_text([row[:2] for row in full], ("n", "gamma")), end="")
    return 0


def _cmd_bench(args) -> int:
    from .bench import FAMILIES, bench_report, fit_complexity, report_json, run_bench

    fam = FAMILIES[args.family]
    lo = args.m_lo if args.m_lo is not None else fam.default_range.start
    hi = args.m_hi if args.m_hi is not None else fam.default_range.stop - 1
    if hi < lo:
        raise UsageError("--m-hi must be >= --m-lo")
    rows = run_bench(fam, range(lo, hi + 1), seed=args.seed)
    fit = fit_complexity(rows) if args.fit and len(rows) >= 2 else None
    if args.report == "json":
        print(report_json(bench_report(fam, rows, args.seed, fit)))
    else:
        print(csv_text(rows, ("m", "n", "stages", "steps"), seed=args.seed), end="")
        if fit is not None:
            print(f"# fit winner={fit.winner} constant={fit.constant:.4g}")
            for line in fit.detail_lines():
                print(f"# {line}")
    return 0


def _cmd_fit(args) -> int:
    from .bench import fit_complexity

    with open(args.input, encoding="utf-8") as fh:
        lines = [(i, line.strip()) for i, line in enumerate(fh, 1)]
    rows = []
    data = [(i, line) for i, line in lines if line and not line.startswith("#")]
    for k, (lineno, line) in enumerate(data):
        try:
            values = [float(p) for p in line.split(",")]
        except ValueError:
            values = None
        if values is None and k == 0:
            continue  # the header: only the first line may hold no numbers
        if values is None or not all(map(math.isfinite, values)):
            raise AutomatonFormatError(f"{args.input} line {lineno}: expected finite numbers, got {line!r}")
        rows.append(tuple(int(v) for v in values))
    models = None if args.models is None else tuple(m.strip() for m in args.models.split(",") if m.strip())
    fit = fit_complexity(rows, models)
    _emit(
        args,
        fit.to_dict(),
        "\n".join([f"winner: {fit.winner} (constant {fit.constant:.4g})", *fit.detail_lines()]),
    )
    return 0


def _cmd_selftest(args) -> int:
    from .nilpotent import build_instance, solve_nilpotent, verify_table_closure

    failures = 0

    def suite(name, ok):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    A = catalog.get("grigorchuk")
    cert = best_certificate(A, 4, 2)
    ok = True
    for L in range(0, 5):
        for tup in itertools.product(A.states[1:], repeat=L):
            w = "".join(tup)
            want = is_identity_oracle(A, w)
            if solve_contracting(A, cert, w).verdict != want:
                ok = False
            if solve_bounded(A, cert, w).verdict != want:
                ok = False
    suite("grigorchuk exhaustive length <= 4 (oracle vs certificate solvers)", ok)

    rng = random.Random(args.seed)
    ok = True
    for name in ("basilica", "poly1"):
        B = catalog.get(name)
        # the weak total-shrink cell at (1, 1) can cycle on trivial words, so
        # pin the per-section cell that actually shrinks
        bcert = build_certificate(B, 3, 2, "item1") if name == "basilica" else None
        letters = [s for s in B.states if s != B.identity_name]
        letters += [s.upper() for s in letters]
        for _ in range(200):
            w = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 33)))
            want = solve_oracle(B, w).verdict
            if name == "basilica":
                got = solve_bounded(B, bcert, w).verdict
            else:
                got = solve_polynomial(B, 1, w).verdict
            if got != want:
                ok = False
    suite("basilica/poly1 randomized length <= 32 vs oracle", ok)

    ok = True
    for kind in GROUPS:
        inst = build_instance(kind)
        if not verify_table_closure(inst):
            ok = False
    suite("rewrite-table verification (z4, z2, heis)", ok)

    z4 = build_instance("z4")
    ok = True
    for L in range(0, 8):
        for tup in itertools.product("aAe", repeat=L):
            w = "".join(tup)
            if solve_nilpotent(z4, w).verdict != z4.is_trivial(w):
                ok = False
    suite("z4 exhaustive length <= 7 vs coordinate oracle", ok)

    ok = True
    for name in catalog.names():
        B = catalog.get(name)
        for _ in range(250):
            w = "".join(rng.choice(B.states) for _ in range(rng.randrange(0, 9)))
            x = rng.choice(B.letters)
            v = "".join(rng.choice(B.letters) for _ in range(rng.randrange(0, 7)))
            lhs = apply(B, w, x + v)
            rhs = apply(B, w, x) + apply(B, section_of_word(B, w, x), v)
            if lhs != rhs:
                ok = False
    suite("self-similarity identity across the catalog", ok)

    return 1 if failures else 0


class UsageError(Exception):
    pass


_COMMANDS = {
    "validate": _cmd_validate,
    "minimize": _cmd_minimize,
    "dual-section": _cmd_dual_section,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "classify": _cmd_classify,
    "growth": _cmd_growth,
    "bench": _cmd_bench,
    "fit": _cmd_fit,
    "selftest": _cmd_selftest,
}


def cli_main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, AutgrpError, OSError, ValueError) as exc:
        # exit 1 is reserved for negative verdicts (reject, FAIL); any
        # failure to produce a verdict at all is 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    entry()
