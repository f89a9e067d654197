"""Benchmark families, model fitting, and the growth-derived time floor."""

import math

import pytest

from autgrp import (
    FAMILIES,
    BenchRow,
    bench_report,
    csv_text,
    fit_complexity,
    get_family,
    growth,
    lower_bound_curve,
    report_json,
    run_bench,
)
from autgrp.bench import DEFAULT_MODELS, LEADING_SHARE
from autgrp.errors import UnknownLetter


def test_registry():
    assert set(FAMILIES) == {"basilica-ab", "poly1-comm", "z4-halving", "heis-halving"}
    fam = get_family("basilica-ab")
    assert fam.default_range == range(4, 15)
    with pytest.raises(UnknownLetter):
        get_family("nope")


def test_rows_have_doubling_inputs():
    rows = run_bench("z4-halving", range(4, 8), seed=1)
    assert [r.n for r in rows] == [16, 32, 64, 128]
    assert all(isinstance(r, BenchRow) for r in rows)
    assert rows[0].astuple() == (4, 16, rows[0].stages, rows[0].steps)


def test_poly1_steps_frozen():
    rows = run_bench("poly1-comm", range(3, 7))
    assert [r.steps for r in rows] == [3074, 7569, 18288, 43503]
    assert [r.n for r in rows] == [32, 64, 128, 256]


def test_bench_is_seed_deterministic():
    a = run_bench("heis-halving", range(4, 6), seed=3)
    b = run_bench("heis-halving", range(4, 6), seed=3)
    assert a == b


def test_planted_n_log_n_recovered():
    pts = [(n, 7 * n * math.log2(n)) for n in (2**k for k in range(10, 21))]
    fit = fit_complexity(pts)
    assert fit.winner == "n log n"
    assert abs(fit.constant - 7) / 7 < 0.05
    assert fit.advantage("n log n") == 1.0
    assert fit.advantage("n") > 1e6  # the planted fit is exact up to rounding


def test_planted_quadratic_recovered():
    pts = [(n, 0.5 * n * n) for n in (2**k for k in range(6, 16))]
    assert fit_complexity(pts).winner == "n^2"


def test_fit_accepts_row_tuples():
    rows = [(m, 2**m, 1, 3 * 2**m) for m in range(5, 12)]
    fit = fit_complexity(rows)
    assert fit.winner == "n"
    assert abs(fit.constant - 3) < 0.01


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_complexity([(8, 100)])
    with pytest.raises(UnknownLetter):
        fit_complexity([(8, 100), (16, 300)], models=("n", "n!"))
    with pytest.raises(ValueError):
        fit_complexity([(8, 0), (16, 300)])
    with pytest.raises(ValueError):
        fit_complexity([(8, 100, 3), (16, 300, 4)])  # unreadable row arity


def test_planted_mixture_names_leading_term():
    # a lower-order term 20 times the leading coefficient, equal at n = 2^20
    pts = [(n, n * math.log2(n) ** 2 + 20 * n * math.log2(n)) for n in (2**k for k in range(10, 21))]
    fit = fit_complexity(pts)
    assert fit.winner == "n log^2 n"
    assert fit.constant == pytest.approx(1, rel=1e-6)
    assert fit.lower["n log^2 n"] == pytest.approx(20, rel=1e-6)
    assert fit.to_dict()["shares"]["n log^2 n"] == pytest.approx(0.5, rel=1e-6)


def test_negligible_leading_term_is_ruled_out():
    # the n log^2 n term is under 3% of the steps at n = 2^20
    pts = [(n, 0.01 * n * math.log2(n) ** 2 + 7 * n * math.log2(n)) for n in (2**k for k in range(10, 21))]
    fit = fit_complexity(pts)
    assert fit.shares["n log^2 n"] < LEADING_SHARE
    assert fit.winner == "n log n"
    assert fit.advantage("n log^2 n") < 1  # the exact but ruled-out fit


def test_fit_accepts_two_rows():
    fit = fit_complexity([(m, 2**m, 1, 3 * 2**m) for m in (5, 6)])
    assert fit.winner == "n"
    assert fit.constant == pytest.approx(3)
    assert fit_complexity([(8, 100), (16, 300)]).winner in DEFAULT_MODELS


def test_csv_shape():
    rows = run_bench("z4-halving", range(4, 6), seed=5)
    text = csv_text(rows, ("m", "n", "stages", "steps"), seed=5)
    lines = text.strip().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == "m,n,stages,steps"
    assert len(lines) == 4
    empty = csv_text([], ("n", "bound"))
    assert empty == "n,bound\n"


def test_report_round_trip():
    import json

    rows = run_bench("z4-halving", range(4, 7), seed=2)
    rep = bench_report("z4-halving", rows, 2, fit_complexity(rows))
    back = json.loads(report_json(rep))
    assert back["family"] == "z4-halving"
    assert back["seed"] == 2
    assert len(back["rows"]) == 3
    assert back["fit"]["winner"] in {"n", "n log n", "n log^2 n", "n^2"}


def test_lower_bound_curve(adding):
    gt = growth(adding, 8)
    curve = lower_bound_curve(gt, range(9))
    assert curve[0] == (0, 0.0)
    for n, bound in curve:
        assert bound == pytest.approx(n * math.log2(2 * n + 1))
    values = [b for _, b in curve]
    assert values == sorted(values)


def test_negative_index_is_a_format_error():
    from autgrp.errors import AutomatonFormatError

    for family in ("poly1-comm", "basilica-ab", "z4-halving"):
        with pytest.raises(AutomatonFormatError, match="m must be >= 0"):
            run_bench(family, range(-1, 1))


def test_empty_model_list_is_a_format_error():
    from autgrp.errors import AutomatonFormatError

    with pytest.raises(AutomatonFormatError, match="no complexity model"):
        fit_complexity([(8, 100), (16, 300)], ())


def test_one_distinct_n_is_a_format_error():
    from autgrp.errors import AutomatonFormatError

    # two rows at one n leave every shape an equal, meaningless residual
    with pytest.raises(AutomatonFormatError, match="two distinct n"):
        fit_complexity([(8, 100), (8, 300)])
    assert fit_complexity([(8, 100), (8, 300), (16, 700)]).winner in DEFAULT_MODELS



def test_an_index_past_the_budget_is_refused_before_any_word():
    # 2^36 copies of the base word ran out of memory: the index is refused
    # from 2^20 copies up, past the ball budget, and the CLI exits 2; under a
    # 512 MB address limit, as every family's word is built at once
    import os
    import subprocess
    import sys

    import autgrp

    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import contextlib, io, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.RLIM_INFINITY))\n"
        "from autgrp import cli_main, run_bench\n"
        "from autgrp.errors import BudgetExceeded\n"
        "for family in ('basilica-ab', 'z4-halving'):\n"
        "    for m in (20, 36):\n"
        "        try:\n"
        "            run_bench(family, [m])\n"
        "        except BudgetExceeded as e:\n"
        "            print(e.budget, e.what)\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        rc = cli_main(['bench', '--family', family, '--m-lo', '36', '--m-hi', '36'])\n"
        "    print(rc, err.getvalue().strip())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    refused = ["1000000 bench index"] * 2 + ["2 error: bench index exceeded budget of 1000000 entries"]
    assert proc.stdout.splitlines() == refused * 2
