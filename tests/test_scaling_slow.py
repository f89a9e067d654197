"""Step-count shapes far beyond the tier-1 ranges (run with -m slow).

The array stage engine makes inputs of about 2^20 letters cheap, so these
sweeps check whether the fitted shapes still hold there.  Each test prints
its fit (visible with -s).
"""

import random

import pytest

from autgrp import BenchRow, build_certificate, catalog, fit_complexity, run_bench, solve_bounded

GRIG_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "cbd", "ad" * 4, "ac" * 8, "ab" * 16)


def relator_product(rng: random.Random, n: int) -> str:
    """Conjugates h r h^-1 of Grigorchuk relators, concatenated until the
    length reaches n; the generators are involutions, so h^-1 is h reversed."""
    parts = []
    length = 0
    while length < n:
        h = "".join(rng.choices("abcd", k=rng.randint(0, 8)))
        parts.append(h + rng.choice(GRIG_RELATORS) + h[::-1])
        length += len(parts[-1])
    return "".join(parts)


@pytest.mark.slow
def test_basilica_ab_stays_n_log_n_to_2_20():
    rows = run_bench("basilica-ab", range(4, 20))
    assert rows[-1].n == 2**20
    fit = fit_complexity(rows)
    print("\n".join(["basilica-ab m=4..19", f"winner: {fit.winner}"] + fit.detail_lines()))
    assert fit.winner == "n log n", fit.residuals
    assert fit.advantage("n") >= 2, fit.residuals
    assert fit.advantage("n^2") >= 2, fit.residuals


@pytest.mark.slow
def test_grigorchuk_relator_products_stay_within_n_log_n_to_2_20():
    grig = catalog.get("grigorchuk")
    cert = build_certificate(grig, 2, 1, "item1")
    rows = []
    for m in range(8, 21):
        report = solve_bounded(grig, cert, relator_product(random.Random(f"grigorchuk:{m}"), 2**m))
        assert report.accepted
        rows.append(BenchRow(m, report.input_length, report.stages, report.steps))
    fit = fit_complexity(rows)
    print("\n".join(["grigorchuk relator products m=8..20", f"winner: {fit.winner}"] + fit.detail_lines()))
    # the bound for bounded automata is n log n; these words collapse fast
    # enough that the linear shape wins
    assert fit.winner in ("n", "n log n"), fit.residuals
    assert fit.advantage("n^2") >= 2, fit.residuals
