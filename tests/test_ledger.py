"""Every solver's report read off its ledger, one ``StageRecord`` per pass.

The phases of the records sum to ``steps``, their tapes and longest
segments are ``stage_tape`` and ``stage_max_segment``, one pass more than
``stages``, and their table reads are what the solve added to the
rewriter's ``table_reads``: on both stage engines, across the engine
handoff, for the oracle and for the halving solver across both of its cuts.
"""

import random

import pytest

from autgrp import solve_bounded, solve_nilpotent, solve_oracle
from autgrp import solvers as S
from autgrp import vectorized as V
from autgrp.nilpotent import _LIST_MAX, _PACKED_MIN, random_trivial_word

GRIG_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "cbd", "ad" * 4, "ac" * 8, "ab" * 16)


def grig_trivial(rng, n):
    parts = []
    while sum(map(len, parts)) < n:
        g = "".join(rng.choices("abcd", k=rng.randint(0, 6)))
        parts.append(g + rng.choice(GRIG_RELATORS) + g[::-1])
    return "".join(parts)


def free_trivial(u):
    return u + u[::-1].swapcase()


def assert_read_off(report, reads=0, phases=4):
    """The report's counts are its ledger's; every pass but the last ran all
    ``phases`` phases, and the last ran some of them."""
    ledger = report.ledger
    assert ledger and all(isinstance(r, S.StageRecord) for r in ledger)
    assert sum(sum(r.phases) for r in ledger) == report.steps
    assert report.stages == len(report.stage_tape) - 1 == len(ledger) - 1
    assert report.stage_tape == tuple(r.tape for r in ledger)
    assert report.stage_max_segment == tuple(r.max_segment for r in ledger)
    assert sum(r.table_reads for r in ledger) == reads
    assert all(len(r.phases) == phases for r in ledger[:-1])
    assert len(ledger[-1].phases) <= phases


@pytest.fixture(scope="module")
def plans(grig, basilica, poly1, grig_cert, basilica_cert):
    rng = random.Random(26)
    grig_words = (
        "ab" * 16 + "#adad#cdb#" + "ac" * 7 + "a",
        grig_trivial(rng, 600) + "#" + grig_trivial(rng, 40),
        "".join(rng.choices("abcd", k=400)),
        "cdb",
        "",
    )
    u = "".join(rng.choices("abAB", k=150))
    bas_words = (free_trivial(u) + "#aA#" + free_trivial("aab"), free_trivial(u) + "a", "ab" * 24, "ABba")
    poly_words = (free_trivial("babAb") + "#" + free_trivial("bbA"), "babA" * 80, free_trivial(u), "bb")
    return {
        "contracting": (S._plan(grig, "contracting", grig_cert), grig_words),
        "bounded": (S._plan(basilica, "bounded", basilica_cert), bas_words),
        "polynomial-cert": (S._plan(basilica, "polynomial", basilica_cert, 0), bas_words),
        "polynomial": (S._plan(poly1, "polynomial", None, 1), poly_words),
    }


@pytest.mark.parametrize("name", ["contracting", "bounded", "polynomial-cert", "polynomial"])
def test_staged_reports_are_read_off_the_ledger(plans, name):
    (rw, rules), words = plans[name]
    table = V.dense_table(rw)
    verdicts = set()
    for w in words:
        ledgers = []
        for tape in (S._ListTape(S._parse_tape(rw.closure.parse, w)), V._ArrayTape(table, *table.parse(w))):
            before = rw.table_reads
            report = S._drive(rw, tape, rules)
            assert_read_off(report, rw.table_reads - before)
            ledgers.append(report.ledger)
            verdicts.add(report.verdict)
        assert ledgers[0] == ledgers[1], w
    assert verdicts == {True, False}


def test_handoff_ledger_equals_the_python_tape_ledger(monkeypatch, grig, grig_cert):
    rw, rules = S._plan(grig, "bounded", grig_cert)
    w = grig_trivial(random.Random(7), 1500)
    rewrites = []
    for engine in (S._ListTape, V._ArrayTape):
        rewrite = engine.rewrite
        monkeypatch.setattr(engine, "rewrite", lambda self, *a, f=rewrite: rewrites.append(type(self)) or f(self, *a))
    before = rw.table_reads
    handed = S._run_stages(rw, rules, w)
    assert_read_off(handed, rw.table_reads - before)
    assert V._ArrayTape in rewrites and S._ListTape in rewrites  # the solve changed engines
    del rewrites[:]
    python = S._drive(rw, S._ListTape(S._parse_tape(rw.closure.parse, w)), rules)
    assert set(rewrites) == {S._ListTape}
    assert handed.verdict and handed.ledger == python.ledger
    assert handed == python


def test_oracle_has_one_record_of_the_staged_tape(grig, grig_cert):
    for w in ("aa#bb#cc", "cdb", "ab#ac", "a##b", ""):
        report = solve_oracle(grig, w)
        assert_read_off(report, phases=1)
        assert len(report.ledger) == 1 and report.stages == 0
        # letters plus separators, as the staged solvers' first pass reads it
        assert report.stage_tape[0] == solve_bounded(grig, grig_cert, w).stage_tape[0], w
    assert solve_oracle(grig, "aa#bb#cc").stage_tape == (8,)
    assert solve_oracle(grig, "aa#bb#cc").input_length == 6


def test_halving_ledger_across_both_cuts(heis):
    word = random_trivial_word(heis, 4 * _PACKED_MIN + 6, random.Random(3))
    # a^64 = phi^3(a) rejects at the fourth pass, in the list finish
    for w, verdict, last in ((word, True, 1), (word + "a" * 64, False, 2)):
        report = solve_nilpotent(heis, w)
        assert report.verdict is verdict
        live = report.detail["stage_nontrivial"]
        assert live[0] >= 2 * _PACKED_MIN  # the packed-byte scan
        assert any(0 < k < _LIST_MAX for k in live)  # the Python list finish
        assert_read_off(report, phases=3)
        n = report.input_length
        assert all(r.tape == r.max_segment == n for r in report.ledger)
        assert [r.phases[-1] - n for r in report.ledger[:-1]] == live[:-1]  # one write per live letter
        assert report.ledger[-1].phases == (n,) * last
