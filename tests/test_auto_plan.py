"""solve_auto's dispatch is searched once per automaton and box.

The plan lives on the automaton's ``InverseClosure``: later words reuse it,
``inverse_closure.cache_clear()`` drops it, and a search that raises leaves
nothing behind.  Every report equals the one of the unmemoized dispatch.
"""

import random

import pytest

from autgrp import catalog, contraction, solvers
from autgrp.automata import MealyAutomaton, inverse_closure
from autgrp.contraction import best_certificate, classify_activity, loopify
from autgrp.errors import BudgetExceeded
from autgrp.solvers import (
    solve_auto,
    solve_bounded,
    solve_contracting,
    solve_oracle,
    solve_polynomial,
)

# two states, no identity state: no certificate and no classification
LAMPLIGHTER = MealyAutomaton(("0", "1"), ("a", "b"), [[1, 0], [1, 0]], [[1, 0], [0, 1]])
# the bounded 3-cycle s1 = (s2, e), s2 = (s3, e), s3 = sigma(s1, e): its best
# certificate in the (4, 2) box is item2, which the dispatch skips
THREE_CYCLE = MealyAutomaton(
    "01", ["e", "s1", "s2", "s3"], [[0, 0], [2, 0], [3, 0], [1, 0]], [[0, 1], [0, 1], [0, 1], [1, 0]], identity="e"
)


def _reference(A, tape, search_block=4, search_power=2):
    """The dispatch searched afresh: best_certificate unless it is item2,
    else the reset-rule solver on the flattened automaton for bounded and
    polynomial activity, else the oracle."""
    cert = best_certificate(A, search_block, search_power)
    if cert is not None and cert.mode != "item2":
        if A.identity is not None and classify_activity(A).is_bounded:
            return solve_bounded(A, cert, tape)
        return solve_contracting(A, cert, tape)
    if A.identity is not None:
        cls = classify_activity(A)
        if cls.kind != "exponential":
            flattened, _ = loopify(A)
            return solve_polynomial(flattened, cls.degree, tape)
    return solve_oracle(A, tape)


def _fields(r):
    return (r.method, r.verdict, r.steps, r.stages, r.stage_tape, r.stage_max_segment, r.detail)


def _words(A, seed, long_word):
    """Seeded short words over the inverse closure's states, trivial and
    random, and with ``long_word`` one trivial word of 256 letters."""
    ic = inverse_closure(A)
    B = ic.automaton
    rng = random.Random(f"{seed}:auto-plan")
    letters = range(len(B.states))
    words = []
    for n in (1, 2, 3, 5, 8, 11):
        u = [rng.choice(letters) for _ in range(n)]
        words.append(u + list(ic.inverse_word(u)))
        words.append([rng.choice(letters) for _ in range(n)])
    if long_word:
        u = [rng.choice(letters) for _ in range(128)]
        words.append(u + list(ic.inverse_word(u)))
    return [tuple(B.states[s] for s in w) for w in words]


@pytest.fixture
def first_cells_calls(monkeypatch):
    calls = []
    original = contraction._first_cells

    def counted(*args):
        calls.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(contraction, "_first_cells", counted)
    inverse_closure.cache_clear()
    return calls


def test_search_runs_once_per_box(first_cells_calls, basilica):
    words = ["aA", "ab", "abAB", "ba" * 4, "aBBa"]
    for w in words:
        solve_auto(basilica, w)
    assert first_cells_calls == [(4, 2)]
    solve_auto(basilica, "ab", search_block=3, search_power=1)
    solve_auto(basilica, "ab", 3, 1)
    assert first_cells_calls == [(4, 2), (3, 1)]
    # a fresh but equal automaton shares the closure, so the plan too
    solve_auto(catalog.get("basilica"), "abAB")
    assert len(first_cells_calls) == 2


def test_cache_clear_drops_the_plan(first_cells_calls, grig):
    solve_auto(grig, "abab")
    solve_auto(grig, "cdb")
    inverse_closure.cache_clear()
    solve_auto(grig, "abab")
    solve_auto(grig, "aa")
    assert first_cells_calls == [(4, 2), (4, 2)]


@pytest.mark.parametrize("name", catalog.names() + ("three-cycle",))
def test_plan_reports_equal_the_fresh_dispatch(name):
    A = THREE_CYCLE if name == "three-cycle" else catalog.get(name)
    words = _words(A, 7, long_word=True)
    expected = [_fields(_reference(A, w)) for w in words]
    if name == "three-cycle":
        assert best_certificate(A, 4, 2).mode == "item2"
        assert {e[0] for e in expected} == {"polynomial"}
    inverse_closure.cache_clear()
    first = [_fields(solve_auto(A, w)) for w in words]
    again = [_fields(solve_auto(A, w)) for w in reversed(words)][::-1]
    assert first == expected
    assert again == expected
    assert max(map(len, words)) >= max(256, solvers._VECTOR_MIN_LETTERS)  # the array engine


def test_long_word_runs_on_the_kept_dense_table(monkeypatch, basilica):
    from autgrp import vectorized

    built, runs = [], []
    cert_table, run_stages = vectorized._cert_table, vectorized.run_stages
    monkeypatch.setattr(vectorized, "_cert_table", lambda rw: built.append(rw) or cert_table(rw))
    monkeypatch.setattr(vectorized, "run_stages", lambda *a: runs.append(a) or run_stages(*a))
    inverse_closure.cache_clear()
    w = "ab" * 128 + "BA" * 128
    first = _fields(solve_auto(basilica, w))
    again = _fields(solve_auto(basilica, w))
    assert len(runs) == 2  # the array engine ran both times
    assert len(built) == 1  # on the table the first call built
    assert first == again == _fields(solve_bounded(basilica, best_certificate(basilica, 4, 2), w))


def test_oracle_branch_without_identity_state():
    inverse_closure.cache_clear()
    words = _words(LAMPLIGHTER, 3, long_word=False)
    expected = [_fields(_reference(LAMPLIGHTER, w)) for w in words]
    assert {e[0] for e in expected} == {"oracle"}
    for _ in range(2):
        assert [_fields(solve_auto(LAMPLIGHTER, w)) for w in words] == expected
    assert list(inverse_closure(LAMPLIGHTER).plans) == [(4, 2)]


@pytest.mark.parametrize(
    "stage, name",
    [("best_certificate", "basilica"), ("classify_activity", "basilica"), ("classify_activity", "poly1")],
)
def test_failed_search_keeps_no_plan(monkeypatch, stage, name):
    A = catalog.get(name)
    calls = []

    def raising(*args):
        calls.append(args)
        raise BudgetExceeded(1, "test search")

    inverse_closure.cache_clear()
    monkeypatch.setattr(solvers, stage, raising)
    for attempt in (1, 2):
        with pytest.raises(BudgetExceeded, match="test search"):
            solve_auto(A, "aA")
        assert len(calls) == attempt
        assert inverse_closure(A).plans == {}
    monkeypatch.undo()
    assert _fields(solve_auto(A, "aA")) == _fields(_reference(A, "aA"))
