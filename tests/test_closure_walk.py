"""The shared section-closure walker and the shared Moore refinement.

One walker serves the oracle, section tables, canonical keys and the
reference solver, so they must agree on every verdict and enforce one budget
rule.  One refinement serves ``minimize``, the inverse closure and the
transducer keys; it is judged against a local copy of the refinement the
automaton layer used before it was shared.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import autgrp
from autgrp import catalog
from autgrp.automata import (
    MealyAutomaton,
    _partition,
    _quotient,
    alphabet_power,
    invert,
    inverse_closure,
    minimize,
    serialize_automaton,
)
from autgrp.errors import BudgetExceeded
from autgrp.solvers import solve_oracle
from autgrp.words import _oracle_memo, canonical_key, is_identity_oracle, sections_closure

CATALOG = catalog.names()


def _closed(name):
    B = inverse_closure(catalog.get(name)).automaton
    assert inverse_closure(B).automaton == B  # so B's own words reach solve_oracle unchanged
    return B


def _corpus(B):
    S = len(B.states)
    words = [w for n in range(5) for w in itertools.product(range(S), repeat=n)]
    rng = random.Random(17)
    words += [tuple(rng.randrange(S) for _ in range(rng.randrange(5, 13))) for _ in range(40)]
    return words


def _fixes_all(B, w):
    ident = tuple(range(len(B.letters)))
    return all(p == ident for p in sections_closure(B, w).perms)


@pytest.mark.parametrize("name", CATALOG)
def test_oracle_paths_agree(name):
    B = _closed(name)
    words = _corpus(B)
    cold = []
    for w in words:
        _oracle_memo.cache_clear()
        cold.append(is_identity_oracle(B, w))
    _oracle_memo.cache_clear()
    warm = [is_identity_oracle(B, w) for w in words]
    assert [is_identity_oracle(B, w) for w in words] == warm  # answered from the memo
    assert warm == cold
    assert [solve_oracle(B, list(w)).verdict for w in words] == cold
    assert [_fixes_all(B, w) for w in words] == cold
    assert any(cold) and (name == "trivial" or not all(cold))


def _trivial_words(B):
    """Trivial words whose closure has at least two words, so that a budget
    one below its size is a real cap."""
    _oracle_memo.cache_clear()
    found = [w for w in _corpus(B) if is_identity_oracle(B, w) and sections_closure(B, w).size > 1]
    return found[:25]


@pytest.mark.parametrize("name", CATALOG)
def test_budget_rule_is_shared(name):
    B = _closed(name)
    m = len(B.letters)
    words = _trivial_words(B)
    # every section of a word over e, or over flip's s, is the word itself
    assert words or name in ("trivial", "flip")
    for w in words:
        size = sections_closure(B, w).size
        # the budget counts stored letters, and every section word has w's length
        letters = size * len(w)
        sections_closure(B, w, budget=letters)
        canonical_key(B, w, budget=letters)
        _oracle_memo.cache_clear()
        assert is_identity_oracle(B, w, budget=letters)
        report = solve_oracle(B, list(w), budget=letters)
        assert report.verdict
        # every walked word is a section word of the segment's own length
        assert report.steps == m * len(w) * size
        calls = (
            lambda: sections_closure(B, w, budget=letters - 1),
            lambda: canonical_key(B, w, budget=letters - 1),
            lambda: (_oracle_memo.cache_clear(), is_identity_oracle(B, w, budget=letters - 1)),
            lambda: solve_oracle(B, list(w), budget=letters - 1),
        )
        for call in calls:
            with pytest.raises(BudgetExceeded) as err:
                call()
            assert (err.value.budget, err.value.what) == (letters - 1, "section closure")


def test_budget_bounds_the_memory_of_long_words():
    # the lamplighter a = sigma(a, b), b = (a, b) has exponential activity and
    # no certificate, so solve_auto falls back on the oracle; the closure of
    # a trivial 128-letter u u^-1 has far more than 2,000,000 / 128 words, and
    # a budget counted in words let it grow past 2 GB before raising; under a
    # 512 MB address limit both solvers must raise the typed error within 10 s
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import random, resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.RLIM_INFINITY))\n"
        "from autgrp.automata import MealyAutomaton\n"
        "from autgrp.errors import BudgetExceeded\n"
        "from autgrp.solvers import solve_auto, solve_oracle\n"
        "A = MealyAutomaton(('0', '1'), ('a', 'b'), [[1, 0], [1, 0]], [[1, 0], [0, 1]])\n"
        "rng = random.Random(2)\n"
        "u = ''.join(rng.choice('abAB') for _ in range(64))\n"
        "for solve in (solve_oracle, solve_auto):\n"
        "    t = time.perf_counter()\n"
        "    try:\n"
        "        solve(A, u + u[::-1].swapcase())\n"
        "    except BudgetExceeded as e:\n"
        "        print(e.budget, e.what, time.perf_counter() - t < 10)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2000000 section closure True"] * 2


# ---- the Moore refinement, against the automaton layer's former copy ----

def _former_partition(A):
    def renumber(items):
        ids = {}
        return [ids.setdefault(it, len(ids)) for it in items]

    n = len(A.states)
    cls = renumber([A._out[s] for s in range(n)])
    while True:
        sigs = [(cls[s], tuple(cls[t] for t in A._next[s])) for s in range(n)]
        new = renumber(sigs)
        if len(set(new)) == len(set(cls)):
            return new
        cls = new


def _union(A):
    """The automaton of A's states and their inverses, named as the inverse
    closure names them before merging."""
    inv = invert(A)
    taken = set(A.states)
    names = []
    for c in inv.states:
        while c in taken:
            c += "'"
        taken.add(c)
        names.append(c)
    n = len(A.states)
    nxt = [list(r) for r in A._next] + [[t + n for t in r] for r in inv._next]
    out = [list(r) for r in A._out] + [list(r) for r in inv._out]
    return MealyAutomaton(A.letters, A.states + tuple(names), nxt, out, identity=A.identity)


def _random_automaton(rng):
    m = rng.choice((2, 3))
    n = rng.randint(1, 4)
    nxt = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    out = [rng.sample(range(m), m) for _ in range(n)]
    return MealyAutomaton([str(x) for x in range(m)], [f"s{i}" for i in range(n)], nxt, out)


def _automata():
    base = [catalog.get(name) for name in CATALOG]
    rng = random.Random(23)
    return base + [alphabet_power(A, 2) for A in base] + [_random_automaton(rng) for _ in range(30)]


def test_refinement_matches_the_former_partition():
    merged_somewhere = False
    for A in _automata():
        old = _former_partition(A)
        assert _partition(A._next, A._out) == old
        want = A if len(set(old)) == len(A.states) else _quotient(A, old)
        assert serialize_automaton(minimize(A)) == serialize_automaton(want)
        U = _union(A)
        assert _partition(U._next, U._out) == _former_partition(U)
        want_ic = _quotient(U, _former_partition(U))
        assert serialize_automaton(inverse_closure(A).automaton) == serialize_automaton(want_ic)
        merged_somewhere |= want is not A
    assert merged_somewhere
