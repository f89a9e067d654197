"""Seeded differential fuzzing against the exponential oracle.

Small random automata (an identity state, 1-3 nontrivial states, 2-3
letters) get random words and planted ``u u^-1`` words.  Every solver that
applies must agree with ``solve_oracle``; any other outcome must be a typed
``AutgrpError``, except that ``solve_auto`` may never raise
``NonTermination``: it dispatches only to solvers that terminate.  Each
automaton's Cayley balls are also asked for in shuffled radius order and
compared field by field with balls built fresh after ``cache_clear()``.

The tier-1 profile takes a few seconds; ``-m slow`` runs longer profiles.
"""

import random

import pytest

from autgrp.automata import MealyAutomaton, inverse_closure
from autgrp.contraction import best_certificate, classify_activity, loopify
from autgrp.errors import AutgrpError, NonTermination
from autgrp.solvers import solve_auto, solve_bounded, solve_contracting, solve_oracle, solve_polynomial
from autgrp.words import cayley_ball

# the bounded 3-cycle s1 = (s2, e), s2 = (s3, e), s3 = sigma(s1, e): its only
# certificate in the (4, 2) box is item2 at (1, 1), under which s2 s2^-1
# maps to s3 s3^-1, s1 s1^-1, ... and never shrinks
THREE_CYCLE = MealyAutomaton(
    "01", ["e", "s1", "s2", "s3"], [[0, 0], [2, 0], [3, 0], [1, 0]], [[0, 1], [0, 1], [0, 1], [1, 0]], identity="e"
)
BALL_RADIUS = 4


def _random_automaton(rng):
    m = rng.choice((2, 3))
    n = rng.randint(1, 3)
    nxt = [[0] * m]
    out = [list(range(m))]
    for _ in range(n):
        # lean toward the identity so that bounded and polynomial automata
        # are common, not only exponential ones
        nxt.append([0 if rng.random() < 0.45 else rng.randrange(n + 1) for _ in range(m)])
        out.append(rng.sample(range(m), m))
    return MealyAutomaton([str(x) for x in range(m)], ["e"] + [f"s{i}" for i in range(1, n + 1)], nxt, out, identity="e")


def _words(rng, A, count):
    """Random words, planted ``u u^-1`` words, ``u u^-1`` planted inside a
    random word, and one power of ``u u^-1`` past 300 letters for the array
    engine, over the inverse closure's state names."""
    ic = inverse_closure(A)
    names = ic.automaton.states
    gens = [s for s in range(len(names)) if s != ic.automaton.identity] or [ic.automaton.identity]
    u = [rng.choice(gens) for _ in range(rng.randint(1, 5))]
    unit = u + list(ic.inverse_word(u))
    words = [" ".join(names[s] for s in unit * (300 // len(unit) + 1))]
    for j in range(count - 1):
        w = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        u = [rng.choice(gens) for _ in range(rng.randint(1, 5))]
        planted = u + list(ic.inverse_word(u))
        if j % 3 == 1:
            w = planted
        elif j % 3 == 2:
            i = rng.randrange(len(w) + 1)
            w = w[:i] + planted + w[i:]
        words.append(" ".join(names[s] for s in w))
    return words


def _solvers(A):
    """(name, solve) for every solver that applies to A besides the oracle."""
    solvers = [("auto", lambda w: solve_auto(A, w))]
    cert = best_certificate(A, 4, 2)
    cls = classify_activity(A)
    if cert is not None:
        solvers.append(("contracting", lambda w: solve_contracting(A, cert, w)))
        if cls.is_bounded:
            solvers.append(("bounded", lambda w: solve_bounded(A, cert, w)))
    if cls.kind != "exponential":
        flattened, _ = loopify(A)
        solvers.append(("reset-rule", lambda w: solve_polynomial(flattened, cls.degree, w)))
    return solvers


def _fields(ball):
    return list(ball.keys.items()), ball.reps, ball.length, ball.edges, ball.radius, ball.gens


def _check_balls(A, label):
    B = inverse_closure(A).automaton
    radii = list(range(BALL_RADIUS + 1))
    random.Random(label).shuffle(radii)
    grown = {r: _fields(cayley_ball(B, r)) for r in radii}
    for r in radii:
        cayley_ball.cache_clear()
        assert _fields(cayley_ball(B, r)) == grown[r], (label, r)


def _fuzz(A, label, rng, words):
    """Run every applicable solver on each word; returns the disagreements
    and a tally of (solver, outcome)."""
    bad = []
    tally = {}
    solvers = _solvers(A)
    for w in _words(rng, A, words):
        truth = solve_oracle(A, w).verdict
        for name, solve in solvers:
            try:
                verdict = solve(w).verdict
            except NonTermination as exc:
                if name == "auto":
                    bad.append((label, name, w, repr(exc)))
                outcome = "nontermination"
            except AutgrpError:
                outcome = "error"
            else:
                if verdict != truth:
                    bad.append((label, name, w, verdict, truth))
                outcome = "agree"
            tally[name, outcome] = tally.get((name, outcome), 0) + 1
    return bad, tally


def _profile(seed, automata, words):
    rng = random.Random(seed)
    bad = []
    tally = {}
    for k in range(automata):
        A = _random_automaton(rng)
        label = f"{seed}/{k}"
        _check_balls(A, label)
        found, counts = _fuzz(A, label, rng, words)
        bad += found
        for key, n in counts.items():
            tally[key] = tally.get(key, 0) + n
    return bad, tally


def test_three_cycle_auto_agrees_with_oracle():
    cert = best_certificate(THREE_CYCLE, 4, 2)
    assert (cert.mode, cert.block, cert.power) == ("item2", 1, 1)
    for w in ("s2 s2^-1", "s1 s1^-1", "s3 s2 s2^-1 s3^-1", "s1 s2", "s3 s3"):
        assert solve_auto(THREE_CYCLE, w).verdict == solve_oracle(THREE_CYCLE, w).verdict, w
    assert solve_auto(THREE_CYCLE, "s2 s2^-1").method == "polynomial"
    # the weak certificate stays available to an explicit call
    with pytest.raises(NonTermination):
        solve_bounded(THREE_CYCLE, cert, "s2 s2^-1")
    bad, _ = _fuzz(THREE_CYCLE, "three-cycle", random.Random(0), 30)
    assert bad == []


def test_fuzz_profile():
    bad, tally = _profile(1, 150, 10)
    assert bad == []
    # the profile reaches every solver and agrees somewhere with each
    for name in ("auto", "contracting", "bounded", "reset-rule"):
        assert tally.get((name, "agree"), 0) > 0, (name, tally)


@pytest.mark.slow
@pytest.mark.parametrize("seed", (2, 3))
def test_fuzz_profile_long(seed):
    bad, _ = _profile(seed, 800, 12)
    assert bad == []
