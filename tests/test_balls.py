"""Cayley balls built by composing keys, against the word-rescanning BFS."""

import random

import pytest

from autgrp import catalog, words
from autgrp.automata import inverse_closure
from autgrp.errors import AutomatonFormatError, BudgetExceeded
from autgrp.words import _ball_layers, _times_states, canonical_key, cayley_ball, growth, word_length


def _automaton(name, closed):
    A = catalog.get(name)
    return inverse_closure(A).automaton if closed else A


def _automata():
    for name in catalog.names():
        for closed in (False, True):
            yield f"{name}{'^-1' if closed else ''}", _automaton(name, closed)


def _reference_ball(A, radius):
    """The ball BFS that keys every candidate word with canonical_key."""
    gens = [s for s in range(len(A.states)) if s != A.identity]
    keys = {canonical_key(A, ()): 0}
    reps, length, edges = [()], [0], [None]
    frontier = [0]
    for dist in range(1, radius + 1):
        new_frontier = []
        for i in frontier:
            row = []
            for g in gens:
                cand = reps[i] + (g,)
                key = canonical_key(A, cand)
                if key not in keys:
                    keys[key] = len(reps)
                    reps.append(cand)
                    length.append(dist)
                    edges.append(None)
                    new_frontier.append(keys[key])
                row.append(keys[key])
            edges[i] = tuple(row)
        frontier = new_frontier
    return keys, reps, length, edges


@pytest.mark.parametrize("closed", (False, True), ids=("plain", "inverse-closed"))
@pytest.mark.parametrize("name", catalog.names())
def test_ball_matches_rescanning_bfs(name, closed):
    A = _automaton(name, closed)
    for radius in range(6):
        ball = cayley_ball(A, radius)
        for i, rep in enumerate(ball.reps):
            assert ball.keys[canonical_key(A, rep)] == i, (name, closed, radius, rep)
        keys, reps, length, edges = _reference_ball(A, radius)
        assert ball.keys == keys, (name, closed, radius)
        assert list(ball.keys) == list(keys), (name, closed, radius)
        assert ball.reps == reps, (name, closed, radius)
        assert ball.length == length, (name, closed, radius)
        assert ball.edges == edges, (name, closed, radius)
        assert ball.radius == radius


def test_times_states_fold_to_canonical_key():
    rng = random.Random(5)
    for label, A in _automata():
        states = range(len(A.states))  # identity letters included
        for _ in range(40):
            word = tuple(rng.choice(states) for _ in range(rng.randrange(0, 10)))
            key = canonical_key(A, ())
            for s in word:
                key = _times_states(A, key, (s,))[0]
            assert key == canonical_key(A, word), (label, word)
            # all states at once, repeats included, share one product
            gens = [rng.choice(states) for _ in range(4)] + list(states)
            composed = _times_states(A, key, gens)
            assert composed == [canonical_key(A, word + (g,)) for g in gens], (label, word)


def test_ball_budget_and_cache(grig):
    cayley_ball.cache_clear()
    n = cayley_ball(grig, 3).size
    assert cayley_ball(grig, 3, budget=n).size == n
    with pytest.raises(BudgetExceeded) as exc:
        cayley_ball(grig, 3, budget=n - 1)
    assert exc.value.what == "ball BFS"
    assert exc.value.budget == n - 1

    cayley_ball.cache_clear()
    cayley_ball(grig, 2)
    info = cayley_ball.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    cayley_ball(grig, 2)
    assert cayley_ball.cache_info().hits == 1


def test_negative_radius_is_a_format_error(grig):
    with pytest.raises(AutomatonFormatError):
        cayley_ball(grig, -1)
    with pytest.raises(AutomatonFormatError):
        growth(grig, -1)
    with pytest.raises(AutomatonFormatError):
        word_length(grig, "a", -1)


# ---- the layer store behind cayley_ball ----

def _fields(ball):
    return list(ball.keys.items()), ball.reps, ball.length, ball.edges, ball.radius


def _reference_fields(A, radius):
    keys, reps, length, edges = _reference_ball(A, radius)
    return list(keys.items()), reps, length, edges, radius


@pytest.mark.parametrize("order", ("descending", "shuffled"))
@pytest.mark.parametrize("name", catalog.names())
def test_radii_in_any_order_match_the_reference(name, order):
    A = _automaton(name, True)
    radii = list(range(6))[::-1]
    if order == "shuffled":
        random.Random(name).shuffle(radii)
    cayley_ball.cache_clear()
    for radius in radii:
        assert _fields(cayley_ball(A, radius)) == _reference_fields(A, radius), (name, radius)


def test_each_element_is_composed_once(grig, monkeypatch):
    calls = []

    def counting(A, key, gens):
        calls.append(key)
        return _times_states(A, key, gens)

    monkeypatch.setattr(words, "_times_states", counting)
    cayley_ball.cache_clear()
    for radius in (3, 1, 5, 2, 4, 0, 5):
        cayley_ball(grig, radius)
    # every element strictly inside the radius-5 ball, each once
    assert len(calls) == len(set(calls)) == cayley_ball(grig, 4).size

    # cache_clear drops the grown layers, so the next ball starts over
    cayley_ball.cache_clear()
    assert _ball_layers.cache_info().currsize == 0
    calls.clear()
    cayley_ball(grig, 2)
    assert len(calls) == cayley_ball(grig, 1).size


def test_budget_failure_leaves_no_partial_layer(grig):
    cayley_ball.cache_clear()
    inner, n = cayley_ball(grig, 2).size, cayley_ball(grig, 3).size
    budget = (inner + n) // 2  # layer 3 stops part-way
    assert inner < budget < n
    cayley_ball.cache_clear()
    with pytest.raises(BudgetExceeded) as exc:
        cayley_ball(grig, 4, budget)
    assert (exc.value.budget, exc.value.what) == (budget, "ball BFS")
    layers = _ball_layers(grig, budget)
    assert layers.bounds[-1] == len(layers.keys) == len(layers.reps) == len(layers.length) == inner
    for radius in range(3):
        assert _fields(cayley_ball(grig, radius, budget)) == _reference_fields(grig, radius)
    for radius in (3, 4):
        with pytest.raises(BudgetExceeded):
            cayley_ball(grig, radius, budget)
    assert cayley_ball(grig, 3, n).size == n


def test_layer_store_is_bounded(grig):
    cayley_ball.cache_clear()
    bound = _ball_layers.cache_info().maxsize
    for budget in range(1000, 1000 + bound + 4):  # one store per (automaton, budget)
        cayley_ball(grig, 2, budget)
    assert _ball_layers.cache_info().currsize == bound == 16
