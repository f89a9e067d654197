"""Cayley balls grown by the wreath recursion, against the word-rescanning
BFS and against the grow loop that composed every element's key."""

import random
import sys

import pytest
from test_fuzz import _random_automaton

from autgrp import catalog, words
from autgrp.automata import MealyAutomaton, inverse_closure
from autgrp.contraction import best_certificate, check_item
from autgrp.errors import AutomatonFormatError, BudgetExceeded
from autgrp.words import (
    DEFAULT_BALL_BUDGET,
    _ball_layers,
    _times_states,
    canonical_key,
    cayley_ball,
    growth,
    word_length,
)

# gamma(d) of the Grigorchuk group for d <= 20, as the key-composing ball
# store computed it
GRIGORCHUK_GAMMA_20 = (
    1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643, 999, 1487, 2259, 3313, 4973, 7213, 10661, 15303, 22431, 31949,
)


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


def _on_section_cycle(layers, v):
    """Whether stored element v is a proper section of itself."""
    seen, todo = set(), list(layers.sec[v])
    while todo:
        u = todo.pop()
        if u == v:
            return True
        if u not in seen:
            seen.add(u)
            todo += layers.sec[u]
    return False


def test_each_element_is_composed_once(grig, monkeypatch):
    layers_resolved, added, composed = [], [], []
    resolve, add = words._BallLayers._resolve, words._BallLayers._add

    def counting_resolve(self, lo, hi):
        layers_resolved.append((lo, hi))
        return resolve(self, lo, hi)

    def counting_add(self, p, elements, secs):
        added.append((p, secs))
        return add(self, p, elements, secs)

    def counting_times(A, key, gens):
        out = _times_states(A, key, gens)
        composed.append((key, tuple(gens), out[0]))
        return out

    monkeypatch.setattr(words._BallLayers, "_resolve", counting_resolve)
    monkeypatch.setattr(words._BallLayers, "_add", counting_add)
    monkeypatch.setattr(words, "_times_states", counting_times)
    cayley_ball.cache_clear()
    for radius in (3, 1, 5, 2, 4, 0, 5):
        cayley_ball(grig, radius)
    ball = cayley_ball(grig, 5)
    bounds = [cayley_ball(grig, r).size for r in range(5)]
    # each layer's products (every element strictly inside the radius-5
    # ball times every generator) are resolved in one pass, once
    assert layers_resolved == list(zip([0] + bounds, bounds))
    # each element other than the identity is added once
    assert len(added) == len(set(added)) == ball.size - 1
    # only products on a section cycle are composed, each once
    layers = _ball_layers(grig, DEFAULT_BALL_BUDGET)
    assert 0 < len(composed) < ball.size
    assert len({(key, gens) for key, gens, _ in composed}) == len(composed)
    for _, _, product in composed:
        assert _on_section_cycle(layers, ball.keys[product])

    # cache_clear drops the grown layers, so the next ball starts over
    cayley_ball.cache_clear()
    assert _ball_layers.cache_info().currsize == 0
    layers_resolved.clear()
    added.clear()
    cayley_ball(grig, 2)
    assert layers_resolved == [(0, 1), (1, bounds[1])]
    assert len(added) == bounds[2] - 1


def _store_state(layers):
    # a permutation keeps its (possibly empty) index entry once met
    return (
        list(layers.perm),
        list(layers.sec),
        list(layers.edges),
        list(layers.bounds),
        {p: dict(elements) for p, (_, elements) in layers.index.items() if elements},
        dict(layers.cycle_keys),
    )


def test_budget_failure_leaves_no_partial_layer(grig):
    cayley_ball.cache_clear()
    inner, n = cayley_ball(grig, 2).size, cayley_ball(grig, 3).size
    budget = (inner + n) // 2  # layer 3 stops part-way
    assert inner < budget < n
    cayley_ball.cache_clear()
    cayley_ball(grig, 2, budget)
    layers = _ball_layers(grig, budget)
    before = _store_state(layers)
    with pytest.raises(BudgetExceeded) as exc:
        cayley_ball(grig, 4, budget)
    assert (exc.value.budget, exc.value.what) == (budget, "ball BFS")
    assert _store_state(layers) == before
    for radius in range(3):
        assert _fields(cayley_ball(grig, radius, budget)) == _reference_fields(grig, radius)
    for radius in (3, 4):
        with pytest.raises(BudgetExceeded):
            cayley_ball(grig, radius, budget)
    assert _store_state(layers) == before
    assert cayley_ball(grig, 3, n).size == n


class _Interrupted(BaseException):
    pass


@pytest.mark.parametrize("name", ("poly1", "basilica"))
def test_layer_that_raises_in_a_cycle_product_leaves_no_trace(name, monkeypatch):
    # the inverse closures' cycle products come up inside layers that are
    # renumbered, and the first one of a layer may add new cycle elements
    # before the second raises
    A = _automaton(name, True)
    cayley_ball.cache_clear()
    want = [_fields(cayley_ball(A, r)) for r in range(6)]
    calls = []
    raised = 0

    def failing(A, key, gens):
        calls.append(key)
        if len(calls) == 2:
            raise _Interrupted
        return _times_states(A, key, gens)

    for radius in range(1, 6):
        cayley_ball.cache_clear()
        cayley_ball(A, radius - 1)
        layers = _ball_layers(A, DEFAULT_BALL_BUDGET)
        before = _store_state(layers)
        calls.clear()
        monkeypatch.setattr(words, "_times_states", failing)
        try:
            cayley_ball(A, radius)
        except _Interrupted:
            raised += 1
            assert _store_state(layers) == before, radius
        finally:
            monkeypatch.setattr(words, "_times_states", _times_states)
        assert _fields(cayley_ball(A, radius)) == want[radius]
    assert raised >= 2


def _chain(n):
    """s1 = (s2, e), s2 = (s3, e), ..., sn = sigma(e, e): the product e*s1 of
    layer 1 waits on e*s2, which waits on e*s3, and so on n deep."""
    nxt = [[0, 0]] + [[i + 1, 0] for i in range(1, n)] + [[0, 0]]
    out = [[0, 1]] * n + [[1, 0]]
    return MealyAutomaton("01", ["e"] + [f"s{i}" for i in range(1, n + 1)], nxt, out, identity="e")


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_resolver_needs_no_python_recursion():
    A = _chain(200)
    want = _reference_layer_fields(A, 1)
    cayley_ball.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 40)
    try:
        ball = cayley_ball(A, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert _all_fields(ball) == want


def test_store_meets_only_its_elements_permutations():
    # a transposition and a 12-cycle act on the root as generators of S_12,
    # whose 12! permutations no ball of small radius comes near
    n = 12
    A = MealyAutomaton(
        [str(x) for x in range(n)],
        ["e", "t", "c"],
        [[0] * n] * 3,
        [list(range(n)), [1, 0] + list(range(2, n)), list(range(1, n)) + [0]],
        identity="e",
    )
    cayley_ball.cache_clear()
    ball = cayley_ball(A, 4)
    layers = _ball_layers(A, DEFAULT_BALL_BUDGET)
    assert set(layers.index) == set(layers.perm)
    assert _all_fields(ball) == _reference_layer_fields(A, 4)


# ---- against the key-composing grow loop ----

class _KeyLayers:
    """The ball store as it was before the wreath recursion: every element is
    kept by canonical key, and each layer's products come from one
    ``_times_states`` product per element."""

    def __init__(self, A):
        self.automaton = A
        self.gens = tuple(s for s in range(len(A.states)) if s != A.identity)
        self.keys = {canonical_key(A, ()): 0}
        self.reps = [()]
        self.length = [0]
        self.edges = []
        self.bounds = [0, 1]

    def grow(self):
        keys, reps, length = self.keys, self.reps, self.length
        lo, hi = self.bounds[-2], self.bounds[-1]
        dist = len(self.bounds) - 1
        for i, h in enumerate(list(keys)[lo:hi], lo):
            row = []
            for g, key in zip(self.gens, _times_states(self.automaton, h, self.gens)):
                j = keys.get(key)
                if j is None:
                    j = keys[key] = len(reps)
                    reps.append(reps[i] + (g,))
                    length.append(dist)
                row.append(j)
            self.edges.append(tuple(row))
        self.bounds.append(len(reps))

    def fields(self, radius):
        inner, n = self.bounds[radius], self.bounds[radius + 1]
        keys = list(self.keys.items())[:n]
        edges = self.edges[:inner] + [None] * (n - inner)
        return keys, self.reps[:n], self.length[:n], edges, radius, self.gens


def _reference_layer_fields(A, radius):
    layers = _KeyLayers(A)
    while len(layers.bounds) < radius + 2:
        layers.grow()
    return layers.fields(radius)


def _all_fields(ball):
    return _fields(ball) + (ball.gens,)


def _check_against_key_layers(A, radius, label):
    layers = _KeyLayers(A)
    cayley_ball.cache_clear()
    for r in range(radius + 1):
        if r:
            layers.grow()
        assert _all_fields(cayley_ball(A, r)) == layers.fields(r), (label, r)


@pytest.mark.parametrize("closed", (False, True), ids=("plain", "inverse-closed"))
@pytest.mark.parametrize("name", catalog.names())
def test_catalog_balls_match_key_layers(name, closed):
    _check_against_key_layers(_automaton(name, closed), 6 if closed else 8, (name, closed))


def test_fuzz_automata_balls_match_key_layers():
    rng = random.Random(0)
    for i in range(60):
        A = _random_automaton(rng)
        _check_against_key_layers(A, 5, (i, "plain"))
        _check_against_key_layers(inverse_closure(A).automaton, 4, (i, "inverse-closed"))


@pytest.mark.slow
def test_grigorchuk_radius_16_matches_key_layers(grig):
    cayley_ball.cache_clear()
    assert _all_fields(cayley_ball(grig, 16)) == _reference_layer_fields(grig, 16)


def test_grigorchuk_growth_to_radius_20(grig):
    cayley_ball.cache_clear()
    assert growth(grig, 20).gamma == GRIGORCHUK_GAMMA_20


def test_growth_and_scans_leave_keys_unbuilt(grig, basilica):
    cayley_ball.cache_clear()
    growth(grig, 8)
    assert cayley_ball.cache_info().currsize == 0  # gamma is read off the store
    B = inverse_closure(basilica).automaton
    assert check_item(basilica, 4, 1, "item1").words_checked > 0
    assert best_certificate(grig, 3, 1) is not None
    for A, radius in ((B, 4), (grig, 1), (grig, 2), (grig, 3)):
        ball = cayley_ball(A, radius, DEFAULT_BALL_BUDGET)  # the one the scan cut
        assert ball._keys is None and ball._reps is None, (A, radius)
    assert cayley_ball.cache_info().hits == 4
    assert list(ball.keys) == [canonical_key(grig, rep) for rep in ball.reps]


def test_layer_store_is_bounded(grig):
    cayley_ball.cache_clear()
    bound = _ball_layers.cache_info().maxsize
    for budget in range(1000, 1000 + bound + 4):  # one store per (automaton, budget)
        cayley_ball(grig, 2, budget)
    assert _ball_layers.cache_info().currsize == bound == 16

